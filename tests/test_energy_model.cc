/**
 * @file
 * Tests for the PCM energy model.
 */

#include <gtest/gtest.h>

#include "pcm/energy_model.hh"

namespace rrm::pcm
{
namespace
{

TEST(EnergyModel, CellsPerBlock)
{
    EnergyModel m;
    // 64 B * 8 bits / 2 bits per MLC cell.
    EXPECT_EQ(m.cellsPerBlock(), 256u);
}

TEST(EnergyModel, ChargeModelKnownValue)
{
    EnergyModel m;
    // 7-SETs cell write: 1.8 V * (50 uA * 100 ns + 7 * 30 uA * 150 ns)
    //                  = 1.8 * (5e-12 + 31.5e-12) C = 65.7e-12 J.
    EXPECT_NEAR(m.cellWriteEnergyCharge(WriteMode::Sets7), 65.7e-12,
                1e-15);
    // 3-SETs: 1.8 * (5e-12 + 3 * 42 uA * 150 ns) = 1.8 * 23.9e-12.
    EXPECT_NEAR(m.cellWriteEnergyCharge(WriteMode::Sets3),
                1.8 * 23.9e-12, 1e-15);
}

TEST(EnergyModel, BlockWriteFollowsTable1Normalization)
{
    EnergyModel m;
    const double seven = m.blockWriteEnergy(WriteMode::Sets7);
    for (WriteMode mode : allWriteModes) {
        EXPECT_NEAR(m.blockWriteEnergy(mode) / seven,
                    m.normalizedWriteEnergy(mode), 1e-12)
            << writeModeName(mode);
    }
}

TEST(EnergyModel, SevenSetBlockEnergyMatchesChargeModel)
{
    EnergyModel m;
    EXPECT_NEAR(m.blockWriteEnergy(WriteMode::Sets7),
                m.cellWriteEnergyCharge(WriteMode::Sets7) *
                    m.cellsPerBlock(),
                1e-15);
}

TEST(EnergyModel, FastWritesCheaperThanSlow)
{
    EnergyModel m;
    EXPECT_LT(m.blockWriteEnergy(WriteMode::Sets3),
              m.blockWriteEnergy(WriteMode::Sets7));
}

TEST(EnergyModel, RefreshAddsReadEnergy)
{
    EnergyModel m;
    for (WriteMode mode : allWriteModes) {
        EXPECT_NEAR(m.blockRefreshEnergy(mode),
                    m.blockReadEnergy() + m.blockWriteEnergy(mode),
                    1e-15);
    }
}

} // namespace
} // namespace rrm::pcm
