/**
 * @file
 * EnergyModel implementation.
 */

#include "energy_model.hh"

namespace rrm::pcm
{

EnergyModel::EnergyModel(const EnergyParams &params)
    : params_(params)
{
    RRM_CHECK(params_.writeVoltage > 0.0, "voltage must be positive");
    RRM_CHECK(params_.bitsPerCell >= 1, "need at least one bit per cell");
    sevenSetBlockEnergy_ =
        cellWriteEnergyCharge(WriteMode::Sets7) * cellsPerBlock();
}

unsigned
EnergyModel::cellsPerBlock() const
{
    return static_cast<unsigned>(blockBytes * 8 / params_.bitsPerCell);
}

double
EnergyModel::cellWriteEnergyCharge(WriteMode mode) const
{
    const WriteModeParams &p = writeModeParams(mode);
    // Charge (A*s): RESET pulse + N SET pulses at the mode's current.
    const double reset_charge =
        resetCurrentUa * 1e-6 * ticksToSeconds(resetPulse);
    const double set_charge = p.setCurrentUa * 1e-6 *
                              ticksToSeconds(setPulse) *
                              static_cast<double>(p.setIterations);
    return params_.writeVoltage * (reset_charge + set_charge);
}

double
EnergyModel::blockWriteEnergy(WriteMode mode) const
{
    return sevenSetBlockEnergy_ * normalizedWriteEnergy(mode);
}

double
EnergyModel::normalizedWriteEnergy(WriteMode mode) const
{
    return writeModeParams(mode).normalizedEnergy;
}

double
EnergyModel::blockRefreshEnergy(WriteMode mode) const
{
    return blockReadEnergy() + blockWriteEnergy(mode);
}

} // namespace rrm::pcm
