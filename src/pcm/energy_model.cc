/**
 * @file
 * EnergyModel implementation.
 */

#include "energy_model.hh"

namespace rrm::pcm
{

EnergyModel::EnergyModel()
    : sevenSetBlockEnergy_(cellWriteEnergyCharge(WriteMode::Sets7) *
                           cellsPerBlock())
{}

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
    return writeVoltage * (reset_charge + set_charge);
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
