/**
 * @file
 * PCM array energy model.
 *
 * Two views of write energy are provided:
 *
 *  - a first-principles charge model, E = V * sum(I_pulse * t_pulse)
 *    over the RESET pulse and the mode's SET iterations, per cell; and
 *  - the paper's calibrated *normalized* energy column of Table I
 *    (relative to a 7-SETs write), which the evaluation (Figure 10)
 *    uses as ground truth.
 *
 * The two disagree by up to ~20% for the short modes because Table I's
 * normalization bakes in per-iteration current shaping that the paper
 * does not fully specify; both are exposed, Table I wins for
 * reproduction, and the discrepancy is documented here and in
 * EXPERIMENTS.md.
 */

#ifndef RRM_PCM_ENERGY_MODEL_HH
#define RRM_PCM_ENERGY_MODEL_HH

#include "pcm/write_mode.hh"

namespace rrm::pcm
{

/** Write supply voltage (20 nm chip demonstration: 1.8 V). */
constexpr double writeVoltage = 1.8;

/** MLC bits per cell. */
constexpr unsigned bitsPerCell = 2;

/** Energy of reading one block, in joules (mode independent). */
constexpr double readEnergyPerBlock = 5.0e-9;

/** Per-write / per-read energy calculations. */
class EnergyModel
{
  public:
    EnergyModel();

    /** Cells per memory block (block bits / bits per cell). */
    static constexpr unsigned
    cellsPerBlock()
    {
        return static_cast<unsigned>(blockBytes * 8 / bitsPerCell);
    }

    /** Charge-model energy of one cell write, in joules. */
    double cellWriteEnergyCharge(WriteMode mode) const;

    /**
     * Energy of writing one 64 B block, in joules, scaled so that a
     * 7-SETs block write matches the charge model and other modes
     * follow Table I's normalized-energy column.
     */
    double blockWriteEnergy(WriteMode mode) const;

    /** Table I normalized energy (7-SETs == 1.0). */
    double normalizedWriteEnergy(WriteMode mode) const;

    /** Energy of reading one block, in joules. */
    double blockReadEnergy() const { return readEnergyPerBlock; }

    /**
     * Energy of refreshing one block with the given write mode: a
     * block read (to recover the data before drift corrupts it)
     * followed by a block write.
     */
    double blockRefreshEnergy(WriteMode mode) const;

  private:
    double sevenSetBlockEnergy_;
};

} // namespace rrm::pcm

#endif // RRM_PCM_ENERGY_MODEL_HH
