/**
 * @file
 * MLC PCM memory timing and geometry parameters (paper Table V).
 */

#ifndef RRM_MEMCTRL_TIMING_HH
#define RRM_MEMCTRL_TIMING_HH

#include <cstdint>

#include "common/units.hh"
#include "pcm/write_mode.hh"

namespace rrm::memctrl
{

/** Geometry + timing of the PCM main memory (Table V defaults). */
struct MemoryParams
{
    std::uint64_t memoryBytes = 8_GiB;
    unsigned numChannels = 4;
    unsigned banksPerChannel = 16;

    /** Memory bus: 64-bit at 400 MHz -> 2.5 ns per beat. */
    Tick busCycle = 2500_ps;
    unsigned busWidthBytes = 8;

    /** Row-buffer granularity for open-page read hits. */
    std::uint64_t rowBufferBytes = 1_KiB;

    Tick tRCD = 120_ns; ///< activate (array read) latency
    Tick tCAS = 2500_ps; ///< column access, 1 mem cycle
    Tick tFAW = 50_ns;  ///< four-activate window per channel

    /** Queue capacities per channel (Table V). */
    unsigned readQueueCap = 32;
    unsigned writeQueueCap = 64;
    unsigned refreshQueueCap = 64;

    /**
     * Write-drain watermarks: when the write queue reaches
     * `writeHighWatermark` the channel prioritizes writes over reads
     * until it falls to `writeLowWatermark` (standard write-drain
     * scheduling; writes otherwise only issue when no read is ready).
     */
    unsigned writeHighWatermark = 48;
    unsigned writeLowWatermark = 16;

    /** Allow pausing in-flight writes at SET boundaries for reads. */
    bool writePausing = true;

    /** Data transfer time of one block on the channel bus. */
    Tick
    burstTime() const
    {
        const Cycles busBeats = blockBytes / busWidthBytes;
        return cyclesToTicks(busBeats, busCycle);
    }
};

} // namespace rrm::memctrl

#endif // RRM_MEMCTRL_TIMING_HH
