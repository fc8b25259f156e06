/**
 * @file
 * MLC PCM memory timing and geometry parameters (paper Table V).
 */

#ifndef RRM_MEMCTRL_TIMING_HH
#define RRM_MEMCTRL_TIMING_HH

#include <cstdint>

#include "common/math_util.hh"
#include "common/units.hh"
#include "pcm/write_mode.hh"

namespace rrm::memctrl
{

/**
 * Geometry + timing of the PCM main memory (Table V). The paper's
 * geometry and timing are constants; what stays settable is the
 * channel count, the queue sizing and write pausing, which tests use
 * to build a small controller and the ablation bench to switch
 * pausing off.
 */
struct MemoryParams
{
    static constexpr std::uint64_t memoryBytes = 8_GiB;
    unsigned numChannels = 4;
    static constexpr unsigned banksPerChannel = 16;

    /** Memory bus: 64-bit at 400 MHz -> 2.5 ns per beat. */
    static constexpr Tick busCycle = 2500_ps;
    static constexpr unsigned busWidthBytes = 8;

    /** Row-buffer granularity for open-page read hits. */
    static constexpr std::uint64_t rowBufferBytes = 1_KiB;

    static constexpr Tick tRCD = 120_ns;  ///< activate (array read) latency
    static constexpr Tick tCAS = 2500_ps; ///< column access, 1 mem cycle
    static constexpr Tick tFAW = 50_ns;   ///< four-activate window per channel

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
    static constexpr Tick
    burstTime()
    {
        return cyclesToTicks(blockBytes / busWidthBytes, busCycle);
    }
};

static_assert(isPowerOfTwo(MemoryParams::banksPerChannel) &&
                  isPowerOfTwo(MemoryParams::rowBufferBytes),
              "the address map decodes banks and rows by bit fields");

} // namespace rrm::memctrl

#endif // RRM_MEMCTRL_TIMING_HH
