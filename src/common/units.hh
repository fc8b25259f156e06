/**
 * @file
 * Fundamental time / address / size units used throughout the simulator.
 *
 * The simulation clock is a 64-bit picosecond counter (`Tick`). At 1 ps
 * resolution a uint64_t covers ~213 days of simulated time, far beyond
 * any run this simulator performs. Helper literals convert the
 * human-scale units used by the paper (ns write pulses, second-scale
 * retention times) into ticks without floating-point drift.
 */

#ifndef RRM_COMMON_UNITS_HH
#define RRM_COMMON_UNITS_HH

#include <cstdint>

namespace rrm
{

/** Simulation time in picoseconds. */
using Tick = std::uint64_t;

/** Physical memory address (byte granularity). */
using Addr = std::uint64_t;

/** Cycle count within some clock domain. */
using Cycles = std::uint64_t;

/** A tick value that compares greater than any real event time. */
constexpr Tick maxTick = ~Tick(0);

/** @{ Tick conversion constants. */
constexpr Tick tickPerPs = 1;
constexpr Tick tickPerNs = 1000 * tickPerPs;
constexpr Tick tickPerUs = 1000 * tickPerNs;
constexpr Tick tickPerMs = 1000 * tickPerUs;
constexpr Tick tickPerSec = 1000 * tickPerMs;
/** @} */

/**
 * Convert a cycle count in some clock domain into ticks, given that
 * domain's period. The named helper is the sanctioned way to cross the
 * Cycles -> Tick boundary (rrm-lint units-raw-mix flags raw mixing).
 */
constexpr Tick
cyclesToTicks(Cycles cycles, Tick period)
{
    // rrm-lint: allow(units-raw-mix) this is the conversion helper
    return static_cast<Tick>(cycles) * period;
}

/** Whole cycles of `period` elapsed after `ticks` (truncating). */
constexpr Cycles
ticksToCycles(Tick ticks, Tick period)
{
    return static_cast<Cycles>(ticks / period);
}

/** Convert a floating point number of seconds into ticks (rounded). */
constexpr Tick
secondsToTicks(double seconds)
{
    return static_cast<Tick>(
        seconds * static_cast<double>(tickPerSec) + 0.5);
}

/** Convert ticks into floating point seconds. */
constexpr double
ticksToSeconds(Tick ticks)
{
    return static_cast<double>(ticks) / static_cast<double>(tickPerSec);
}

/** @{ Size literals (bytes). */
constexpr std::uint64_t kB = 1024;
constexpr std::uint64_t MB = 1024 * kB;
constexpr std::uint64_t GB = 1024 * MB;
/** @} */

/**
 * Memory block size: the unit of one PCM block write, one RRM
 * short_retention_vector bit and every cache level's line.
 */
constexpr std::uint64_t blockBytes = 64;

inline namespace literals
{

constexpr Tick operator""_ps(unsigned long long v) { return v * tickPerPs; }
constexpr Tick operator""_ns(unsigned long long v) { return v * tickPerNs; }
constexpr Tick operator""_us(unsigned long long v) { return v * tickPerUs; }
constexpr Tick operator""_ms(unsigned long long v) { return v * tickPerMs; }
constexpr Tick operator""_s(unsigned long long v) { return v * tickPerSec; }

constexpr std::uint64_t operator""_KiB(unsigned long long v) { return v * kB; }
constexpr std::uint64_t operator""_MiB(unsigned long long v) { return v * MB; }
constexpr std::uint64_t operator""_GiB(unsigned long long v) { return v * GB; }

} // namespace literals

} // namespace rrm

#endif // RRM_COMMON_UNITS_HH
