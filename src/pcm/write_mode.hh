/**
 * @file
 * MLC PCM write modes and their calibrated parameters (paper Table I).
 *
 * An MLC PCM write is one 100 ns RESET followed by N 150 ns SET
 * iterations. More SET iterations program a narrower resistance band,
 * leaving a larger guardband against resistance drift and therefore a
 * longer retention time — at the cost of write latency. The canonical
 * per-mode constants below are the paper's Table I, re-derived from the
 * 20 nm PCM chip demonstration; they are what the simulator times and
 * refreshes with. drift_model.hh re-derives the retention column from
 * an analytic drift law whose constants are fitted to this table.
 */

#ifndef RRM_PCM_WRITE_MODE_HH
#define RRM_PCM_WRITE_MODE_HH

#include <array>
#include <cstdint>
#include <string_view>

#include "common/check.hh"
#include "common/units.hh"

namespace rrm::pcm
{

/** The five write modes evaluated by the paper (3 to 7 SET iterations). */
enum class WriteMode : std::uint8_t
{
    Sets3 = 0,
    Sets4,
    Sets5,
    Sets6,
    Sets7,
};

/** Number of distinct write modes. */
constexpr std::size_t numWriteModes = 5;

/** All modes, shortest-latency first. */
constexpr std::array<WriteMode, numWriteModes> allWriteModes = {
    WriteMode::Sets3, WriteMode::Sets4, WriteMode::Sets5,
    WriteMode::Sets6, WriteMode::Sets7,
};

/** Per-mode electrical / timing / retention parameters. */
struct WriteModeParams
{
    unsigned setIterations;   ///< number of SET pulses
    double setCurrentUa;      ///< per-SET current in microamps
    double normalizedEnergy;  ///< write energy relative to 7-SETs
    double retentionSeconds;  ///< worst-case data retention
    Tick latency;             ///< total write pulse time (tWP)
};

/** RESET pulse length (mode independent). */
constexpr Tick resetPulse = 100_ns;

/** Single SET iteration pulse length. */
constexpr Tick setPulse = 150_ns;

/** RESET current in microamps (mode independent). */
constexpr double resetCurrentUa = 50.0;

/** Number of SET iterations of a mode (3..7). */
constexpr unsigned
setIterations(WriteMode mode)
{
    return 3u + static_cast<unsigned>(mode);
}

/** Mode with the given number of SET iterations. @pre 3 <= n <= 7. */
inline WriteMode
modeForSetIterations(unsigned n)
{
    RRM_CHECK(n >= 3 && n <= 7, "no write mode with ", n, " SET iterations");
    return static_cast<WriteMode>(n - 3);
}

/** Calibrated Table I parameters for a mode. */
const WriteModeParams &writeModeParams(WriteMode mode);

/** Total write pulse latency: RESET + N x SET. */
inline Tick
writeLatency(WriteMode mode)
{
    return writeModeParams(mode).latency;
}

/** Worst-case retention, in un-scaled (paper) seconds. */
inline double
retentionSeconds(WriteMode mode)
{
    return writeModeParams(mode).retentionSeconds;
}

/** Human-readable mode name, e.g. "3-SETs". */
std::string_view writeModeName(WriteMode mode);

} // namespace rrm::pcm

#endif // RRM_PCM_WRITE_MODE_HH
