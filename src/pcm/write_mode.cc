/**
 * @file
 * Canonical Table I constants.
 */

#include "write_mode.hh"

namespace rrm::pcm
{

namespace
{

/**
 * Paper Table I. Latencies satisfy latency == resetPulse +
 * setIterations * setPulse (asserted in tests); retention and
 * normalized energy are the calibrated outputs of the Li et al. model
 * re-evaluated for the 20 nm chip parameters.
 */
constexpr std::array<WriteModeParams, numWriteModes> table1 = {{
    {3, 42.0, 0.840, 2.01, 550_ns},    // Sets3
    {4, 37.0, 0.869, 24.05, 700_ns},   // Sets4
    {5, 35.0, 0.972, 104.4, 850_ns},   // Sets5
    {6, 32.0, 0.975, 991.4, 1000_ns},  // Sets6
    {7, 30.0, 1.000, 3054.9, 1150_ns}, // Sets7
}};

constexpr std::array<std::string_view, numWriteModes> names = {
    "3-SETs", "4-SETs", "5-SETs", "6-SETs", "7-SETs",
};

} // namespace

const WriteModeParams &
writeModeParams(WriteMode mode)
{
    const auto idx = static_cast<std::size_t>(mode);
    RRM_CHECK(idx < numWriteModes, "invalid write mode");
    return table1[idx];
}

std::string_view
writeModeName(WriteMode mode)
{
    const auto idx = static_cast<std::size_t>(mode);
    RRM_CHECK(idx < numWriteModes, "invalid write mode");
    return names[idx];
}

} // namespace rrm::pcm
