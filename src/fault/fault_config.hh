/**
 * @file
 * Retention-check configuration.
 */

#ifndef RRM_FAULT_FAULT_CONFIG_HH
#define RRM_FAULT_FAULT_CONFIG_HH

#include <string>
#include <vector>

namespace rrm::fault
{

/**
 * The retention check. Both knobs default to off: a
 * default-constructed FaultConfig builds no RetentionTracker, and the
 * simulator emits output exactly as if the check did not exist.
 */
struct FaultConfig
{
    /**
     * Stamp every short-retention block write with a deadline derived
     * from the Table I retention numbers (scaled by the system
     * timeScale) and count a retention violation when no refresh or
     * rewrite arrives in time. The check only observes: a tracked run
     * computes exactly what the untracked run computes.
     */
    bool retentionTracking = false;

    /** RRM_CHECK on any retention violation; needs retentionTracking. */
    bool strict = false;

    /** Append configuration errors; empty vector means valid. */
    void
    collectErrors(std::vector<std::string> &errors) const
    {
        if (strict && !retentionTracking)
            errors.push_back("fault strict mode set without retention "
                             "tracking (strict would be silently "
                             "ignored)");
    }
};

} // namespace rrm::fault

#endif // RRM_FAULT_FAULT_CONFIG_HH
