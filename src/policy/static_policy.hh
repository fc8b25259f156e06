/**
 * @file
 * The Static-N-SETs write policy: one global write mode, no
 * monitoring structure, no lookup latency, no refreshes beyond the
 * global self-refresh modelled analytically by the lifetime model.
 * This is the paper's baseline family (Table VI, Static-7 ... -3).
 */

#ifndef RRM_POLICY_STATIC_POLICY_HH
#define RRM_POLICY_STATIC_POLICY_HH

#include "policy/write_policy.hh"

namespace rrm::policy
{

/** Every write goes out in one fixed mode. */
class StaticPolicy final : public WritePolicy
{
  public:
    explicit StaticPolicy(pcm::WriteMode mode) : mode_(mode) {}

    pcm::WriteMode
    writeModeFor(Addr block_addr) const override
    {
        (void)block_addr;
        return mode_;
    }

  private:
    pcm::WriteMode mode_;
};

} // namespace rrm::policy

#endif // RRM_POLICY_STATIC_POLICY_HH
