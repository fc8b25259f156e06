/**
 * @file
 * Process-wide interrupt request flag.
 *
 * A signal handler (or an embedding application) requests a graceful
 * stop with requestInterrupt(); the simulator polls
 * interruptRequested() between event batches and raises
 * sys::SimInterruptedError at the next poll, unwinding through the
 * normal error path so the run is recorded `interrupted`; its epoch
 * checkpoints stay as they were. The flag is a lone std::atomic<bool>,
 * so requestInterrupt() is async-signal-safe.
 */

#ifndef RRM_COMMON_INTERRUPT_HH
#define RRM_COMMON_INTERRUPT_HH

namespace rrm
{

/** True once an interrupt has been requested (sticky until cleared). */
bool interruptRequested();

/** Request a graceful stop; safe to call from a signal handler. */
void requestInterrupt();

/** Clear the flag (tests; a fresh runner invocation). */
void clearInterruptRequest();

/**
 * Route SIGINT and SIGTERM to requestInterrupt(). Idempotent; call
 * once from main() before running simulations that a ^C should stop
 * with a complete report instead of killing outright.
 */
void installInterruptHandlers();

} // namespace rrm

#endif // RRM_COMMON_INTERRUPT_HH
