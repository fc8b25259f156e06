/**
 * @file
 * Start-Gap wear leveling (Qureshi et al., MICRO 2009).
 *
 * The paper assumes "an effective wear leveling scheme (such as
 * Start-Gap) ... which makes the whole memory achieve 95% of the
 * average cell lifetime"; the lifetime model uses that 95% figure
 * analytically. This module provides the actual mechanism for users
 * who want to simulate it: an algebraic line-level remap with one
 * spare line per rotation domain.
 *
 * State per domain: `start` and `gap` pointers over N+1 physical
 * slots holding N logical lines. Every `gapWritePeriod` writes, the
 * line just above the gap moves into the gap and the gap shifts down
 * by one; when the gap has swept all slots, `start` advances, so over
 * time every logical line visits every physical slot:
 *
 *   physical(L) = (start + L) mod (N + 1), skipping the gap slot:
 *   if physical(L) >= gap then physical(L) + 1.
 *
 * The mapping is computed in O(1) from (start, gap) — no table.
 */

#ifndef RRM_MEMCTRL_START_GAP_HH
#define RRM_MEMCTRL_START_GAP_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/auditable.hh"
#include "common/check.hh"
#include "common/math_util.hh"
#include "common/units.hh"
#include "obs/trace.hh"

namespace rrm::ckpt
{
class ChunkWriter;
class ChunkReader;
} // namespace rrm::ckpt

namespace rrm::memctrl
{

/** Start-Gap configuration. */
struct StartGapParams
{
    /** Remapping granularity (one "line"). */
    std::uint64_t lineBytes = 256;

    /** Lines per rotation domain (a region sharing one gap). */
    std::uint64_t linesPerDomain = 16384; // 4 MB domains

    /**
     * Demand writes per domain between gap movements (the paper's
     * Start-Gap uses 100: <1% write overhead).
     */
    std::uint64_t gapWritePeriod = 100;
};

/** One Start-Gap rotation domain over N logical lines. */
class StartGapDomain
{
  public:
    explicit StartGapDomain(std::uint64_t num_lines,
                            std::uint64_t gap_write_period);

    /** Physical slot of logical line `line` (0..numLines, gap skipped). */
    std::uint64_t physicalSlot(std::uint64_t line) const;

    /**
     * Account one write to the domain; returns true when the write
     * triggered a gap movement (one extra line copy = one extra
     * write of wear, charged by the caller).
     */
    bool onWrite();

    std::uint64_t numLines() const { return numLines_; }
    std::uint64_t start() const { return start_; }
    std::uint64_t gap() const { return gap_; }

    /** Gap movements performed so far. */
    std::uint64_t gapMoves() const { return gapMoves_; }

    /** @{ Checkpoint the rotation pointers and write bookkeeping. */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    /**
     * Deep-check the domain: pointer ranges, rotation bookkeeping,
     * and the full logical→physical bijection (every logical line
     * lands on a distinct slot and the only unoccupied slot is the
     * gap). O(numLines).
     */
    void audit() const;

  private:
    friend struct StartGapTestAccess;

    std::uint64_t numLines_;
    std::uint64_t gapWritePeriod_;
    std::uint64_t start_ = 0;
    std::uint64_t gap_;
    std::uint64_t writesSinceMove_ = 0;
    std::uint64_t gapMoves_ = 0;
};

/**
 * Whole-memory Start-Gap remapper: the address space is split into
 * independent rotation domains; each domain owns one spare line. The
 * remap changes which physical line backs a logical line but never
 * crosses domain boundaries, so channel/bank interleave distributions
 * are preserved statistically.
 *
 * Note: the remapped space needs one spare line per domain; this model
 * follows the common simulator simplification of keeping the address
 * space size unchanged and folding the spare into the domain (the
 * last logical line of each domain aliases the spare slot), which
 * preserves wear-spreading behaviour exactly.
 */
class StartGapRemapper : public Auditable
{
  public:
    StartGapRemapper(std::uint64_t memory_bytes,
                     const StartGapParams &params = StartGapParams());

    /** Remap a physical address; same granularity in == out. */
    Addr remap(Addr addr) const;

    /**
     * Account a demand write to `addr`'s domain.
     * @return true if the domain rotated (one extra internal write).
     */
    bool onWrite(Addr addr);

    /**
     * Attach a trace sink for gap-movement events. The remapper has
     * no clock of its own, so the caller supplies a tick source
     * (empty `now` stamps events with tick 0). Null detaches.
     */
    void
    // rrm-lint: allow(perf-hot-std-function) tick source bound once
    // per run; consulted only on rare gap movements
    setTraceSink(obs::TraceSink *sink, std::function<Tick()> now = {})
    {
        traceSink_ = sink;
        traceNow_ = std::move(now);
    }

    std::uint64_t numDomains() const
    {
        return static_cast<std::uint64_t>(domains_.size());
    }

    /** Total gap movements across all domains. */
    std::uint64_t totalGapMoves() const;

    const StartGapParams &params() const { return params_; }

    const StartGapDomain &domain(std::uint64_t i) const
    {
        return domains_.at(i);
    }

    /** @{ Checkpoint every rotation domain, in domain-index order. */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    // ---- Auditable ----
    std::string_view auditName() const override { return "startGap"; }

    /**
     * Invariants: geometry covers the memory exactly, and every
     * domain's remap is a bijection (see StartGapDomain::audit).
     */
    void audit() const override;

  private:
    std::uint64_t domainOf(Addr addr) const;

    StartGapParams params_;
    std::uint64_t memoryBytes_;
    std::vector<StartGapDomain> domains_;
    obs::TraceSink *traceSink_ = nullptr;
    // rrm-lint: allow(perf-hot-std-function) tick source bound once
    // per run; consulted only on rare gap movements
    std::function<Tick()> traceNow_;
};

/**
 * Test-only backdoor used by the corruption-seeding audit tests to
 * damage StartGapDomain state and prove the audit catches it. Never
 * use outside tests.
 */
struct StartGapTestAccess
{
    static void
    setStart(StartGapDomain &d, std::uint64_t start)
    {
        d.start_ = start;
    }

    static void
    setGap(StartGapDomain &d, std::uint64_t gap)
    {
        d.gap_ = gap;
    }

    static void
    setWritesSinceMove(StartGapDomain &d, std::uint64_t w)
    {
        d.writesSinceMove_ = w;
    }
};

} // namespace rrm::memctrl

#endif // RRM_MEMCTRL_START_GAP_HH
