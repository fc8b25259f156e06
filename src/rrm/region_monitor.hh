/**
 * @file
 * The Region Retention Monitor (the paper's contribution, Section IV).
 *
 * The RRM sits between the LLC and the memory controller. It is a
 * set-associative structure whose entries each track one aligned
 * Retention Region:
 *
 *   | valid | addr tag | hot | dirty_write_counter |
 *   | short_retention_vector (1 bit / 64 B block)  | decay_counter |
 *
 * Operations (Figure 6):
 *  - **LLC Write Registration**: on every LLC write, the LLC reports
 *    the address and whether the written LLC entry was already dirty.
 *    Writes to clean entries are ignored (streaming filter). The
 *    region's entry is looked up / allocated (LRU victim), its
 *    dirty_write_counter incremented while below hot_threshold; at
 *    hot_threshold the entry turns *hot*; while hot, the written
 *    block's short_retention_vector bit is set.
 *  - **Memory Write Mode Decision**: a memory write goes out as a
 *    fast (3-SETs) write iff its entry hits and the block's vector
 *    bit is set; otherwise as the slow default (7-SETs).
 *  - **Selective Fast Refresh**: every shortRetentionInterval, every
 *    vector bit of every hot entry produces a fast refresh request.
 *  - **Decay**: every 1/16 interval, each entry's 4-bit decay_counter
 *    increments; on wrap, a still-saturated entry stays hot with its
 *    counter halved, anything else is demoted: slow refreshes are
 *    issued for its vector bits and the vector clears.
 *
 * Paper-ambiguity resolution (DESIGN.md section 6): evicting an entry
 * with live vector bits also issues slow refreshes — otherwise the
 * fast-written blocks would silently lose their refresh obligation.
 */

#ifndef RRM_RRM_REGION_MONITOR_HH
#define RRM_RRM_REGION_MONITOR_HH

#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/auditable.hh"
#include "common/bitvector.hh"
#include "obs/trace.hh"
#include "rrm/rrm_config.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace rrm::monitor
{

/** A refresh request emitted by the RRM. */
struct RefreshRequest
{
    Addr blockAddr;
    pcm::WriteMode mode;
    bool fromDecay; ///< true for demotion/eviction slow refreshes
};

/** The Region Retention Monitor. */
class RegionMonitor : public Auditable
{
  public:
    using RefreshCallback = std::function<void(const RefreshRequest &)>;

    /**
     * @param config Validated configuration.
     * @param queue  Event queue for the periodic interrupts.
     */
    RegionMonitor(const RrmConfig &config, EventQueue &queue);

    ~RegionMonitor();

    RegionMonitor(const RegionMonitor &) = delete;
    RegionMonitor &operator=(const RegionMonitor &) = delete;

    const RrmConfig &config() const { return config_; }

    /** Sink for selective-refresh / demotion refresh requests. */
    void setRefreshCallback(RefreshCallback cb)
    {
        refreshCallback_ = std::move(cb);
    }

    /**
     * Attach a trace sink for entry-lifecycle (register / allocate /
     * promote / demote / evict) and refresh-emission events. Null
     * detaches; the monitor never owns the sink.
     */
    void setTraceSink(obs::TraceSink *sink) { traceSink_ = sink; }

    /**
     * Arm the periodic short-retention and decay interrupts. The
     * first short-retention interrupt fires one full interval from
     * now; decay ticks start after one decay interval.
     */
    void start();

    /** Cancel the periodic interrupts. */
    void stop();

    /** LLC Write Registration (paper Section IV-D). */
    void registerLlcWrite(Addr addr, bool was_dirty);

    /** Memory Write Mode Decision (paper Section IV-E). */
    pcm::WriteMode writeModeFor(Addr block_addr) const;

    /** The current promotion threshold (runtime-adjustable). */
    unsigned hotThreshold() const { return config_.hotThreshold; }

    /**
     * Re-point the promotion threshold at runtime (the adaptive
     * write policy's actuator). Entry state is reconciled so every
     * audited invariant holds under the new threshold:
     *  - dirty_write_counters are clamped to the new threshold;
     *  - raising the bar demotes hot entries whose counter no longer
     *    reaches half the threshold (their fast-written blocks get a
     *    final slow rewrite, like any demotion);
     *  - lowering it promotes entries whose counter already meets it.
     * Never called by the legacy RRM scheme, whose behaviour is
     * byte-frozen by the policy golden tests.
     */
    void setHotThreshold(unsigned threshold);

    /**
     * Hook invoked after every decay tick (the adaptive policy's
     * feedback cadence). Null clears.
     */
    void setDecayEpochHook(std::function<void()> hook)
    {
        decayEpochHook_ = std::move(hook);
    }

    /** @{ Registration flow counters (post-filter lookups and hits);
     * plain counters so policies can read deltas without stats. */
    std::uint64_t registrationLookups() const
    {
        return registrationLookups_;
    }
    std::uint64_t registrationHits() const { return registrationHits_; }
    /** Lookups that landed in an already-hot entry (region reuse). */
    std::uint64_t registrationHotHits() const
    {
        return registrationHotHits_;
    }
    /** @} */

    /** Lookup latency to charge on the write path. */
    Tick accessLatency() const { return config_.accessLatency; }

    /** @{ Introspection (tests / analysis). */
    bool isTracked(Addr addr) const;
    bool isHot(Addr addr) const;
    std::optional<unsigned> dirtyWriteCounter(Addr addr) const;
    bool shortRetentionBit(Addr block_addr) const;
    std::uint64_t hotEntryCount() const;
    std::uint64_t validEntryCount() const;
    std::uint64_t shortRetentionBlockCount() const;
    /** @} */

    /** Force one selective-refresh round (tests). */
    void runSelectiveRefresh() { onShortRetentionInterrupt(); }

    /** Force one decay tick (tests). */
    void runDecayTick() { onDecayTick(); }

    void regStats(stats::StatGroup &group);

    /**
     * @{ Checkpoint the entry table, LRU clock, registration
     * counters, the runtime hot threshold, and — when the periodic
     * interrupts are armed — their next-fire ticks. restoreCkpt
     * re-arms the interrupts at the saved ticks (refresh first, then
     * decay, matching start()'s arm order); the monitor must not have
     * been start()ed before restoring.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    // ---- Auditable ----
    std::string_view auditName() const override { return "rrm"; }

    /**
     * Invariants (paper Section IV state machine):
     *  - dirty_write_counter never exceeds hot_threshold;
     *  - a hot entry's counter is at least hot_threshold/2 (set to
     *    the threshold at promotion, halved at most once per decay
     *    wrap while still hot);
     *  - only hot entries carry short_retention_vector bits;
     *  - shortRetentionBlockCount() equals the recomputed popcount
     *    over all vectors;
     *  - each entry lives in the set its region id indexes, region
     *    ids are unique within a set, and LRU stamps of valid
     *    entries are unique and bounded by the LRU clock;
     *  - decay_counter stays below decayTicksPerInterval.
     */
    void audit() const override;

  private:
    friend struct RegionMonitorTestAccess;

    /** One entry; its short_retention_vector lives in vectorWords_. */
    struct Entry
    {
        Addr regionId = 0;
        std::uint64_t lruStamp = 0;
        unsigned dirtyWriteCounter = 0;
        unsigned decayCounter = 0;
        bool valid = false;
        bool hot = false;
    };
    static_assert(std::is_trivially_copyable_v<Entry>);

    /** @{ The short_retention_vector of `entry` (an entries_ element). */
    BitVector vectorOf(const Entry &entry);
    ConstBitVector vectorOf(const Entry &entry) const;
    /** @} */

    std::uint64_t regionIdOf(Addr addr) const;
    std::uint64_t setOf(std::uint64_t region_id) const;
    Entry *find(std::uint64_t region_id);
    const Entry *find(std::uint64_t region_id) const;

    /** Allocate an entry for region_id, evicting LRU if needed. */
    Entry &allocate(std::uint64_t region_id);

    /** Demote: slow-refresh vector bits, clear vector, hot = 0. */
    void demote(Entry &entry, bool from_eviction);

    void emitRefresh(Addr block_addr, pcm::WriteMode mode,
                     bool from_decay);

    void onShortRetentionInterrupt();
    void onDecayTick();

    RrmConfig config_;
    EventQueue &queue_;
    std::vector<Entry> entries_; ///< numSets * assoc, set-major
    std::size_t wordsPerVector_; ///< words of one entry's vector
    /** Every entry's short_retention_vector, in entries_ order. */
    std::vector<std::uint64_t> vectorWords_;
    std::uint64_t lruClock_ = 0;

    RefreshCallback refreshCallback_;
    std::function<void()> decayEpochHook_;
    std::uint64_t registrationLookups_ = 0;
    std::uint64_t registrationHits_ = 0;
    std::uint64_t registrationHotHits_ = 0;
    obs::TraceSink *traceSink_ = nullptr;
    std::unique_ptr<PeriodicTask> refreshTask_;
    std::unique_ptr<PeriodicTask> decayTask_;

    stats::Scalar *statRegistrations_ = nullptr;
    stats::Scalar *statCleanFiltered_ = nullptr;
    stats::Scalar *statRegHits_ = nullptr;
    stats::Scalar *statAllocations_ = nullptr;
    stats::Scalar *statEvictions_ = nullptr;
    stats::Scalar *statEvictionFlushes_ = nullptr;
    stats::Scalar *statPromotions_ = nullptr;
    stats::Scalar *statDemotions_ = nullptr;
    stats::Scalar *statFastDecisions_ = nullptr;
    stats::Scalar *statSlowDecisions_ = nullptr;
    stats::Scalar *statFastRefreshes_ = nullptr;
    stats::Scalar *statSlowRefreshes_ = nullptr;
    stats::Scalar *statRefreshRounds_ = nullptr;
};

/**
 * Test-only backdoor used by the corruption-seeding audit tests to
 * damage RegionMonitor entry state and prove the audit catches it.
 * All mutators address the entry tracking `addr`'s region and fail
 * an RRM_CHECK if none exists. Never use outside tests.
 */
struct RegionMonitorTestAccess
{
    static void corruptDirtyWriteCounter(RegionMonitor &rrm, Addr addr,
                                         unsigned value);
    static void corruptHotFlag(RegionMonitor &rrm, Addr addr, bool hot);
    static void corruptDecayCounter(RegionMonitor &rrm, Addr addr,
                                    unsigned value);
    static void corruptVectorBit(RegionMonitor &rrm, Addr block_addr);
    static void corruptLruStamp(RegionMonitor &rrm, Addr addr,
                                std::uint64_t stamp);
    static void corruptRegionId(RegionMonitor &rrm, Addr addr,
                                std::uint64_t region_id);

  private:
    static RegionMonitor::Entry &entryFor(RegionMonitor &rrm, Addr addr);
};

} // namespace rrm::monitor

#endif // RRM_RRM_REGION_MONITOR_HH
