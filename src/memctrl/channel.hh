/**
 * @file
 * One PCM channel: banks, request queues, and the scheduler.
 *
 * Scheduling policy (paper Table V):
 *  - the RRM Refresh Queue has the highest priority (its requests have
 *    a hard retention deadline), then reads, then writes;
 *  - reads use FR-FCFS over the open 1 KB row-buffer segments;
 *  - writes are write-through (bypassing the row buffer) and issue
 *    only when the write queue is in drain mode (above the high
 *    watermark, until the low watermark) or no read is serviceable;
 *  - an in-flight write can be *paused* at the end of its current
 *    RESET/SET pulse to service reads to the same bank (Qureshi
 *    HPCA'10 write pausing), then resumes.
 */

#ifndef RRM_MEMCTRL_CHANNEL_HH
#define RRM_MEMCTRL_CHANNEL_HH

#include <array>
#include <deque>
#include <functional>
#include <vector>

#include "common/auditable.hh"
#include "memctrl/address_map.hh"
#include "memctrl/request.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace rrm::memctrl
{

/** Per-completion hook: (request, completion tick). */
// rrm-lint: allow(perf-hot-std-function) observer seam bound once at
// construction, not captured per scheduled event
using CompletionHook = std::function<void(const Request &, Tick)>;

/** Notification that a write left the write queue (backpressure). */
// rrm-lint: allow(perf-hot-std-function) observer seam bound once at
// construction, not captured per scheduled event
using WriteIssuedHook = std::function<void()>;

/** One memory channel with its banks and queues. */
class Channel : public Auditable
{
  public:
    Channel(unsigned index, const MemoryParams &params,
            EventQueue &queue);

    /** @{ Enqueue; returns false if the respective queue is full. */
    bool enqueueRead(Request req);
    bool enqueueWrite(Request req);
    bool enqueueRefresh(Request req);
    /** @} */

    /** @{ Queue occupancies. */
    std::size_t readQueueSize() const { return readQ_.size(); }
    std::size_t writeQueueSize() const { return writeQ_.size(); }
    std::size_t refreshQueueSize() const { return refreshQ_.size(); }
    /** @} */

    bool writeQueueFull() const
    {
        return writeQ_.size() >= params_.writeQueueCap;
    }

    /**
     * Fault injection: suspend refresh issue until `until` (demand
     * reads/writes are unaffected). Extends but never shortens an
     * active hold; refreshes still enqueue while held.
     */
    void holdRefreshes(Tick until);

    Tick refreshHoldUntil() const { return refreshHoldUntil_; }

    /** Completion hook for all requests on this channel. */
    void setCompletionHook(CompletionHook hook)
    {
        completionHook_ = std::move(hook);
    }

    /** Hook invoked whenever a write leaves the write queue. */
    void setWriteIssuedHook(WriteIssuedHook hook)
    {
        writeIssuedHook_ = std::move(hook);
    }

    /**
     * Attach a trace sink for queue-occupancy events (one per accepted
     * request). Null detaches; the channel never owns the sink.
     */
    void setTraceSink(obs::TraceSink *sink) { traceSink_ = sink; }

    /** Register statistics under the given group. */
    void regStats(stats::StatGroup &group);

    /** True if all queues are empty and all banks idle (tests). */
    bool idle() const;

    /**
     * True when the channel holds no event-queue obligations: queues
     * empty, no read in flight, no bank mid-write, no scheduler retry
     * armed. Unlike idle(), future bank busyUntil ticks are allowed —
     * they are passive timing state, not pending events. This is the
     * checkpoint-drain predicate; saveCkpt() asserts it.
     */
    bool quiescent() const;

    /** Requests accepted into the given queue over the lifetime. */
    std::uint64_t enqueuedCount(ReqKind kind) const
    {
        return enqueued_[static_cast<std::size_t>(kind)];
    }

    /** Requests fully retired (completion delivered). */
    std::uint64_t retiredCount(ReqKind kind) const
    {
        return retired_[static_cast<std::size_t>(kind)];
    }

    /**
     * @{ Checkpoint the channel at a quiescent point: all queues must
     * be empty, no bank mid-write, no read in flight, and no retry
     * pending (asserted). What remains is bank timing state, the
     * conservation counters, the tFAW activate ring, and the
     * scheduler's hysteresis/memo state.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    // ---- Auditable ----
    std::string_view auditName() const override { return name_; }

    /**
     * Invariants: request conservation (every accepted request is
     * retired, queued, or in flight at a bank — nothing lost or
     * duplicated), queue occupancies within their caps, queued
     * requests enqueued no later than now, coherent per-bank write
     * state, and a pending retry no earlier than now.
     */
    void audit() const override;

  private:
    struct Bank
    {
        Tick busyUntil = 0;
        std::uint64_t openRow = ~std::uint64_t(0);
        bool hasOpenRow = false;

        /** In-flight pausable write, if any. */
        bool writing = false;
        Tick writePulseStart = 0; ///< start of the pulse train
        pcm::WriteMode writeMode = pcm::WriteMode::Sets7;
        Request inflightWrite;
    };

    /** Earliest tick >= `t` at which `bank` can accept a read. */
    Tick bankReadyForRead(const Bank &bank, Tick t) const;

    /** Earliest tick >= `t` at which `bank` can accept a write. */
    Tick bankReadyForWrite(const Bank &bank, Tick t) const;

    /** Earliest tick >= `t` satisfying the tFAW activate window. */
    Tick fawReady(Tick t) const;

    void recordActivate(Tick t);

    /** Try to issue as much as possible; arrange a retry if blocked. */
    void trySchedule();

    /**
     * Attempt to issue the given request now.
     * @param earliest[out] Updated with the request's earliest issue
     *        time when it cannot issue now.
     * @return true if issued.
     */
    bool tryIssueRead(const Request &req, Tick &earliest);
    bool tryIssueWrite(const Request &req, Tick &earliest,
                       bool is_refresh);

    void scheduleRetry(Tick when);
    void complete(const Request &req, Tick when);
    void scheduleWriteCheck(unsigned bank_idx, Tick when);
    void writeCheck(unsigned bank_idx);

    unsigned index_;
    std::string name_;
    MemoryParams params_;
    EventQueue &queue_;
    AddressMap map_;

    std::vector<Bank> banks_;
    std::deque<Request> readQ_;
    std::deque<Request> writeQ_;
    std::deque<Request> refreshQ_;

    // Request-conservation accounting (audited), indexed by ReqKind.
    std::array<std::uint64_t, 3> enqueued_{};
    std::array<std::uint64_t, 3> retired_{};
    std::uint64_t inflightReads_ = 0;
    Tick lastCompletionTick_ = 0;

    Tick busFreeAt_ = 0;
    /** Activates per tFAW window: the ring below holds this many. */
    static constexpr std::size_t fawActivates = 4;
    std::vector<Tick> activateHistory_; ///< ring of the last activates
    std::size_t activateIdx_ = 0;       ///< oldest entry once full

    bool writeDrainMode_ = false;
    Tick refreshHoldUntil_ = 0;

    bool retryPending_ = false;
    Tick retryAt_ = 0;
    EventHandle retryEvent_;

    /**
     * Failed-scan memo. After a trySchedule() pass whose final
     * iteration issued nothing, every queued request is known to be
     * un-issuable at (scanMemoTick_, current bank/bus state), and
     * tryIssue* failure is side-effect-free. While the memo holds (same
     * tick, no bank/bus/hold mutation), enqueueRead() only has to try
     * the new arrival instead of re-walking the whole queue; the
     * accumulated earliest-retry tick carries over. Invalidated at
     * every full-scan entry, bank-state mutation, and refresh hold.
     */
    bool scanMemoValid_ = false;
    Tick scanMemoTick_ = 0;
    Tick scanMemoEarliest_ = maxTick;

    CompletionHook completionHook_;
    WriteIssuedHook writeIssuedHook_;
    obs::TraceSink *traceSink_ = nullptr;

    stats::Scalar *statReads_ = nullptr;
    stats::Scalar *statRowHits_ = nullptr;
    stats::Scalar *statWrites_ = nullptr;
    stats::Scalar *statRefreshes_ = nullptr;
    stats::Scalar *statWritePauses_ = nullptr;
    stats::Scalar *statDrainEntries_ = nullptr;
    stats::DistributionStat *statReadLatency_ = nullptr;
};

} // namespace rrm::memctrl

#endif // RRM_MEMCTRL_CHANNEL_HH
