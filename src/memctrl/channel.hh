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

    /**
     * @{ Checkpoint the channel at a quiescent point: all queues must
     * be empty, no bank mid-write, no read in flight, and no retry
     * pending (asserted). What remains is bank timing state, the
     * conservation counters, the tFAW activate ring, and the drain
     * hysteresis. The quiet window is not saved: restore closes it.
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
     * state, a pending retry no earlier than now, and an open quiet
     * window that a full scan would confirm (quietWindowHolds()).
     */
    void audit() const override;

  private:
    /**
     * A controller queue laid out for the scheduler: an arrival-ordered
     * vector of 16-byte keys (bank, row, slot) that scans walk and erase
     * from, over Request payload slots made on demand and recycled.
     */
    class RequestQueue
    {
      public:
        struct Key
        {
            std::uint64_t rowId;
            std::uint32_t bank;
            std::uint32_t slot;
        };

        bool empty() const { return keys_.empty(); }
        std::size_t size() const { return keys_.size(); }
        const Key &key(std::size_t pos) const { return keys_[pos]; }
        const Request &
        at(std::size_t pos) const
        {
            return slots_[keys_[pos].slot];
        }

        /** Append `req`, whose `loc` is already decoded. */
        void
        push(Request req)
        {
            if (free_.empty()) {
                free_.push_back(static_cast<std::uint32_t>(slots_.size()));
                slots_.emplace_back();
            }
            keys_.push_back({req.loc.rowId, req.loc.bank, free_.back()});
            free_.pop_back();
            slots_[keys_.back().slot] = std::move(req);
        }

        /** Remove and return the request at `pos`, keeping arrival order. */
        Request
        take(std::size_t pos)
        {
            free_.push_back(keys_[pos].slot);
            keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(pos));
            return std::move(slots_[free_.back()]);
        }

      private:
        std::vector<Key> keys_;
        std::vector<Request> slots_;
        std::vector<std::uint32_t> free_;
    };

    struct Bank
    {
        Tick busyUntil = 0;
        std::uint64_t openRow = ~std::uint64_t(0);
        bool hasOpenRow = false;

        /** In-flight pausable write, if any. */
        bool writing = false;
        Tick writePulseStart = 0; ///< start of the pulse train
        Request inflightWrite;

        /** Pulses over, completion event not yet run: takes nothing. */
        bool writeEnded(Tick now) const
        {
            return writing && busyUntil <= now;
        }
    };

    /** What one scheduler pass learnt from the requests it tried. */
    struct Scan
    {
        Tick earliest = maxTick; ///< earliest issue tick of a failed try
        Tick horizon = maxTick;  ///< first flip of a tried bank's write
    };

    /**
     * @{ Issue tick a scan at `now` finds for a read, or a write or
     * refresh to `bank`: `now` if it can issue now or its bank's write
     * ended unretired. For a bank mid-write, lowers `horizon` to where
     * that tick next moves by itself (DESIGN.md section 15).
     */
    Tick readIssueTick(const RequestQueue::Key &key, Tick now,
                       Tick &horizon) const;
    Tick writeIssueTick(const Bank &bank, bool is_refresh, Tick now,
                        Tick &horizon) const;
    /** @} */

    /** Earliest tick >= `t` satisfying the tFAW activate window. */
    Tick fawReady(Tick t) const;

    void recordActivate(Tick t);

    /** Issue what can issue; arrange a retry if blocked. */
    void trySchedule();

    /** One FR-FCFS pass; true if it issued a request. */
    bool schedulePass(Scan &scan);

    /** False if a scan in the open quiet window would differ. */
    bool quietWindowHolds() const;

    /** Issue read `pos` if it can issue now, else fold it into `scan`. */
    bool tryIssueRead(std::size_t pos, Scan &scan);

    /** Issue q's oldest issuable write (refresh); fold the rest in scan. */
    bool tryIssueWrite(RequestQueue &q, Scan &scan, bool is_refresh);

    /** @{ Issue the request at `pos` now, moving its payload out. */
    void issueRead(std::size_t pos);
    void issueWrite(RequestQueue &q, std::size_t pos, bool is_refresh);
    /** @} */

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
    RequestQueue readQ_;
    RequestQueue writeQ_;
    RequestQueue refreshQ_;

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

    bool retryPending_ = false;
    Tick retryAt_ = 0;
    EventHandle retryEvent_;

    /**
     * The quiet window [t, quietUntil_) left by a scan at t that found
     * nothing to issue before quietEarliest_: inside it, a scan would
     * find the same (DESIGN.md section 15). Closed (0) by any issue,
     * write or refresh arrival, write completion, restore, and a
     * first read outside drain mode.
     */
    Tick quietUntil_ = 0;
    Tick quietEarliest_ = maxTick;

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
