/**
 * @file
 * Channel scheduler implementation.
 */

#include "channel.hh"

#include <algorithm>

#include "ckpt/ckpt.hh"

namespace rrm::memctrl
{

namespace
{

/** Read access time at the bank (excluding bus transfer). */
Tick
readAccessTime(const MemoryParams &p, bool row_hit)
{
    return row_hit ? p.tCAS : p.tRCD + p.tCAS;
}

} // namespace

Channel::Channel(unsigned index, const MemoryParams &params,
                 EventQueue &queue)
    : index_(index), name_("channel" + std::to_string(index)),
      params_(params), queue_(queue), map_(params)
{
    banks_.resize(params_.banksPerChannel);
    activateHistory_.clear();
}

bool
Channel::enqueueRead(Request req)
{
    if (readQ_.size() >= params_.readQueueCap)
        return false;
    RRM_DCHECK(req.kind == ReqKind::Read, "read queue got a ",
               static_cast<int>(req.kind));
    req.enqueueTick = queue_.now();
    req.loc = map_.decode(req.addr);
    ++enqueued_[static_cast<std::size_t>(ReqKind::Read)];
    readQ_.push_back(std::move(req));
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Queue,
              "readEnq", RRM_TF("channel", index_),
              RRM_TF("readQ", readQ_.size()),
              RRM_TF("writeQ", writeQ_.size()),
              RRM_TF("refreshQ", refreshQ_.size()));
    if (scanMemoValid_ && scanMemoTick_ == queue_.now()) {
        // Every other queued request already failed to issue at this
        // tick under the current bank/bus state, so only the new
        // arrival needs a try. In write-drain mode the full scan
        // would not try reads at all, and the memoized retry is
        // already scheduled, so there is nothing to do.
        if (writeDrainMode_)
            return true;
        Tick earliest = scanMemoEarliest_;
        if (!tryIssueRead(readQ_.back(), earliest)) {
            scanMemoEarliest_ = earliest;
            if (earliest != maxTick)
                scheduleRetry(earliest);
            return true;
        }
        readQ_.pop_back();
        // The issue changed bank/bus state; rescan like the full
        // scheduler loop would after any issue.
        trySchedule();
        return true;
    }
    trySchedule();
    return true;
}

bool
Channel::enqueueWrite(Request req)
{
    if (writeQ_.size() >= params_.writeQueueCap)
        return false;
    RRM_DCHECK(req.kind == ReqKind::Write, "write queue got a ",
               static_cast<int>(req.kind));
    req.enqueueTick = queue_.now();
    req.loc = map_.decode(req.addr);
    ++enqueued_[static_cast<std::size_t>(ReqKind::Write)];
    writeQ_.push_back(std::move(req));
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Queue,
              "writeEnq", RRM_TF("channel", index_),
              RRM_TF("readQ", readQ_.size()),
              RRM_TF("writeQ", writeQ_.size()),
              RRM_TF("refreshQ", refreshQ_.size()));
    trySchedule();
    return true;
}

bool
Channel::enqueueRefresh(Request req)
{
    if (refreshQ_.size() >= params_.refreshQueueCap)
        return false;
    RRM_DCHECK(req.kind == ReqKind::RrmRefresh, "refresh queue got a ",
               static_cast<int>(req.kind));
    req.enqueueTick = queue_.now();
    req.loc = map_.decode(req.addr);
    ++enqueued_[static_cast<std::size_t>(ReqKind::RrmRefresh)];
    refreshQ_.push_back(std::move(req));
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Queue,
              "refreshEnq", RRM_TF("channel", index_),
              RRM_TF("readQ", readQ_.size()),
              RRM_TF("writeQ", writeQ_.size()),
              RRM_TF("refreshQ", refreshQ_.size()));
    trySchedule();
    return true;
}

Tick
Channel::bankReadyForRead(const Bank &bank, Tick t) const
{
    if (bank.busyUntil <= t)
        return t;
    if (bank.writing && params_.writePausing) {
        // Pause points: end of RESET, then end of each SET pulse.
        const Tick first = bank.writePulseStart + pcm::resetPulse;
        Tick boundary = first;
        if (t > boundary) {
            const Tick k =
                divCeil(t - first, pcm::setPulse);
            boundary = first + k * pcm::setPulse;
        }
        // No pause point after the final SET: just wait it out.
        if (boundary >= bank.busyUntil)
            return bank.busyUntil;
        return boundary;
    }
    return bank.busyUntil;
}

Tick
Channel::bankReadyForWrite(const Bank &bank, Tick t) const
{
    return std::max(bank.busyUntil, t);
}

Tick
Channel::fawReady(Tick t) const
{
    if (activateHistory_.size() < fawActivates)
        return t;
    const Tick oldest = activateHistory_[activateIdx_];
    return std::max(t, oldest + params_.tFAW);
}

void
Channel::recordActivate(Tick t)
{
    if (activateHistory_.size() < fawActivates) {
        activateHistory_.push_back(t);
        return;
    }
    activateHistory_[activateIdx_] = t;
    activateIdx_ = (activateIdx_ + 1) % fawActivates;
}

bool
Channel::tryIssueRead(const Request &req, Tick &earliest)
{
    const Tick now = queue_.now();
    const Location &loc = req.loc;
    Bank &bank = banks_[loc.bank];
    if (bank.writing && bank.busyUntil <= now) {
        // The write is done but its completion event fires later this
        // tick; retry right after it.
        earliest = std::min(earliest, now);
        return false;
    }
    const bool row_hit = bank.hasOpenRow && bank.openRow == loc.rowId;
    const Tick access = readAccessTime(params_, row_hit);

    Tick start = bankReadyForRead(bank, now);
    if (!row_hit)
        start = fawReady(start);
    // The data burst needs the channel bus right after the access.
    if (busFreeAt_ > start + access)
        start = busFreeAt_ - access;

    if (start > now) {
        earliest = std::min(earliest, start);
        return false;
    }

    // Issue now.
    const bool pausing = bank.writing && bank.busyUntil > now;
    if (pausing) {
        // Push the interrupted write's remaining pulses back.
        bank.writePulseStart += access;
        bank.busyUntil += access;
        if (statWritePauses_)
            ++*statWritePauses_;
    } else {
        bank.busyUntil = now + access;
    }
    if (!row_hit) {
        recordActivate(now);
        bank.hasOpenRow = true;
        bank.openRow = loc.rowId;
    }
    busFreeAt_ = now + access + params_.burstTime();

    if (statReads_)
        ++*statReads_;
    if (row_hit && statRowHits_)
        ++*statRowHits_;

    const Tick finish = now + access + params_.burstTime();
    RRM_TRACE(traceSink_, now, obs::TraceCategory::Queue,
              "readService", RRM_TF("channel", index_),
              RRM_TF("bank", loc.bank), RRM_TF("dur", finish - now));
    if (statReadLatency_)
        statReadLatency_->add(finish - req.enqueueTick);
    ++inflightReads_;
    Request copy = req;
    queue_.schedule(
        finish,
        [this, copy = std::move(copy), finish] {
            complete(copy, finish);
            trySchedule();
        },
        EventPriority::MemoryResponse);
    return true;
}

bool
Channel::tryIssueWrite(const Request &req, Tick &earliest,
                       bool is_refresh)
{
    const Tick now = queue_.now();
    const Location &loc = req.loc;
    Bank &bank = banks_[loc.bank];
    if (bank.writing && bank.busyUntil <= now) {
        earliest = std::min(earliest, now);
        return false;
    }

    Tick start = bankReadyForWrite(bank, now);
    if (!is_refresh && busFreeAt_ > start)
        start = busFreeAt_; // incoming data burst needs the bus

    if (start > now) {
        earliest = std::min(earliest, start);
        return false;
    }

    const Tick wp = pcm::writeLatency(req.mode);
    Tick pulse_start;
    if (is_refresh) {
        // Internal read (array access) then rewrite; no bus transfer.
        pulse_start = now + params_.tRCD;
        recordActivate(now);
        if (statRefreshes_)
            ++*statRefreshes_;
    } else {
        // Write-through: data burst on the bus, then the pulse train.
        busFreeAt_ = now + params_.burstTime();
        pulse_start = now + params_.burstTime();
        if (statWrites_)
            ++*statWrites_;
    }

    bank.writing = true;
    bank.writePulseStart = pulse_start;
    bank.writeMode = req.mode;
    bank.busyUntil = pulse_start + wp;
    bank.inflightWrite = req;
    RRM_TRACE(traceSink_, now, obs::TraceCategory::Queue,
              is_refresh ? "refreshService" : "writeService",
              RRM_TF("channel", index_), RRM_TF("bank", loc.bank),
              RRM_TF("dur", bank.busyUntil - now));

    // Completion check; reschedules itself if pauses moved the end.
    scheduleWriteCheck(loc.bank, bank.busyUntil);
    return true;
}

void
Channel::scheduleWriteCheck(unsigned bank_idx, Tick when)
{
    queue_.schedule(
        when, [this, bank_idx] { writeCheck(bank_idx); },
        EventPriority::MemoryResponse);
}

void
Channel::writeCheck(unsigned bank_idx)
{
    scanMemoValid_ = false; // bank state mutates before the rescan
    Bank &bank = banks_[bank_idx];
    if (queue_.now() < bank.busyUntil) {
        // A pause pushed the pulse train back; check again at the
        // updated completion time.
        scheduleWriteCheck(bank_idx, bank.busyUntil);
        return;
    }
    bank.writing = false;
    complete(bank.inflightWrite, queue_.now());
    trySchedule();
}

void
Channel::holdRefreshes(Tick until)
{
    if (until <= refreshHoldUntil_)
        return;
    scanMemoValid_ = false;
    refreshHoldUntil_ = until;
    if (!refreshQ_.empty())
        scheduleRetry(until);
}

void
Channel::scheduleRetry(Tick when)
{
    if (retryPending_ && retryAt_ <= when)
        return;
    if (retryPending_)
        queue_.cancel(retryEvent_);
    retryPending_ = true;
    retryAt_ = when;
    retryEvent_ = queue_.schedule(when, [this] {
        retryPending_ = false;
        trySchedule();
    });
}

void
Channel::complete(const Request &req, Tick when)
{
    RRM_DCHECK(when >= req.enqueueTick,
               "request completed before it was enqueued");
    RRM_DCHECK(when >= lastCompletionTick_,
               "completion timestamps moved backwards: ", when, " < ",
               lastCompletionTick_);
    lastCompletionTick_ = when;
    ++retired_[static_cast<std::size_t>(req.kind)];
    if (req.kind == ReqKind::Read) {
        RRM_CHECK(inflightReads_ > 0, "read retired with none in flight");
        --inflightReads_;
    }
    if (completionHook_)
        completionHook_(req, when);
    if (req.onComplete)
        req.onComplete(when);
}

void
Channel::trySchedule()
{
    scanMemoValid_ = false;
    Tick earliest = maxTick;
    bool issued_any = true;
    while (issued_any) {
        issued_any = false;

        // Write-drain hysteresis.
        if (!writeDrainMode_ &&
            writeQ_.size() >= params_.writeHighWatermark) {
            writeDrainMode_ = true;
            if (statDrainEntries_)
                ++*statDrainEntries_;
        }
        if (writeDrainMode_ &&
            writeQ_.size() <= params_.writeLowWatermark) {
            writeDrainMode_ = false;
        }

        // 1. RRM refreshes: highest priority, FCFS with bank
        // skipping — unless an injected stall holds refresh issue.
        if (queue_.now() >= refreshHoldUntil_) {
            for (auto it = refreshQ_.begin(); it != refreshQ_.end();
                 ++it) {
                if (tryIssueWrite(*it, earliest, true)) {
                    refreshQ_.erase(it);
                    issued_any = true;
                    break;
                }
            }
        } else if (!refreshQ_.empty()) {
            earliest = std::min(earliest, refreshHoldUntil_);
        }
        if (issued_any)
            continue;

        // 2. Reads (FR-FCFS), unless draining writes.
        if (!writeDrainMode_ && !readQ_.empty()) {
            bool issued = false;
            // First serviceable row hit...
            for (auto it = readQ_.begin(); it != readQ_.end(); ++it) {
                const Location &loc = it->loc;
                const Bank &bank = banks_[loc.bank];
                if (bank.hasOpenRow && bank.openRow == loc.rowId &&
                    bank.busyUntil <= queue_.now()) {
                    if (tryIssueRead(*it, earliest)) {
                        readQ_.erase(it);
                        issued = true;
                    }
                    break;
                }
            }
            // ...otherwise the oldest serviceable read.
            if (!issued) {
                for (auto it = readQ_.begin(); it != readQ_.end();
                     ++it) {
                    if (tryIssueRead(*it, earliest)) {
                        readQ_.erase(it);
                        issued = true;
                        break;
                    }
                }
            }
            if (issued) {
                issued_any = true;
                continue;
            }
        }

        // 3. Writes: drain mode, or nothing else to do.
        if (!writeQ_.empty() && (writeDrainMode_ || readQ_.empty())) {
            for (auto it = writeQ_.begin(); it != writeQ_.end(); ++it) {
                if (tryIssueWrite(*it, earliest, false)) {
                    writeQ_.erase(it);
                    issued_any = true;
                    if (writeIssuedHook_)
                        writeIssuedHook_();
                    break;
                }
            }
        }
    }

    if ((!refreshQ_.empty() || !readQ_.empty() || !writeQ_.empty()) &&
        earliest != maxTick) {
        scheduleRetry(earliest);
    }

    // The final loop iteration was a complete scan that issued
    // nothing, so the memo is valid regardless of earlier issues.
    scanMemoValid_ = true;
    scanMemoTick_ = queue_.now();
    scanMemoEarliest_ = earliest;
}

void
Channel::regStats(stats::StatGroup &group)
{
    auto &g = group.addChild(name_);
    statReads_ = &g.addScalar("reads", "read requests issued");
    statRowHits_ = &g.addScalar("rowHits", "reads hitting the open row");
    statWrites_ = &g.addScalar("writes", "demand writes issued");
    statRefreshes_ =
        &g.addScalar("rrmRefreshes", "RRM refresh operations issued");
    statWritePauses_ =
        &g.addScalar("writePauses", "writes paused to service reads");
    statDrainEntries_ =
        &g.addScalar("drainEntries", "write-drain mode activations");
    statReadLatency_ = &g.addDistribution(
        "readLatency", "read latency from enqueue to data (ticks)",
        {50000, 100000, 200000, 400000, 800000, 1600000, 3200000});
}

void
Channel::audit() const
{
    const Tick now = queue_.now();

    RRM_AUDIT(readQ_.size() <= params_.readQueueCap, name_,
              ": read queue above its cap");
    RRM_AUDIT(writeQ_.size() <= params_.writeQueueCap, name_,
              ": write queue above its cap");
    RRM_AUDIT(refreshQ_.size() <= params_.refreshQueueCap, name_,
              ": refresh queue above its cap");

    const auto auditQueue = [&](const std::deque<Request> &q,
                                ReqKind kind, const char *qname) {
        for (const Request &req : q) {
            RRM_AUDIT(req.kind == kind, name_, ": ", qname,
                      " queue holds a request of kind ",
                      static_cast<int>(req.kind));
            RRM_AUDIT(req.enqueueTick <= now, name_, ": ", qname,
                      " request enqueued in the future (",
                      req.enqueueTick, " > ", now, ")");
        }
    };
    auditQueue(readQ_, ReqKind::Read, "read");
    auditQueue(writeQ_, ReqKind::Write, "write");
    auditQueue(refreshQ_, ReqKind::RrmRefresh, "refresh");

    std::uint64_t inflight_writes = 0;
    std::uint64_t inflight_refreshes = 0;
    for (std::size_t b = 0; b < banks_.size(); ++b) {
        const Bank &bank = banks_[b];
        if (!bank.writing)
            continue;
        RRM_AUDIT(bank.writePulseStart <= bank.busyUntil, name_,
                  ": bank ", b, " pulse train ends before it starts");
        switch (bank.inflightWrite.kind) {
          case ReqKind::Write:
            ++inflight_writes;
            break;
          case ReqKind::RrmRefresh:
            ++inflight_refreshes;
            break;
          case ReqKind::Read:
            RRM_AUDIT(false, name_, ": bank ", b,
                      " is writing a read request");
            break;
        }
    }

    const auto conserved = [&](ReqKind kind, std::uint64_t queued,
                               std::uint64_t inflight) {
        const auto k = static_cast<std::size_t>(kind);
        RRM_AUDIT(enqueued_[k] == retired_[k] + queued + inflight, name_,
                  ": request conservation broken for kind ",
                  static_cast<int>(kind), ": enqueued ", enqueued_[k],
                  " != retired ", retired_[k], " + queued ", queued,
                  " + inflight ", inflight);
    };
    conserved(ReqKind::Read, readQ_.size(), inflightReads_);
    conserved(ReqKind::Write, writeQ_.size(), inflight_writes);
    conserved(ReqKind::RrmRefresh, refreshQ_.size(), inflight_refreshes);

    RRM_AUDIT(lastCompletionTick_ <= now, name_,
              ": a completion was delivered in the future");
    RRM_AUDIT(!retryPending_ || retryAt_ >= now, name_,
              ": pending retry scheduled in the past");
    RRM_AUDIT(!scanMemoValid_ || scanMemoTick_ <= now, name_,
              ": scan memo recorded in the future");
}

void
Channel::saveCkpt(ckpt::ChunkWriter &w) const
{
    RRM_CHECK(readQ_.empty() && writeQ_.empty() && refreshQ_.empty(),
              name_, ": checkpoint at a non-quiescent point (queued "
                     "requests)");
    RRM_CHECK(!retryPending_, name_,
              ": checkpoint with a scheduler retry pending");
    RRM_CHECK(inflightReads_ == 0, name_, ": checkpoint with reads in flight");
    for (const std::size_t k : {std::size_t(0), std::size_t(1),
                                std::size_t(2)}) {
        w.u64(enqueued_[k]);
        w.u64(retired_[k]);
    }
    w.u64(lastCompletionTick_);
    w.u64(busFreeAt_);
    w.u32(static_cast<std::uint32_t>(activateHistory_.size()));
    for (const Tick t : activateHistory_)
        w.u64(t);
    w.u64(activateIdx_);
    w.b(writeDrainMode_);
    w.u64(refreshHoldUntil_);
    w.b(scanMemoValid_);
    w.u64(scanMemoTick_);
    w.u64(scanMemoEarliest_);
    w.u32(static_cast<std::uint32_t>(banks_.size()));
    for (const Bank &bank : banks_) {
        RRM_CHECK(!bank.writing, name_, ": checkpoint with a bank mid-write");
        w.u64(bank.busyUntil);
        w.u64(bank.openRow);
        w.b(bank.hasOpenRow);
    }
}

void
Channel::restoreCkpt(ckpt::ChunkReader &r)
{
    for (const std::size_t k : {std::size_t(0), std::size_t(1),
                                std::size_t(2)}) {
        enqueued_[k] = r.u64();
        retired_[k] = r.u64();
    }
    lastCompletionTick_ = r.u64();
    busFreeAt_ = r.u64();
    const std::uint32_t history = r.u32();
    if (history > fawActivates)
        throw ckpt::CkptError(name_ + ": implausible activate-history "
                                      "length " +
                              std::to_string(history));
    activateHistory_.resize(history);
    for (Tick &t : activateHistory_)
        t = r.u64();
    activateIdx_ = r.u64();
    // The ring index only moves once the ring is full.
    if (activateIdx_ >= (history < fawActivates ? 1u : fawActivates))
        throw ckpt::CkptError(name_ + ": activate index " +
                              std::to_string(activateIdx_) +
                              " outside a ring of " +
                              std::to_string(history));
    writeDrainMode_ = r.b();
    refreshHoldUntil_ = r.u64();
    scanMemoValid_ = r.b();
    scanMemoTick_ = r.u64();
    scanMemoEarliest_ = r.u64();
    const std::uint32_t n = r.u32();
    if (n != banks_.size())
        throw ckpt::CkptError(
            name_ + " has " + std::to_string(banks_.size()) +
            " banks but the checkpoint holds " + std::to_string(n) +
            " (geometry mismatch)");
    for (Bank &bank : banks_) {
        bank.busyUntil = r.u64();
        bank.openRow = r.u64();
        bank.hasOpenRow = r.b();
        bank.writing = false;
    }
}

bool
Channel::idle() const
{
    if (!readQ_.empty() || !writeQ_.empty() || !refreshQ_.empty())
        return false;
    for (const auto &bank : banks_)
        if (bank.busyUntil > queue_.now() || bank.writing)
            return false;
    return true;
}

bool
Channel::quiescent() const
{
    if (!readQ_.empty() || !writeQ_.empty() || !refreshQ_.empty())
        return false;
    if (retryPending_ || inflightReads_ != 0)
        return false;
    for (const auto &bank : banks_)
        if (bank.writing)
            return false;
    return true;
}

} // namespace rrm::memctrl
