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
    const Tick now = queue_.now();
    req.enqueueTick = now;
    req.loc = map_.decode(req.addr);
    ++enqueued_[static_cast<std::size_t>(ReqKind::Read)];
    const bool first = readQ_.empty();
    readQ_.push(std::move(req));
    RRM_TRACE(traceSink_, now, obs::TraceCategory::Queue, "readEnq",
              RRM_TF("channel", index_), RRM_TF("readQ", readQ_.size()),
              RRM_TF("writeQ", writeQ_.size()),
              RRM_TF("refreshQ", refreshQ_.size()));
    // A scan in drain mode tries no reads. Otherwise only the arrival
    // needs a try, unless it is the first read: that stops a scan
    // trying writes, so a writes-only scan's window no longer applies.
    if (now < quietUntil_ && !writeDrainMode_) {
        Tick horizon = quietUntil_;
        const Tick start =
            first ? now
                  : readIssueTick(readQ_.key(readQ_.size() - 1), now,
                                  horizon);
        if (start > now) {
            quietEarliest_ = std::min(quietEarliest_, start);
            quietUntil_ = std::min(horizon, quietEarliest_);
            scheduleRetry(quietEarliest_);
            return true;
        }
        quietUntil_ = 0;
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
    writeQ_.push(std::move(req));
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Queue,
              "writeEnq", RRM_TF("channel", index_),
              RRM_TF("readQ", readQ_.size()),
              RRM_TF("writeQ", writeQ_.size()),
              RRM_TF("refreshQ", refreshQ_.size()));
    quietUntil_ = 0;
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
    refreshQ_.push(std::move(req));
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Queue,
              "refreshEnq", RRM_TF("channel", index_),
              RRM_TF("readQ", readQ_.size()),
              RRM_TF("writeQ", writeQ_.size()),
              RRM_TF("refreshQ", refreshQ_.size()));
    quietUntil_ = 0;
    trySchedule();
    return true;
}

Tick
Channel::readIssueTick(const RequestQueue::Key &key, Tick now,
                       Tick &horizon) const
{
    const Bank &bank = banks_[key.bank];
    if (bank.writeEnded(now))
        return now;
    const bool row_hit = bank.hasOpenRow && bank.openRow == key.rowId;
    const Tick access = readAccessTime(params_, row_hit);
    Tick start = std::max(bank.busyUntil, now);
    if (bank.busyUntil > now && bank.writing) {
        if (params_.writePausing) {
            // Pause points: end of RESET, then end of each SET pulse
            // but the last, which the read just waits out.
            const Tick first = bank.writePulseStart + pcm::resetPulse;
            const Tick k =
                now > first ? divCeil(now - first, pcm::setPulse) : 0;
            start = std::min(first + k * pcm::setPulse, bank.busyUntil);
        }
        horizon = std::min(horizon, start);
    }
    if (!row_hit)
        start = fawReady(start);
    // The data burst needs the channel bus right after the access.
    if (busFreeAt_ > start + access)
        start = busFreeAt_ - access;
    return start;
}

Tick
Channel::writeIssueTick(const Bank &bank, bool is_refresh, Tick now,
                        Tick &horizon) const
{
    if (bank.writeEnded(now))
        return now;
    if (bank.writing)
        horizon = std::min(horizon, bank.busyUntil);
    Tick start = std::max(bank.busyUntil, now);
    if (!is_refresh && busFreeAt_ > start)
        start = busFreeAt_; // incoming data burst needs the bus
    return start;
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
Channel::tryIssueRead(std::size_t pos, Scan &scan)
{
    const Tick now = queue_.now();
    const RequestQueue::Key &key = readQ_.key(pos);
    const Tick start = readIssueTick(key, now, scan.horizon);
    if (start > now || banks_[key.bank].writeEnded(now)) {
        scan.earliest = std::min(scan.earliest, start);
        return false;
    }
    issueRead(pos);
    return true;
}

bool
Channel::tryIssueWrite(RequestQueue &q, Scan &scan, bool is_refresh)
{
    static_assert(MemoryParams::banksPerChannel <= 32);
    const Tick now = queue_.now();
    // Banks already found waiting: their later requests wait as long.
    std::uint32_t waiting = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
        const unsigned b = q.key(i).bank;
        if (waiting & (1u << b))
            continue;
        const Tick start =
            writeIssueTick(banks_[b], is_refresh, now, scan.horizon);
        if (start <= now && !banks_[b].writeEnded(now)) {
            issueWrite(q, i, is_refresh);
            return true;
        }
        scan.earliest = std::min(scan.earliest, start);
        waiting |= 1u << b;
    }
    return false;
}

void
Channel::issueRead(std::size_t pos)
{
    const Tick now = queue_.now();
    const RequestQueue::Key key = readQ_.key(pos);
    Bank &bank = banks_[key.bank];
    quietUntil_ = 0;
    const bool row_hit = bank.hasOpenRow && bank.openRow == key.rowId;
    const Tick access = readAccessTime(params_, row_hit);
    if (bank.writing) {
        // Pausing: push the interrupted write's remaining pulses back.
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
        bank.openRow = key.rowId;
    }
    busFreeAt_ = now + access + params_.burstTime();

    if (statReads_)
        ++*statReads_;
    if (row_hit && statRowHits_)
        ++*statRowHits_;

    const Tick finish = now + access + params_.burstTime();
    RRM_TRACE(traceSink_, now, obs::TraceCategory::Queue,
              "readService", RRM_TF("channel", index_),
              RRM_TF("bank", key.bank), RRM_TF("dur", finish - now));
    Request req = readQ_.take(pos);
    if (statReadLatency_)
        statReadLatency_->add(finish - req.enqueueTick);
    ++inflightReads_;
    queue_.schedule(
        finish,
        [this, req = std::move(req), finish] {
            complete(req, finish);
            trySchedule();
        },
        EventPriority::MemoryResponse);
}

void
Channel::issueWrite(RequestQueue &q, std::size_t pos, bool is_refresh)
{
    const Tick now = queue_.now();
    const unsigned bank_idx = q.key(pos).bank;
    Bank &bank = banks_[bank_idx];
    quietUntil_ = 0;
    bank.inflightWrite = q.take(pos);
    const Tick wp = pcm::writeLatency(bank.inflightWrite.mode);
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
    bank.busyUntil = pulse_start + wp;
    RRM_TRACE(traceSink_, now, obs::TraceCategory::Queue,
              is_refresh ? "refreshService" : "writeService",
              RRM_TF("channel", index_), RRM_TF("bank", bank_idx),
              RRM_TF("dur", bank.busyUntil - now));

    // Completion check; reschedules itself if pauses moved the end.
    scheduleWriteCheck(bank_idx, bank.busyUntil);
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
    Bank &bank = banks_[bank_idx];
    if (queue_.now() < bank.busyUntil) {
        // A pause pushed the pulse train back; check again at the
        // updated completion time.
        scheduleWriteCheck(bank_idx, bank.busyUntil);
        return;
    }
    bank.writing = false;
    quietUntil_ = 0;
    complete(bank.inflightWrite, queue_.now());
    trySchedule();
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
    if (queue_.now() < quietUntil_) {
        RRM_DCHECK(quietWindowHolds(), name_,
                   ": a scan inside the quiet window would find more");
        // Any queued request makes quietEarliest_ finite.
        if (quietEarliest_ != maxTick)
            scheduleRetry(quietEarliest_);
        return;
    }
    Tick earliest = maxTick;
    Scan scan;
    for (bool issued = true; issued;) {
        scan = Scan{};
        issued = schedulePass(scan);
        earliest = std::min(earliest, scan.earliest);
    }

    if ((!refreshQ_.empty() || !readQ_.empty() || !writeQ_.empty()) &&
        earliest != maxTick) {
        scheduleRetry(earliest);
    }
    // The last pass issued nothing: it opens the quiet window.
    quietEarliest_ = scan.earliest;
    quietUntil_ = std::min(scan.earliest, scan.horizon);
}

bool
Channel::schedulePass(Scan &scan)
{
    const Tick now = queue_.now();

    // Write-drain hysteresis.
    if (!writeDrainMode_ && writeQ_.size() >= params_.writeHighWatermark) {
        writeDrainMode_ = true;
        if (statDrainEntries_)
            ++*statDrainEntries_;
    }
    if (writeDrainMode_ && writeQ_.size() <= params_.writeLowWatermark)
        writeDrainMode_ = false;

    // 1. RRM refreshes: highest priority, FCFS with bank skipping.
    if (tryIssueWrite(refreshQ_, scan, true))
        return true;

    // 2. Reads (FR-FCFS), unless draining writes.
    if (!writeDrainMode_ && !readQ_.empty()) {
        // The first row hit on an idle bank; the search stops there
        // even when that read cannot issue...
        for (std::size_t i = 0; i < readQ_.size(); ++i) {
            const RequestQueue::Key &key = readQ_.key(i);
            const Bank &bank = banks_[key.bank];
            if (bank.hasOpenRow && bank.openRow == key.rowId &&
                bank.busyUntil <= now) {
                if (tryIssueRead(i, scan))
                    return true;
                break;
            }
        }
        // ...otherwise the oldest serviceable read.
        for (std::size_t i = 0; i < readQ_.size(); ++i)
            if (tryIssueRead(i, scan))
                return true;
    }

    // 3. Writes: drain mode, or nothing else to do.
    if ((writeDrainMode_ || readQ_.empty()) &&
        tryIssueWrite(writeQ_, scan, false)) {
        if (writeIssuedHook_)
            writeIssuedHook_();
        return true;
    }
    return false;
}

bool
Channel::quietWindowHolds() const
{
    // Each request a scan now would try waits past now iff their
    // earliest issue tick is quietEarliest_ (> now in the window).
    const Tick now = queue_.now();
    Tick horizon = maxTick;
    Tick e = maxTick;
    for (std::size_t i = 0; i < refreshQ_.size(); ++i) {
        e = std::min(e, writeIssueTick(banks_[refreshQ_.key(i).bank],
                                       true, now, horizon));
    }
    for (std::size_t i = 0; !writeDrainMode_ && i < readQ_.size(); ++i)
        e = std::min(e, readIssueTick(readQ_.key(i), now, horizon));
    const bool writes = writeDrainMode_ || readQ_.empty();
    for (std::size_t i = 0; writes && i < writeQ_.size(); ++i) {
        e = std::min(e, writeIssueTick(banks_[writeQ_.key(i).bank], false,
                                       now, horizon));
    }
    return now >= quietUntil_ || e == quietEarliest_;
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

    const auto auditQueue = [&](const RequestQueue &q, ReqKind kind,
                                const char *qname) {
        for (std::size_t i = 0; i < q.size(); ++i) {
            const Request &req = q.at(i);
            RRM_AUDIT(q.key(i).bank == req.loc.bank &&
                          q.key(i).rowId == req.loc.rowId,
                      name_, ": ", qname, " queue key ", i,
                      " does not match its request");
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
    RRM_AUDIT(quietWindowHolds(), name_,
              ": a scan inside the quiet window would find more");
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
    quietUntil_ = 0;
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
