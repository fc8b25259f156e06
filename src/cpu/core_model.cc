/**
 * @file
 * CoreModel implementation.
 */

#include "core_model.hh"

#include <algorithm>

#include "ckpt/ckpt.hh"

namespace rrm::cpu
{

CoreModel::CoreModel(unsigned id, const CoreParams &params,
                     trace::TraceSource source,
                     cache::CacheHierarchy &hierarchy, CorePort &port,
                     EventQueue &queue, Addr addr_base)
    : id_(id),
      params_(params),
      source_(std::move(source)),
      hierarchy_(hierarchy),
      port_(port),
      queue_(queue),
      addrBase_(addr_base)
{
    RRM_CHECK(params_.robSize >= 1, "ROB must be non-empty");
    RRM_CHECK(params_.maxOutstandingMisses >= 1, "need at least one MSHR");
    outstanding_.resize(params_.maxOutstandingMisses);
}

void
CoreModel::start()
{
    scheduleAdvance(queue_.now());
}

void
CoreModel::scheduleAdvance(Tick when)
{
    if (paused_) {
        // First deferral wins, like advanceScheduled_ would.
        if (!wantsAdvance_ && !advanceScheduled_) {
            wantsAdvance_ = true;
            wantsAdvanceAt_ = when;
        }
        return;
    }
    if (advanceScheduled_)
        return;
    advanceScheduled_ = true;
    queue_.schedule(
        when, [this] { advance(); }, EventPriority::CpuTick);
}

void
CoreModel::pause()
{
    paused_ = true;
}

void
CoreModel::unpause()
{
    RRM_CHECK(paused_, "unpause() on a running core");
    paused_ = false;
    if (wantsAdvance_) {
        wantsAdvance_ = false;
        scheduleAdvance(std::max(wantsAdvanceAt_, queue_.now()));
    }
}

CoreModel::OutstandingFill *
CoreModel::findOutstanding(Addr line)
{
    for (auto &fill : outstanding_)
        if (fill.valid && fill.line == line)
            return &fill;
    return nullptr;
}

std::uint64_t
CoreModel::oldestOutstandingLoad() const
{
    std::uint64_t oldest = noLoad;
    for (const auto &fill : outstanding_) {
        if (fill.valid && !fill.loadInstrs.empty() &&
            fill.loadInstrs.front() < oldest)
            oldest = fill.loadInstrs.front();
    }
    return oldest;
}

bool
CoreModel::robFull() const
{
    // resetInstructionCount() with loads still outstanding makes the
    // difference wrap, so the ROB reads as full until they return.
    return oldestLoad_ != noLoad &&
           instrCount_ - oldestLoad_ >= params_.robSize;
}

bool
CoreModel::processPendingMiss()
{
    RRM_CHECK(hasPending_, "no pending miss to process");

    // An in-flight fill of the line takes the access (MSHR merge);
    // otherwise the miss needs a free MSHR and an accepted fill.
    OutstandingFill *fill = findOutstanding(pendingLine_);
    if (!fill) {
        if (outstandingCount_ >= params_.maxOutstandingMisses) {
            stall_ = Stall::Mshr;
            if (statMshrStalls_)
                ++*statMshrStalls_;
            return false;
        }
        if (!port_.requestFill(id_, pendingLine_, pendingIsWrite_,
                               localTime_)) {
            stall_ = Stall::Resource;
            if (statResourceStalls_)
                ++*statResourceStalls_;
            return false;
        }
        for (auto &slot : outstanding_) {
            if (!slot.valid) {
                fill = &slot;
                break;
            }
        }
        RRM_CHECK(fill, "MSHR count below limit but no free entry");
        fill->line = pendingLine_;
        fill->valid = true;
        fill->isWrite = false;
        ++outstandingCount_;
    }
    fill->isWrite |= pendingIsWrite_;
    if (!pendingIsWrite_) {
        if (fill->loadInstrs.empty())
            oldestLoad_ = std::min(oldestLoad_, pendingInstr_);
        fill->loadInstrs.push_back(pendingInstr_);
    }
    hasPending_ = false;
    return true;
}

void
CoreModel::advance()
{
    advanceScheduled_ = false;
    if (paused_) {
        // Swallow the event; the unpause re-schedules it at this tick.
        if (!wantsAdvance_) {
            wantsAdvance_ = true;
            wantsAdvanceAt_ = queue_.now();
        }
        return;
    }
    if (localTime_ < queue_.now())
        localTime_ = queue_.now();
    const Tick quantum_start = localTime_;

    while (true) {
        if (stall_ != Stall::None)
            return;

        if (hasPending_ && !processPendingMiss())
            return;

        if (robFull()) {
            stall_ = Stall::Rob;
            if (statRobStalls_)
                ++*statRobStalls_;
            return;
        }

        if (localTime_ - quantum_start > params_.quantum) {
            scheduleAdvance(localTime_);
            return;
        }

        const trace::TraceRecord rec = source_.next();
        instrCount_ += rec.gapInstructions;
        localTime_ +=
            (Tick(rec.gapInstructions) * params_.cycle) / params_.width;
        ++instrCount_;

        const bool is_write = rec.type == trace::AccessType::Write;
        if (statMemOps_)
            ++*statMemOps_;
        if (is_write) {
            if (statStores_)
                ++*statStores_;
        } else if (statLoads_) {
            ++*statLoads_;
        }

        const cache::HierarchyEvents ev =
            hierarchy_.access(id_, addrBase_ + rec.addr, is_write);

        if (!ev.llcMiss) {
            // Loads pay a partial (OoO-hidden) hit penalty; stores
            // complete through the store buffer.
            if (!is_write) {
                if (ev.hitLevel == 2) {
                    localTime_ += cyclesToTicks(params_.l2HitPenalty,
                                                params_.cycle);
                } else if (ev.hitLevel == 3) {
                    localTime_ += cyclesToTicks(params_.llcHitPenalty,
                                                params_.cycle);
                }
            }
            if (ev.registration || ev.memWrite)
                port_.handleAccessEvents(id_, ev, localTime_);
            continue;
        }

        hasPending_ = true;
        pendingLine_ = hierarchy_.llc().lineAddr(addrBase_ + rec.addr);
        pendingIsWrite_ = is_write;
        pendingInstr_ = instrCount_;
    }
}

void
CoreModel::onFillComplete(Addr line)
{
    OutstandingFill *fill = findOutstanding(line);
    RRM_CHECK(fill, "fill completion for an unknown line");

    // Fill the hierarchy now that the data arrived; route any dirty
    // LLC victim / registration to the system.
    const cache::HierarchyEvents ev =
        hierarchy_.fill(id_, line, fill->isWrite);
    port_.handleAccessEvents(id_, ev, queue_.now());

    const bool held_oldest =
        !fill->loadInstrs.empty() && fill->loadInstrs.front() == oldestLoad_;
    fill->valid = false;
    fill->loadInstrs.clear(); // keeps capacity for reuse
    --outstandingCount_;
    if (held_oldest)
        oldestLoad_ = oldestOutstandingLoad();

    switch (stall_) {
      case Stall::Rob:
        if (!robFull()) {
            stall_ = Stall::None;
            if (localTime_ < queue_.now())
                localTime_ = queue_.now();
            scheduleAdvance(queue_.now());
        }
        break;
      case Stall::Mshr:
        stall_ = Stall::None;
        if (localTime_ < queue_.now())
            localTime_ = queue_.now();
        scheduleAdvance(queue_.now());
        break;
      case Stall::Resource:
      case Stall::None:
        break;
    }
}

void
CoreModel::resume()
{
    if (stall_ != Stall::Resource)
        return;
    stall_ = Stall::None;
    if (localTime_ < queue_.now())
        localTime_ = queue_.now();
    scheduleAdvance(queue_.now());
}

void
CoreModel::saveCkpt(ckpt::ChunkWriter &w) const
{
    RRM_CHECK(paused_ && quiescent(),
              "core checkpoint outside a paused quiescent point");
    w.u64(localTime_);
    w.u64(instrCount_);
    w.u8(static_cast<std::uint8_t>(stall_));
    w.b(hasPending_);
    w.u64(pendingLine_);
    w.b(pendingIsWrite_);
    w.u64(pendingInstr_);
    w.b(wantsAdvance_);
    w.u64(wantsAdvanceAt_);
    w.u64(source_.consumed());
}

void
CoreModel::restoreCkpt(ckpt::ChunkReader &r)
{
    RRM_CHECK(outstandingCount_ == 0 && !advanceScheduled_,
              "restoreCkpt() on a started core");
    paused_ = true;
    localTime_ = r.u64();
    instrCount_ = r.u64();
    const std::uint8_t stall = r.u8();
    if (stall > static_cast<std::uint8_t>(Stall::Resource))
        throw ckpt::CkptError("core " + std::to_string(id_) +
                              ": invalid stall state " +
                              std::to_string(stall));
    stall_ = static_cast<Stall>(stall);
    hasPending_ = r.b();
    pendingLine_ = r.u64();
    pendingIsWrite_ = r.b();
    pendingInstr_ = r.u64();
    wantsAdvance_ = r.b();
    wantsAdvanceAt_ = r.u64();
    source_.seek(r.u64());
}

void
CoreModel::regStats(stats::StatGroup &group)
{
    auto &g = group.addChild("core" + std::to_string(id_));
    statInstructions_ = &g.addScalar("instructions", "(unused; see ipc)");
    statMemOps_ = &g.addScalar("memOps", "memory instructions executed");
    statLoads_ = &g.addScalar("loads", "load instructions");
    statStores_ = &g.addScalar("stores", "store instructions");
    statRobStalls_ = &g.addScalar("robStalls", "stalls on a full ROB");
    statMshrStalls_ = &g.addScalar("mshrStalls", "stalls on full MSHRs");
    statResourceStalls_ = &g.addScalar(
        "resourceStalls", "stalls on memory-system backpressure");
}

} // namespace rrm::cpu
