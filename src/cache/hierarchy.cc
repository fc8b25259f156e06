/**
 * @file
 * CacheHierarchy implementation.
 */

#include "hierarchy.hh"

#include <algorithm>
#include <bit>

#include "ckpt/ckpt.hh"

namespace rrm::cache
{

HierarchyConfig
defaultHierarchyConfig()
{
    // Table IV, 2 GHz core clock: L1 2 cycles, L2 12, LLC 35.
    HierarchyConfig cfg;
    cfg.numCores = 4;

    cfg.l1.name = "l1d";
    cfg.l1.sizeBytes = 32_KiB;
    cfg.l1.assoc = 4;
    cfg.l1.hitLatency = 1_ns; // 2 cycles @ 2 GHz

    cfg.l2.name = "l2";
    cfg.l2.sizeBytes = 256_KiB;
    cfg.l2.assoc = 8;
    cfg.l2.hitLatency = 6_ns; // 12 cycles

    cfg.llc.name = "llc";
    cfg.llc.sizeBytes = 6_MiB;
    cfg.llc.assoc = 24;
    cfg.llc.hitLatency = 17500_ps; // 35 cycles

    return cfg;
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config)
{
    RRM_CHECK(config_.numCores >= 1, "need at least one core");
    RRM_CHECK(config_.numCores <= 64,
              "a sharer row holds at most 64 cores, got ",
              config_.numCores);
    for (unsigned c = 0; c < config_.numCores; ++c) {
        CacheConfig l1 = config_.l1;
        CacheConfig l2 = config_.l2;
        l1.name = config_.l1.name + std::to_string(c);
        l2.name = config_.l2.name + std::to_string(c);
        l1s_.push_back(std::make_unique<Cache>(l1));
        l2s_.push_back(std::make_unique<Cache>(l2));
    }
    llc_ = std::make_unique<Cache>(config_.llc);

    rowShift_ = static_cast<unsigned>(
        std::countr_zero(std::bit_ceil(config_.numCores)));
    rowMask_ = ~std::uint64_t(0) >> (64 - (1u << rowShift_));
    const std::uint64_t llc_lines = llc_->numSets() * config_.llc.assoc;
    sharers_.assign(divCeil(llc_lines << rowShift_, 64), 0);
}

std::uint64_t
CacheHierarchy::takeSharers(Way llc_way)
{
    const std::uint64_t bit = std::uint64_t(llc_way) << rowShift_;
    std::uint64_t &word = sharers_[bit >> 6];
    const unsigned shift = bit & 63;
    const std::uint64_t row = (word >> shift) & rowMask_;
    word &= ~(rowMask_ << shift);
    return row;
}

void
CacheHierarchy::addSharer(Way llc_way, unsigned core)
{
    const std::uint64_t bit = (std::uint64_t(llc_way) << rowShift_) + core;
    sharers_[bit >> 6] |= std::uint64_t(1) << (bit & 63);
}

bool
CacheHierarchy::isSharer(Way llc_way, unsigned core) const
{
    const std::uint64_t bit = (std::uint64_t(llc_way) << rowShift_) + core;
    return (sharers_[bit >> 6] >> (bit & 63)) & 1;
}

HierarchyEvents
CacheHierarchy::access(unsigned core, Addr addr, bool is_write)
{
    RRM_CHECK(core < config_.numCores, "core index out of range");
    addr = llc_->lineAddr(addr);

    HierarchyEvents ev;
    Cache &l1 = *l1s_[core];

    ev.latency += config_.l1.hitLatency;
    Way way = l1.lookup(addr);
    if (way != noWay) {
        ev.hitLevel = 1;
    } else {
        ev.latency += config_.l2.hitLatency;
        if (l2s_[core]->lookup(addr) != noWay) {
            ev.hitLevel = 2;
        } else {
            ev.latency += config_.llc.hitLatency;
            const Way llc_way = llc_->lookup(addr);
            if (llc_way == noWay) {
                ev.llcMiss = true;
                return ev;
            }
            ev.hitLevel = 3;
            fillIntoL2(core, addr, llc_way, ev);
        }
        way = fillIntoL1(core, addr);
    }
    if (is_write)
        l1.markDirty(way);
    return ev;
}

HierarchyEvents
CacheHierarchy::fill(unsigned core, Addr addr, bool is_write)
{
    RRM_CHECK(core < config_.numCores, "core index out of range");
    addr = llc_->lineAddr(addr);

    HierarchyEvents ev;
    // allocate() rejects a line already in the LLC.
    const Allocation alloc = llc_->allocate(addr);
    // The row belongs to the outgoing line; the new one starts empty.
    std::uint64_t sharers = takeSharers(alloc.way);
    const Victim &victim = alloc.victim;
    if (victim.valid) {
        // Back-invalidate upper-level copies to preserve inclusion; a
        // dirtier upper copy upgrades the outgoing line. Only the cores
        // in the line's sharer row can hold one (L1 ⊆ L2).
        bool dirty = victim.dirty;
        for (; sharers != 0; sharers &= sharers - 1) {
            const auto c = static_cast<unsigned>(std::countr_zero(sharers));
            dirty |= l2s_[c]->invalidate(victim.addr);
            dirty |= l1s_[c]->invalidate(victim.addr);
        }
        if (dirty) {
            ev.memWrite = true;
            ev.memWriteAddr = victim.addr;
        }
    }

    fillIntoL2(core, addr, alloc.way, ev);
    const Way way = fillIntoL1(core, addr);
    if (is_write)
        l1s_[core]->markDirty(way);
    return ev;
}

void
CacheHierarchy::fillIntoL2(unsigned core, Addr addr, Way llc_way,
                           HierarchyEvents &ev)
{
    addSharer(llc_way, core);
    const Victim victim = l2s_[core]->allocate(addr).victim;
    if (!victim.valid)
        return;

    // The L1 copy (if any) must leave too; it may be dirtier.
    const bool l1_dirty = l1s_[core]->invalidate(victim.addr);
    if (!victim.dirty && !l1_dirty)
        return;

    // Write the victim back into its LLC line: this is the LLC write
    // the RRM registers, with the line's previous dirty bit.
    const Way way = llc_->lookup(victim.addr); // an LLC hit: promotes
    RRM_CHECK(way != noWay, "inclusion broken: L2 victim absent from LLC");
    RRM_CHECK(!ev.registration, "one operation produced two LLC writes");
    ev.registration = true;
    ev.registrationAddr = victim.addr;
    ev.registrationWasDirty = llc_->isDirty(way);
    llc_->markDirty(way);
}

Way
CacheHierarchy::fillIntoL1(unsigned core, Addr addr)
{
    const Allocation alloc = l1s_[core]->allocate(addr);
    if (alloc.victim.valid && alloc.victim.dirty) {
        // L1 ⊆ L2: the victim's line is present in L2 (an L2 hit).
        Cache &l2 = *l2s_[core];
        const Way way = l2.lookup(alloc.victim.addr);
        RRM_CHECK(way != noWay, "inclusion broken: L1 victim absent from L2");
        l2.markDirty(way);
    }
    return alloc.way;
}

void
CacheHierarchy::regStats(stats::StatGroup &group)
{
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l1s_[c]->regStats(group);
        l2s_[c]->regStats(group);
    }
    llc_->regStats(group);
}

void
CacheHierarchy::saveCkpt(ckpt::ChunkWriter &w) const
{
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l1s_[c]->saveCkpt(w);
        l2s_[c]->saveCkpt(w);
    }
    llc_->saveCkpt(w);
}

void
CacheHierarchy::restoreCkpt(ckpt::ChunkReader &r)
{
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l1s_[c]->restoreCkpt(r);
        l2s_[c]->restoreCkpt(r);
    }
    llc_->restoreCkpt(r);

    std::fill(sharers_.begin(), sharers_.end(), 0);
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l2s_[c]->forEachValidLine([&](Addr a) {
            const Way llc_way = llc_->find(a);
            if (llc_way == noWay)
                throw ckpt::CkptError("checkpoint breaks inclusion: an "
                                      "L2 line of core " +
                                      std::to_string(c) +
                                      " is absent from the LLC");
            addSharer(llc_way, c);
        });
    }
}

void
CacheHierarchy::audit() const
{
    llc_->audit();
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l1s_[c]->audit();
        l2s_[c]->audit();

        l1s_[c]->forEachValidLine([&](Addr a) {
            RRM_AUDIT(l2s_[c]->find(a) != noWay, "inclusion: L1 line 0x",
                      std::hex, a, std::dec, " of core ", c,
                      " absent from L2");
        });
        l2s_[c]->forEachValidLine([&](Addr a) {
            const Way llc_way = llc_->find(a);
            RRM_AUDIT(llc_way != noWay, "inclusion: L2 line 0x", std::hex,
                      a, std::dec, " of core ", c, " absent from the LLC");
            if (llc_way != noWay) {
                RRM_AUDIT(isSharer(llc_way, c), "L2 line 0x", std::hex, a,
                          std::dec, " of core ", c,
                          " missing from its LLC sharer row");
            }
        });
    }
}

} // namespace rrm::cache
