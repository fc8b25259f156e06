/**
 * @file
 * Start-Gap implementation.
 */

#include "start_gap.hh"

#include "ckpt/ckpt.hh"

namespace rrm::memctrl
{

StartGapDomain::StartGapDomain(std::uint64_t num_lines,
                               std::uint64_t gap_write_period)
    : numLines_(num_lines), gapWritePeriod_(gap_write_period)
{
    RRM_CHECK(numLines_ >= 2, "domain needs at least two lines");
    RRM_CHECK(gapWritePeriod_ >= 1, "gap period must be positive");
    gap_ = numLines_; // spare slot initially at the top
}

std::uint64_t
StartGapDomain::physicalSlot(std::uint64_t line) const
{
    RRM_CHECK(line < numLines_, "line outside domain");
    // N+1 slots; `start` rotates the namespace over N, and lines at
    // or above the gap shift up one slot to skip the hole (the
    // original MICRO'09 formulation).
    std::uint64_t slot = (start_ + line) % numLines_;
    if (slot >= gap_)
        ++slot;
    return slot;
}

bool
StartGapDomain::onWrite()
{
    if (++writesSinceMove_ < gapWritePeriod_)
        return false;
    writesSinceMove_ = 0;
    ++gapMoves_;
    if (gap_ == 0) {
        // Gap wrapped: the whole array shifted one slot.
        gap_ = numLines_;
        start_ = (start_ + 1) % numLines_;
    } else {
        --gap_;
    }
    return true;
}

void
StartGapDomain::audit() const
{
    RRM_AUDIT(start_ < numLines_, "start pointer ", start_,
              " outside domain of ", numLines_, " lines");
    RRM_AUDIT(gap_ <= numLines_, "gap pointer ", gap_,
              " outside the N+1 physical slots");
    RRM_AUDIT(writesSinceMove_ < gapWritePeriod_,
              "writesSinceMove ", writesSinceMove_,
              " reached the gap period ", gapWritePeriod_,
              " without rotating");

    // Full bijection sweep: every logical line must land on a
    // distinct physical slot, and the only free slot is the gap.
    std::vector<bool> occupied(numLines_ + 1, false);
    for (std::uint64_t line = 0; line < numLines_; ++line) {
        std::uint64_t slot = (start_ + line) % numLines_;
        if (slot >= gap_)
            ++slot;
        if (slot > numLines_) {
            RRM_AUDIT(false, "line ", line, " maps to slot ", slot,
                      " beyond the physical array");
            continue;
        }
        RRM_AUDIT(!occupied[slot], "remap is not injective: slot ",
                  slot, " reached twice (line ", line, ")");
        occupied[slot] = true;
    }
    if (gap_ <= numLines_) {
        RRM_AUDIT(!occupied[gap_],
                  "gap slot ", gap_, " is occupied by a logical line");
    }
}

void
StartGapDomain::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u64(start_);
    w.u64(gap_);
    w.u64(writesSinceMove_);
    w.u64(gapMoves_);
}

void
StartGapDomain::restoreCkpt(ckpt::ChunkReader &r)
{
    start_ = r.u64();
    gap_ = r.u64();
    writesSinceMove_ = r.u64();
    gapMoves_ = r.u64();
    if (start_ >= numLines_ || gap_ > numLines_ ||
        writesSinceMove_ >= gapWritePeriod_)
        throw ckpt::CkptError(
            "Start-Gap domain pointers out of range (start " +
            std::to_string(start_) + ", gap " + std::to_string(gap_) +
            ", writesSinceMove " + std::to_string(writesSinceMove_) +
            " over " + std::to_string(numLines_) + " lines)");
}

StartGapRemapper::StartGapRemapper(std::uint64_t memory_bytes,
                                   const StartGapParams &params)
    : params_(params), memoryBytes_(memory_bytes)
{
    RRM_CHECK(isPowerOfTwo(params_.lineBytes),
              "Start-Gap line size must be a power of two");
    const std::uint64_t total_lines = memory_bytes / params_.lineBytes;
    RRM_CHECK(total_lines % params_.linesPerDomain == 0,
              "memory must be a whole number of Start-Gap domains");
    const std::uint64_t n = total_lines / params_.linesPerDomain;
    domains_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        domains_.emplace_back(params_.linesPerDomain,
                              params_.gapWritePeriod);
    }
}

std::uint64_t
StartGapRemapper::domainOf(Addr addr) const
{
    RRM_CHECK(addr < memoryBytes_, "address beyond memory");
    return (addr / params_.lineBytes) / params_.linesPerDomain;
}

Addr
StartGapRemapper::remap(Addr addr) const
{
    const std::uint64_t line = addr / params_.lineBytes;
    const std::uint64_t domain = line / params_.linesPerDomain;
    const std::uint64_t local = line % params_.linesPerDomain;
    const Addr offset = addr % params_.lineBytes;

    std::uint64_t slot = domains_[domain].physicalSlot(local);
    // Fold the spare slot back into the domain (see class comment).
    if (slot == params_.linesPerDomain)
        slot = params_.linesPerDomain - 1;
    const std::uint64_t base =
        domain * params_.linesPerDomain * params_.lineBytes;
    return base + slot * params_.lineBytes + offset;
}

bool
StartGapRemapper::onWrite(Addr addr)
{
    const std::uint64_t domain = domainOf(addr);
    const bool moved = domains_[domain].onWrite();
    if (moved) {
        RRM_TRACE(traceSink_, traceNow_ ? traceNow_() : 0,
                  obs::TraceCategory::StartGap, "gapMove",
                  RRM_TF("domain", domain),
                  RRM_TF("gap", domains_[domain].gap()),
                  RRM_TF("start", domains_[domain].start()));
    }
    return moved;
}

void
StartGapRemapper::audit() const
{
    RRM_AUDIT(domains_.size() * params_.linesPerDomain *
                      params_.lineBytes ==
                  memoryBytes_,
              "domains no longer tile the memory exactly");
    for (const auto &d : domains_)
        d.audit();
}

void
StartGapRemapper::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(domains_.size()));
    for (const auto &d : domains_)
        d.saveCkpt(w);
}

void
StartGapRemapper::restoreCkpt(ckpt::ChunkReader &r)
{
    const std::uint32_t n = r.u32();
    if (n != domains_.size())
        throw ckpt::CkptError(
            "Start-Gap remapper has " + std::to_string(domains_.size()) +
            " domains but the checkpoint holds " + std::to_string(n) +
            " (geometry mismatch)");
    for (auto &d : domains_)
        d.restoreCkpt(r);
}

std::uint64_t
StartGapRemapper::totalGapMoves() const
{
    std::uint64_t n = 0;
    for (const auto &d : domains_)
        n += d.gapMoves();
    return n;
}

} // namespace rrm::memctrl
