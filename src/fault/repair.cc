/**
 * @file
 * EcpRepair / LineRetirement implementation.
 */

#include "repair.hh"

#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/check.hh"

namespace rrm::fault
{

void
EcpRepair::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u64(used_.size());
    for (const auto &[line, used] : used_) {
        w.u64(line);
        w.u32(used);
    }
}

void
EcpRepair::restoreCkpt(ckpt::ChunkReader &r)
{
    used_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr line = r.u64();
        const unsigned used = r.u32();
        if (used == 0 || used > budget_)
            throw ckpt::CkptError(
                "ECP checkpoint carries an out-of-budget count " +
                std::to_string(used) + " for line " +
                std::to_string(line));
        used_[line] = used;
    }
}

void
EcpRepair::audit() const
{
    for (const auto &[line, used] : used_) {
        RRM_AUDIT(used > 0 && used <= budget_, "line ", line,
                  " carries an out-of-budget ECP count ", used);
    }
}

LineRetirement::LineRetirement(std::uint64_t memory_bytes,
                               std::uint64_t spare_blocks)
    : spareBlocks_(spare_blocks),
      spareBase_(memory_bytes - spare_blocks * blockBytes)
{
    RRM_CHECK(spare_blocks * blockBytes <= memory_bytes,
              "spare pool larger than memory");
}

bool
LineRetirement::retire(Addr line)
{
    RRM_CHECK(!isRetired(line), "line ", line, " retired twice");
    if (nextSpare_ >= spareBlocks_)
        return false;
    map_[line] = spareBase_ + nextSpare_ * blockBytes;
    ++nextSpare_;
    return true;
}

void
LineRetirement::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u64(nextSpare_);
    w.u64(map_.size());
    for (const auto &[line, spare] : map_) {
        w.u64(line);
        w.u64(spare);
    }
}

void
LineRetirement::restoreCkpt(ckpt::ChunkReader &r)
{
    nextSpare_ = r.u64();
    map_.clear();
    const std::uint64_t n = r.u64();
    if (n != nextSpare_ || n > spareBlocks_)
        throw ckpt::CkptError(
            "retirement checkpoint holds " + std::to_string(n) +
            " entries against " + std::to_string(nextSpare_) +
            " spares handed out (pool of " +
            std::to_string(spareBlocks_) + ")");
    std::vector<bool> backed(n, false);
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr line = r.u64();
        const Addr spare = r.u64();
        const std::uint64_t slot = (spare - spareBase_) / blockBytes;
        if (spare < spareBase_ || slot >= n ||
            spare != spareBase_ + slot * blockBytes || backed[slot] ||
            !map_.emplace(line, spare).second)
            throw ckpt::CkptError(
                "retirement checkpoint entry " + std::to_string(line) +
                " -> " + std::to_string(spare) +
                " is not a distinct line on a distinct one of the " +
                std::to_string(n) + " spares handed out");
        backed[slot] = true;
    }
    // remap() follows a chain until an unretired address; a chain
    // longer than the map revisits a line and would never end.
    for (const auto &[line, spare] : map_) {
        Addr at = spare;
        for (std::uint64_t steps = 0; isRetired(at); ++steps) {
            if (steps == n)
                throw ckpt::CkptError(
                    "retirement checkpoint chain from line " +
                    std::to_string(line) + " revisits a line");
            at = map_.at(at);
        }
    }
}

void
LineRetirement::audit() const
{
    RRM_AUDIT(map_.size() == nextSpare_,
              "retirement map size ", map_.size(),
              " disagrees with spares handed out ", nextSpare_);
    for (const auto &[line, spare] : map_) {
        RRM_AUDIT(spare >= spareBase_ &&
                      spare < spareBase_ + spareBlocks_ * blockBytes,
                  "retired line ", line, " mapped outside the spare "
                  "pool");
        RRM_AUDIT(line != spare, "line retired onto itself");
    }
}

} // namespace rrm::fault
