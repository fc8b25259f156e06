/**
 * @file
 * Stuck-at repair: ECP-style per-line pointer budget plus line
 * retirement into a spare-block pool.
 */

#ifndef RRM_FAULT_REPAIR_HH
#define RRM_FAULT_REPAIR_HH

#include <cstdint>
#include <map>

#include "common/units.hh"

namespace rrm::ckpt
{
class ChunkWriter;
class ChunkReader;
} // namespace rrm::ckpt

namespace rrm::fault
{

/**
 * Error-correcting-pointers budget: each memory line owns a fixed
 * number of replacement cells; every repaired stuck-at consumes one.
 */
class EcpRepair
{
  public:
    explicit EcpRepair(unsigned budget_per_line)
        : budget_(budget_per_line)
    {}

    /**
     * Consume one pointer for a new stuck-at cell in `line`. Returns
     * false when the line's budget is already exhausted.
     */
    bool
    repair(Addr line)
    {
        unsigned &used = used_[line];
        if (used >= budget_)
            return false;
        ++used;
        return true;
    }

    unsigned
    used(Addr line) const
    {
        auto it = used_.find(line);
        return it == used_.end() ? 0 : it->second;
    }

    unsigned budgetPerLine() const { return budget_; }
    std::size_t repairedLines() const { return used_.size(); }

    /** @{ Checkpoint the per-line pointer-usage map. */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    void audit() const;

  private:
    unsigned budget_;
    /** Ordered: audit diagnostics walk lines in address order. */
    std::map<Addr, unsigned> used_;
};

/**
 * Retirement pool: lines whose ECP budget is exhausted are remapped
 * to spare blocks carved from the top of physical memory. The spare
 * range aliases ordinary memory — acceptable for a timing/wear model
 * that never stores data — but the remap keeps traffic, wear and
 * retention obligations flowing to distinct addresses. Workload
 * memory must stay out of the pool (see remap());
 * sys::SystemConfig::validate() enforces that whenever stuck-at
 * faults are on.
 */
class LineRetirement
{
  public:
    LineRetirement(std::uint64_t memory_bytes, std::uint64_t spare_blocks);

    /**
     * Retire `line` onto the next free spare. Returns false (and
     * leaves the line mapped in place) when spares are exhausted.
     */
    bool retire(Addr line);

    bool
    isRetired(Addr line) const
    {
        return map_.find(line) != map_.end();
    }

    /**
     * Live address for `block`: identity for an unretired line, else
     * the end of its retirement chain (a spare can itself wear out
     * and retire onto a later spare). Chains cannot cycle while only
     * handed-out spares retire from inside the pool, because each
     * retirement targets a fresh, higher-index spare. A workload line
     * inside the pool breaks that: it can retire onto itself, or onto
     * a spare that later retires back onto it, and this loop would
     * never return.
     */
    Addr
    remap(Addr block) const
    {
        auto it = map_.find(block);
        while (it != map_.end()) {
            block = it->second;
            it = map_.find(block);
        }
        return block;
    }

    std::uint64_t retiredCount() const { return map_.size(); }
    std::uint64_t spareCapacity() const { return spareBlocks_; }

    /** @{ Checkpoint the remap chains and the spare cursor. */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    void audit() const;

  private:
    std::uint64_t spareBlocks_;
    Addr spareBase_;
    std::uint64_t nextSpare_ = 0;
    /** Ordered: remap chains and audits resolve in address order,
     *  independent of retirement arrival order. */
    std::map<Addr, Addr> map_;
};

} // namespace rrm::fault

#endif // RRM_FAULT_REPAIR_HH
