/**
 * @file
 * Physical address decomposition.
 *
 * Layout (low to high bits):
 *
 *   [ block offset | column-in-rowbuf | channel | bank | row ]
 *
 * Channel interleaving at row-buffer (1 KB) granularity keeps
 * sequential streams spread across channels while preserving
 * open-page locality inside each 1 KB row-buffer segment; a 4 KB OS
 * page stripes across all four channels. Each bank tracks the open
 * row-buffer segment by its global `rowId` (addr >> log2(rowBufferBytes)),
 * which uniquely identifies the segment within that bank.
 */

#ifndef RRM_MEMCTRL_ADDRESS_MAP_HH
#define RRM_MEMCTRL_ADDRESS_MAP_HH

#include "common/check.hh"
#include "common/math_util.hh"
#include "memctrl/timing.hh"

namespace rrm::memctrl
{

/** Decoded location of a block address. */
struct Location
{
    unsigned channel;
    unsigned bank;
    std::uint64_t rowId; ///< open-page tag (1 KB segment id)
};

/** Address decoder for the configured geometry. */
class AddressMap
{
  public:
    explicit AddressMap(const MemoryParams &params)
        : params_(params)
    {
        RRM_CHECK(isPowerOfTwo(params.numChannels),
                  "channel count must be a power of two");
        colShift_ = floorLog2(params.rowBufferBytes);
        chanBits_ = floorLog2(params.numChannels);
        bankBits_ = floorLog2(params.banksPerChannel);
    }

    /** Decode a (block-aligned) address. */
    Location
    decode(Addr addr) const
    {
        RRM_CHECK(addr < params_.memoryBytes, "address ", addr,
                  " beyond PCM capacity");
        Location loc;
        std::uint64_t v = addr >> colShift_;
        loc.rowId = v; // unique per 1 KB segment (includes chan/bank)
        loc.channel = static_cast<unsigned>(v & (params_.numChannels - 1));
        v >>= chanBits_;
        loc.bank =
            static_cast<unsigned>(v & (params_.banksPerChannel - 1));
        return loc;
    }

    const MemoryParams &params() const { return params_; }

  private:
    MemoryParams params_;
    unsigned colShift_;
    unsigned chanBits_;
    unsigned bankBits_;
};

} // namespace rrm::memctrl

#endif // RRM_MEMCTRL_ADDRESS_MAP_HH
