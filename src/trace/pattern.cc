/**
 * @file
 * Access pattern implementations.
 */

#include "pattern.hh"

#include "common/check.hh"
#include "common/math_util.hh"

namespace rrm::trace
{

StridePattern::StridePattern(std::uint64_t footprint_bytes,
                             std::uint64_t stride_bytes,
                             double write_fraction)
    : footprint_(footprint_bytes),
      stride_(stride_bytes),
      writeFraction_(write_fraction)
{
    RRM_CHECK(stride_ > 0, "stride must be positive");
    RRM_CHECK(footprint_ >= 2 * stride_, "footprint too small");
    RRM_CHECK(write_fraction >= 0.0 && write_fraction <= 1.0,
              "write fraction out of [0,1]");
    half_ = footprint_ / 2;
}

void
StridePattern::next(Random &rng, Addr &addr, AccessType &type)
{
    if (rng.chance(writeFraction_)) {
        type = AccessType::Write;
        addr = half_ + writeCursor_;
        writeCursor_ += stride_;
        if (writeCursor_ + stride_ > half_)
            writeCursor_ = 0;
    } else {
        type = AccessType::Read;
        addr = readCursor_;
        readCursor_ += stride_;
        if (readCursor_ + stride_ > half_)
            readCursor_ = 0;
    }
}

ZipfRegionPattern::ZipfRegionPattern(std::uint64_t num_regions,
                                     std::uint64_t region_bytes,
                                     double zipf_skew,
                                     double write_fraction,
                                     unsigned max_burst_blocks)
    : numRegions_(num_regions),
      regionBytes_(region_bytes),
      writeFraction_(write_fraction),
      maxBurstBlocks_(max_burst_blocks),
      zipf_(num_regions, zipf_skew)
{
    RRM_CHECK(numRegions_ > 0, "need at least one region");
    RRM_CHECK(isPowerOfTwo(regionBytes_) && regionBytes_ >= blockBytes,
              "region size must be a power of two >= one block");
    RRM_CHECK(maxBurstBlocks_ >= 1, "burst must cover >= 1 block");
    RRM_CHECK(write_fraction >= 0.0 && write_fraction <= 1.0,
              "write fraction out of [0,1]");
}

void
ZipfRegionPattern::startBurst(Random &rng)
{
    const std::uint64_t region = zipf_.sample(rng);
    const std::uint64_t blocks_per_region = regionBytes_ / blockBytes;
    std::uint64_t start_block;
    if (maxBurstBlocks_ >= blocks_per_region) {
        // Whole-region sweep (stencil-style page rewrite): every
        // block of the region is touched in order.
        burstLeft_ = static_cast<unsigned>(blocks_per_region);
        start_block = 0;
    } else {
        burstLeft_ =
            1 + static_cast<unsigned>(rng.uniform(maxBurstBlocks_));
        start_block = rng.uniform(blocks_per_region - burstLeft_ + 1);
    }
    burstBase_ = region * regionBytes_ + start_block * blockBytes;
    burstBlock_ = 0;
    burstIsWrite_ = rng.chance(writeFraction_);
}

void
ZipfRegionPattern::next(Random &rng, Addr &addr, AccessType &type)
{
    if (burstLeft_ == 0)
        startBurst(rng);
    addr = burstBase_ + static_cast<Addr>(burstBlock_) * blockBytes;
    type = burstIsWrite_ ? AccessType::Write : AccessType::Read;
    ++burstBlock_;
    --burstLeft_;
}

ChasePattern::ChasePattern(std::uint64_t footprint_bytes,
                           double write_fraction)
    : footprint_(footprint_bytes), writeFraction_(write_fraction)
{
    RRM_CHECK(footprint_ >= blockBytes, "footprint below one block");
    RRM_CHECK(write_fraction >= 0.0 && write_fraction <= 1.0,
              "write fraction out of [0,1]");
}

void
ChasePattern::next(Random &rng, Addr &addr, AccessType &type)
{
    const std::uint64_t blocks = footprint_ / blockBytes;
    addr = rng.uniform(blocks) * blockBytes;
    type = rng.chance(writeFraction_) ? AccessType::Write
                                      : AccessType::Read;
}

} // namespace rrm::trace
