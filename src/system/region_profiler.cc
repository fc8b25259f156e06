/**
 * @file
 * RegionWriteProfiler implementation.
 */

#include "region_profiler.hh"

#include <algorithm>

#include "ckpt/ckpt.hh"
#include "common/check.hh"
#include "common/math_util.hh"

namespace rrm::sys
{

RegionWriteProfiler::RegionWriteProfiler(
    std::uint64_t region_bytes, std::uint64_t total_regions,
    std::vector<std::uint64_t> interval_boundaries)
    : regionBytes_(region_bytes),
      totalRegions_(total_regions),
      boundaries_(interval_boundaries),
      intervalHist_(std::move(interval_boundaries))
{
    RRM_CHECK(isPowerOfTwo(regionBytes_),
              "profiler region size must be a power of two");
}

void
RegionWriteProfiler::recordWrite(Addr addr, Tick now)
{
    const std::uint64_t region = addr / regionBytes_;
    RegionInfo &info = regions_[region];
    if (info.count > 0)
        intervalHist_.add(now - info.lastWrite);
    else
        info.firstWrite = now;
    info.lastWrite = now;
    ++info.count;
    ++totalWrites_;
}

std::uint64_t
RegionWriteProfiler::writtenOnceRegions() const
{
    std::uint64_t n = 0;
    for (const auto &[region, info] : regions_)
        if (info.count == 1)
            ++n;
    return n;
}

double
RegionWriteProfiler::hotRegionFraction(double share) const
{
    RRM_CHECK(share > 0.0 && share <= 1.0, "share out of (0, 1]");
    if (totalWrites_ == 0 || totalRegions_ == 0)
        return 0.0;
    std::vector<std::uint64_t> counts;
    counts.reserve(regions_.size());
    for (const auto &[region, info] : regions_)
        counts.push_back(info.count);
    std::sort(counts.begin(), counts.end(), std::greater<>());
    const auto target = static_cast<std::uint64_t>(
        share * static_cast<double>(totalWrites_));
    std::uint64_t acc = 0;
    std::uint64_t used = 0;
    for (std::uint64_t c : counts) {
        acc += c;
        ++used;
        if (acc >= target)
            break;
    }
    return static_cast<double>(used) /
           static_cast<double>(totalRegions_);
}

std::vector<RegionWriteProfiler::RegionBucket>
RegionWriteProfiler::regionsByMeanInterval() const
{
    // One bucket per interval-histogram bucket; regions written once
    // cannot have an interval and are reported separately by
    // writtenOnceRegions().
    std::vector<RegionBucket> buckets(boundaries_.size() + 1);
    for (const auto &[region, info] : regions_) {
        if (info.count < 2)
            continue;
        const Tick span = info.lastWrite - info.firstWrite;
        const std::uint64_t mean_interval = span / (info.count - 1);
        const auto it = std::upper_bound(boundaries_.begin(),
                                         boundaries_.end(),
                                         mean_interval);
        const auto idx =
            static_cast<std::size_t>(it - boundaries_.begin());
        buckets[idx].regions += 1;
        buckets[idx].writes += info.count;
    }
    return buckets;
}

void
RegionWriteProfiler::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u64(intervalHist_.numBuckets());
    for (std::size_t i = 0; i < intervalHist_.numBuckets(); ++i)
        w.u64(intervalHist_.count(i));
    w.u64(intervalHist_.total());
    w.u64(regions_.size());
    for (const auto &[region, info] : regions_) {
        w.u64(region);
        w.u64(info.firstWrite);
        w.u64(info.lastWrite);
        w.u64(info.count);
    }
    w.u64(totalWrites_);
}

void
RegionWriteProfiler::restoreCkpt(ckpt::ChunkReader &r)
{
    const std::uint64_t buckets = r.u64();
    if (buckets != intervalHist_.numBuckets())
        throw ckpt::CkptError(
            "profiler checkpoint has " + std::to_string(buckets) +
            " interval buckets, this run has " +
            std::to_string(intervalHist_.numBuckets()));
    std::vector<std::uint64_t> counts(buckets);
    for (std::uint64_t i = 0; i < buckets; ++i)
        counts[i] = r.u64();
    intervalHist_.restoreCounts(counts, r.u64());
    regions_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t region = r.u64();
        if (region >= totalRegions_)
            throw ckpt::CkptError(
                "profiler checkpoint region " + std::to_string(region) +
                " outside the studied memory (" +
                std::to_string(totalRegions_) + " regions)");
        RegionInfo &info = regions_[region];
        info.firstWrite = r.u64();
        info.lastWrite = r.u64();
        info.count = r.u64();
    }
    totalWrites_ = r.u64();
}

void
RegionWriteProfiler::reset()
{
    intervalHist_.reset();
    regions_.clear();
    totalWrites_ = 0;
}

} // namespace rrm::sys
