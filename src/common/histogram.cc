/**
 * @file
 * BoundedHistogram and SampleStats implementations.
 */

#include "histogram.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "check.hh"

namespace rrm
{

BoundedHistogram::BoundedHistogram(std::vector<std::uint64_t> boundaries)
    : boundaries_(std::move(boundaries))
{
    RRM_CHECK(!boundaries_.empty(), "histogram needs at least one boundary");
    RRM_CHECK(std::is_sorted(boundaries_.begin(), boundaries_.end()) &&
                  std::adjacent_find(boundaries_.begin(),
                                     boundaries_.end()) ==
                      boundaries_.end(),
              "histogram boundaries must be strictly increasing");
    counts_.assign(boundaries_.size() + 1, 0);
}

void
BoundedHistogram::add(std::uint64_t value, std::uint64_t weight)
{
    const auto it =
        std::upper_bound(boundaries_.begin(), boundaries_.end(), value);
    const auto idx =
        static_cast<std::size_t>(it - boundaries_.begin());
    counts_[idx] += weight;
    total_ += weight;
}

double
BoundedHistogram::fraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(count(i)) / static_cast<double>(total_);
}

std::string
BoundedHistogram::bucketLabel(std::size_t i) const
{
    RRM_CHECK(i < counts_.size(), "bucket index out of range");
    std::ostringstream os;
    if (i == 0) {
        os << "< " << boundaries_.front();
    } else if (i == counts_.size() - 1) {
        os << ">= " << boundaries_.back();
    } else {
        os << "[" << boundaries_[i - 1] << ", " << boundaries_[i] << ")";
    }
    return os.str();
}

void
BoundedHistogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
}

void
BoundedHistogram::restoreCounts(
    const std::vector<std::uint64_t> &counts, std::uint64_t total)
{
    RRM_CHECK(counts.size() == counts_.size(),
              "histogram restore with mismatched bucket count");
    counts_ = counts;
    total_ = total;
}

void
SampleStats::add(double v)
{
    if (n_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++n_;
    sum_ += v;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
}

double
SampleStats::variance() const
{
    return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double
SampleStats::stddev() const
{
    return std::sqrt(variance());
}

} // namespace rrm
