#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.h"

namespace wsp {

void
RunningStat::add(double sample)
{
    ++count_;
    sum_ += sample;
    if (count_ == 1) {
        mean_ = sample;
        min_ = sample;
        max_ = sample;
        m2_ = 0.0;
        return;
    }
    const double delta = sample - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (sample - mean_);
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

namespace {

/** Buckets per power of two above the exact range (2^7 = 128). */
constexpr unsigned kSubBucketBits = 7;
constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
/** Values below this (256) own a bucket each. */
constexpr uint64_t kExactBelow = 2 * kSubBuckets;

/**
 * Bucket of @p v: its top eight significant bits, offset by how far
 * they had to shift. Below 256 the shift is 0 and the bucket is v.
 */
constexpr size_t
bucketOf(uint64_t v)
{
    constexpr unsigned kTopBits = kSubBucketBits + 1;
    const auto bits = static_cast<unsigned>(std::bit_width(v));
    const unsigned shift = bits > kTopBits ? bits - kTopBits : 0;
    return (static_cast<size_t>(shift) << kSubBucketBits) + (v >> shift);
}

static_assert(bucketOf(~uint64_t{0}) == 7423, "7424 buckets cover uint64_t");

/** Midpoint of the integer values bucket @p i holds. */
double
bucketMid(size_t i)
{
    if (i < kExactBelow)
        return static_cast<double>(i);
    const unsigned shift = static_cast<unsigned>(i >> kSubBucketBits) - 1;
    const uint64_t lo = ((i & (kSubBuckets - 1)) | kSubBuckets) << shift;
    const uint64_t width = uint64_t{1} << shift;
    return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
}

} // namespace

void
Histogram::add(uint64_t sample, uint64_t count)
{
    const size_t i = bucketOf(sample);
    if (i >= counts_.size())
        counts_.resize(i + 1, 0);
    counts_[i] += count;
    total_ += count;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.counts_.size() > counts_.size())
        counts_.resize(other.counts_.size(), 0);
    for (size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
}

double
Histogram::quantile(double q) const
{
    WSP_CHECK(q >= 0.0 && q <= 1.0);
    if (total_ == 0)
        return 0.0;
    const uint64_t rank = std::min(
        static_cast<uint64_t>(q * static_cast<double>(total_)), total_ - 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen > rank)
            return bucketMid(i);
    }
    panic("histogram counts sum below its total %llu",
          static_cast<unsigned long long>(total_));
}

double
Series::at(double x) const
{
    WSP_CHECK(!xs.empty());
    if (x <= xs.front())
        return ys.front();
    if (x >= xs.back())
        return ys.back();
    for (size_t i = 1; i < xs.size(); ++i) {
        if (x <= xs[i]) {
            const double span = xs[i] - xs[i - 1];
            if (span <= 0.0)
                return ys[i];
            const double frac = (x - xs[i - 1]) / span;
            return ys[i - 1] + frac * (ys[i] - ys[i - 1]);
        }
    }
    return ys.back();
}

double
Series::maxY() const
{
    double best = ys.empty() ? 0.0 : ys.front();
    for (double y : ys)
        best = std::max(best, y);
    return best;
}

double
Series::minY() const
{
    double best = ys.empty() ? 0.0 : ys.front();
    for (double y : ys)
        best = std::min(best, y);
    return best;
}

} // namespace wsp
