/**
 * @file
 * Statistics helpers used by benches and timing models.
 *
 * RunningStat accumulates mean/variance/min/max in one pass (Welford's
 * algorithm); Histogram buckets integer samples (latencies in ns) with
 * bounded relative error; Series records (x, y) points for
 * figure-style output.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wsp {

/** One-pass accumulator for count, mean, stddev, min, and max. */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double sample);

    uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }

    /** Sample variance (n-1 denominator); 0 with fewer than 2 samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Log-linear latency histogram over non-negative integer samples, in
 * the style of HdrHistogram. Every value 0-255 has its own bucket;
 * above that, each power of two splits into 128 equal buckets, so no
 * bucket is wider than 1/128 of the values it holds. The 7424 buckets
 * cover all of uint64_t, so nothing clamps and any two histograms
 * merge. Storage grows to the highest bucket recorded.
 */
class Histogram
{
  public:
    void add(uint64_t sample) { add(sample, 1); }

    /**
     * Record @p sample @p count times in one bucket update. The
     * traffic plane's consumers complete whole drained runs at one
     * clock reading, so every frame sharing an intended time shares a
     * latency sample — recording them as a weighted add keeps the
     * hot path at one bucket increment per run instead of per op.
     */
    void add(uint64_t sample, uint64_t count);

    /**
     * Fold another histogram's counts into this one. The fleet merges
     * per-node latency histograms this way instead of re-recording
     * every sample at the aggregation point.
     */
    void merge(const Histogram &other);

    /** Remove all samples; keeps the storage, so re-recording the same
     *  range allocates nothing. */
    void reset();

    uint64_t total() const { return total_; }

    /**
     * Midpoint of the bucket holding the sample of rank
     * min(floor(q * total), total - 1), for 0 <= q <= 1: exact below
     * 256, within 1/256 (relative) above. 0 when empty.
     */
    double quantile(double q) const;

    /** Percentile form of quantile(): percentile(99) == quantile(0.99). */
    double percentile(double p) const { return quantile(p / 100.0); }

  private:
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

/** An (x, y) series with a name; the unit of exchange for figures. */
struct Series
{
    std::string name;
    std::vector<double> xs;
    std::vector<double> ys;

    void
    add(double x, double y)
    {
        xs.push_back(x);
        ys.push_back(y);
    }

    size_t size() const { return xs.size(); }

    /** Linear interpolation of y at @p x; clamps outside the range. */
    double at(double x) const;

    /** Largest y value (0 when empty). */
    double maxY() const;

    /** Smallest y value (0 when empty). */
    double minY() const;
};

} // namespace wsp
