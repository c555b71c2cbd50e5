/**
 * @file
 * Fixed-bucket log2 histogram for latency distributions.
 *
 * 64 power-of-two buckets over uint64 samples (nanoseconds in
 * practice): bucket 0 holds the value 0, bucket i (i >= 1) holds
 * [2^(i-1), 2^i - 1]. Recording is wait-free — one relaxed
 * fetch_add per counter — so worker threads can feed a shared
 * histogram with no mutex; reads (percentiles, snapshots, JSON) are
 * approximate under concurrent writes, exact once writers quiesce.
 *
 * Percentiles are conservative upper bounds: percentile(p) returns
 * the upper edge of the bucket containing the rank-p sample, clamped
 * to the largest recorded sample, so the reported p99 is within one
 * power of two of the true value and never exceeds max(). It is a
 * pure function of the bucket counts and the max. That makes the
 * value stable across serialization: recomputing a percentile from
 * the bucket array and max a JSON snapshot carries reproduces the
 * emitted number exactly (tested in test_engine.cc).
 */

#ifndef TETRIS_COMMON_HISTOGRAM_HH
#define TETRIS_COMMON_HISTOGRAM_HH

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>

namespace tetris
{

class Histogram
{
  public:
    static constexpr int kBuckets = 64;

    /** Snapshot of the derived statistics, safe to copy around. */
    struct Snapshot
    {
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t max = 0;
        uint64_t p50 = 0;
        uint64_t p90 = 0;
        uint64_t p99 = 0;
    };

    Histogram() = default;
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Record one sample. Wait-free; callable from any thread. */
    void record(uint64_t value)
    {
        buckets_[bucketIndex(value)].fetch_add(
            1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
        uint64_t prev = max_.load(std::memory_order_relaxed);
        while (value > prev &&
               !max_.compare_exchange_weak(prev, value,
                                           std::memory_order_relaxed)) {
        }
    }

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    uint64_t max() const { return max_.load(std::memory_order_relaxed); }

    uint64_t bucketCount(int i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /**
     * Upper bound of the bucket holding the p-quantile sample
     * (p in [0, 1]), clamped to max(); 0 when the histogram is
     * empty. Depends only on the bucket counts and max(), so it
     * survives a round trip of both bit-exactly.
     */
    uint64_t percentile(double p) const
    {
        uint64_t total = 0;
        uint64_t counts[kBuckets];
        for (int i = 0; i < kBuckets; ++i) {
            counts[i] = bucketCount(i);
            total += counts[i];
        }
        if (total == 0)
            return 0;
        if (p < 0.0)
            p = 0.0;
        if (p > 1.0)
            p = 1.0;
        // Rank of the requested quantile, 1-based; p=0 means the
        // smallest recorded sample.
        uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total));
        if (rank < 1)
            rank = 1;
        if (rank > total)
            rank = total;
        uint64_t seen = 0;
        for (int i = 0; i < kBuckets; ++i) {
            seen += counts[i];
            if (seen >= rank)
                return std::min(bucketUpperBound(i), max());
        }
        return max();
    }

    Snapshot snapshot() const
    {
        Snapshot s;
        s.count = count();
        s.sum = sum();
        s.max = max();
        s.p50 = percentile(0.50);
        s.p90 = percentile(0.90);
        s.p99 = percentile(0.99);
        return s;
    }

    /** Fold another histogram's samples into this one. */
    void merge(const Histogram &other)
    {
        for (int i = 0; i < kBuckets; ++i) {
            uint64_t n = other.bucketCount(i);
            if (n != 0)
                buckets_[i].fetch_add(n, std::memory_order_relaxed);
        }
        count_.fetch_add(other.count(), std::memory_order_relaxed);
        sum_.fetch_add(other.sum(), std::memory_order_relaxed);
        uint64_t om = other.max();
        uint64_t prev = max_.load(std::memory_order_relaxed);
        while (om > prev &&
               !max_.compare_exchange_weak(prev, om,
                                           std::memory_order_relaxed)) {
        }
    }

    void clear()
    {
        for (auto &b : buckets_)
            b.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

    /** Bucket of a sample: 0 for 0, else bit_width clamped to 63. */
    static int bucketIndex(uint64_t value)
    {
        if (value == 0)
            return 0;
        int w = std::bit_width(value);
        return w >= kBuckets ? kBuckets - 1 : w;
    }

    /** Largest sample bucket i can hold (2^i - 1; top bucket: max). */
    static uint64_t bucketUpperBound(int i)
    {
        if (i <= 0)
            return 0;
        if (i >= kBuckets - 1)
            return UINT64_MAX;
        return (uint64_t{1} << i) - 1;
    }

  private:
    std::atomic<uint64_t> buckets_[kBuckets] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
};

} // namespace tetris

#endif // TETRIS_COMMON_HISTOGRAM_HH
