/**
 * @file
 * Thread-safe metrics registry for the batch-compilation engine.
 *
 * Three kinds of instruments:
 *  - named monotonic counters and accumulated timers, each one
 *    atomic slot. A string-keyed update finds (or creates) its slot
 *    under the registry mutex — fine for cold paths;
 *  - interned handles for both (counterHandle()/timerHandle()): a
 *    one-time lookup returns the slot's address, and updates through
 *    it are a single relaxed atomic add — no mutex, no string copy.
 *    The engine pre-registers its per-job instruments this way, so a
 *    64-thread sweep's hot path never touches the registry lock;
 *  - fixed-bucket log2 Histograms (common/histogram.hh) for latency
 *    distributions (job latency, queue wait, lock wait): wait-free
 *    recording, p50/p90/p99 in every snapshot.
 *
 * Snapshots serialize to JSON for the BENCH_* trajectory files as
 * {"counts": ..., "seconds": ..., "histograms": ...}; the same data
 * formats as a /metrics-style text dump via engine/stats.hh.
 */

#ifndef TETRIS_ENGINE_METRICS_HH
#define TETRIS_ENGINE_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.hh"

namespace tetris
{

class JsonWriter;
struct CompileStats;

class MetricsRegistry
{
    struct Slot;

  public:
    /** Interned instrument; see counterHandle()/timerHandle(). */
    using Handle = Slot *;

    MetricsRegistry();

    /** Add to a named monotonic counter (creates it at 0). */
    void addCount(const std::string &name, uint64_t delta = 1);

    /**
     * Set a named counter to an absolute value (gauge semantics),
     * replacing whatever was added to it. Used to publish snapshots
     * of externally-accumulated state, e.g. the cache's shard count
     * and lock-wait total.
     */
    void setCount(const std::string &name, uint64_t value);

    /** Accumulate seconds on a named timer (creates it at 0). */
    void addSeconds(const std::string &name, double seconds);

    /**
     * Intern a counter/timer once; the returned handle is stable for
     * the registry's lifetime and updates through it are lock-free.
     * Interning the same name twice returns the same handle, and
     * string-keyed updates of that name land in the same slot.
     */
    Handle counterHandle(const std::string &name);
    Handle timerHandle(const std::string &name);

    /** Lock-free add on a pre-registered counter/timer. */
    void addCount(Handle h, uint64_t delta = 1);
    void addSeconds(Handle h, double seconds);

    /**
     * The named latency histogram, interned on first use. The
     * returned reference is stable for the registry's lifetime and
     * recording on it is wait-free (common/histogram.hh).
     */
    Histogram &histogram(const std::string &name);

    /** Fold one job's per-stage timings and gate counts in. */
    void recordCompile(const CompileStats &stats);

    uint64_t count(const std::string &name) const;
    double seconds(const std::string &name) const;

    /** Stable-ordered copies for reporting: names written by a
     *  string-keyed call even at zero, handle-only ones if nonzero. */
    std::map<std::string, uint64_t> counts() const;
    std::map<std::string, double> timers() const;

    /** Snapshot of every histogram, keyed by name. */
    std::map<std::string, Histogram::Snapshot> histogramSnapshots() const;

    /**
     * Visit every histogram in stable name order without copying
     * bucket state (the /metrics exposition reads raw buckets so its
     * cumulative series stay self-consistent). `fn` runs under the
     * registry mutex: keep it quick and do not call back in.
     */
    void forEachHistogram(
        const std::function<void(const std::string &,
                                 const Histogram &)> &fn) const;

    /** Reset every counter, timer, and histogram to zero. */
    void clear();

    /**
     * {"counts": {...}, "seconds": {...}, "histograms": {...}}
     * appended to `w`. Each histogram object carries count/sum/max,
     * the p50/p90/p99 upper bounds, and its sparse [index, count]
     * bucket list (so percentiles can be recomputed offline from the
     * buckets and the max).
     */
    void writeJson(JsonWriter &w) const;

    /** Standalone JSON document of the current snapshot. */
    std::string toJson() const;

  private:
    /** One named counter/timer; a Handle is its address. */
    struct Slot
    {
        std::string name;
        std::atomic<uint64_t> count{0};
        /** Timers accumulate integer nanoseconds (atomic-add). */
        std::atomic<uint64_t> nanos{0};
        /** Written by a string-keyed call (under the mutex). */
        bool countListed = false;
        bool timerListed = false;
    };

    /** The slot named `name`, created on first use; mutex_ held. */
    Slot &slotLocked(const std::string &name);

    mutable std::mutex mutex_;
    /** deque: elements never move, so handles stay valid while
     *  other names are interned. */
    std::deque<Slot> slots_;
    std::unordered_map<std::string, Slot *> slotIndex_;
    std::deque<std::pair<std::string, Histogram>> histograms_;
    std::unordered_map<std::string, size_t> histogramIndex_;

    /** Pre-interned handles for the per-job compile stats. */
    Handle compileTotal_, compileSchedule_, compileSynthesis_,
        compilePeephole_;
    Handle gatesCnot_, gatesOneq_, gatesSwap_;
};

/**
 * RAII timer adding its lifetime to a registry timer. The name form
 * interns the timer once, at construction; hot paths pass a
 * pre-interned Handle and skip even that.
 */
class ScopedTimer
{
  public:
    ScopedTimer(MetricsRegistry &registry, const std::string &name)
        : ScopedTimer(registry, registry.timerHandle(name))
    {
    }

    ScopedTimer(MetricsRegistry &registry, MetricsRegistry::Handle handle)
        : registry_(registry), handle_(handle),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~ScopedTimer()
    {
        registry_.addSeconds(
            handle_, std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count());
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    MetricsRegistry &registry_;
    MetricsRegistry::Handle handle_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace tetris

#endif // TETRIS_ENGINE_METRICS_HH
