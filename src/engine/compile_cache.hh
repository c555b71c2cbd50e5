/**
 * @file
 * Content-addressed cache of compilation results.
 *
 * Jobs are keyed by a 64-bit FNV content hash of (blocks, coupling
 * graph, pipeline, options); see Engine::jobKey. The cache also
 * deduplicates in-flight work: the first submitter of a key computes
 * the result while concurrent submitters of the same key block on the
 * shared Entry instead of recompiling. Results are immutable once
 * published (shared_ptr<const CompileResult>).
 *
 * The table is striped across N independently-locked shards (key
 * modulo shard count — jobKey output is already well mixed). Every
 * acquire() takes its key's shard mutex and does one lookup-or-insert
 * on the shard's map; erase() and clear() take the same mutex.
 *
 * All dedup guarantees hold per key, and a key always maps to exactly
 * one shard, so sharding never changes observable semantics: exactly
 * one acquire() per key reports is_new, erase() targets the one shard
 * that can hold the key, and hit/miss accounting stays global (striped
 * per-shard counters summed on read). Contention that does occur is
 * measured: lockWaitNs() sums the time threads spent blocked on shard
 * mutexes (uncontended acquisitions cost no clock reads), which the
 * perf microbench and the cache.lock_wait_ns metric expose.
 */

#ifndef TETRIS_ENGINE_COMPILE_CACHE_HH
#define TETRIS_ENGINE_COMPILE_CACHE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/histogram.hh"
#include "core/compiler.hh"
#include "verify/verify.hh"

namespace tetris
{

class CompileCache
{
  public:
    /**
     * One cache slot: created unpublished, filled exactly once by the
     * job that owns the compilation, awaited by everyone else.
     */
    class Entry
    {
      public:
        explicit Entry(uint64_t key) : key_(key) {}
        /** The Engine::jobKey of the job this entry holds. */
        uint64_t key() const { return key_; }

        /** Publish the result and wake all waiters (call once). */
        void publish(std::shared_ptr<const CompileResult> result);

        /**
         * Return the result, blocking until published. Once the
         * result is out, this is a single acquire load — waiters that
         * arrive late never touch the entry mutex.
         */
        std::shared_ptr<const CompileResult> get() const;

        /**
         * Verify verdict for this entry's result. Set by the
         * publishing job before publish(), so any waiter that has
         * returned from get() reads a settled value. The serve layer
         * routes this into its Result frames; dedup'd and
         * memory-cache-hit submissions share the one verdict of the
         * submission that compiled.
         */
        void setVerdict(VerifyVerdict v)
        {
            verdict_.store(v, std::memory_order_release);
        }
        VerifyVerdict verdict() const
        {
            return verdict_.load(std::memory_order_acquire);
        }

      private:
        const uint64_t key_;
        mutable std::mutex mutex_;
        mutable std::condition_variable published_;
        std::shared_ptr<const CompileResult> result_;
        std::atomic<bool> ready_{false};
        std::atomic<VerifyVerdict> verdict_{VerifyVerdict::NotRun};
    };

    /**
     * Build a cache striped over resolveShardCount(num_shards)
     * shards; the default resolves TETRIS_CACHE_SHARDS / hardware
     * concurrency.
     */
    explicit CompileCache(int num_shards = 0);

    CompileCache(const CompileCache &) = delete;
    CompileCache &operator=(const CompileCache &) = delete;

    /**
     * Look up `key`, inserting an unpublished Entry if absent.
     * `is_new` tells the caller whether it must compute and publish
     * (miss) or merely wait on the returned entry (hit — including
     * hits on entries still being computed).
     */
    std::shared_ptr<Entry> acquire(uint64_t key, bool &is_new);

    size_t hits() const;
    size_t misses() const;
    size_t size() const;

    /**
     * Forget one key (e.g. a cancelled compilation) so the next
     * acquire recomputes. The cache drops its reference at once;
     * waiters already holding the entry keep it.
     */
    void erase(uint64_t key);

    /** Drop all entries and reset the hit/miss/lock-wait counters. */
    void clear();

    int shardCount() const { return numShards_; }

    /**
     * Total nanoseconds threads spent blocked acquiring shard
     * mutexes. Only contended acquisitions are timed, so the hot
     * uncontended path pays no clock reads.
     */
    uint64_t lockWaitNs() const { return lockWaitNs_.load(); }

    /**
     * Also record each contended wait into `hist` (the engine wires
     * its cache.lock_wait_ns histogram here, turning the flat total
     * into a p50/p90/p99 distribution). Set before concurrent use;
     * null detaches. The histogram must outlive the cache.
     */
    void setLockWaitHistogram(Histogram *hist) { lockWaitHist_ = hist; }

    /**
     * Resolve a shard-count request: a positive request wins;
     * otherwise the TETRIS_CACHE_SHARDS environment variable
     * (strict integer in [1, 1024], anything else warns and falls
     * through); otherwise hardware concurrency rounded up to the
     * next power of two. Always in [1, 1024].
     */
    static int resolveShardCount(int requested);

  private:
    struct alignas(64) Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<uint64_t, std::shared_ptr<Entry>> entries;
        /** Striped counters (summed by hits()/misses()). */
        std::atomic<size_t> hits{0};
        std::atomic<size_t> misses{0};
    };

    Shard &shardFor(uint64_t key) const
    {
        return shards_[key % static_cast<uint64_t>(numShards_)];
    }

    /** Lock a shard, accumulating blocked time into lockWaitNs_. */
    std::unique_lock<std::mutex> lockShard(const Shard &shard) const;

    int numShards_;
    std::unique_ptr<Shard[]> shards_;
    mutable std::atomic<uint64_t> lockWaitNs_{0};
    /** Optional per-wait distribution; see setLockWaitHistogram. */
    Histogram *lockWaitHist_ = nullptr;
};

} // namespace tetris

#endif // TETRIS_ENGINE_COMPILE_CACHE_HH
