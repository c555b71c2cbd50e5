/**
 * @file
 * Batch compilation engine.
 *
 * Accepts many CompileJobs (block list + device + pipeline), executes
 * them concurrently on a worker thread pool, deduplicates identical
 * jobs through a content-addressed CompileCache, and aggregates
 * per-stage timing into a MetricsRegistry. Results are deterministic:
 * each job's CompileResult is bit-identical to what a serial
 * Pipeline::run() call would produce, and compileAll() returns
 * results in submission order regardless of worker interleaving.
 *
 * Which compiler a job runs is data, not code: every registered
 * pipeline (see core/pipeline.hh) dispatches through the same
 * interface, and the cache key mixes in the pipeline id and its
 * options hash so different compilers over identical blocks never
 * alias.
 *
 * Thread count defaults to TETRIS_ENGINE_THREADS, falling back to
 * hardware concurrency (see ThreadPool::resolveThreadCount). The
 * in-memory cache is striped across TETRIS_CACHE_SHARDS
 * independently-locked shards (CompileCache::resolveShardCount) so
 * high-thread-count sweeps do not serialize on one mutex.
 *
 * Below the in-memory cache an optional DiskCache (engine/
 * disk_cache.hh) persists results across processes: in-memory misses
 * read through to disk, fresh compilations write behind to it, and
 * teardown applies the store's eviction budget. Long sweeps can be
 * abandoned with cancelPending(): queued-but-unstarted jobs publish
 * a `cancelled` CompileResult instead of compiling.
 */

#ifndef TETRIS_ENGINE_ENGINE_HH
#define TETRIS_ENGINE_ENGINE_HH

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/version.hh"
#include "core/compiler.hh"
#include "core/pipeline.hh"
#include "engine/compile_cache.hh"
#include "engine/metrics.hh"
#include "engine/thread_pool.hh"
#include "hardware/coupling_graph.hh"
#include "pauli/pauli_block.hh"
#include "verify/verify.hh"

namespace tetris
{

class DiskCache;
class EventLog;
class ObsServer;
class Tracer;

/** One unit of batch work: a workload, a device, and a pipeline. */
struct CompileJob
{
    /** Display name for progress reporting and JSON artifacts. */
    std::string name;
    std::vector<PauliBlock> blocks;
    /** Shared so many jobs can target one device cheaply. */
    std::shared_ptr<const CouplingGraph> hw;
    /**
     * The compiler stack to run: any registered pipeline, via
     * PipelineRegistry::create(id) or a make*Pipeline() helper.
     */
    PipelinePtr pipeline = defaultPipeline();
    /**
     * Consume-once job: bypass the in-memory compile cache (no dedup
     * entry, nothing retained after the caller drops its handle).
     * For streaming drivers whose chunk keys are unique and whose
     * results are read exactly once, caching would grow resident
     * memory with every chunk compiled. The persistent disk tier (if
     * configured) still serves and stores transient jobs.
     */
    bool transient = false;
};

struct EngineOptions
{
    /** 0 = TETRIS_ENGINE_THREADS env, else hardware concurrency. */
    int numThreads = 0;
    /** Deduplicate identical jobs through the compile cache. */
    bool enableCache = true;
    /**
     * Mutex stripes of the in-memory compile cache; 0 resolves
     * TETRIS_CACHE_SHARDS, falling back to hardware concurrency
     * (see CompileCache::resolveShardCount).
     */
    int cacheShards = 0;
    /**
     * Persistent tier under the in-memory cache; null = disabled
     * (the default, so unit tests never touch the filesystem).
     * Wire the environment-configured store in with
     * DiskCache::openFromEnv(), as bench_util and compile_cli do.
     */
    std::shared_ptr<DiskCache> diskCache;
    /**
     * Run the semantic equivalence verifier (verifyConjugation in
     * verify/verify.hh) on every result this engine produces: fresh
     * compilations and disk-cache hits alike, so a stale or
     * corrupted-but-decodable artifact is caught the moment it is
     * served. Outcomes land in the metrics as verify.pass /
     * verify.fail / verify.skipped (time under verify.seconds);
     * failures additionally warn with the job name and the checker's
     * diagnostic. In-memory deduplicated submissions share the one
     * verification of the submission that compiled.
     */
    bool verify = false;
    /**
     * When the verify pass is on, gate the disk tier on its verdict:
     * a compilation whose verification *fails* is still published to
     * its waiters (flagged by the warn + verify.fail metric) but is
     * never persisted, so a bad compile cannot poison the store and
     * get served to later runs. Each blocked persist counts as
     * verify.blocked_write. No effect unless `verify` is set.
     */
    bool verifyBeforeStore = true;
    /**
     * Span tracer receiving this engine's per-job trace events
     * (queue wait, compile stages, verify, disk reads/writes); see
     * engine/trace.hh. Null (the default) means Tracer::global(),
     * which is armed by TETRIS_TRACE=<file> and otherwise records
     * nothing. Tests pass a private Tracer to capture spans without
     * touching process state. Must outlive the engine.
     */
    Tracer *tracer = nullptr;
    /**
     * Progress hook: called once per submission when its work is
     * finished -- after the compilation for fresh jobs, immediately
     * for cache-deduplicated ones. `done` counts finished
     * submissions, `total` submissions so far. Invocations are
     * serialized (safe to print from) but run on worker threads and
     * must not call back into the engine. A job's callback always
     * returns before get() on the job's entry does.
     */
    std::function<void(size_t done, size_t total,
                       const std::string &name)>
        onJobDone;
    /**
     * Observability scrape server bind address ("host:port", port 0
     * for an ephemeral one — see obs/obs_server.hh). Empty (the
     * default) consults TETRIS_OBS_ADDR; no env either means no
     * server, which is the zero-overhead path.
     */
    std::string obsServer;
    /**
     * Structured event sink for job lifecycle records
     * (obs/event_log.hh). Null (the default) means
     * EventLog::global(), which is armed by TETRIS_EVENT_LOG and
     * otherwise records nothing. Tests pass a private EventLog; it
     * must outlive the engine.
     */
    EventLog *eventLog = nullptr;
};

class Engine
{
  public:
    explicit Engine(EngineOptions opts = EngineOptions());

    /** Drains all outstanding jobs. */
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Enqueue a job (or join an identical one in the cache). The
     * returned entry is the only handle: the engine keeps no
     * per-submission state, so a resident service does not grow
     * with its request count. Block on entry->get() for the
     * immutable result; dropping the entry abandons interest (the
     * compilation still completes and caches).
     */
    std::shared_ptr<CompileCache::Entry> submit(CompileJob job);

    /**
     * Submit every job and wait for all of them. results[i] belongs
     * to jobs[i] — submission order, independent of scheduling.
     */
    std::vector<std::shared_ptr<const CompileResult>>
    compileAll(std::vector<CompileJob> jobs);

    /**
     * Abandon every job that has not started compiling yet: each
     * publishes an empty CompileResult with `cancelled` set (so every
     * submission still gets one result, and compileAll keeps its
     * order) and its key leaves the in-memory cache. One-way for the
     * lifetime of this engine; jobs submitted afterwards are also
     * cancelled. Jobs already inside Pipeline::run complete normally.
     */
    void cancelPending() { cancel_.store(true); }

    /** True once cancelPending() has been called. */
    bool cancelRequested() const { return cancel_.load(); }

    /**
     * Block until every submitted job's work has fully finished.
     * Entry::get()/compileAll() return as results publish; drain()
     * additionally covers the write-behind disk persists that run
     * after a result publishes (the destructor drains implicitly).
     * While draining, draining() reads true and /healthz reports
     * "draining".
     */
    void drain();

    /** True while drain() (or the destructor) is waiting for the
     *  pool to go idle. Relaxed; safe to poll from any thread. */
    bool draining() const
    {
        return draining_.load(std::memory_order_relaxed);
    }

    /**
     * Pin the draining flag without waiting: a resident service
     * (serve/server.hh) sets it the moment SIGTERM lands so /healthz
     * reports "draining" for the *entire* shutdown window — before,
     * during, and after the drain() call — not just while the pool
     * empties. One-way in practice; drain() still clears it, so a
     * daemon re-asserts after draining if it keeps serving errors.
     */
    void markDraining(bool v)
    {
        draining_.store(v, std::memory_order_relaxed);
    }

    int numThreads() const { return pool_.numThreads(); }

    /**
     * Live progress counters (relaxed atomics — safe to poll from
     * any thread, e.g. the obs scrape server): submissions accepted,
     * jobs a worker has dequeued, and submissions whose work is
     * finished. Deduplicated submissions finish without starting,
     * so finishedCount() can exceed startedCount().
     */
    size_t submittedCount() const
    {
        return submitted_.load(std::memory_order_relaxed);
    }
    size_t startedCount() const
    {
        return started_.load(std::memory_order_relaxed);
    }
    size_t finishedCount() const
    {
        return finished_.load(std::memory_order_relaxed);
    }

    /**
     * One dequeued-but-unfinished job as the obs plane sees it. The
     * engine updates `stage` as the job progresses; the names are
     * listed once, in JobTimeline's stage table (engine.cc).
     * Snapshots share ownership, so a job finishing mid-scrape never
     * dangles.
     */
    struct ActiveJob
    {
        std::string name;
        uint64_t key = 0;
        /** steadyNowNs() at dequeue. */
        uint64_t startNs = 0;
        std::atomic<const char *> stage{nullptr};
    };

    /** Completed-job record for the statusz top-N view. */
    struct RecentJob
    {
        std::string name;
        /** Submit-to-publish latency. */
        uint64_t durationNs = 0;
    };

    /** Snapshot of the in-flight job table (/statusz, and the
     *  oldest-job age in /metrics). */
    std::vector<std::shared_ptr<ActiveJob>> activeJobs() const;

    /** The last <=64 finished jobs, oldest first (/statusz). */
    std::vector<RecentJob> recentJobs() const;

    /** Scrape-server port when one is armed and bound, else 0. */
    int obsPort() const;

    /** Seconds since this engine was constructed. */
    double uptimeSeconds() const;

    /** True when this engine runs the verify pass on its results. */
    bool verifyEnabled() const { return opts_.verify; }
    const CompileCache &cache() const { return cache_; }

    /**
     * The cache tiers' counters under their registry names, read
     * now: cache.shard_count, cache.lock_wait_ns, cache.hits,
     * cache.misses, and — when a disk tier is attached —
     * cache.disk.misses / writes (disk hits are jobs.disk_hits).
     * formatStatsSnapshot writes them over the registry's copies, so
     * /metrics reads them live after bare submit() traffic too.
     */
    std::vector<std::pair<const char *, uint64_t>> cacheCounters() const;
    /**
     * Copy cacheCounters() into the metrics registry. Called
     * automatically at the end of compileAll(); call it directly
     * before reading metrics() after bare submit() traffic.
     */
    void syncCacheMetrics();
    /** The persistent tier, or null when disabled. */
    const DiskCache *diskCache() const;
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Content hash of everything that determines a job's output:
     * the compiler code generation (kTetrisAbiVersion -- so bumping
     * it orphans every artifact an older algorithm produced), the
     * pipeline id, its options hash, the coupling graph, and the
     * blocks. The key of both the in-memory compile cache and the
     * persistent artifact store. The abi_version parameter exists
     * for tests; production callers use the current stamp.
     */
    static uint64_t jobKey(const CompileJob &job,
                           uint32_t abi_version = kTetrisAbiVersion);

  private:
    /** Reports one dequeued job's stages and outcome (engine.cc). */
    class JobTimeline;

    void runJob(const CompileJob &job, uint64_t key,
                const std::shared_ptr<CompileCache::Entry> &entry,
                uint64_t submit_ns);
    /** The verify stage: check, count and record the verdict. */
    VerifyStatus verifyJob(JobTimeline &timeline, const CompileJob &job,
                           const CompileResult &result,
                           CompileCache::Entry &entry);
    void reportDone(const std::string &name);

    EngineOptions opts_;
    std::atomic<bool> cancel_{false};
    MetricsRegistry metrics_;
    CompileCache cache_;
    ThreadPool pool_;

    /** opts_.tracer resolved against Tracer::global(); never null. */
    Tracer *tracer_;
    /** Stable refs into metrics_ for the per-job latency records. */
    Histogram *latencyHist_;
    Histogram *queueWaitHist_;
    /** Pre-interned instruments for the per-job hot path. */
    MetricsRegistry::Handle jobsSubmittedH_, jobsCompletedH_,
        jobsDedupedH_, jobsDiskHitsH_, jobsCancelledH_;
    MetricsRegistry::Handle verifyPassH_, verifyFailH_,
        verifySkippedH_, verifySecondsH_;

    /** Serializes onJobDone so (done, total) pairs never interleave. */
    std::mutex progressMutex_;
    std::atomic<size_t> submitted_{0};
    std::atomic<size_t> started_{0};
    std::atomic<size_t> finished_{0};

    /** opts_.eventLog resolved against EventLog::global(); never
     *  null (possibly disarmed, in which case record() is a no-op). */
    EventLog *eventLog_;
    std::atomic<bool> draining_{false};
    /** steadyNowNs() at construction, for uptime. */
    uint64_t startNs_ = 0;

    /** In-flight job table for /statusz and /metrics. Touched
     *  twice per dequeued job — negligible next to a compile. */
    mutable std::mutex activeMutex_;
    std::vector<std::shared_ptr<ActiveJob>> active_;

    /** Ring of the last finished jobs for the statusz top-N view. */
    mutable std::mutex recentMutex_;
    std::deque<RecentJob> recent_;

    /** Declared last, so it dies before any member it reads. */
    std::unique_ptr<ObsServer> obsServer_;
};

} // namespace tetris

#endif // TETRIS_ENGINE_ENGINE_HH
