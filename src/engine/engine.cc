#include "engine/engine.hh"

#include <algorithm>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "common/logging.hh"
#include "engine/disk_cache.hh"
#include "engine/trace.hh"
#include "obs/event_log.hh"
#include "obs/obs_server.hh"
#include "obs/watchdog.hh"

namespace tetris
{

using Field = EventLog::Field;

Engine::Engine(EngineOptions opts)
    : opts_(opts), cache_(opts.cacheShards),
      pool_(ThreadPool::resolveThreadCount(opts.numThreads)),
      // Touching Tracer::global() here also orders static lifetimes:
      // the global tracer is constructed before any engine, so it is
      // destroyed (and its TETRIS_TRACE file flushed) after every
      // engine's worker threads have drained.
      tracer_(opts.tracer != nullptr ? opts.tracer : &Tracer::global()),
      latencyHist_(&metrics_.histogram("job.latency_ns")),
      queueWaitHist_(&metrics_.histogram("job.queue_wait_ns")),
      jobsSubmittedH_(metrics_.counterHandle("jobs.submitted")),
      jobsCompletedH_(metrics_.counterHandle("jobs.completed")),
      jobsDedupedH_(metrics_.counterHandle("jobs.deduplicated")),
      jobsDiskHitsH_(metrics_.counterHandle("jobs.disk_hits")),
      jobsCancelledH_(metrics_.counterHandle("jobs.cancelled")),
      verifyPassH_(metrics_.counterHandle("verify.pass")),
      verifyFailH_(metrics_.counterHandle("verify.fail")),
      verifySkippedH_(metrics_.counterHandle("verify.skipped")),
      verifySecondsH_(metrics_.timerHandle("verify.seconds")),
      eventLog_(opts.eventLog != nullptr ? opts.eventLog
                                         : &EventLog::global()),
      startNs_(steadyNowNs())
{
    cache_.setLockWaitHistogram(
        &metrics_.histogram("cache.lock_wait_ns"));

    // Observability plane: both pieces are opt-in (options first,
    // env second) and both read engine state the member-init list
    // above has fully built. Disabled, they cost nothing per job.
    const uint64_t stall_ms =
        opts_.stallMs != 0 ? opts_.stallMs
                           : envInt("TETRIS_STALL_MS", 0, 86400000, 0);
    if (stall_ms != 0)
        watchdog_ = std::make_unique<StallWatchdog>(*this, stall_ms);
    const std::string obs_addr =
        opts_.obsServer.empty() ? envString("TETRIS_OBS_ADDR")
                                : opts_.obsServer;
    if (!obs_addr.empty())
        obsServer_ = ObsServer::start(*this, obs_addr);
}

Engine::~Engine()
{
    // Teardown order: report draining for the whole shutdown, stop
    // the watchdog's scans, drain workers, then apply the store's
    // eviction budget. The scrape server (declared last) dies before
    // any member it reads; until then /healthz says "draining".
    draining_.store(true, std::memory_order_relaxed);
    watchdog_.reset();
    pool_.waitIdle();
    // Apply the store's eviction budget once the sweep is done, not
    // per write: trimming mid-run could evict entries the same run
    // is about to read back.
    if (opts_.diskCache && opts_.diskCache->maxBytes() > 0)
        opts_.diskCache->trim(opts_.diskCache->maxBytes());
}

void
Engine::drain()
{
    draining_.store(true, std::memory_order_relaxed);
    pool_.waitIdle();
    draining_.store(false, std::memory_order_relaxed);
}

int
Engine::obsPort() const
{
    return obsServer_ ? obsServer_->port() : 0;
}

double
Engine::uptimeSeconds() const
{
    return static_cast<double>(steadyNowNs() - startNs_) / 1e9;
}

std::vector<std::shared_ptr<Engine::ActiveJob>>
Engine::activeJobs() const
{
    std::lock_guard<std::mutex> lock(activeMutex_);
    return active_;
}

std::vector<Engine::RecentJob>
Engine::recentJobs() const
{
    std::lock_guard<std::mutex> lock(recentMutex_);
    return std::vector<RecentJob>(recent_.begin(), recent_.end());
}

const DiskCache *
Engine::diskCache() const
{
    return opts_.diskCache.get();
}

uint64_t
Engine::jobKey(const CompileJob &job, uint32_t abi_version)
{
    TETRIS_ASSERT(job.hw != nullptr, "job without a device");
    TETRIS_ASSERT(job.pipeline != nullptr, "job without a pipeline");
    // The code-generation stamp comes first: a compiler-algorithm
    // change bumps kTetrisAbiVersion and every key moves, so the
    // persistent store can never serve artifacts an older build
    // produced (see common/version.hh).
    uint64_t h = fnvMix(kFnvOffset, abi_version);
    // The id/options pair is mixed in next so two pipelines over
    // identical blocks can never alias in the cache, even if their
    // option hashes happen to collide.
    h = fnvMixString(h, job.pipeline->name());
    h = fnvMix(h, job.pipeline->optionsHash());
    h = fnvMix(h, job.hw->contentHash());
    h = fnvMix(h, job.blocks.size());
    for (const auto &b : job.blocks)
        h = fnvMix(h, b.contentHash());
    return h;
}

void
Engine::reportDone(const std::string &name)
{
    // The finished count always advances (/healthz and serve
    // admission read it); the mutex only keeps the callback's
    // (done, total) pairs in order.
    if (!opts_.onJobDone) {
        finished_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::lock_guard<std::mutex> lock(progressMutex_);
    size_t done = finished_.fetch_add(1, std::memory_order_relaxed) + 1;
    opts_.onJobDone(done, submittedCount(), name);
}

/**
 * One dequeued job's lifecycle, reported from one place to the
 * in-flight table (/statusz, the watchdog), tracer spans, event
 * records, outcome counters, latency histograms, the recent-job ring
 * and the progress callback.
 */
class Engine::JobTimeline
{
  public:
    /** A stage's in-flight name and span category (null: no span). */
    struct Stage
    {
        const char *name;
        const char *category;
    };
    /** The only place the stages are named. */
    static constexpr Stage kQueued{"queued", nullptr},
        kDiskRead{"disk_read", "disk"}, kCompile{"compile", "compile"},
        kVerify{"verify", "verify"}, kPublish{"publish", nullptr},
        kDiskWrite{"disk_write", "disk"};

    enum class Outcome
    {
        Cancelled,
        DiskHit,
        Compiled,
    };

    JobTimeline(Engine &engine, const CompileJob &job, uint64_t key,
                uint64_t submit_ns)
        : engine_(engine), job_(job), submitNs_(submit_ns),
          active_(std::make_shared<ActiveJob>(job.name, key, steadyNowNs(),
                                              kQueued.name))
    {
        engine_.started_.fetch_add(1, std::memory_order_relaxed);
        engine_.queueWaitHist_->record(active_->startNs - submit_ns);
        engine_.tracer_->recordSpan("queue_wait", "queue", submit_ns,
                                    active_->startNs, job.name);
        std::lock_guard<std::mutex> lock(engine_.activeMutex_);
        engine_.active_.push_back(active_);
    }

    /** Closes the last open span and leaves the in-flight table. */
    ~JobTimeline()
    {
        closeSpan(steadyNowNs());
        std::lock_guard<std::mutex> lock(engine_.activeMutex_);
        std::erase(engine_.active_, active_);
    }

    JobTimeline(const JobTimeline &) = delete;
    JobTimeline &operator=(const JobTimeline &) = delete;

    /** One timestamp closes the open stage's span and opens `stage`.
     *  Leaving the queue writes the job.start record. */
    void enter(const Stage &stage)
    {
        if (active_->stage.load(std::memory_order_relaxed) == kQueued.name &&
            engine_.eventLog_->enabled()) {
            engine_.eventLog_->record(
                "job.start", {Field::str("job", job_.name),
                              Field::u64("key", active_->key),
                              Field::str("pipeline", job_.pipeline->name())});
        }
        const uint64_t now_ns = steadyNowNs();
        closeSpan(now_ns);
        active_->stage.store(stage.name, std::memory_order_relaxed);
        if (stage.category != nullptr) {
            open_ = &stage;
            openNs_ = now_ns;
        }
    }

    /** The pipeline returned: fold its stats into the metrics and
     *  close the compile span, with the pipeline's stages under it. */
    void compiled(const CompileStats &stats)
    {
        uint64_t t = openNs_;
        const uint64_t end_ns = steadyNowNs();
        closeSpan(end_ns);
        engine_.metrics_.recordCompile(stats);
        // One span per stage, as long as the stage's total time,
        // laid end to end. The stages interleave (compileTetris
        // schedules and synthesizes block by block), so the spans'
        // lengths are right and their positions are not. perfbench's
        // per-layer self times depend only on the lengths.
        const std::pair<const char *, double> stages[] = {
            {"schedule", stats.scheduleSeconds},
            {"synthesis", stats.synthSeconds},
            {"peephole", stats.peepholeSeconds}};
        for (const auto &[name, seconds] : stages) {
            const uint64_t end = std::min(
                t + static_cast<uint64_t>(std::max(seconds, 0.0) * 1e9),
                end_ns);
            engine_.tracer_->recordSpan(name, "stage", t, end, job_.name);
            t = end;
        }
    }

    /** Report the outcome before the entry publishes: the counter,
     *  progress callback, latency, `job` span and closing record. */
    void finish(Outcome outcome, bool verify_failed = false)
    {
        Engine &e = engine_;
        const MetricsRegistry::Handle counters[] = {
            e.jobsCancelledH_, e.jobsDiskHitsH_, e.jobsCompletedH_};
        e.metrics_.addCount(counters[static_cast<size_t>(outcome)]);
        e.reportDone(job_.name);
        const uint64_t end_ns = steadyNowNs();
        closeSpan(end_ns);
        const uint64_t latency_ns = end_ns - submitNs_;
        e.latencyHist_->record(latency_ns);
        {
            std::lock_guard<std::mutex> lock(e.recentMutex_);
            e.recent_.push_back(RecentJob{job_.name, latency_ns});
            if (e.recent_.size() > 64)
                e.recent_.pop_front();
        }
        e.tracer_->recordSpan("job", "job", active_->startNs, end_ns,
                              job_.name);
        if (!e.eventLog_->enabled())
            return;
        const Field job = Field::str("job", job_.name);
        const Field key = Field::u64("key", active_->key);
        const Field latency = Field::f64(
            "latency_ms", static_cast<double>(latency_ns) / 1e6);
        if (outcome == Outcome::Cancelled)
            e.eventLog_->record("job.cancel", {job, key});
        else if (outcome == Outcome::DiskHit)
            e.eventLog_->record(
                "job.finish",
                {job, key, Field::str("outcome", "disk_hit"), latency});
        else
            e.eventLog_->record(
                "job.finish",
                {job, key, Field::str("outcome", "compiled"), latency,
                 Field::b("verify_failed", verify_failed)});
    }

  private:
    void closeSpan(uint64_t end_ns)
    {
        if (open_ != nullptr)
            engine_.tracer_->recordSpan(open_->name, open_->category,
                                        openNs_, end_ns, job_.name);
        open_ = nullptr;
    }

    Engine &engine_;
    const CompileJob &job_;
    const uint64_t submitNs_;
    /** The job's in-flight row: name, key, dequeue time, stage. */
    const std::shared_ptr<ActiveJob> active_;
    /** The stage whose span is open (null: none), and its start. */
    const Stage *open_ = nullptr;
    uint64_t openNs_ = 0;
};

VerifyStatus
Engine::verifyJob(JobTimeline &timeline, const CompileJob &job,
                  const CompileResult &result, CompileCache::Entry &entry)
{
    timeline.enter(JobTimeline::kVerify);
    ScopedTimer timer(metrics_, verifySecondsH_);
    VerifyReport report = verifyConjugation(job.blocks, result);
    entry.setVerifyStatus(1 + static_cast<uint8_t>(report.status));
    switch (report.status) {
      case VerifyStatus::Pass:
        metrics_.addCount(verifyPassH_);
        break;
      case VerifyStatus::Fail:
        metrics_.addCount(verifyFailH_);
        if (eventLog_->enabled()) {
            eventLog_->record("verify.fail",
                              {Field::str("job", job.name),
                               Field::str("method", report.method),
                               Field::str("detail", report.detail)});
        }
        logWarn("verify FAIL [", job.name, "] via ", report.method,
                ": ", report.detail);
        break;
      case VerifyStatus::Skipped:
        metrics_.addCount(verifySkippedH_);
        break;
    }
    return report.status;
}

void
Engine::runJob(const CompileJob &job, uint64_t key,
               const std::shared_ptr<CompileCache::Entry> &entry,
               uint64_t submit_ns)
{
    using Outcome = JobTimeline::Outcome;
    JobTimeline timeline(*this, job, key, submit_ns);

    // Cancellation gate: checked when a worker dequeues the job, so
    // cancelPending() stops everything that has not started yet.
    if (cancel_.load()) {
        if (opts_.enableCache && !job.transient) {
            // Don't let the placeholder result shadow the key: a
            // later engine (or run) must recompile it.
            cache_.erase(key);
        }
        auto placeholder = std::make_shared<CompileResult>();
        placeholder->cancelled = true;
        timeline.finish(Outcome::Cancelled);
        entry->publish(std::move(placeholder));
        return;
    }

    // Read-through: an in-memory miss may still be served from the
    // persistent store of a previous process.
    if (opts_.diskCache) {
        timeline.enter(JobTimeline::kDiskRead);
        if (auto persisted = opts_.diskCache->load(key)) {
            // Disk artifacts are verified too: this is what catches a
            // stale or silently-wrong .tca entry before its numbers
            // reach a BENCH_*.json.
            if (opts_.verify)
                verifyJob(timeline, job, *persisted, *entry);
            timeline.finish(Outcome::DiskHit);
            entry->publish(std::move(persisted));
            return;
        }
    }

    timeline.enter(JobTimeline::kCompile);
    CompileResult result = job.pipeline->run(job.blocks, *job.hw);
    timeline.compiled(result.stats);
    // Verify-on-write: the verdict is taken *before* the artifact can
    // reach the disk tier, so a miscompile never lands in the store.
    const bool verify_failed =
        opts_.verify &&
        verifyJob(timeline, job, result, *entry) == VerifyStatus::Fail;
    timeline.enter(JobTimeline::kPublish);
    // Report before publishing: once it publishes, waiters proceed,
    // and every callback for their jobs must already have returned.
    timeline.finish(Outcome::Compiled, verify_failed);
    auto shared = std::make_shared<const CompileResult>(std::move(result));
    entry->publish(shared);
    // Write-behind: persist after publishing so waiters never block
    // on disk I/O. The job stays in the in-flight table until the
    // persist lands, so a wedged disk write is stall-visible too.
    if (opts_.diskCache) {
        if (verify_failed && opts_.verifyBeforeStore) {
            metrics_.addCount("verify.blocked_write");
            logWarn("verify: not persisting failed compilation [",
                    job.name, "]");
        } else {
            timeline.enter(JobTimeline::kDiskWrite);
            opts_.diskCache->store(key, *shared);
        }
    }
}

std::shared_ptr<CompileCache::Entry>
Engine::submit(CompileJob job)
{
    TETRIS_ASSERT(job.hw != nullptr, "job without a device");
    TETRIS_ASSERT(job.pipeline != nullptr, "job without a pipeline");
    metrics_.addCount(jobsSubmittedH_);
    submitted_.fetch_add(1, std::memory_order_relaxed);

    const uint64_t key = jobKey(job);
    std::shared_ptr<CompileCache::Entry> entry;
    bool is_new = true;
    if (opts_.enableCache && !job.transient) {
        entry = cache_.acquire(key, is_new);
    } else {
        // No dedup: every submission gets a private slot. Transient
        // jobs take this path too — a consume-once result must not
        // stay in the cache (see CompileJob).
        entry = std::make_shared<CompileCache::Entry>();
    }

    if (is_new) {
        // The submit timestamp rides along so the worker can account
        // the queue wait to this job when it dequeues.
        const uint64_t submit_ns = steadyNowNs();
        // The worker owns a copy of the job; callers may mutate or
        // destroy theirs immediately after submit().
        pool_.submit(
            [this, job = std::move(job), key, entry, submit_ns] {
                runJob(job, key, entry, submit_ns);
            });
    } else {
        metrics_.addCount(jobsDedupedH_);
        // No work left for this submission: the shared entry is (or
        // will be) published by its owner.
        reportDone(job.name);
    }
    return entry;
}

void
Engine::syncCacheMetrics()
{
    metrics_.setCount("cache.shard_count",
                      static_cast<uint64_t>(cache_.shardCount()));
    metrics_.setCount("cache.lock_wait_ns", cache_.lockWaitNs());
    metrics_.setCount("cache.hits", cache_.hits());
    metrics_.setCount("cache.misses", cache_.misses());
    if (opts_.diskCache) {
        metrics_.setCount("cache.disk.misses", opts_.diskCache->misses());
        metrics_.setCount("cache.disk.writes", opts_.diskCache->writes());
    }
}

std::vector<std::shared_ptr<const CompileResult>>
Engine::compileAll(std::vector<CompileJob> jobs)
{
    std::vector<std::shared_ptr<CompileCache::Entry>> entries;
    entries.reserve(jobs.size());
    for (auto &job : jobs)
        entries.push_back(submit(std::move(job)));

    std::vector<std::shared_ptr<const CompileResult>> results;
    results.reserve(entries.size());
    for (const auto &entry : entries)
        results.push_back(entry->get());
    syncCacheMetrics();
    return results;
}

} // namespace tetris
