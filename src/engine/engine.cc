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

namespace
{

/** Stage durations -> span lengths on the trace timeline. */
uint64_t
secondsToNs(double seconds)
{
    if (seconds <= 0.0)
        return 0;
    return static_cast<uint64_t>(seconds * 1e9);
}

} // namespace

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

std::shared_ptr<Engine::ActiveJob>
Engine::beginActiveJob(const std::string &name, uint64_t key,
                       uint64_t start_ns)
{
    auto job = std::make_shared<ActiveJob>();
    job->name = name;
    job->key = key;
    job->startNs = start_ns;
    std::lock_guard<std::mutex> lock(activeMutex_);
    active_.push_back(job);
    return job;
}

void
Engine::endActiveJob(const std::shared_ptr<ActiveJob> &job)
{
    std::lock_guard<std::mutex> lock(activeMutex_);
    active_.erase(std::remove(active_.begin(), active_.end(), job),
                  active_.end());
}

void
Engine::pushRecentJob(const std::string &name, uint64_t duration_ns)
{
    std::lock_guard<std::mutex> lock(recentMutex_);
    recent_.push_back(RecentJob{name, duration_ns});
    if (recent_.size() > 64)
        recent_.pop_front();
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
    // The finished count always advances (the stats reporter polls
    // it); the progress mutex only serializes the user callback so
    // its (done, total) pairs never interleave or run backwards.
    if (!opts_.onJobDone) {
        finished_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    std::lock_guard<std::mutex> lock(progressMutex_);
    size_t done = finished_.fetch_add(1, std::memory_order_relaxed) + 1;
    opts_.onJobDone(done, submittedCount(), name);
}

VerifyStatus
Engine::verifyJob(const CompileJob &job, const CompileResult &result)
{
    TraceSpan span(tracer_, "verify", "verify", job.name);
    ScopedTimer timer(metrics_, verifySecondsH_);
    VerifyReport report =
        verifyCompileResult(job.blocks, result, opts_.verifyOptions);
    switch (report.status) {
      case VerifyStatus::Pass:
        metrics_.addCount(verifyPassH_);
        break;
      case VerifyStatus::Fail:
        metrics_.addCount(verifyFailH_);
        if (eventLog_->enabled()) {
            eventLog_->record(
                "verify.fail",
                {EventLog::Field::str("job", job.name),
                 EventLog::Field::str("method", report.method),
                 EventLog::Field::str("detail", report.detail)});
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
    started_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t dequeue_ns = steadyNowNs();
    queueWaitHist_->record(dequeue_ns >= submit_ns
                               ? dequeue_ns - submit_ns
                               : 0);
    if (tracer_->enabled()) {
        tracer_->recordSpan("queue_wait", "queue", submit_ns,
                            dequeue_ns, job.name);
    }
    // Register with the in-flight table for the watchdog and
    // /statusz; deregistered at every exit from this function.
    auto active = beginActiveJob(job.name, key, dequeue_ns);
    // One "job" span per dequeued submission, dequeue -> publish; the
    // latency histogram additionally covers the queue wait. Returns
    // the submit-to-publish latency for the job.finish event record.
    auto finishJob = [&]() -> uint64_t {
        const uint64_t end_ns = steadyNowNs();
        const uint64_t latency_ns =
            end_ns >= submit_ns ? end_ns - submit_ns : 0;
        latencyHist_->record(latency_ns);
        pushRecentJob(job.name, latency_ns);
        if (tracer_->enabled())
            tracer_->recordSpan("job", "job", dequeue_ns, end_ns,
                                job.name);
        return latency_ns;
    };

    // Cancellation gate: checked when a worker dequeues the job, so
    // cancelPending() stops everything that has not started yet.
    if (cancel_.load()) {
        metrics_.addCount(jobsCancelledH_);
        if (opts_.enableCache && !job.transient) {
            // Don't let the placeholder result shadow the key: a
            // later engine (or run) must recompile it.
            cache_.erase(key);
        }
        auto placeholder = std::make_shared<CompileResult>();
        placeholder->cancelled = true;
        reportDone(job.name);
        finishJob();
        if (eventLog_->enabled()) {
            eventLog_->record("job.cancel",
                              {EventLog::Field::str("job", job.name),
                               EventLog::Field::u64("key", key)});
        }
        entry->publish(std::move(placeholder));
        endActiveJob(active);
        return;
    }

    if (eventLog_->enabled()) {
        eventLog_->record(
            "job.start",
            {EventLog::Field::str("job", job.name),
             EventLog::Field::u64("key", key),
             EventLog::Field::str("pipeline", job.pipeline->name())});
    }

    // Read-through: an in-memory miss may still be served from the
    // persistent store of a previous process.
    if (opts_.diskCache) {
        active->stage.store("disk_read", std::memory_order_relaxed);
        auto loadPersisted = [&] {
            TraceSpan span(tracer_, "disk_read", "disk", job.name);
            return opts_.diskCache->load(key);
        };
        if (auto persisted = loadPersisted()) {
            metrics_.addCount(jobsDiskHitsH_);
            // Disk artifacts are verified too: this is what catches a
            // stale or silently-wrong .tca entry before its numbers
            // reach a BENCH_*.json.
            if (opts_.verify) {
                active->stage.store("verify",
                                    std::memory_order_relaxed);
                entry->setVerifyStatus(
                    1 + static_cast<uint8_t>(verifyJob(job, *persisted)));
            }
            reportDone(job.name);
            const uint64_t latency_ns = finishJob();
            if (eventLog_->enabled()) {
                eventLog_->record(
                    "job.finish",
                    {EventLog::Field::str("job", job.name),
                     EventLog::Field::u64("key", key),
                     EventLog::Field::str("outcome", "disk_hit"),
                     EventLog::Field::f64(
                         "latency_ms",
                         static_cast<double>(latency_ns) / 1e6)});
            }
            entry->publish(std::move(persisted));
            endActiveJob(active);
            return;
        }
    }

    active->stage.store("compile", std::memory_order_relaxed);
    const uint64_t compile_start_ns = steadyNowNs();
    CompileResult result = job.pipeline->run(job.blocks, *job.hw);
    const uint64_t compile_end_ns = steadyNowNs();
    metrics_.recordCompile(result.stats);
    metrics_.addCount(jobsCompletedH_);
    if (tracer_->enabled()) {
        tracer_->recordSpan("compile", "compile", compile_start_ns,
                            compile_end_ns, job.name);
        // The pipeline runs its stages sequentially, so their spans
        // can be laid back-to-back from the measured durations; they
        // nest under "compile" on the same track.
        struct StageSpan
        {
            const char *name;
            double seconds;
        };
        const StageSpan stages[] = {
            {"schedule", result.stats.scheduleSeconds},
            {"synthesis", result.stats.synthSeconds},
            {"peephole", result.stats.peepholeSeconds},
        };
        uint64_t t = compile_start_ns;
        for (const StageSpan &stage : stages) {
            uint64_t end =
                std::min(t + secondsToNs(stage.seconds),
                         compile_end_ns);
            tracer_->recordSpan(stage.name, "stage", t, end, job.name);
            t = end;
        }
    }
    // Verify-on-write: the verdict is taken *before* the artifact can
    // reach the disk tier, so a miscompile never lands in the store.
    bool verify_failed = false;
    if (opts_.verify) {
        active->stage.store("verify", std::memory_order_relaxed);
        const VerifyStatus status = verifyJob(job, result);
        entry->setVerifyStatus(1 + static_cast<uint8_t>(status));
        verify_failed = status == VerifyStatus::Fail;
    }
    active->stage.store("publish", std::memory_order_relaxed);
    // Report before publishing: once the entry publishes, waiters
    // (compileAll callers) may proceed, and every callback for their
    // jobs must already have returned.
    reportDone(job.name);
    const uint64_t latency_ns = finishJob();
    if (eventLog_->enabled()) {
        eventLog_->record(
            "job.finish",
            {EventLog::Field::str("job", job.name),
             EventLog::Field::u64("key", key),
             EventLog::Field::str("outcome", "compiled"),
             EventLog::Field::f64("latency_ms",
                                  static_cast<double>(latency_ns) /
                                      1e6),
             EventLog::Field::b("verify_failed", verify_failed)});
    }
    auto shared = std::make_shared<const CompileResult>(std::move(result));
    entry->publish(shared);
    // Write-behind: persist after publishing so waiters never block
    // on disk I/O. The job stays in the in-flight table until the
    // persist lands, so a wedged disk write is stall-visible too.
    if (opts_.diskCache) {
        active->stage.store("disk_write", std::memory_order_relaxed);
        if (verify_failed && opts_.verifyBeforeStore) {
            metrics_.addCount("verify.blocked_write");
            logWarn("verify: not persisting failed compilation [",
                    job.name, "]");
        } else {
            TraceSpan span(tracer_, "disk_write", "disk", job.name);
            opts_.diskCache->store(key, *shared);
        }
    }
    endActiveJob(active);
}

std::shared_ptr<CompileCache::Entry>
Engine::submitEntry(CompileJob job)
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
        // be pinned by the cache's read views (see CompileJob).
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

Engine::JobId
Engine::submit(CompileJob job)
{
    auto entry = submitEntry(std::move(job));
    std::lock_guard<std::mutex> lock(jobsMutex_);
    jobs_.push_back(std::move(entry));
    return jobs_.size() - 1;
}

std::shared_ptr<CompileCache::Entry>
Engine::submitScoped(CompileJob job)
{
    return submitEntry(std::move(job));
}

std::shared_ptr<const CompileResult>
Engine::wait(JobId id)
{
    std::shared_ptr<CompileCache::Entry> entry;
    {
        std::lock_guard<std::mutex> lock(jobsMutex_);
        TETRIS_ASSERT(id < jobs_.size(), "unknown job id ", id);
        entry = jobs_[id];
    }
    return entry->get();
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
        metrics_.setCount("cache.disk.mmap_loads",
                          opts_.diskCache->mmapLoads());
        metrics_.setCount("cache.disk.buffered_loads",
                          opts_.diskCache->bufferedLoads());
    }
}

std::vector<std::shared_ptr<const CompileResult>>
Engine::compileAll(std::vector<CompileJob> jobs)
{
    std::vector<JobId> ids;
    ids.reserve(jobs.size());
    for (auto &job : jobs)
        ids.push_back(submit(std::move(job)));

    std::vector<std::shared_ptr<const CompileResult>> results;
    results.reserve(ids.size());
    for (JobId id : ids)
        results.push_back(wait(id));
    syncCacheMetrics();
    return results;
}

} // namespace tetris
