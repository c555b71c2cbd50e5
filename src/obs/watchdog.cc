#include "obs/watchdog.hh"

#include <algorithm>
#include <chrono>

#include "common/log.hh"
#include "engine/engine.hh"
#include "engine/trace.hh"
#include "obs/event_log.hh"

namespace tetris
{

StallWatchdog::StallWatchdog(Engine &engine, uint64_t stall_ms)
    : engine_(engine), stallMs_(stall_ms)
{
    thread_ = std::thread([this] { loop(); });
}

StallWatchdog::~StallWatchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
StallWatchdog::loop()
{
    const uint64_t poll_ms =
        std::clamp<uint64_t>(stallMs_ / 4, 10, 1000);
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (wake_.wait_for(lock, std::chrono::milliseconds(poll_ms),
                               [this] { return stopping_; })) {
                return;
            }
        }
        scan();
    }
}

void
StallWatchdog::scan()
{
    const uint64_t now_ns = steadyNowNs();
    const uint64_t threshold_ns = stallMs_ * 1000000ull;
    for (const auto &job : engine_.activeJobs()) {
        const uint64_t elapsed_ns =
            now_ns > job->startNs ? now_ns - job->startNs : 0;
        if (elapsed_ns <= threshold_ns)
            continue;
        // Flag once per job: exchange() wins the race against a
        // concurrent scan and against the job finishing.
        if (job->stalled.exchange(true, std::memory_order_relaxed))
            continue;
        const char *stage = job->stage.load(std::memory_order_relaxed);
        const double elapsed_ms =
            static_cast<double>(elapsed_ns) / 1e6;
        engine_.metrics().addCount("jobs.stalled");
        EventLog &events = engine_.eventLog();
        if (events.enabled()) {
            events.record(
                "stall",
                {EventLog::Field::str("job", job->name),
                 EventLog::Field::u64("key", job->key),
                 EventLog::Field::str("stage", stage),
                 EventLog::Field::f64("elapsed_ms", elapsed_ms),
                 EventLog::Field::u64("threshold_ms", stallMs_)});
        }
        logWarn("watchdog: job [", job->name, "] key ", job->key,
                " stalled in stage '", stage, "' for ", elapsed_ms,
                " ms (threshold ", stallMs_, " ms)");
    }
}

} // namespace tetris
