/**
 * @file
 * Stall watchdog: flags jobs stuck past TETRIS_STALL_MS.
 *
 * A long compile is normal; a compile that never comes back is a
 * bug (or a pathological input) that a batch process only reveals by
 * hanging. The watchdog polls the engine's in-flight job table from
 * its own thread and, the first time a job's elapsed time crosses
 * the threshold, emits the full triple: a `jobs.stalled` counter in
 * the MetricsRegistry (so /metrics alerts can fire), a `stall`
 * record in the structured event log, and a warn-level log line
 * carrying the job name, cache key, and the stage it is stuck in
 * (one of the stages Engine::JobTimeline names in engine.cc). Each
 * job is flagged at most once; it keeps running — detection, not
 * preemption, matching the engine's cooperative cancellation model.
 *
 * Armed per engine by EngineOptions::stallMs or TETRIS_STALL_MS
 * (milliseconds in [0, 86400000]; unset or 0 = off). The poll interval self-scales to a
 * quarter of the threshold, clamped to [10ms, 1s], so detection
 * latency stays proportional without busy-polling.
 */

#ifndef TETRIS_OBS_WATCHDOG_HH
#define TETRIS_OBS_WATCHDOG_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace tetris
{

class Engine;

class StallWatchdog
{
  public:
    /** Start watching `engine`; `stall_ms` must be > 0. The engine
     *  must outlive the watchdog (it owns and resets it first). */
    StallWatchdog(Engine &engine, uint64_t stall_ms);

    /** Stops and joins the polling thread. */
    ~StallWatchdog();

    StallWatchdog(const StallWatchdog &) = delete;
    StallWatchdog &operator=(const StallWatchdog &) = delete;

  private:
    void loop();
    void scan();

    Engine &engine_;
    const uint64_t stallMs_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::thread thread_;
};

} // namespace tetris

#endif // TETRIS_OBS_WATCHDOG_HH
