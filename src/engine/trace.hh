/**
 * @file
 * Job-level span tracer -> Chrome trace-event / Perfetto JSON.
 *
 * Records named time spans (queue wait, compile stages, verify,
 * disk-cache reads/writes) from many worker threads into per-thread
 * buffers and exports them as a Chrome trace-event JSON document
 * ({"traceEvents": [...]}) that chrome://tracing and Perfetto load
 * directly. scripts/trace_report.py summarizes the same file
 * offline (per-stage totals, slowest jobs, queue-wait share).
 *
 * Cost model:
 *  - disabled (the default): recordSpan() is one relaxed atomic
 *    load — no allocation. The engine's hot paths stay unmeasurably
 *    close to the untraced build (perf_microbench guards this).
 *  - enabled: each thread appends to its own buffer under its own
 *    never-contended mutex (taken only by that thread while
 *    recording, and by the exporter after the fact), so tracing
 *    scales with thread count instead of serializing on one lock.
 *
 * The process-wide instance (Tracer::global()) arms itself from
 * TETRIS_TRACE=<file> and writes the file when the process exits;
 * tests and embedders construct private Tracers and pass them via
 * EngineOptions::tracer.
 *
 * Span names/categories are captured as const char* and must be
 * string literals (or otherwise outlive the tracer).
 */

#ifndef TETRIS_ENGINE_TRACE_HH
#define TETRIS_ENGINE_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tetris
{

/** Monotonic nanoseconds; the time base of every span. */
inline uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

class Tracer
{
  public:
    Tracer();
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Start accepting spans. `path` is where writeFile() (and the
     * destructor) will put the JSON; empty = export via toJson()
     * only. Call before concurrent recording starts.
     */
    void enable(std::string path = "");

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** steadyNowNs() at enable(); spans are exported relative to it. */
    uint64_t epochNs() const { return epochNs_; }

    /**
     * Record one completed span [start_ns, end_ns] (steadyNowNs
     * values). `job` labels the span with the owning CompileJob's
     * display name in the exported args. No-op while disabled.
     */
    void recordSpan(const char *name, const char *category,
                    uint64_t start_ns, uint64_t end_ns,
                    const std::string &job = {});

    /** Spans recorded so far, across all threads. */
    size_t eventCount() const;

    /** The Chrome trace-event JSON document of everything recorded. */
    std::string toJson() const;

    /**
     * Write toJson() to the enable() path (false + warning when no
     * path was configured or the write fails).
     */
    bool writeFile() const;

    /** Drop all recorded spans (buffers stay registered). */
    void clear();

    /**
     * The process-wide tracer: enabled iff TETRIS_TRACE names a
     * file, which is written when this instance is destroyed at
     * process exit. Engines default to it (EngineOptions::tracer ==
     * nullptr).
     */
    static Tracer &global();

  private:
    struct Event
    {
        const char *name;
        const char *category;
        uint64_t startNs;
        uint64_t durNs;
        std::string job;
    };

    /**
     * One per (tracer, recording thread). The mutex is only ever
     * contended by the exporter: the owning thread records under it
     * uncontended, which keeps the enabled hot path cheap while
     * staying provably race-free (the CI ThreadSanitizer job builds
     * this).
     */
    struct Buffer
    {
        mutable std::mutex mutex;
        int tid = 0;
        std::vector<Event> events;
    };

    Buffer &localBuffer();

    /** Distinguishes tracers in the thread-local buffer cache. */
    const uint64_t id_;
    std::atomic<bool> enabled_{false};
    uint64_t epochNs_ = 0;
    std::string path_;
    mutable std::mutex buffersMutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

} // namespace tetris

#endif // TETRIS_ENGINE_TRACE_HH
