/**
 * @file
 * Structured JSONL event log for the observability plane.
 *
 * One self-describing JSON object per significant engine event —
 * job start/finish/cancel, verify failure, disk-cache
 * corruption-as-miss, store trim — appended to a
 * file armed by TETRIS_EVENT_LOG=<path> (or EventLog::arm() for
 * tests). Every record carries a wall-clock timestamp and the event
 * name; the remaining fields are event-specific. The file rotates in
 * place once it exceeds TETRIS_EVENT_LOG_MAX_BYTES (default 64 MiB):
 * the current file moves to <path>.1 (replacing any previous .1) and
 * writing restarts on a fresh <path>, so a long-lived daemon keeps a
 * bounded two-generation window.
 *
 * The disabled fast path is one relaxed atomic load — an unarmed
 * process pays nothing per event (perf_microbench's obs_overhead
 * section trends this). Armed recording serializes on one mutex and
 * flushes per line so a crash loses at most the line being written.
 *
 * The process-wide instance (global(), what engines default to) also
 * installs a logger tee (installLogTee) that mirrors every warn+ log
 * line into the event log as a {"event":"log",...} record, so paths
 * that only warn (disk-cache I/O failures, bad env knobs) are
 * captured without bespoke instrumentation. The tee runs under the
 * logger's emit mutex: EventLog never logs from its own record path,
 * which keeps the lock order acyclic.
 */

#ifndef TETRIS_OBS_EVENT_LOG_HH
#define TETRIS_OBS_EVENT_LOG_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>

namespace tetris
{

class EventLog
{
  public:
    static constexpr uint64_t kDefaultMaxBytes = 64ull << 20;

    /** One typed key/value pair of a record. Build via the static
     *  helpers: Field::str / Field::u64 / Field::f64 / Field::b. */
    struct Field
    {
        enum class Kind
        {
            Str,
            U64,
            F64,
            Bool,
        };

        const char *key = "";
        Kind kind = Kind::U64;
        std::string s;
        uint64_t u = 0;
        double d = 0.0;
        bool flag = false;

        static Field str(const char *key, std::string value);
        static Field u64(const char *key, uint64_t value);
        static Field f64(const char *key, double value);
        static Field b(const char *key, bool value);
    };

    EventLog() = default;
    ~EventLog();

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /**
     * Start appending to `path`, rotating once the file would exceed
     * `max_bytes` (0 keeps the default budget). Returns false (and
     * stays disabled) when the file cannot be opened.
     */
    bool arm(const std::string &path,
             uint64_t max_bytes = kDefaultMaxBytes);

    /** Flush and stop recording (idempotent). */
    void close();

    /** One relaxed load: the per-event cost when nothing is armed. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Append {"ts_ms":...,"event":event,<fields>} as one line.
     * No-op when disabled. Never logs (see the tee lock-order note
     * above), so it is safe to call from inside the logger tee.
     */
    void record(const char *event,
                std::initializer_list<Field> fields = {});

    /** Records written since arm() (tests, statusz). */
    uint64_t recordCount() const
    {
        return records_.load(std::memory_order_relaxed);
    }

    /** Completed <path> -> <path>.1 rotations. */
    uint64_t rotationCount() const
    {
        return rotations_.load(std::memory_order_relaxed);
    }

    const std::string &path() const { return path_; }

    /**
     * The process-wide event log engines default to. Armed on first
     * access from TETRIS_EVENT_LOG / TETRIS_EVENT_LOG_MAX_BYTES;
     * when armed it also installs the warn+ logger tee. Never
     * destroyed (worker threads may emit during static teardown).
     */
    static EventLog &global();

  private:
    void rotateLocked();

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> records_{0};
    std::atomic<uint64_t> rotations_{0};
    mutable std::mutex mutex_;
    std::FILE *file_ = nullptr;
    std::string path_;
    uint64_t maxBytes_ = kDefaultMaxBytes;
    uint64_t bytes_ = 0;
};

/**
 * Mirror every warn+ log line into `log` as {"event":"log"} records
 * (see common/log.hh setLogTee). The tee holds a reference: `log`
 * must outlive it or call clearLogTee() first.
 */
void installLogTee(EventLog &log);
void clearLogTee();

} // namespace tetris

#endif // TETRIS_OBS_EVENT_LOG_HH
