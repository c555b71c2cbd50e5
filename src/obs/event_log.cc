#include "obs/event_log.hh"

#include <sys/time.h>

#include "common/env.hh"
#include "common/json.hh"
#include "common/log.hh"

namespace tetris
{

namespace
{

/** Wall-clock milliseconds since the epoch for record timestamps. */
uint64_t
wallClockMs()
{
    struct timeval tv;
    ::gettimeofday(&tv, nullptr);
    return static_cast<uint64_t>(tv.tv_sec) * 1000 +
           static_cast<uint64_t>(tv.tv_usec) / 1000;
}

const char *
teeLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug:
        return "debug";
      case LogLevel::Info:
        return "info";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Error:
        return "error";
      case LogLevel::Off:
        break;
    }
    return "?";
}

} // namespace

EventLog::Field
EventLog::Field::str(const char *key, std::string value)
{
    Field f;
    f.key = key;
    f.kind = Kind::Str;
    f.s = std::move(value);
    return f;
}

EventLog::Field
EventLog::Field::u64(const char *key, uint64_t value)
{
    Field f;
    f.key = key;
    f.kind = Kind::U64;
    f.u = value;
    return f;
}

EventLog::Field
EventLog::Field::f64(const char *key, double value)
{
    Field f;
    f.key = key;
    f.kind = Kind::F64;
    f.d = value;
    return f;
}

EventLog::Field
EventLog::Field::b(const char *key, bool value)
{
    Field f;
    f.key = key;
    f.kind = Kind::Bool;
    f.flag = value;
    return f;
}

EventLog::~EventLog() { close(); }

bool
EventLog::arm(const std::string &path, uint64_t max_bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
        enabled_.store(false, std::memory_order_relaxed);
    }
    std::FILE *f = std::fopen(path.c_str(), "ab");
    if (f == nullptr) {
        logWarn("event log: cannot open '", path, "'; disabled");
        return false;
    }
    long pos = std::ftell(f);
    file_ = f;
    path_ = path;
    maxBytes_ = max_bytes > 0 ? max_bytes : kDefaultMaxBytes;
    bytes_ = pos > 0 ? static_cast<uint64_t>(pos) : 0;
    enabled_.store(true, std::memory_order_relaxed);
    return true;
}

void
EventLog::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_.store(false, std::memory_order_relaxed);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
EventLog::rotateLocked()
{
    // Two generations: <path> -> <path>.1, then restart fresh. Errors
    // fall back to truncating in place — record() must never log (it
    // can run inside the logger tee, under the emit mutex).
    std::fclose(file_);
    file_ = nullptr;
    const std::string old = path_ + ".1";
    std::remove(old.c_str());
    std::rename(path_.c_str(), old.c_str());
    file_ = std::fopen(path_.c_str(), "wb");
    bytes_ = 0;
    if (file_ == nullptr)
        enabled_.store(false, std::memory_order_relaxed);
    else
        rotations_.fetch_add(1, std::memory_order_relaxed);
}

void
EventLog::record(const char *event, std::initializer_list<Field> fields)
{
    if (!enabled())
        return;
    // Format outside the lock; only the append is serialized.
    JsonWriter w;
    w.beginObject();
    w.key("ts_ms").value(wallClockMs());
    w.key("event").value(event);
    for (const Field &f : fields) {
        w.key(f.key);
        switch (f.kind) {
          case Field::Kind::Str:
            w.value(f.s);
            break;
          case Field::Kind::U64:
            w.value(f.u);
            break;
          case Field::Kind::F64:
            w.value(f.d);
            break;
          case Field::Kind::Bool:
            w.value(f.flag);
            break;
        }
    }
    w.endObject();
    std::string line = w.str();
    line += '\n';

    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr)
        return; // closed between the enabled() check and the lock
    if (bytes_ + line.size() > maxBytes_)
        rotateLocked();
    if (file_ == nullptr)
        return;
    std::fwrite(line.data(), 1, line.size(), file_);
    // Flush per record: events are rare (per job, not per gate) and a
    // crashing process should leave a readable log.
    std::fflush(file_);
    bytes_ += line.size();
    records_.fetch_add(1, std::memory_order_relaxed);
}

EventLog &
EventLog::global()
{
    // Leaked deliberately: worker threads and static destructors may
    // still record during teardown, and every record is flushed.
    static EventLog *g = [] {
        auto *log = new EventLog();
        const std::string path = envString("TETRIS_EVENT_LOG");
        if (!path.empty() &&
            log->arm(path, envInt("TETRIS_EVENT_LOG_MAX_BYTES", 4096,
                                  1 << 30, kDefaultMaxBytes)))
            installLogTee(*log);
        return log;
    }();
    return *g;
}

void
installLogTee(EventLog &log)
{
    setLogTee([&log](LogLevel level, const std::string &message) {
        if (level < LogLevel::Warn)
            return;
        log.record("log",
                   {EventLog::Field::str("level", teeLevelName(level)),
                    EventLog::Field::str("message", message)});
    });
}

void
clearLogTee()
{
    setLogTee(nullptr);
}

} // namespace tetris
