#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <mutex>

#include <sys/time.h>

#include "common/env.hh"

namespace tetris
{

namespace
{

/**
 * The threshold lives in one relaxed atomic so the suppressed-level
 * fast path is a single load. Initialized lazily from the
 * environment on first query.
 */
std::atomic<int> g_level{-1};

int
levelFromEnv()
{
    const std::string v = envString("TETRIS_LOG_LEVEL");
    if (v.empty())
        return static_cast<int>(LogLevel::Warn);
    bool ok = false;
    LogLevel parsed = parseLogLevel(v.c_str(), ok);
    if (!ok) {
        // The logger is not configured yet, so report the bad knob
        // directly; this mirrors the other TETRIS_* env fallbacks.
        std::fprintf(stderr,
                     "warn: ignoring invalid TETRIS_LOG_LEVEL='%s' "
                     "(want debug|info|warn|error|off); using warn\n",
                     v.c_str());
        return static_cast<int>(LogLevel::Warn);
    }
    return static_cast<int>(parsed);
}

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug:
        return "debug";
      case LogLevel::Info:
        return "info ";
      case LogLevel::Warn:
        return "warn ";
      case LogLevel::Error:
        return "error";
      case LogLevel::Off:
        break;
    }
    return "?    ";
}

/** Small stable per-thread id for log attribution (not the OS tid). */
int
threadTag()
{
    static std::atomic<int> next{0};
    thread_local int tag = next.fetch_add(1);
    return tag;
}

} // namespace

LogLevel
parseLogLevel(const char *s, bool &ok)
{
    ok = true;
    if (std::strcmp(s, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(s, "info") == 0)
        return LogLevel::Info;
    if (std::strcmp(s, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(s, "error") == 0)
        return LogLevel::Error;
    if (std::strcmp(s, "off") == 0)
        return LogLevel::Off;
    ok = false;
    return LogLevel::Warn;
}

LogLevel
logLevel()
{
    int level = g_level.load(std::memory_order_relaxed);
    if (level < 0) {
        level = levelFromEnv();
        // Racing initializers compute the same value; last store wins.
        g_level.store(level, std::memory_order_relaxed);
    }
    return static_cast<LogLevel>(level);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

bool
logEnabled(LogLevel level)
{
    return level >= logLevel() && level != LogLevel::Off;
}

namespace
{

/** Emission mutex + tee share one guard; see setLogTee(). */
std::mutex &
emitMutex()
{
    static std::mutex m;
    return m;
}

std::function<void(LogLevel, const std::string &)> &
teeSlot()
{
    static std::function<void(LogLevel, const std::string &)> tee;
    return tee;
}

} // namespace

void
setLogTee(std::function<void(LogLevel, const std::string &)> tee)
{
    std::lock_guard<std::mutex> lock(emitMutex());
    teeSlot() = std::move(tee);
}

namespace detail
{

void
logEmit(LogLevel level, const std::string &message)
{
    // Reentrancy guard: a line emitted from inside the tee would
    // deadlock on the non-recursive emission mutex, so it goes to
    // stderr unteed and unserialized instead of recursing.
    static thread_local bool in_tee = false;

    struct timeval tv;
    ::gettimeofday(&tv, nullptr);
    struct tm tm_buf;
    ::localtime_r(&tv.tv_sec, &tm_buf);

    if (in_tee) {
        std::fprintf(stderr, "[%02d:%02d:%02d.%03d] %s t%02d %s\n",
                     tm_buf.tm_hour, tm_buf.tm_min, tm_buf.tm_sec,
                     static_cast<int>(tv.tv_usec / 1000),
                     levelName(level), threadTag(), message.c_str());
        return;
    }

    // One mutex-guarded fprintf per line: concurrent workers never
    // interleave mid-message, and ordering matches wall clock.
    std::lock_guard<std::mutex> lock(emitMutex());
    std::fprintf(stderr, "[%02d:%02d:%02d.%03d] %s t%02d %s\n",
                 tm_buf.tm_hour, tm_buf.tm_min, tm_buf.tm_sec,
                 static_cast<int>(tv.tv_usec / 1000), levelName(level),
                 threadTag(), message.c_str());
    // The tee runs under the same mutex so installation/removal never
    // races an emission.
    if (teeSlot()) {
        in_tee = true;
        teeSlot()(level, message);
        in_tee = false;
    }
}

} // namespace detail

} // namespace tetris
