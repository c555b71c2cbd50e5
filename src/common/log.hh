/**
 * @file
 * Leveled, thread-safe structured logger.
 *
 * One line per event on stderr, with a wall-clock timestamp, the
 * severity, and a small stable per-thread id, so interleaved worker
 * output from a 64-thread sweep is attributable:
 *
 *   [12:34:56.789] warn  t03 disk cache: rename failed for ...
 *
 * The threshold comes from TETRIS_LOG_LEVEL (debug | info | warn |
 * error | off; default warn) and can be overridden programmatically
 * (setLogLevel, used by tests and the future daemon's config).
 * Emission takes one process-wide mutex, so concurrent lines never
 * interleave mid-message; suppressed levels cost a single relaxed
 * atomic load and no formatting.
 *
 * panic()/fatal() (common/logging.hh) remain the unconditional
 * abort/exit channels.
 */

#ifndef TETRIS_COMMON_LOG_HH
#define TETRIS_COMMON_LOG_HH

#include <functional>
#include <sstream>
#include <string>

namespace tetris
{

enum class LogLevel
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Off = 4,
};

/** Current threshold: events below it are dropped unformatted. */
LogLevel logLevel();

/** Override the threshold (wins over TETRIS_LOG_LEVEL). */
void setLogLevel(LogLevel level);

/**
 * Parse a TETRIS_LOG_LEVEL value ("debug".."off", case-sensitive).
 * Sets `ok` and returns the level; `ok` false leaves the default.
 */
LogLevel parseLogLevel(const char *s, bool &ok);

/** True when an event at `level` would currently be emitted. */
bool logEnabled(LogLevel level);

/**
 * Install a tee receiving every emitted log line (level + unformatted
 * message), or nullptr to remove it. The tee runs under the emission
 * mutex — concurrent with nothing, but it must not log (the mutex is
 * not recursive) and should return quickly. One tee at a time; the
 * observability plane uses this to mirror warn+ lines into the
 * structured event log (obs/event_log.hh).
 */
void setLogTee(std::function<void(LogLevel, const std::string &)> tee);

namespace detail
{

/** Format and write one line (threshold already checked). */
void logEmit(LogLevel level, const std::string &message);

} // namespace detail

template <typename... Args>
void
logAt(LogLevel level, Args &&...args)
{
    if (!logEnabled(level))
        return;
    std::ostringstream os;
    (os << ... << args);
    detail::logEmit(level, os.str());
}

template <typename... Args>
void
logDebug(Args &&...args)
{
    logAt(LogLevel::Debug, std::forward<Args>(args)...);
}

template <typename... Args>
void
logInfo(Args &&...args)
{
    logAt(LogLevel::Info, std::forward<Args>(args)...);
}

template <typename... Args>
void
logWarn(Args &&...args)
{
    logAt(LogLevel::Warn, std::forward<Args>(args)...);
}

} // namespace tetris

#endif // TETRIS_COMMON_LOG_HH
