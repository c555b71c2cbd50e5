/**
 * @file
 * The one reader of TETRIS_* environment variables.
 *
 * Every knob in src/, bench/ and examples/ is read through one of the
 * three readers below, so all of them share one parsing rule:
 *
 *   - unset or empty selects the knob's default;
 *   - an integer knob takes a decimal integer (surrounding whitespace
 *     allowed) inside the range its call site declares; anything else
 *     -- garbage, trailing junk, out of range, overflow -- logs one
 *     warning naming the variable and the range, and selects the
 *     default;
 *   - a flag is off for "0" and on for any other value;
 *   - a string knob is taken as given.
 *
 * A knob whose default is off (TETRIS_OBS_LINGER_MS,
 * TETRIS_CACHE_MAX_BYTES) declares a range starting at 0, so a
 * literal 0 selects the default without a warning. An explicit
 * option always beats the environment: call sites consult these
 * readers only when their option is left at its "unset" value.
 */

#ifndef TETRIS_COMMON_ENV_HH
#define TETRIS_COMMON_ENV_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/log.hh"

namespace tetris
{

/**
 * Strict bounded parse: the entire string (leading whitespace per
 * strtoll, trailing spaces/tabs tolerated) must be a decimal integer
 * in [min_value, max_value]. Returns nullopt on anything else.
 */
inline std::optional<int64_t>
parseBoundedInt(const char *s, int64_t min_value, int64_t max_value)
{
    errno = 0;
    char *end = nullptr;
    const long long n = std::strtoll(s, &end, 10);
    if (end == s || errno == ERANGE)
        return std::nullopt;
    while (*end == ' ' || *end == '\t')
        ++end;
    if (*end != '\0' || n < min_value || n > max_value)
        return std::nullopt;
    return n;
}

/**
 * `s` as a whole unsigned 64-bit decimal; nullopt on anything else,
 * including the sign, leading blanks and trailing junk that strtoull
 * alone would take ("-1" wraps to 2^64 - 1).
 */
inline std::optional<uint64_t>
parseU64(const char *s)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long n = std::strtoull(s, &end, 10);
    if (*s < '0' || *s > '9' || errno == ERANGE || *end != '\0')
        return std::nullopt;
    return n;
}

/** The string knob `name`; empty when unset. */
inline std::string
envString(const char *name)
{
    const char *v = std::getenv(name);
    return v == nullptr ? std::string() : std::string(v);
}

/** The flag `name`: "0" is off, any other value on. */
inline bool
envFlag(const char *name, bool fallback = false)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    return std::strcmp(v, "0") != 0;
}

/**
 * The integer knob `name`, in [min_value, max_value]; `fallback` when
 * unset, empty, or invalid (invalid also warns).
 */
inline int64_t
envInt(const char *name, int64_t min_value, int64_t max_value,
       int64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    if (auto n = parseBoundedInt(v, min_value, max_value))
        return *n;
    logWarn("ignoring invalid ", name, "='", v, "' (want an integer in [",
            min_value, ", ", max_value, "]); using ", fallback);
    return fallback;
}

} // namespace tetris

#endif // TETRIS_COMMON_ENV_HH
