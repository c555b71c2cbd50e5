/**
 * @file
 * Error and status reporting helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (library bugs), fatal() is for unrecoverable user errors
 * (bad configuration or input). Advisory messages go through the
 * leveled logger (common/log.hh).
 */

#ifndef TETRIS_COMMON_LOGGING_HH
#define TETRIS_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

// The library relies on C++20 (defaulted operator== in
// hardware/layout.hh, designated initializers, etc.). Fail the build
// here, with a readable message, instead of deep inside a template.
// MSVC keeps __cplusplus at 199711L unless /Zc:__cplusplus is set, so
// check its _MSVC_LANG instead.
#if defined(_MSVC_LANG)
static_assert(_MSVC_LANG >= 202002L,
              "tetris requires C++20: configure with "
              "CMAKE_CXX_STANDARD=20 (the bundled CMakeLists.txt "
              "already does) or pass /std:c++20");
#else
static_assert(__cplusplus >= 202002L,
              "tetris requires C++20: configure with "
              "CMAKE_CXX_STANDARD=20 (the bundled CMakeLists.txt "
              "already does) or pass -std=c++20");
#endif

namespace tetris
{

namespace detail
{

/** Compose a message from stream-style arguments. */
template <typename... Args>
std::string
composeMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Abort because an internal invariant was violated. Use for conditions
 * that indicate a bug in this library, never for user input errors.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    std::fprintf(stderr, "panic: %s\n",
                 detail::composeMessage(std::forward<Args>(args)...).c_str());
    std::abort();
}

/**
 * Exit because the computation cannot continue due to a user-side
 * condition (invalid arguments, inconsistent configuration).
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::fprintf(stderr, "fatal: %s\n",
                 detail::composeMessage(std::forward<Args>(args)...).c_str());
    std::exit(1);
}

/** Panic if a condition does not hold. Active in all build types. */
#define TETRIS_ASSERT(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::tetris::panic("assertion '", #cond, "' failed at ",           \
                            __FILE__, ":", __LINE__, " ", ##__VA_ARGS__);   \
        }                                                                   \
    } while (0)

} // namespace tetris

#endif // TETRIS_COMMON_LOGGING_HH
