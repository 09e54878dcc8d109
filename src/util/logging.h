/**
 * @file
 * Status and error reporting for the wsp library.
 *
 * Follows the gem5 convention: inform() and warn() report conditions to
 * the user without stopping execution; fatal() terminates because of a
 * user error (bad configuration or arguments); panic() terminates
 * because of an internal library bug and aborts so a core dump or
 * debugger can capture the state.
 */

#pragma once

#include <cstdarg>
#include <string>

namespace wsp {

/** Verbosity levels for non-fatal log output. */
enum class LogLevel {
    Quiet = 0,   ///< suppress inform(); warnings still shown
    Normal = 1,  ///< inform() and warn() shown
    Debug = 2,   ///< additionally show debugLog() messages
};

/** Set the global verbosity for inform()/debugLog(). */
void setLogLevel(LogLevel level);

/** Get the current global verbosity. */
LogLevel logLevel();

/**
 * Apply the WSP_LOG_LEVEL environment variable if set. Accepts
 * "quiet"/"normal"/"debug" or the numeric levels "0"/"1"/"2"; an
 * unrecognized value is warned about and ignored. Called once by
 * bench_util's init(); safe to call repeatedly.
 */
void configureLogLevelFromEnv();

/**
 * Install a sink that also receives every formatted debugLog() line
 * (without the "debug: " prefix), regardless of the current level.
 * The tracing layer uses this to turn debug messages into trace
 * instants. Pass nullptr to uninstall.
 */
void setDebugSink(void (*sink)(const char *message));

/** Print an informational message (printf-style) when verbosity allows. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning about suspicious but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a debug-level trace message (shown only at LogLevel::Debug). */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * True when a debugLog() line would be read: the level is Debug or a
 * debug sink is installed.
 */
bool debugLogEnabled();

/**
 * debugLog() whose arguments are evaluated only when debugLogEnabled():
 * a call that prints nothing and feeds no sink formats no argument
 * strings (formatTime() and the like) on the simulator's hot paths.
 */
#define WSP_DEBUG_LOG(...)                                            \
    do {                                                              \
        if (::wsp::debugLogEnabled())                                 \
            ::wsp::debugLog(__VA_ARGS__);                             \
    } while (0)

/**
 * Terminate with an error caused by the caller (bad configuration or
 * arguments). Exits with status 1; does not dump core.
 */
[[noreturn]]
void fatal(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Terminate because of an internal invariant violation (a wsp bug).
 * Calls std::abort() so the failure is debuggable.
 */
[[noreturn]]
void panic(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Check an invariant; panic when it does not hold.
 *
 * Unlike assert(), this stays active in release builds: the library
 * models crash-consistency protocols whose invariants must never be
 * silently skipped.
 */
#define WSP_CHECK(cond)                                               \
    do {                                                              \
        if (!(cond)) {                                                \
            ::wsp::panic("check failed (%s) at %s:%d",                \
                         #cond, __FILE__, __LINE__);                  \
        }                                                             \
    } while (0)

/** WSP_CHECK with an additional printf-style explanation. */
#define WSP_CHECKF(cond, ...)                                         \
    do {                                                              \
        if (!(cond)) {                                                \
            ::wsp::warn("check failed (%s) at %s:%d",                 \
                        #cond, __FILE__, __LINE__);                   \
            ::wsp::panic(__VA_ARGS__);                                \
        }                                                             \
    } while (0)

} // namespace wsp
