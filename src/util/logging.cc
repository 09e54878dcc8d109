#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace wsp {

namespace {

LogLevel globalLevel = LogLevel::Normal;

/** Extra consumer of formatted debugLog() lines (the trace layer). */
void (*debugSink)(const char *message) = nullptr;

/** Shared formatter: prefix + user message + newline to the stream. */
void
emit(FILE *stream, const char *prefix, const char *fmt, va_list args)
{
    std::fprintf(stream, "%s", prefix);
    std::vfprintf(stream, fmt, args);
    std::fprintf(stream, "\n");
}

} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

void
configureLogLevelFromEnv()
{
    const char *value = std::getenv("WSP_LOG_LEVEL");
    if (value == nullptr || *value == '\0')
        return;
    if (std::strcmp(value, "quiet") == 0 || std::strcmp(value, "0") == 0)
        globalLevel = LogLevel::Quiet;
    else if (std::strcmp(value, "normal") == 0 ||
             std::strcmp(value, "1") == 0)
        globalLevel = LogLevel::Normal;
    else if (std::strcmp(value, "debug") == 0 ||
             std::strcmp(value, "2") == 0)
        globalLevel = LogLevel::Debug;
    else
        warn("WSP_LOG_LEVEL=%s not recognized; expected "
             "quiet|normal|debug (or 0|1|2)", value);
}

void
setDebugSink(void (*sink)(const char *message))
{
    debugSink = sink;
}

void
inform(const char *fmt, ...)
{
    if (globalLevel < LogLevel::Normal)
        return;
    va_list args;
    va_start(args, fmt);
    emit(stdout, "info: ", fmt, args);
    va_end(args);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit(stderr, "warn: ", fmt, args);
    va_end(args);
}

bool
debugLogEnabled()
{
    return globalLevel >= LogLevel::Debug || debugSink != nullptr;
}

void
debugLog(const char *fmt, ...)
{
    void (*sink)(const char *) = debugSink;
    const bool print = globalLevel >= LogLevel::Debug;
    if (!print && sink == nullptr)
        return;
    // Format once so the console line and the sink see the same text.
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    if (print)
        std::fprintf(stdout, "debug: %s\n", buf);
    if (sink != nullptr)
        sink(buf);
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit(stderr, "fatal: ", fmt, args);
    va_end(args);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit(stderr, "panic: ", fmt, args);
    va_end(args);
    std::abort();
}

} // namespace wsp
