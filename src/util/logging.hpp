#pragma once
// Minimal thread-safe leveled logger. Search threads and the master log
// through one serialized sink so interleaved lines stay whole.

#include <cstdio>
#include <optional>
#include <string>

namespace pts {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped. Default: kWarn (quiet).
void set_log_level(LogLevel level);

/// Parses the --log-level spelling ("debug", "info", "warn", "error",
/// "off"); nullopt for anything else.
std::optional<LogLevel> parse_log_level(const std::string& name);
[[nodiscard]] const char* to_string(LogLevel level);

namespace detail {
void log_line(LogLevel level, const std::string& message);
bool log_enabled(LogLevel level);
std::string format_log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
}  // namespace detail

}  // namespace pts

#define PTS_LOG(level, ...)                                                   \
  do {                                                                        \
    if (::pts::detail::log_enabled(level))                                    \
      ::pts::detail::log_line(level, ::pts::detail::format_log(__VA_ARGS__)); \
  } while (0)

#define PTS_LOG_DEBUG(...) PTS_LOG(::pts::LogLevel::kDebug, __VA_ARGS__)
#define PTS_LOG_INFO(...) PTS_LOG(::pts::LogLevel::kInfo, __VA_ARGS__)
#define PTS_LOG_WARN(...) PTS_LOG(::pts::LogLevel::kWarn, __VA_ARGS__)
#define PTS_LOG_ERROR(...) PTS_LOG(::pts::LogLevel::kError, __VA_ARGS__)
