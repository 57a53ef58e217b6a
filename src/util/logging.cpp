#include "util/logging.hpp"

#include <atomic>
#include <cstdarg>
#include <mutex>
#include <vector>

namespace pts {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
std::mutex g_sink_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(static_cast<int>(level)); }

std::optional<LogLevel> parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn" || name == "warning") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off" || name == "none") return LogLevel::kOff;
  return std::nullopt;
}

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

namespace detail {

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= g_level.load(std::memory_order_relaxed);
}

void log_line(LogLevel level, const std::string& message) {
  std::scoped_lock lock(g_sink_mutex);
  std::fprintf(stderr, "[%s] %s\n", level_tag(level), message.c_str());
}

std::string format_log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed <= 0) {
    va_end(args_copy);
    return {};
  }
  std::vector<char> buffer(static_cast<std::size_t>(needed) + 1);
  std::vsnprintf(buffer.data(), buffer.size(), fmt, args_copy);
  va_end(args_copy);
  return std::string(buffer.data(), static_cast<std::size_t>(needed));
}

}  // namespace detail
}  // namespace pts
