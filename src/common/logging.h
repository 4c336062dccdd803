// Leveled logging to stderr. Library code logs sparingly (INFO for training
// progress milestones, WARN for recoverable oddities); the level is a global
// knob so benches/tests can silence it. Thread-safe: the level is atomic and
// each emitted line is written under a mutex, so concurrent pool workers
// (common/thread_pool.h) never interleave characters within a line.
#pragma once

#include <sstream>
#include <string>

namespace miras {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level that is emitted. Default: kWarn.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emits one line at the given level (no-op if below the global level).
void log_line(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(const Args&... args) {
  std::ostringstream oss;
  ((oss << args), ...);
  return oss.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(const Args&... args) {
  if (log_level() <= LogLevel::kDebug)
    log_line(LogLevel::kDebug, detail::concat(args...));
}

template <typename... Args>
void log_info(const Args&... args) {
  if (log_level() <= LogLevel::kInfo)
    log_line(LogLevel::kInfo, detail::concat(args...));
}

template <typename... Args>
void log_warn(const Args&... args) {
  if (log_level() <= LogLevel::kWarn)
    log_line(LogLevel::kWarn, detail::concat(args...));
}

template <typename... Args>
void log_error(const Args&... args) {
  if (log_level() <= LogLevel::kError)
    log_line(LogLevel::kError, detail::concat(args...));
}

}  // namespace miras
