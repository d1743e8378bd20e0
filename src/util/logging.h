// Minimal leveled logger.
//
// The platform logs operational events (registrations, departures,
// migrations) at kInfo and protocol details at kDebug.  Benchmarks lower the
// level to kWarn so tables stay clean.  The logger is process-global but the
// sink is injectable for tests.
#pragma once

#include <functional>
#include <mutex>
#include <sstream>
#include <string>

namespace gpunion::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log configuration.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, const std::string&)>;

  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }

  /// Replaces the output sink (default: stderr).  Passing nullptr restores
  /// the default sink.
  void set_sink(Sink sink);

  bool enabled(LogLevel level) const { return level >= level_; }
  /// Thread-safe: the logger is a process-wide singleton, so lines from
  /// concurrent callers (e.g. simulations run on separate threads) are
  /// serialized through an internal mutex.
  void write(LogLevel level, const std::string& message);

 private:
  Logger();
  LogLevel level_ = LogLevel::kWarn;
  Sink sink_;
  std::mutex write_mu_;
};

/// Stream-style log statement builder; flushes on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* component) : level_(level) {
    stream_ << "[" << component << "] ";
  }
  ~LogMessage() { Logger::instance().write(level_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace gpunion::util

#define GPUNION_LOG(level, component)                                  \
  if (!::gpunion::util::Logger::instance().enabled(                    \
          ::gpunion::util::LogLevel::level)) {                         \
  } else                                                               \
    ::gpunion::util::LogMessage(::gpunion::util::LogLevel::level, component)

#define GPUNION_DLOG(component) GPUNION_LOG(kDebug, component)
#define GPUNION_ILOG(component) GPUNION_LOG(kInfo, component)
#define GPUNION_WLOG(component) GPUNION_LOG(kWarn, component)
#define GPUNION_ELOG(component) GPUNION_LOG(kError, component)
