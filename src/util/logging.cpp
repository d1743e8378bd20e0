#include "util/logging.h"

#include <cstdio>

namespace gpunion::util {
namespace {

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarn: return "W";
    case LogLevel::kError: return "E";
    case LogLevel::kOff: return "-";
  }
  return "?";
}

}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::write(LogLevel level, const std::string& message) {
  if (!enabled(level)) return;
  std::lock_guard<std::mutex> lock(write_mu_);
  std::fprintf(stderr, "%s %s\n", level_tag(level), message.c_str());
}

}  // namespace gpunion::util
