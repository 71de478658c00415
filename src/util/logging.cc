#include "util/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace otif {
namespace {

std::atomic<int> g_log_threshold{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

void SetLogThreshold(LogLevel level) {
  g_log_threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogThreshold() {
  return static_cast<LogLevel>(
      g_log_threshold.load(std::memory_order_relaxed));
}

bool ParseLogLevel(const std::string& text, LogLevel* level) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "debug" || lower == "0") {
    *level = LogLevel::kDebug;
  } else if (lower == "info" || lower == "1") {
    *level = LogLevel::kInfo;
  } else if (lower == "warning" || lower == "warn" || lower == "2") {
    *level = LogLevel::kWarning;
  } else if (lower == "error" || lower == "3") {
    *level = LogLevel::kError;
  } else if (lower == "fatal" || lower == "4") {
    *level = LogLevel::kFatal;
  } else {
    return false;
  }
  return true;
}

bool InitLogLevelFromEnv() {
  const char* env = std::getenv("OTIF_LOG_LEVEL");
  if (env == nullptr) return false;
  LogLevel level;
  if (!ParseLogLevel(env, &level)) {
    OTIF_LOG(kWarning) << "ignoring unparsable OTIF_LOG_LEVEL=\"" << env
                       << "\" (want debug|info|warning|error|fatal or 0-4)";
    return false;
  }
  SetLogThreshold(level);
  return true;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  const std::string message = stream_.str();
  std::fputs(message.c_str(), stderr);
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace otif
