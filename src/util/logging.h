#ifndef OTIF_UTIL_LOGGING_H_
#define OTIF_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace otif {

/// Severity levels for OTIF_LOG.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// Sets the minimum severity that is emitted to stderr. Defaults to kInfo.
void SetLogThreshold(LogLevel level);
LogLevel GetLogThreshold();

/// Parses a severity name into *level: "debug", "info", "warning" (or
/// "warn"), "error", "fatal" (case-insensitive), or a numeric 0-4. Returns
/// false on anything else, leaving *level untouched.
bool ParseLogLevel(const std::string& text, LogLevel* level);

/// Applies the OTIF_LOG_LEVEL environment variable via SetLogThreshold.
/// Unset leaves the threshold unchanged; an unparsable value logs a warning
/// and changes nothing. Returns true when a level was applied. Shared
/// startup hook for benches, examples, and the eval harness.
bool InitLogLevelFromEnv();

namespace internal {

/// Stream-style log message; emits on destruction. kFatal aborts.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Discards the streamed expression when below the threshold.
struct LogMessageVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal

#define OTIF_LOG_INTERNAL(level)                                      \
  ::otif::internal::LogMessage(level, __FILE__, __LINE__).stream()

/// Usage: OTIF_LOG(kInfo) << "message " << value;
#define OTIF_LOG(severity)                                            \
  (::otif::LogLevel::severity < ::otif::GetLogThreshold())            \
      ? (void)0                                                       \
      : ::otif::internal::LogMessageVoidify() &                       \
            OTIF_LOG_INTERNAL(::otif::LogLevel::severity)

/// Aborts with a message when `condition` is false. Active in all builds;
/// used for internal invariants (not recoverable user errors).
#define OTIF_CHECK(condition)                                         \
  (condition) ? (void)0                                               \
              : ::otif::internal::LogMessageVoidify() &               \
                    OTIF_LOG_INTERNAL(::otif::LogLevel::kFatal)       \
                        << "Check failed: " #condition " "

#define OTIF_CHECK_OP_(a, b, op)                                         \
  OTIF_CHECK((a)op(b)) << "(" << (a) << " vs " << (b) << ") "
#define OTIF_CHECK_EQ(a, b) OTIF_CHECK_OP_(a, b, ==)
#define OTIF_CHECK_NE(a, b) OTIF_CHECK_OP_(a, b, !=)
#define OTIF_CHECK_LT(a, b) OTIF_CHECK_OP_(a, b, <)
#define OTIF_CHECK_LE(a, b) OTIF_CHECK_OP_(a, b, <=)
#define OTIF_CHECK_GT(a, b) OTIF_CHECK_OP_(a, b, >)
#define OTIF_CHECK_GE(a, b) OTIF_CHECK_OP_(a, b, >=)

/// Aborts when a Status-returning expression fails.
#define OTIF_CHECK_OK(expr)                                  \
  do {                                                       \
    ::otif::Status _otif_check_status = (expr);              \
    OTIF_CHECK(_otif_check_status.ok())                      \
        << _otif_check_status.ToString();                    \
  } while (0)

}  // namespace otif

#endif  // OTIF_UTIL_LOGGING_H_
