#ifndef OTIF_UTIL_STATUS_H_
#define OTIF_UTIL_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace otif {

/// Error categories used across the library. Mirrors the Arrow/RocksDB idiom
/// of status-based error handling: the library never throws.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  kIoError,
};

/// Returns a stable human-readable name for a status code ("InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Result of an operation that can fail. Cheap to copy in the OK case.
///
/// Functions that can fail return `Status` (or `StatusOr<T>` when they also
/// produce a value). Internal invariant violations use OTIF_CHECK instead.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of an
/// errored StatusOr aborts the process (programming error).
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value or from an error status keeps call
  /// sites terse (`return result;` / `return Status::InvalidArgument(...)`).
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT
    AbortIfOkStatus();
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  /// Returns the error status, or OK when a value is held.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    AbortIfNoValue();
    return std::get<T>(rep_);
  }
  T& value() & {
    AbortIfNoValue();
    return std::get<T>(rep_);
  }
  T&& value() && {
    AbortIfNoValue();
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfNoValue() const;
  void AbortIfOkStatus() const;

  std::variant<T, Status> rep_;
};

namespace internal {
[[noreturn]] void DieStatusOrMisuse(const char* what);
}  // namespace internal

template <typename T>
void StatusOr<T>::AbortIfNoValue() const {
  if (!ok()) internal::DieStatusOrMisuse("value() called on errored StatusOr");
}

template <typename T>
void StatusOr<T>::AbortIfOkStatus() const {
  if (std::holds_alternative<Status>(rep_) && std::get<Status>(rep_).ok()) {
    internal::DieStatusOrMisuse("StatusOr constructed from OK status");
  }
}

/// Propagates a non-OK status to the caller.
#define OTIF_RETURN_IF_ERROR(expr)                \
  do {                                            \
    ::otif::Status _otif_status = (expr);         \
    if (!_otif_status.ok()) return _otif_status;  \
  } while (0)

/// Evaluates a StatusOr expression, propagating errors; on success assigns
/// the value to `lhs`. `lhs` may include a declaration.
#define OTIF_ASSIGN_OR_RETURN(lhs, expr)                      \
  OTIF_ASSIGN_OR_RETURN_IMPL_(                                \
      OTIF_STATUS_CONCAT_(_otif_statusor_, __LINE__), lhs, expr)

#define OTIF_STATUS_CONCAT_INNER_(a, b) a##b
#define OTIF_STATUS_CONCAT_(a, b) OTIF_STATUS_CONCAT_INNER_(a, b)
#define OTIF_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

}  // namespace otif

#endif  // OTIF_UTIL_STATUS_H_
