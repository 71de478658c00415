#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace otif {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIoError:
      return "IoError";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

namespace internal {

void DieStatusOrMisuse(const char* what) {
  std::fprintf(stderr, "StatusOr misuse: %s\n", what);
  std::abort();
}

}  // namespace internal
}  // namespace otif
