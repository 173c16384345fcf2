#include "common/status.h"

namespace oij {

std::string_view CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kFailedPrecondition:
      return "FailedPrecondition";
    case Status::Code::kParseError:
      return "ParseError";
    case Status::Code::kInternal:
      return "Internal";
    case Status::Code::kResourceExhausted:
      return "ResourceExhausted";
    case Status::Code::kDeadlineExceeded:
      return "DeadlineExceeded";
    case Status::Code::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(CodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

}  // namespace oij
