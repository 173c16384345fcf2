#ifndef OIJ_COMMON_STATUS_H_
#define OIJ_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace oij {

/// Lightweight error carrier in the style of arrow::Status / rocksdb::Status.
/// The library does not use exceptions; fallible operations return Status
/// (or StatusOr-like pairs at the call site).
class Status {
 public:
  enum class Code : uint8_t {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kFailedPrecondition,
    kParseError,
    kInternal,
    kResourceExhausted,
    kDeadlineExceeded,
    kUnavailable,
  };

  Status() = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(Code::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_ = Code::kOk;
  std::string message_;
};

/// Name of a status code ("OK", "InvalidArgument", ...).
std::string_view CodeName(Status::Code code);

}  // namespace oij

#endif  // OIJ_COMMON_STATUS_H_
