// Status / Result<T>: the error model of the bcast library.
//
// Public operations that can fail because of user input (malformed trees,
// infeasible channel counts, out-of-range parameters...) return a Status or a
// Result<T>. Internal invariant violations abort via BCAST_CHECK instead.
//
// This is a deliberately small subset of absl::Status / absl::StatusOr so the
// library stays dependency-free.

#ifndef BCAST_UTIL_STATUS_H_
#define BCAST_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace bcast {

// Canonical error space (subset of the gRPC/absl canonical codes).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kUnimplemented = 5,
  kResourceExhausted = 6,
  kInternal = 7,
};

/// Returns the canonical name of a status code ("OK", "INVALID_ARGUMENT"...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy on the success path (no message
/// allocation); carries a human-readable message on failure.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "CODE_NAME: message".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Factory helpers mirroring absl's.
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status OutOfRangeError(std::string message);
Status FailedPreconditionError(std::string message);
Status UnimplementedError(std::string message);
Status ResourceExhaustedError(std::string message);
Status InternalError(std::string message);

/// Holds either a value of type T or an error Status. Accessing the value of
/// an error Result is a checked failure.
template <typename T>
class Result {
 public:
  /// Implicit from value: `return my_schedule;`
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Implicit from error status: `return InvalidArgumentError(...);`
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    BCAST_CHECK(!status_.ok()) << "Result constructed from OK status without a value";
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    BCAST_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *value_;
  }
  T& value() & {
    BCAST_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return *value_;
  }
  T&& value() && {
    BCAST_CHECK(ok()) << "Result::value() on error: " << status_.ToString();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `*std::move(result)` moves the value out instead of copying it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff value_ engaged.
  std::optional<T> value_;
};

}  // namespace bcast

/// Propagates a non-OK status out of the enclosing function.
#define BCAST_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::bcast::Status bcast_status_ = (expr);    \
    if (!bcast_status_.ok()) return bcast_status_; \
  } while (false)

#endif  // BCAST_UTIL_STATUS_H_
