// Minimal Status type for fallible operations.
//
// Follows the RocksDB/Arrow convention: functions that can fail in ways the
// caller should handle return a Status; programming errors are checked with
// NUMALAB_CHECK and abort.

#ifndef NUMALAB_COMMON_STATUS_H_
#define NUMALAB_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace numalab {

/// \brief Outcome of a fallible operation.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kOutOfMemory,
    kDeadlineExceeded,
    kUnavailable,
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status OutOfMemory(std::string msg) {
    return Status(Code::kOutOfMemory, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return CodeName(code_) + ": " + msg_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static std::string CodeName(Code c) {
    switch (c) {
      case Code::kOk: return "OK";
      case Code::kOutOfMemory: return "OutOfMemory";
      case Code::kDeadlineExceeded: return "DeadlineExceeded";
      case Code::kUnavailable: return "Unavailable";
    }
    return "Unknown";
  }

  Code code_;
  std::string msg_;
};

}  // namespace numalab

#endif  // NUMALAB_COMMON_STATUS_H_
