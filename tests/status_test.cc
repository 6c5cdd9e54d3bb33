// Status contract tests: the error codes and their rendering.

#include <gtest/gtest.h>

#include "src/common/status.h"

namespace numalab {
namespace {

TEST(Status, CodesAndRendering) {
  EXPECT_TRUE(Status::OK().ok());
  Status d = Status::DeadlineExceeded("watchdog");
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: watchdog");
  Status u = Status::Unavailable("node 3 offline");
  EXPECT_EQ(u.code(), Status::Code::kUnavailable);
  EXPECT_EQ(u.ToString(), "Unavailable: node 3 offline");
}

}  // namespace
}  // namespace numalab
