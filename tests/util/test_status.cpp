#include "util/status.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pts {
namespace {

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_TRUE(status.message().empty());
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const auto status = Status::invalid_argument("unknown preset 'x'");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "unknown preset 'x'");
  EXPECT_EQ(status.to_string(), "INVALID_ARGUMENT: unknown preset 'x'");
}

TEST(Status, EveryCodeHasAName) {
  for (auto code : {StatusCode::kOk, StatusCode::kInvalidArgument,
                    StatusCode::kCancelled, StatusCode::kDeadlineExceeded,
                    StatusCode::kResourceExhausted, StatusCode::kUnavailable,
                    StatusCode::kInternal}) {
    EXPECT_STRNE(to_string(code), "?");
  }
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::cancelled("a"), Status::cancelled("a"));
  EXPECT_NE(Status::cancelled("a"), Status::cancelled("b"));
  EXPECT_NE(Status::cancelled("a"), Status::unavailable("a"));
  EXPECT_EQ(Status(StatusCode::kOk, ""), Status{});
}

TEST(Expected, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(static_cast<bool>(e));
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value(), 42);
  EXPECT_EQ(e.status(), Status{});  // OK: the OK code and no message
  EXPECT_EQ(e.value_or(7), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> e(Status::deadline_exceeded("too slow"));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(e.value_or(7), 7);
}

TEST(Expected, ImplicitConstructionReadsNaturallyAtReturnSites) {
  auto f = [](bool fail) -> Expected<std::string> {
    if (fail) return Status::unavailable("down");
    return std::string("up");
  };
  EXPECT_TRUE(f(false).has_value());
  EXPECT_EQ(f(true).status().code(), StatusCode::kUnavailable);
}

TEST(ExpectedDeath, ValueOnErrorAborts) {
  Expected<int> e(Status::internal("boom"));
  EXPECT_DEATH((void)e.value(), "");
}

TEST(ExpectedDeath, OkStatusIsNotAnError) {
  EXPECT_DEATH((void)Expected<int>(Status{}), "");
}

}  // namespace
}  // namespace pts
