#include "util/status.h"

#include <gtest/gtest.h>

namespace otif {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad resolution");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad resolution");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad resolution");
}

TEST(StatusTest, FactoryFunctionsSetCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::IoError("a"), Status::IoError("a"));
  EXPECT_FALSE(Status::IoError("a") == Status::IoError("b"));
  EXPECT_FALSE(Status::IoError("a") == Status::Internal("a"));
}

TEST(StatusCodeNameTest, AllCodesNamed) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::IoError("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIoError);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string s = std::move(v).value();
  EXPECT_EQ(s, "hello");
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> v = std::string("abc");
  EXPECT_EQ(v->size(), 3u);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseAssignOrReturn(int x, int* out) {
  OTIF_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(StatusMacrosTest, AssignOrReturnPropagatesError) {
  int out = 0;
  Status s = UseAssignOrReturn(-1, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, 0);
}

TEST(StatusMacrosTest, AssignOrReturnAssignsValue) {
  int out = 0;
  ASSERT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
}

Status FailThenUnreachable(bool fail, bool* reached) {
  OTIF_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::OK());
  *reached = true;
  return Status::OK();
}

TEST(StatusMacrosTest, ReturnIfError) {
  bool reached = false;
  EXPECT_FALSE(FailThenUnreachable(true, &reached).ok());
  EXPECT_FALSE(reached);
  EXPECT_TRUE(FailThenUnreachable(false, &reached).ok());
  EXPECT_TRUE(reached);
}

}  // namespace
}  // namespace otif
