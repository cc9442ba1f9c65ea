#include "core/flags.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace lossyts::flags {
namespace {

// Parses `args` against `table` with no positional arguments allowed.
Status ParseOnly(const std::vector<Flag>& table,
                 const std::vector<std::string>& args) {
  return Parse(table, args, nullptr);
}

TEST(FlagsTest, ParsesEveryScalarType) {
  int i = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  size_t size = 0;
  int64_t i64 = 0;
  double d = 0.0;
  std::string text;
  ASSERT_TRUE(ParseOnly({Value("--i", "N", "", &i),
                         Value("--u32", "N", "", &u32),
                         Value("--u64", "N", "", &u64),
                         Value("--size", "N", "", &size),
                         Value("--i64", "N", "", &i64),
                         Value("--d", "E", "", &d),
                         Value("--s", "<s>", "", &text)},
                        {"--i", "-7", "--u32", "4294967295", "--u64",
                         "18446744073709551615", "--size", "12", "--i64",
                         "-9223372036854775808", "--d", "0.05", "--s",
                         "a b,c"})
                  .ok());
  EXPECT_EQ(i, -7);
  EXPECT_EQ(u32, 4294967295u);
  EXPECT_EQ(u64, 18446744073709551615ull);
  EXPECT_EQ(size, 12u);
  EXPECT_EQ(i64, INT64_MIN);
  EXPECT_EQ(d, 0.05);
  EXPECT_EQ(text, "a b,c");
}

TEST(FlagsTest, DoublesAcceptExponentsAndNonFinite) {
  double d = 0.0;
  ASSERT_TRUE(ParseValue("1e-3", &d).ok());
  EXPECT_EQ(d, 1e-3);
  ASSERT_TRUE(ParseValue("-inf", &d).ok());
  EXPECT_TRUE(std::isinf(d) && d < 0);
  ASSERT_TRUE(ParseValue("nan", &d).ok());
  EXPECT_TRUE(std::isnan(d));
}

TEST(FlagsTest, ParsesCommaLists) {
  std::vector<std::string> names = {"stale"};
  std::vector<double> bounds = {9.0};
  std::vector<uint64_t> seeds;
  ASSERT_TRUE(ParseOnly({Value("--names", "a,b", "", &names),
                         Value("--bounds", "a,b", "", &bounds),
                         Value("--seeds", "a,b", "", &seeds)},
                        {"--names", "PMC,SWING", "--bounds", "0.05,0.4",
                         "--seeds", "1,2,3"})
                  .ok());
  EXPECT_EQ(names, (std::vector<std::string>{"PMC", "SWING"}));
  EXPECT_EQ(bounds, (std::vector<double>{0.05, 0.4}));
  EXPECT_EQ(seeds, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(FlagsTest, EmptyListItemsAreDropped) {
  std::vector<std::string> names;
  ASSERT_TRUE(ParseValue(",a,,b,", &names).ok());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
  std::vector<double> values = {1.0};
  ASSERT_TRUE(ParseValue("1,,3", &values).ok());
  EXPECT_EQ(values, (std::vector<double>{1.0, 3.0}));
  ASSERT_TRUE(ParseValue("", &values).ok());
  EXPECT_TRUE(values.empty());
}

TEST(FlagsTest, ListWithAMalformedItemFailsAndKeepsTheOldValue) {
  std::vector<double> values = {7.0};
  const Status s = ParseValue("1,abc,3", &values);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("'abc'"), std::string::npos);
  EXPECT_EQ(values, (std::vector<double>{7.0}));
}

TEST(FlagsTest, RejectsTrailingJunkAndMalformedNumbers) {
  int i = 5;
  double d = 5.0;
  uint64_t u = 5;
  for (const char* bad : {"12abc", "1.5", "", " 1", "+1", "1e5", "0x10"}) {
    EXPECT_EQ(ParseValue(bad, &i).code(), StatusCode::kInvalidArgument)
        << bad;
  }
  for (const char* bad : {"0.05x", "", "abc", "1,2", "+1"}) {
    EXPECT_EQ(ParseValue(bad, &d).code(), StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(ParseValue("-1", &u).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(i, 5);
  EXPECT_EQ(d, 5.0);
  EXPECT_EQ(u, 5u);
}

TEST(FlagsTest, RejectsOverflowForEachIntegerWidth) {
  int i = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0.0;
  EXPECT_EQ(ParseValue("2147483648", &i).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ParseValue("-2147483649", &i).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ParseValue("4294967296", &u32).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ParseValue("18446744073709551616", &u64).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ParseValue("9223372036854775808", &i64).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ParseValue("1e999", &d).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(ParseValue("2147483647", &i).ok());
  EXPECT_EQ(i, 2147483647);
}

TEST(FlagsTest, ErrorsNameTheFlag) {
  int jobs = 3;
  const std::vector<Flag> table = {Value("--jobs", "N", "", &jobs)};
  Status s = ParseOnly(table, {"--jobs", "abc"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "--jobs: 'abc' is not an integer");
  s = ParseOnly(table, {"--jobs", "99999999999"});
  EXPECT_EQ(s.message(), "--jobs: '99999999999' is out of range");
  EXPECT_EQ(jobs, 3);
}

TEST(FlagsTest, MissingValueIsRejected) {
  std::string path = "keep";
  const Status s =
      ParseOnly({Value("--cache", "<path>", "", &path)}, {"--cache"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "--cache needs <path>");
  EXPECT_EQ(path, "keep");
}

TEST(FlagsTest, UnknownFlagIsRejected) {
  bool on = false;
  const Status s =
      ParseOnly({Switch("--on", "", &on, true)}, {"--on", "--of"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "unknown flag --of");
}

TEST(FlagsTest, SwitchStoresItsFixedValueAndTheLastOneWins) {
  bool resume = false;
  const std::vector<Flag> table = {
      Switch("--resume", "", &resume, true),
      Switch("--fresh", "", &resume, false)};
  ASSERT_TRUE(ParseOnly(table, {"--resume"}).ok());
  EXPECT_TRUE(resume);
  ASSERT_TRUE(ParseOnly(table, {"--resume", "--fresh"}).ok());
  EXPECT_FALSE(resume);
  // A switch takes no value: what follows it is the next argument.
  EXPECT_EQ(ParseOnly(table, {"--resume", "yes"}).message(),
            "unexpected argument 'yes'");
}

TEST(FlagsTest, CallbackFlagsTakeTheirArity) {
  int64_t t0 = 0;
  int64_t t1 = 0;
  std::string mode;
  const std::vector<Flag> table = {
      {"--range", "<t0> <t1>", "", 2,
       [&](std::span<const std::string> v) {
         const Status s = ParseValue(v[0], &t0);
         return s.ok() ? ParseValue(v[1], &t1) : s;
       }},
      {"--mode", "a|b", "", 1, [&](std::span<const std::string> v) {
         if (v[0] != "a" && v[0] != "b") {
           return Status::InvalidArgument("unknown mode '" + v[0] + "'");
         }
         mode = v[0];
         return Status::OK();
       }}};
  ASSERT_TRUE(ParseOnly(table, {"--range", "-60", "600", "--mode", "b"}).ok());
  EXPECT_EQ(t0, -60);
  EXPECT_EQ(t1, 600);
  EXPECT_EQ(mode, "b");
  EXPECT_EQ(ParseOnly(table, {"--range", "5"}).message(),
            "--range needs <t0> <t1>");
  EXPECT_EQ(ParseOnly(table, {"--range", "5", "x"}).message(),
            "--range: 'x' is not an integer");
  EXPECT_EQ(ParseOnly(table, {"--mode", "c"}).message(),
            "--mode: unknown mode 'c'");
}

TEST(FlagsTest, PositionalsIncludeNegativeNumbersAndMayInterleave) {
  int jobs = 0;
  std::vector<std::string> positional;
  ASSERT_TRUE(Parse({Value("--jobs", "N", "", &jobs)},
                    {"f.lts", "--jobs", "2", "MEAN", "-60", "600"},
                    &positional)
                  .ok());
  EXPECT_EQ(jobs, 2);
  EXPECT_EQ(positional,
            (std::vector<std::string>{"f.lts", "MEAN", "-60", "600"}));
  // A flag value is consumed even when it looks like a flag.
  std::string delim;
  ASSERT_TRUE(
      ParseOnly({Value("--delim", "<d>", "", &delim)}, {"--delim", "--"})
          .ok());
  EXPECT_EQ(delim, "--");
}

TEST(FlagsTest, UsageRendersEveryFlagWithAlignedHelp) {
  int n = 0;
  bool b = false;
  const std::string usage =
      Usage({Value("--jobs", "N", "worker threads", &n),
             Switch("--no-sync", "skip fsync", &b, false)},
            2);
  EXPECT_EQ(usage,
            "  --jobs N   worker threads\n"
            "  --no-sync  skip fsync\n");
}

}  // namespace
}  // namespace lossyts::flags
