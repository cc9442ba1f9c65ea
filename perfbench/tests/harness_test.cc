// Tests of the benchmark's own measurement code: the percentile rule, span
// self time, digest checking and failure accounting.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/digest.h"
#include "harness/ops.h"
#include "harness/stats.h"
#include "harness/trace.h"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  // 999 samples: p99 has rank 990 and only 9 beyond it.
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
}

TEST(PercentileRule, SummaryReportsSamplesBeyond) {
  std::vector<double> ms;
  for (int i = 1; i <= 1000; ++i) ms.push_back(i);
  const LatencySummary s = SummarizeLatencies(ms, 0, 0.0);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.p50, 500.5);
  EXPECT_EQ(s.high_percent, 99.0);
  EXPECT_EQ(s.high, 990.0);
  EXPECT_EQ(s.beyond_high, 10u);
}

TEST(PercentileRule, FailedRequestsMissEveryLimit) {
  // 10 failures among 1000 requests sit exactly beyond p99.
  const LatencySummary ten = SummarizeLatencies(
      std::vector<double>(990, 1.0), 10, 5000.0);
  EXPECT_EQ(ten.samples, 1000u);
  EXPECT_EQ(ten.failed, 10u);
  EXPECT_EQ(ten.high, 1.0);
  // One more failure pushes p99 onto a failed request.
  const LatencySummary eleven = SummarizeLatencies(
      std::vector<double>(989, 1.0), 11, 5000.0);
  EXPECT_EQ(eleven.high, 5000.0);
}

Span MakeSpan(const char* name, int64_t start, int64_t end, int parent) {
  Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SelfTime, SubtractsUnionOfNestedAndOverlappingChildren) {
  const std::vector<Span> spans = {
      MakeSpan("run.root", 0, 100, -1),
      MakeSpan("a", 10, 40, 0),
      MakeSpan("b", 30, 60, 0),      // Overlaps a: [10, 60] counted once.
      MakeSpan("a.inner", 15, 20, 1),
      MakeSpan("c", 90, 120, 0),     // Overruns the root: clipped to 10.
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 30);
}

TEST(SelfTime, TracerNestsByCallOrder) {
  Tracer tracer;
  const int root = tracer.Begin("run.root");
  const int child = tracer.Begin("layer.call");
  tracer.End(child);
  const int sibling = tracer.Begin("layer.other");
  tracer.Rename(sibling, "layer.renamed");
  tracer.End(sibling);
  tracer.End(root);
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, root);
  EXPECT_EQ(tracer.spans()[2].parent, root);
  EXPECT_EQ(tracer.spans()[2].name, "layer.renamed");
  const auto totals = TotalsByName(tracer.spans());
  const double children =
      totals.at("layer.call").total_s + totals.at("layer.renamed").total_s;
  EXPECT_NEAR(totals.at("run.root").self_s + children,
              totals.at("run.root").total_s, 1e-12);
}

std::string TempPath(const std::string& name) {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "/perfbench_" + info->test_suite_name() + "_" +
         info->name() + "_" + std::to_string(::getpid()) + "_" + name;
}

TEST(Digest, DetectsOneMutatedRow) {
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"ETTm1|PMC|0.05", "ETTm1,PMC,0.05,100,40,12,10,4"},
      {"ETTm1|SZ|0.05", "ETTm1,SZ,0.05,100,40,20,18,2.2222222222222223"},
      {"Wind|GORILLA|0.01", "Wind,GORILLA,0.01,100,40,90,70,0.5714"},
  };
  const std::string path = TempPath("digest.txt");
  ASSERT_TRUE(WriteDigest(path, "test digest\nsecond line", rows).ok());
  lossyts::Result<Digest> loaded = LoadDigest(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 3u);

  DigestChecker same(*loaded);
  for (const auto& [key, row] : rows) EXPECT_TRUE(same.Check(key, row));
  EXPECT_TRUE(same.mismatches().empty());
  EXPECT_TRUE(same.Missing().empty());

  DigestChecker mutated(*loaded);
  EXPECT_TRUE(mutated.Check(rows[0].first, rows[0].second));
  EXPECT_FALSE(mutated.Check(rows[1].first,
                             "ETTm1,SZ,0.05,100,40,20,19,2.1052631578947367"));
  EXPECT_TRUE(mutated.Check(rows[2].first, rows[2].second));
  ASSERT_EQ(mutated.mismatches().size(), 1u);
  EXPECT_NE(mutated.mismatches()[0].find("ETTm1|SZ|0.05"), std::string::npos);

  DigestChecker unknown(*loaded);
  EXPECT_FALSE(unknown.Check("Solar|PMC|0.05", "anything"));
}

TEST(Digest, ReportsPinnedRowsNeverProduced) {
  const Digest expected = {{"ETTm1|PMC|0.05", RowHash("a")},
                           {"ETTm1|SZ|0.05", RowHash("b")},
                           {"Wind|GORILLA|0.01", RowHash("c")}};
  DigestChecker checker(expected);
  EXPECT_TRUE(checker.Check("ETTm1|PMC|0.05", "a"));
  EXPECT_TRUE(checker.Check("Wind|GORILLA|0.01", "c"));
  EXPECT_TRUE(checker.mismatches().empty());
  EXPECT_EQ(checker.Missing(), std::vector<std::string>{"ETTm1|SZ|0.05"});
}

TEST(Digest, RejectsMalformedLines) {
  const std::string path = TempPath("bad.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# comment\nnot-a-hash key\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadDigest(path).ok());
  std::remove(path.c_str());
}

TEST(FailureAccounting, CountsFailedAndRefusedStubOps) {
  const std::vector<lossyts::Status> outcomes = {
      lossyts::Status::OK(), lossyts::Status::Internal("boom"),
      lossyts::Status::OK(), lossyts::Status::Unavailable("queue full"),
      lossyts::Status::OK()};
  OpBook book;
  for (const lossyts::Status& status : outcomes) {
    const auto stub_op = [&] { return status; };
    book.Record("append", 2.0, OutcomeOf(stub_op()));
  }
  book.Record("read", 1.0, OpOutcome::kOk);

  const OpBook::Entry& append = book.entries().at("append");
  EXPECT_EQ(append.attempted, 5u);
  EXPECT_EQ(append.failed, 1u);
  EXPECT_EQ(append.refused, 1u);
  EXPECT_EQ(append.ok_latency_ms.size(), 3u);
  EXPECT_EQ(book.attempted(), 6u);
  EXPECT_EQ(book.failed(), 2u);
  EXPECT_DOUBLE_EQ(book.FailedRatio(), 2.0 / 6.0);

  const LatencySummary s = book.Summary("append", 1000.0);
  EXPECT_EQ(s.samples, 5u);
  EXPECT_EQ(s.failed, 2u);

  OpBook other;
  other.Record("append", 3.0, OpOutcome::kRefused);
  book.Merge(other);
  EXPECT_EQ(book.entries().at("append").refused, 2u);
  EXPECT_EQ(book.failed(), 3u);
}

}  // namespace
}  // namespace perfbench
