// Unit tests of the benchmark's own arithmetic: span self time, the
// percentile-with-a-tail rule, quantiles, and the result fingerprint.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

#include "span_recorder.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

Span make_span(SpanId id, SpanId parent, std::int64_t start, std::int64_t end) {
  Span s{};
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, NoChildrenIsTheWholeDuration) {
  EXPECT_EQ(covered_ns({0, 100}, {}), 0);
  const std::vector<std::int64_t> self = self_times_ns({make_span(1, 0, 10, 110)});
  EXPECT_EQ(self[0], 100);
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(covered_ns({0, 100}, {{10, 20}, {50, 80}}), 40);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two shard tasks running at once cover their union, not their sum.
  EXPECT_EQ(covered_ns({0, 100}, {{10, 60}, {30, 70}, {40, 50}}), 60);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(covered_ns({0, 100}, {{-20, 10}, {90, 130}, {150, 160}}), 20);
}

TEST(SelfTime, OnlyDirectChildrenCount) {
  // root [0,100) > a [10,50) > b [20,40); root's self excludes a only, and
  // a's self excludes b.
  const std::vector<Span> spans = {make_span(1, 0, 0, 100), make_span(2, 1, 10, 50),
                                   make_span(3, 2, 20, 40)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 20);
}

TEST(SpanRecorder, RecordsParentsAcrossThreads) {
  SpanRecorder rec(16);
  const std::uint32_t outer = rec.name_id("outer");
  const std::uint32_t inner = rec.name_id("inner");
  EXPECT_EQ(rec.name_id("outer"), outer);
  const SpanId root = rec.open(outer);
  std::thread worker([&] { rec.close(rec.open(inner, root)); });
  worker.join();
  rec.close(root);
  const std::vector<Span> spans = rec.merged();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_NE(spans[0].thread, spans[1].thread);
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST(SpanRecorder, FullBufferDropsInsteadOfGrowing) {
  SpanRecorder rec(2);
  const std::uint32_t n = rec.name_id("x");
  rec.close(rec.open(n));
  rec.close(rec.open(n));
  EXPECT_EQ(rec.open(n), 0U);
  rec.close(0);
  EXPECT_EQ(rec.dropped(), 1U);
  EXPECT_EQ(rec.merged().size(), 2U);
}

TEST(Percentile, TenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 9000), 10U);
  EXPECT_EQ(samples_beyond(99, 9000), 9U);
  EXPECT_EQ(samples_beyond(1000, 9900), 10U);
  EXPECT_EQ(samples_beyond(5, 10000), 0U);
}

TEST(Percentile, HighestSupported) {
  static constexpr std::uint32_t kCandidates[] = {5000, 9000, 9500, 9900};
  EXPECT_EQ(highest_supported_percentile(1000, kCandidates), 9900U);
  EXPECT_EQ(highest_supported_percentile(999, kCandidates), 9500U);
  EXPECT_EQ(highest_supported_percentile(200, kCandidates), 9500U);
  EXPECT_EQ(highest_supported_percentile(100, kCandidates), 9000U);
  EXPECT_EQ(highest_supported_percentile(99, kCandidates), 5000U);
  EXPECT_EQ(highest_supported_percentile(19, kCandidates), 0U);
}

TEST(Quantile, LinearInterpolation) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.9), 9.0);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Quantile, UnfinishedJobsSortLast) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(median({1.0, inf, 2.0}), 2.0);
  EXPECT_TRUE(std::isinf(quantile({1.0, inf, 2.0}, 0.9)));
}

TEST(Fingerprint, KnownValueAndSensitivity) {
  Fingerprint empty;
  EXPECT_EQ(empty.value(), 0xcbf29ce484222325ULL);  // FNV-1a offset basis

  const auto hash = [](std::initializer_list<double> xs) {
    Fingerprint fp;
    for (const double x : xs) fp.add(x);
    return fp.value();
  };
  EXPECT_EQ(hash({1.0, 2.0}), hash({1.0, 2.0}));
  EXPECT_NE(hash({1.0, 2.0}), hash({2.0, 1.0}));
  EXPECT_NE(hash({0.0}), hash({-0.0}));
  EXPECT_NE(hash({1.0}), hash({std::nextafter(1.0, 2.0)}));
  // FNV-1a of the eight little-endian bytes of 0.0 (all zero).
  std::uint64_t want = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 8; ++i) want *= 0x100000001b3ULL;
  EXPECT_EQ(hash({0.0}), want);
}

}  // namespace
}  // namespace perfbench
