#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

#include "src/common/csv.h"
#include "src/common/parse.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/units.h"

namespace peel {
namespace {

TEST(Units, TxTimeRoundsUpAndNeverZero) {
  const GbpsRate r = 100_gbps;  // 12.5 B/ns
  EXPECT_EQ(r.tx_time(125), 10);
  EXPECT_EQ(r.tx_time(126), 11);  // 10.08 ns rounds up
  EXPECT_EQ(r.tx_time(1), 1);    // sub-ns serialization still takes 1 ns
}

TEST(Units, RateConversions) {
  EXPECT_DOUBLE_EQ((100_gbps).bytes_per_ns(), 12.5);
  EXPECT_DOUBLE_EQ((7200_gbps).bytes_per_ns(), 900.0);  // NVLink: 900 GB/s
}

TEST(Units, SecondsRoundTrip) {
  EXPECT_EQ(seconds_to_sim(1.5), 1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(sim_to_seconds(250 * kMicrosecond), 0.00025);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.15);
  EXPECT_NEAR(s.stddev(), 3.0, 0.15);
}

TEST(Rng, NormalTruncatedRespectsFloor) {
  Rng rng(19);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(rng.normal_truncated(0.0, 10.0, 0.0), 0.0);
  }
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng parent(23);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 4);
  // Same tag twice gives the same stream.
  Rng c = parent.fork(1);
  Rng d = parent.fork(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c.next_u64(), d.next_u64());
}

TEST(Rng, ShufflePermutes) {
  Rng rng(29);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(RunningStats, WelfordMatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Samples, ExactQuantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.p50(), 50.5, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, QuantileAfterInterleavedAdds) {
  Samples s;
  s.add(5);
  EXPECT_DOUBLE_EQ(s.p50(), 5.0);
  s.add(1);
  s.add(9);
  EXPECT_DOUBLE_EQ(s.p50(), 5.0);  // sorted cache must refresh
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 9.0);
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(1.5), "1.5000 s");
  EXPECT_EQ(format_seconds(0.0123), "12.300 ms");
  EXPECT_EQ(format_seconds(42e-6), "42.000 us");
  EXPECT_EQ(format_seconds(1.5e-8), "15.0 ns");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(8.0 * 1024 * 1024), "8.00 MiB");
}

TEST(ParseNumber, AcceptsWholeInRangeNumbers) {
  EXPECT_EQ(parse_number<int>("42", "n"), 42);
  EXPECT_EQ(parse_number<int>("-3", "n"), -3);
  EXPECT_EQ(parse_number<long>("7", "n", 0, 10), 7);
  EXPECT_DOUBLE_EQ(parse_number<double>("2.5e-3", "x"), 2.5e-3);
  EXPECT_DOUBLE_EQ(parse_number<double>("30", "x"), 30.0);
}

TEST(ParseNumber, RejectsJunkAndOutOfRange) {
  for (const char* bad : {"", "abc", "8x", " 8", "1.5", "99999999999"}) {
    EXPECT_THROW((void)parse_number<int>(bad, "n"), std::invalid_argument)
        << bad;
  }
  EXPECT_THROW((void)parse_number<double>("nan", "x"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<double>("1e400", "x"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<int>("11", "n", 0, 10), std::invalid_argument);
  try {
    (void)parse_number<int>("abc", "--shards", 0, 8);
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--shards: expected an integer in [0, 8], got 'abc'");
  }
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  const std::string path = ::testing::TempDir() + "/peel_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.row({"1", "x,y"});
    w.row_values({2.5, 3.0});
    EXPECT_THROW(w.row({"only-one"}), std::runtime_error);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,3");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace peel
