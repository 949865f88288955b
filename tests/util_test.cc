#include <cstring>
#include <set>
#include <vector>

#include "test_main.h"
#include "util/cli.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace hsgd {
namespace {

void TestStrings() {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), std::string("7-x"));
  EXPECT_EQ(StrFormat("%.3f", 1.23456), std::string("1.235"));

  std::vector<std::string> parts = Split("a, b,,c ", ',');
  EXPECT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], std::string("a"));
  EXPECT_EQ(parts[1], std::string("b"));
  EXPECT_EQ(parts[2], std::string("c"));
  EXPECT_TRUE(Split("", ',').empty());

  EXPECT_EQ(WithThousandsSep(0), std::string("0"));
  EXPECT_EQ(WithThousandsSep(999), std::string("999"));
  EXPECT_EQ(WithThousandsSep(1000), std::string("1,000"));
  EXPECT_EQ(WithThousandsSep(252800275), std::string("252,800,275"));
  EXPECT_EQ(WithThousandsSep(-1234567), std::string("-1,234,567"));

  EXPECT_EQ(HumanBytes(512), std::string("512B"));
  EXPECT_EQ(HumanBytes(64 << 10), std::string("64KB"));
  EXPECT_EQ(HumanBytes(256ll << 20), std::string("256MB"));

  EXPECT_EQ(AsciiLower("YaHoo!MUSIC"), std::string("yahoo!music"));
}

void TestCliFlags() {
  const char* argv[] = {"prog", "--scale=0.25", "--threads", "8",
                        "--verbose", "-seed=42"};
  CliFlags flags;
  EXPECT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_NEAR(flags.GetDouble("scale", 1.0), 0.25, 1e-12);
  EXPECT_EQ(flags.GetInt("threads", 1), 8);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("seed", 0), 42);
  EXPECT_EQ(flags.GetInt("missing", -3), -3);
  EXPECT_EQ(flags.GetString("missing", "d"), std::string("d"));

  const char* bad[] = {"prog", "positional"};
  CliFlags bad_flags;
  EXPECT_FALSE(bad_flags.Parse(2, const_cast<char**>(bad)).ok());
}

void TestCliFlagsStrict() {
  const std::vector<FlagSpec> known = {
      {"epochs", "<cap>", "epoch budget"},
      {"seed", "<n>", "RNG seed"},
  };

  const char* good[] = {"prog", "--epochs=5", "--seed", "9"};
  CliFlags flags;
  EXPECT_TRUE(flags.Parse(4, const_cast<char**>(good), known).ok());
  EXPECT_EQ(flags.GetInt("epochs", 0), 5);
  EXPECT_EQ(flags.GetInt("seed", 0), 9);

  // The typo'd singular --epoch is an error naming the flag, not a
  // silent fallback to the default budget.
  const char* typo[] = {"prog", "--epoch=5"};
  CliFlags typo_flags;
  Status st = typo_flags.Parse(2, const_cast<char**>(typo), known);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.message().find("--epoch") != std::string::npos);

  // --help is always accepted in strict mode.
  const char* help[] = {"prog", "--help"};
  CliFlags help_flags;
  EXPECT_TRUE(help_flags.Parse(2, const_cast<char**>(help), known).ok());
  EXPECT_TRUE(help_flags.GetBool("help", false));

  // The rendered table mentions every registered flag plus --help.
  std::string table = FormatFlagTable(known);
  EXPECT_TRUE(table.find("--epochs=<cap>") != std::string::npos);
  EXPECT_TRUE(table.find("--seed=<n>") != std::string::npos);
  EXPECT_TRUE(table.find("--help") != std::string::npos);
}

void TestStatus() {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status err = Status::InvalidArgument("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), std::string("nope"));

  StatusOr<int> good(7);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  StatusOr<int> bad(Status::NotFound("missing"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

void TestRng() {
  Rng a(123), b(123), c(123, 1), d(999);
  bool all_equal = true, stream_differs = false, seed_differs = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.NextU64(), vb = b.NextU64();
    all_equal = all_equal && va == vb;
    stream_differs = stream_differs || va != c.NextU64();
    seed_differs = seed_differs || va != d.NextU64();
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(stream_differs);
  EXPECT_TRUE(seed_differs);

  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double x = r.NextDouble();
    EXPECT_TRUE(x >= 0.0 && x < 1.0);
    int64_t v = r.UniformInt(10);
    EXPECT_TRUE(v >= 0 && v < 10);
  }
  // Gaussian moments, loosely.
  Rng g(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = g.Gaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

void TestThreadPool() {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[static_cast<size_t>(i)];
  });
  bool all_once = true;
  for (int h : hits) all_once = all_once && h == 1;
  EXPECT_TRUE(all_once);

  // Degenerate ranges and a zero-thread pool must still work.
  ThreadPool serial(0);
  int calls = 0;
  serial.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  serial.ParallelFor(0, 3, 10, [&](int64_t lo, int64_t hi) {
    calls += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(calls, 3);
}

void TestStopwatch() {
  Stopwatch sw;
  EXPECT_TRUE(sw.Seconds() >= 0.0);
}

// The fixed schedule (util/retry.h): four attempts with 5, 10 and 20 ms
// sleeps, each scaled by up to +-20% jitter. A budget must stop the loop
// at the wall-clock boundary even when attempts remain, grant exactly
// one attempt when spent, and run all four attempts when far away; a
// success stops the loop, and each retry draws exactly one jitter value.
void TestRetryWithBackoffDeadline() {
  Rng rng(1, 23);
  auto no_op = [](int, const Status&) {};

  // A 10 ms budget outlasts the first sleep (at most 6 ms) but not the
  // first two (at least 12 ms unclamped): the second sleep is clamped to
  // the deadline, the third attempt fires AT the boundary rather than
  // being skipped, and the fourth never runs.
  int calls = 0;
  int retries = 0;
  Stopwatch wall;
  Status exhausted = RetryWithBackoff(
      &rng,
      [&calls]() -> Status {
        ++calls;
        return Status::Internal("still failing");
      },
      [&retries](int, const Status&) { ++retries; }, 0.01);
  const double took = wall.Seconds();
  EXPECT_FALSE(exhausted.ok());
  EXPECT_TRUE(exhausted.code() == StatusCode::kInternal);
  EXPECT_TRUE(calls >= 2);                // the deadline bounded waiting...
  EXPECT_LT(calls, kRetryMaxAttempts);    // ...not the attempt budget
  EXPECT_EQ(retries, calls - 1);
  EXPECT_TRUE(took < 0.5);

  // Spent budget: exactly one attempt, no sleeping.
  calls = 0;
  Status one_shot = RetryWithBackoff(
      &rng,
      [&calls]() -> Status {
        ++calls;
        return Status::Internal("no time to retry");
      },
      no_op, 0.0);
  EXPECT_FALSE(one_shot.ok());
  EXPECT_EQ(calls, 1);

  // Generous budget: failures burn all four attempts, and a success
  // stops the loop immediately.
  calls = 0;
  Status all_attempts = RetryWithBackoff(
      &rng,
      [&calls]() -> Status {
        ++calls;
        return Status::Internal("permanent");
      },
      no_op, 10.0);
  EXPECT_FALSE(all_attempts.ok());
  EXPECT_EQ(calls, kRetryMaxAttempts);
  calls = 0;
  Status recovered = RetryWithBackoff(
      &rng,
      [&calls]() -> Status {
        ++calls;
        return calls < 2 ? Status::Internal("transient") : Status::Ok();
      },
      no_op, 10.0);
  EXPECT_TRUE(recovered.ok());
  EXPECT_EQ(calls, 2);

  // No budget: all four attempts run, each of the three retries draws
  // exactly one jitter value, and a first-try success draws none.
  Rng jitter(7, 23);
  Rng expected(7, 23);
  calls = 0;
  retries = 0;
  Status permanent = RetryWithBackoff(
      &jitter,
      [&calls]() -> Status {
        ++calls;
        return Status::Internal("permanent");
      },
      [&retries](int, const Status&) { ++retries; });
  EXPECT_FALSE(permanent.ok());
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(retries, 3);
  for (int i = 0; i < 3; ++i) expected.NextDouble();
  EXPECT_EQ(jitter.NextU64(), expected.NextU64());
  calls = 0;
  Status first_try = RetryWithBackoff(
      &jitter,
      [&calls]() -> Status {
        ++calls;
        return Status::Ok();
      },
      no_op);
  EXPECT_TRUE(first_try.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(jitter.NextU64(), expected.NextU64());
}

}  // namespace

void RunAllTests() {
  TestStrings();
  TestCliFlags();
  TestCliFlagsStrict();
  TestStatus();
  TestRng();
  TestThreadPool();
  TestStopwatch();
  TestRetryWithBackoffDeadline();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
