#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/csv.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/sync.h"
#include "util/thread_pool.h"
#include "util/timer.h"

#include "examples/flags.h"

namespace storypivot {
namespace {

// --------------------------- Status / Result ------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("snippet 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "snippet 42");
  EXPECT_EQ(s.ToString(), "NotFound: snippet 42");
}

TEST(StatusTest, AllFactoryFunctionsSetDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::FailedPrecondition("").code(), Status::Internal("").code(),
      Status::IoError("").code(),         Status::Degraded("").code(),
  };
  EXPECT_EQ(codes.size(), 8u);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_EQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_EQ(StatusCodeName(StatusCode::kDegraded), "Degraded");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

using ResultDeathTest = ::testing::Test;

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> r = Status::NotFound("no such row");
  EXPECT_DEATH({ [[maybe_unused]] int v = r.value(); },
               "Result<T>::value\\(\\) on error status: "
               "NotFound: no such row");
}

TEST(ResultDeathTest, DieBadResultAccessMessageFormat) {
  // The message must render as "<CodeName>: <message>" so operators can
  // grep crash logs by status code.
  Result<std::string> r = Status::IoError("disk on fire");
  EXPECT_DEATH({ [[maybe_unused]] auto v = std::move(r).value(); },
               "IoError: disk on fire");
}

TEST(ResultDeathTest, CheckOkAbortsWithFileAndLine) {
  EXPECT_DEATH(SP_CHECK_OK(Status::Internal("bad invariant")),
               "util_test\\.cc.*SP_CHECK_OK failed: Internal: "
               "bad invariant");
}

TEST(CheckFailureTest, FlushesBufferedStdoutBeforeAborting) {
  // stdout into a file is fully buffered: without a flush on the abort
  // path, a bench that fails a check loses the report it had printed.
  const std::string path = ::testing::TempDir() + "/sp_check_flush.txt";
  std::fflush(nullptr);  // The child must not inherit pending output.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0 ||
        dup2(fd, STDERR_FILENO) < 0) {
      _exit(2);
    }
    std::printf("report line with no newline");
    SP_CHECK(path.empty());
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exit status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
  Result<std::string> written = ReadFileToString(path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_NE(written.value().find("report line with no newline"),
            std::string::npos)
      << written.value();
  EXPECT_NE(written.value().find("SP_CHECK failed: path.empty()"),
            std::string::npos)
      << written.value();
}

// ------------------------- status macros -----------------------------------

Status FailWhen(bool fail) {
  if (fail) return Status::InvalidArgument("asked to fail");
  return Status::OK();
}

Status PropagateWith(bool fail, bool* reached_end) {
  RETURN_IF_ERROR(FailWhen(fail));
  *reached_end = true;
  return Status::OK();
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  bool reached_end = false;
  Status status = PropagateWith(true, &reached_end);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(reached_end);
}

TEST(StatusMacrosTest, ReturnIfErrorPassesThroughOk) {
  bool reached_end = false;
  Status status = PropagateWith(false, &reached_end);
  EXPECT_TRUE(status.ok());
  EXPECT_TRUE(reached_end);
}

Result<int> MakeIntResult(bool fail) {
  if (fail) return Status::OutOfRange("no int for you");
  return 7;
}

Result<int> DoubleViaAssignOrReturn(bool fail) {
  ASSIGN_OR_RETURN(int got, MakeIntResult(fail));
  return got * 2;
}

TEST(StatusMacrosTest, AssignOrReturnUnwrapsValue) {
  Result<int> doubled = DoubleViaAssignOrReturn(false);
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled.value(), 14);
}

TEST(StatusMacrosTest, AssignOrReturnPropagatesError) {
  Result<int> doubled = DoubleViaAssignOrReturn(true);
  EXPECT_FALSE(doubled.ok());
  EXPECT_EQ(doubled.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(doubled.status().message(), "no int for you");
}

Status AssignToExistingLvalue(std::string* out) {
  // ASSIGN_OR_RETURN also works with an existing lvalue target, and the
  // RETURN_IF_ERROR overload set accepts Result expressions directly.
  ASSIGN_OR_RETURN(*out, Result<std::string>(std::string("ok payload")));
  RETURN_IF_ERROR(Result<int>(5));
  return Status::OK();
}

TEST(StatusMacrosTest, AssignOrReturnIntoExistingLvalue) {
  std::string out;
  Status status = AssignToExistingLvalue(&out);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(out, "ok payload");
}

TEST(StatusMacrosTest, IgnoreErrorCompilesForStatusAndResult) {
  IgnoreError(Status::Internal("deliberately dropped"));
  IgnoreError(MakeIntResult(true));
}

// --------------------------------- RNG ------------------------------------

TEST(Pcg32Test, DeterministicForSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg32Test, DistinctStreamsDiffer) {
  Pcg32 a(123, 1), b(123, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Pcg32Test, NextBoundedStaysInBounds) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Pcg32Test, NextBoundedIsRoughlyUniform) {
  Pcg32 rng(7);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 * 0.9);
    EXPECT_LT(c, kDraws / 10 * 1.1);
  }
}

TEST(Pcg32Test, NextInRangeInclusiveBounds) {
  Pcg32 rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Pcg32Test, NextDoubleInUnitInterval) {
  Pcg32 rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Pcg32Test, BernoulliEdgeCases) {
  Pcg32 rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(Pcg32Test, GaussianMoments) {
  Pcg32 rng(19);
  double sum = 0, sq = 0;
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(Pcg32Test, ExponentialMean) {
  Pcg32 rng(23);
  double sum = 0;
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.2);
}

TEST(Pcg32Test, ShufflePreservesElements) {
  Pcg32 rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(ZipfDistributionTest, HeadIsHeavier) {
  Pcg32 rng(31);
  ZipfDistribution dist(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[dist.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 2000);  // ~1/H(100) ~= 19% of draws.
}

TEST(ZipfDistributionTest, ZeroExponentIsUniform) {
  Pcg32 rng(37);
  ZipfDistribution dist(10, 0.0);
  std::vector<int> counts(10, 0);
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) ++counts[dist.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, kN / 10, kN / 10 * 0.15);
}

// Property sweep: NextBounded never escapes its bound for many bounds.
class RngBoundSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RngBoundSweep, AlwaysBelowBound) {
  Pcg32 rng(GetParam());
  uint32_t bound = GetParam();
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(1u, 2u, 3u, 7u, 16u, 100u,
                                           1000u, 1u << 20, 0x80000000u));

// --------------------------------- Hash -----------------------------------

TEST(HashTest, SplitMixAvalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  int total = 0;
  for (uint64_t x = 1; x < 100; ++x) {
    uint64_t diff = SplitMix64(x) ^ SplitMix64(x ^ 1);
    total += __builtin_popcountll(diff);
  }
  EXPECT_NEAR(total / 99.0, 32.0, 6.0);
}

// -------------------------------- Strings ---------------------------------

TEST(StringsTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitEmptyString) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join(std::vector<std::string>{}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("Ukraine CRISIS 2014"), "ukraine crisis 2014");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("storypivot", "story"));
  EXPECT_FALSE(StartsWith("story", "storypivot"));
  EXPECT_TRUE(EndsWith("alignment.cc", ".cc"));
  EXPECT_FALSE(EndsWith(".cc", "alignment.cc"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999999", &v));
  // Whitespace on either side is malformed; strtoll alone would skip the
  // leading kind.
  for (const char* bad : {" 4", "\t4", "\n4", " -7", "4 ", " "}) {
    v = 99;
    EXPECT_FALSE(ParseInt64(bad, &v)) << '"' << bad << '"';
    EXPECT_EQ(v, 99) << "untouched on failure";
  }
}

// --------------------------------- Flags -----------------------------------

TEST(FlagsTest, ParseIntFlagAcceptsOnlyIntegersInRange) {
  EXPECT_EQ(ParseIntFlag("--threads", "1", 1, 64).value(), 1);
  EXPECT_EQ(ParseIntFlag("--threads", "64", 1, 64).value(), 64);
  EXPECT_EQ(ParseIntFlag("--seed", "-3", -5, 5).value(), -3);
  for (const char* bad : {"-1", "0", "65", "4x", "", "4.0",
                          "18446744073709551615", "99999999999999999999"}) {
    Result<int64_t> parsed = ParseIntFlag("--threads", bad, 1, 64);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("--threads"), std::string::npos);
    EXPECT_NE(parsed.status().message().find("[1, 64]"), std::string::npos);
  }
}

TEST(FlagsTest, IntKeepsDefaultsAndTheFirstBadValue) {
  const char* args[] = {"--readers", "0", "--batch", "8", "--threads", "4x",
                        "--strict"};
  Flags flags(7, const_cast<char**>(args));
  EXPECT_EQ(flags.Int("--batch", 64, 1, 1024), 8);
  EXPECT_EQ(flags.Int("--topk", 10, 1, 1000), 10);  // Absent.
  EXPECT_TRUE(flags.status().ok());
  EXPECT_EQ(flags.Int("--readers", 4, 1, 64), 4);  // Bad: the default.
  EXPECT_EQ(flags.Int("--threads", 4, 1, 64), 4);
  ASSERT_FALSE(flags.status().ok());
  EXPECT_NE(flags.status().message().find("--readers"), std::string::npos);
  EXPECT_TRUE(flags.Has("--strict"));
  EXPECT_FALSE(flags.Has("--refine"));
  std::string value;
  EXPECT_TRUE(flags.Get("--batch", &value));
  EXPECT_EQ(value, "8");
  EXPECT_FALSE(flags.Get("--strict", &value));  // No value follows it.
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_TRUE(ParseDouble("1e300", &v));
  EXPECT_DOUBLE_EQ(v, 1e300);
  // Non-finite values, out-of-range values and surrounding whitespace are
  // refused.
  for (const char* bad : {"inf", "-inf", "INF", "infinity", "nan", "NaN",
                          "-nan", "nan(1)", "1e400", "-1e400", " 3.5",
                          "\t3.5", "3.5 "}) {
    v = 99;
    EXPECT_FALSE(ParseDouble(bad, &v)) << '"' << bad << '"';
    EXPECT_EQ(v, 99) << "untouched on failure";
  }
}

// ---------------------------------- CSV ------------------------------------

TEST(DsvTest, SimpleRoundTrip) {
  DsvWriter writer('\t');
  writer.WriteRow({"a", "b", "c"});
  writer.WriteRow({"1", "2", "3"});
  DsvReader reader('\t');
  auto rows = reader.Parse(writer.contents());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0][1], "b");
  EXPECT_EQ(rows.value()[1][2], "3");
}

TEST(DsvTest, QuotedFieldsRoundTrip) {
  DsvWriter writer(',');
  writer.WriteRow({"plain", "with,comma", "with\"quote", "with\nnewline"});
  DsvReader reader(',');
  auto rows = reader.Parse(writer.contents());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1], "with,comma");
  EXPECT_EQ(rows.value()[0][2], "with\"quote");
  EXPECT_EQ(rows.value()[0][3], "with\nnewline");
}

TEST(DsvTest, UnterminatedQuoteIsError) {
  DsvReader reader(',');
  auto rows = reader.Parse("\"oops");
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.status().message().find("line 1"), std::string::npos)
      << rows.status().ToString();
}

TEST(DsvTest, UnterminatedQuoteErrorNamesOffendingLine) {
  DsvReader reader(',');
  auto rows = reader.Parse("a,b\nc,d\ne,\"unclosed");
  EXPECT_FALSE(rows.ok());
  EXPECT_NE(rows.status().message().find("line 3"), std::string::npos)
      << rows.status().ToString();
}

TEST(DsvTest, ReadFileErrorCarriesPathAndLine) {
  std::string path = ::testing::TempDir() + "/sp_dsv_badquote.csv";
  ASSERT_TRUE(WriteStringToFile(path, "x,y\n\"broken").ok());
  DsvReader reader(',');
  auto rows = reader.ReadFile(path);
  ASSERT_FALSE(rows.ok());
  EXPECT_NE(rows.status().message().find(path), std::string::npos)
      << rows.status().ToString();
  EXPECT_NE(rows.status().message().find("line 2"), std::string::npos)
      << rows.status().ToString();
  std::remove(path.c_str());
}

TEST(DsvTest, CrLfHandling) {
  DsvReader reader(',');
  auto rows = reader.Parse("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[1][0], "c");
}

TEST(DsvTest, CrLfLineNumbersCountEveryLine) {
  DsvReader reader(',');
  auto rows = reader.Parse("a,b\r\nc,d\r\ne,\"unclosed");
  ASSERT_FALSE(rows.ok());
  EXPECT_NE(rows.status().message().find("line 3"), std::string::npos)
      << rows.status().ToString();
  PermissiveDsv parsed =
      reader.ParsePermissive("h\r\n\"multi\r\nline\",x\r\nlast,y\r\n");
  EXPECT_EQ(parsed.row_lines, (std::vector<size_t>{1, 2, 4}));
  ASSERT_EQ(parsed.rows.size(), 3u);
  EXPECT_EQ(parsed.rows[1][0], "multi\r\nline");  // Quoted: kept as is.
}

TEST(DsvTest, VisitReadsRowsInPlace) {
  const std::string input =
      "plain,\"quo\"\"ted\",\"multi\nline\"x\n\nlast,\n";
  DsvReader reader(',');
  std::vector<std::vector<std::string>> rows;
  std::vector<size_t> lines;
  ASSERT_TRUE(reader
                  .Visit(input,
                         [&](size_t line,
                             const std::vector<std::string_view>& fields) {
                           lines.push_back(line);
                           rows.emplace_back(fields.begin(), fields.end());
                           // Unquoted fields are views into the input.
                           if (line == 1) {
                             EXPECT_EQ(fields[0].data(), input.data());
                           }
                           return Status::OK();
                         })
                  .ok());
  EXPECT_EQ(rows, (std::vector<std::vector<std::string>>{
                      {"plain", "quo\"ted", "multi\nlinex"}, {"last", ""}}));
  EXPECT_EQ(lines, (std::vector<size_t>{1, 4}));
  // A visitor's error stops the parse and is returned.
  size_t seen = 0;
  Status stopped = reader.Visit(
      "a\nb\nc\n", [&seen](size_t, const std::vector<std::string_view>&) {
        return ++seen == 2 ? Status::Internal("stop") : Status::OK();
      });
  EXPECT_EQ(stopped.code(), StatusCode::kInternal);
  EXPECT_EQ(seen, 2u);
}

TEST(DsvTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/sp_dsv_test.tsv";
  DsvWriter writer('\t');
  writer.WriteRow({"x", "y"});
  ASSERT_TRUE(writer.Flush(path).ok());
  DsvReader reader('\t');
  auto rows = reader.ReadFile(path);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value()[0][0], "x");
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsIoError) {
  auto contents = ReadFileToString("/nonexistent/sp/none.txt");
  EXPECT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kIoError);
}

// --------------------------------- Timer -----------------------------------

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(timer.ElapsedNanos(), 0);
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
  double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LE(timer.ElapsedSeconds(), before + 1.0);
}

// ------------------------------ ThreadPool --------------------------------

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int value = 0;
  // With no workers the task must complete before Submit returns.
  pool.Submit([&value] { value = 42; });
  EXPECT_EQ(value, 42);
  pool.Wait();
}

TEST(ThreadPoolTest, SubmitRunsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, 16, [&hits](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelForChunkBoundariesAreDeterministic) {
  // Chunk boundaries depend only on (n, num_chunks), never on the thread
  // count — this is what makes chunk-ordered merges reproducible.
  auto boundaries = [](size_t threads) {
    ThreadPool pool(threads);
    // lockcheck annotations are only required in src/; tests still use
    // the annotated wrappers (splint raw-sync).
    Mutex mu;
    std::vector<std::tuple<size_t, size_t, size_t>> out;
    pool.ParallelFor(103, 7, [&](size_t chunk, size_t begin, size_t end) {
      MutexLock lock(mu);
      out.emplace_back(chunk, begin, end);
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  auto serial = boundaries(1);
  auto parallel = boundaries(4);
  ASSERT_EQ(serial.size(), 7u);
  EXPECT_EQ(serial, parallel);
  // Chunks tile [0, n) in order.
  size_t expected_begin = 0;
  for (const auto& [chunk, begin, end] : serial) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LE(begin, end);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 103u);
}

TEST(ThreadPoolTest, ParallelForHandlesDegenerateShapes) {
  ThreadPool pool(2);
  int calls = 0;
  Mutex mu;
  // Empty range: body never runs.
  pool.ParallelFor(0, 4, [&](size_t, size_t, size_t) {
    MutexLock lock(mu);
    ++calls;
  });
  EXPECT_EQ(calls, 0);
  // More chunks than items: clamped to n, every item visited once.
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, 100, [&hits](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, BoundedQueueDoesNotDeadlock) {
  // Submit far more tasks than the queue bound; producers must block and
  // drain rather than drop or deadlock.
  ThreadPool pool(2, /*max_queued=*/4);
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, TrySubmitRejectsOnlyWhenQueueIsFull) {
  ThreadPool pool(2, /*max_queued=*/2);
  // Stall BOTH workers so the queue alone absorbs submissions.
  Mutex mu;  // lockcheck: name=util_test.TrySubmit.mu
  CondVar cv;
  int stalled = 0;
  bool release = false;
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      MutexLock lock(mu);
      ++stalled;
      cv.NotifyAll();
      while (!release) cv.Wait(mu);
    });
  }
  {
    MutexLock lock(mu);
    while (stalled != 2) cv.Wait(mu);
  }
  // Both workers are held and the queue is empty; capacity 2 accepts
  // exactly two tasks, the rest are rejected WITHOUT blocking.
  std::atomic<int> ran{0};
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (pool.TrySubmit(
            [&ran] { ran.fetch_add(1, std::memory_order_relaxed); })) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 2);
  {
    MutexLock lock(mu);
    release = true;
  }
  cv.NotifyAll();
  pool.Wait();
  EXPECT_EQ(ran.load(), 2);
  // With space again, TrySubmit accepts.
  EXPECT_TRUE(pool.TrySubmit([] {}));
}

TEST(ThreadPoolTest, TrySubmitRunsInlineWithoutWorkersOrAfterShutdown) {
  {
    ThreadPool pool(1);  // Inline pool: no workers.
    int value = 0;
    EXPECT_TRUE(pool.TrySubmit([&value] { value = 1; }));
    EXPECT_EQ(value, 1);
  }
  {
    ThreadPool pool(2);
    pool.Shutdown();
    int value = 0;
    EXPECT_TRUE(pool.TrySubmit([&value] { value = 2; }));
    EXPECT_EQ(value, 2);
  }
}

TEST(ThreadPoolTest, ShutdownDrainsPendingWorkBeforeReturning) {
  ThreadPool pool(2, /*max_queued=*/64);
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&count] {
      // Slow tasks, so a backlog exists when Shutdown starts.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.Shutdown();
  // Shutdown drains the queue: every already-submitted task has run.
  EXPECT_EQ(count.load(), 64);
  // Idempotent from the owning thread (the destructor relies on this).
  pool.Shutdown();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, DestructorDrainsPendingWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2, /*max_queued=*/128);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait(): the destructor must drain, not drop.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  int value = 0;
  // Workers are gone; the task must run inline on this thread, exactly
  // once, before Submit returns.
  pool.Submit([&value] { value = 42; });
  EXPECT_EQ(value, 42);
}

TEST(ThreadPoolTest, SubmitRacingShutdownRunsEveryTaskExactlyOnce) {
  // A producer thread submits continuously while the owner shuts the
  // pool down; whatever the interleaving, every Submit call must run its
  // task exactly once (queued-then-drained or inline on the producer).
  // Run several rounds so the race lands on both sides of stop_; under
  // the tsan preset this also proves the handoff is data-race-free.
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(2, /*max_queued=*/8);
    std::atomic<int> ran{0};
    std::atomic<int> submitted{0};
    std::thread producer([&pool, &ran, &submitted] {
      for (int i = 0; i < 200; ++i) {
        pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
    // Let the producer make some progress, then shut down mid-stream.
    while (submitted.load(std::memory_order_relaxed) < 20) {
      std::this_thread::yield();
    }
    pool.Shutdown();
    // The producer keeps submitting into the stopped pool: those tasks
    // run inline on its thread. Join before counting.
    producer.join();
    EXPECT_EQ(ran.load(), 200) << "round " << round;
  }
}

TEST(HashTest, Crc32MatchesKnownVectors) {
  // IEEE 802.3 check value for the canonical test string.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Incremental extension equals one-shot computation.
  uint32_t incremental = ExtendCrc32(ExtendCrc32(0, "1234"), "56789");
  EXPECT_EQ(incremental, Crc32("123456789"));
  // One-bit sensitivity: flipping any bit changes the sum.
  EXPECT_NE(Crc32("123456788"), Crc32("123456789"));
}

TEST(FsTest, WriteReadRoundTripAndAtomicReplace) {
  const std::string path = ::testing::TempDir() + "/sp_fs_roundtrip.txt";
  ASSERT_TRUE(WriteStringToFile(path, "first contents").ok());
  Result<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "first contents");
  // Overwrite is atomic (tmp + rename): no `.tmp` litter afterwards.
  ASSERT_TRUE(WriteStringToFile(path, "second contents").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "second contents");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  Result<uint64_t> size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 15u);
  ASSERT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
}

TEST(FsTest, MissingFilesReportErrors) {
  const std::string path = ::testing::TempDir() + "/sp_fs_does_not_exist";
  EXPECT_FALSE(ReadFileToString(path).ok());
  EXPECT_FALSE(FileSize(path).ok());
  EXPECT_FALSE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
}

TEST(FsTest, AppendFilePersistsAcrossReopen) {
  const std::string path = ::testing::TempDir() + "/sp_fs_append.log";
  if (FileExists(path)) {
    ASSERT_TRUE(RemoveFile(path).ok());
  }
  {
    AppendFile file;
    ASSERT_TRUE(file.Open(path).ok());
    ASSERT_TRUE(file.Append("hello ").ok());
    ASSERT_TRUE(file.Sync().ok());
    ASSERT_TRUE(file.Append("world").ok());
    EXPECT_EQ(file.size(), 11u);
    ASSERT_TRUE(file.Close().ok());
  }
  {
    // Reopening continues at the existing length.
    AppendFile file;
    ASSERT_TRUE(file.Open(path).ok());
    EXPECT_EQ(file.size(), 11u);
    ASSERT_TRUE(file.Append("!").ok());
    ASSERT_TRUE(file.Close().ok());
    ASSERT_TRUE(file.Close().ok());  // Idempotent.
  }
  EXPECT_EQ(ReadFileToString(path).value(), "hello world!");
  ASSERT_TRUE(TruncateFile(path, 5).ok());
  EXPECT_EQ(ReadFileToString(path).value(), "hello");
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST(FsTest, CreateDirectoriesAndList) {
  const std::string root = ::testing::TempDir() + "/sp_fs_tree";
  const std::string nested = root + "/a/b/c";
  ASSERT_TRUE(CreateDirectories(nested).ok());
  ASSERT_TRUE(CreateDirectories(nested).ok());  // mkdir -p idempotence.
  ASSERT_TRUE(WriteStringToFile(nested + "/zeta", "z").ok());
  ASSERT_TRUE(WriteStringToFile(nested + "/alpha", "a").ok());
  Result<std::vector<std::string>> names = ListDirectory(nested);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_FALSE(ListDirectory(root + "/missing").ok());
  // rmdir semantics: refuses non-empty, removes empty, NotFound when gone.
  EXPECT_FALSE(RemoveDirectory(nested).ok());
  ASSERT_TRUE(RemoveFile(nested + "/alpha").ok());
  ASSERT_TRUE(RemoveFile(nested + "/zeta").ok());
  EXPECT_TRUE(RemoveDirectory(nested).ok());
  EXPECT_FALSE(FileExists(nested));
  EXPECT_EQ(RemoveDirectory(nested).code(), StatusCode::kNotFound);
}

// --------------------------- Permissive DSV -------------------------------

TEST(DsvPermissiveTest, QuarantinesUnterminatedQuoteAndKeepsGoodRows) {
  DsvReader reader(',');
  PermissiveDsv parsed =
      reader.ParsePermissive("a,b\nc,d\n\"torn quote,e\n");
  // The unterminated quote swallows to end-of-input; the rows before it
  // survive, the torn one is quarantined with its opening line.
  ASSERT_EQ(parsed.rows.size(), 2u);
  EXPECT_EQ(parsed.rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(parsed.rows[1], (std::vector<std::string>{"c", "d"}));
  ASSERT_EQ(parsed.skipped.size(), 1u);
  EXPECT_EQ(parsed.skipped[0].line, 3u);
  EXPECT_NE(parsed.skipped[0].reason.find("unterminated"),
            std::string::npos);
}

TEST(DsvPermissiveTest, RowLinesTrackMultilineQuotedFields) {
  DsvReader reader(',');
  PermissiveDsv parsed =
      reader.ParsePermissive("h1,h2\n\"multi\nline\",x\nlast,y\n");
  ASSERT_EQ(parsed.rows.size(), 3u);
  ASSERT_EQ(parsed.row_lines.size(), 3u);
  EXPECT_EQ(parsed.row_lines[0], 1u);
  EXPECT_EQ(parsed.row_lines[1], 2u);  // Quoted field spans lines 2-3...
  EXPECT_EQ(parsed.row_lines[2], 4u);  // ...so the next row starts at 4.
  EXPECT_TRUE(parsed.skipped.empty());
}

TEST(DsvPermissiveTest, CleanInputHasNoSkips) {
  DsvReader reader('\t');
  PermissiveDsv parsed = reader.ParsePermissive("a\tb\nc\td\n");
  EXPECT_EQ(parsed.rows.size(), 2u);
  EXPECT_TRUE(parsed.skipped.empty());
  // Strict parse agrees on well-formed input.
  Result<std::vector<std::vector<std::string>>> strict =
      reader.Parse("a\tb\nc\td\n");
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict.value(), parsed.rows);
}

#ifdef STORYPIVOT_FAILPOINTS

// --------------------------- Failpoints -----------------------------------

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Registry::Instance().DisarmAll(); }
  void TearDown() override { failpoint::Registry::Instance().DisarmAll(); }
};

Status EvalSite(const char* site) {
  SP_FAILPOINT(site);
  return Status::OK();
}

TEST_F(FailpointTest, DisarmedSiteIsOk) {
  EXPECT_TRUE(EvalSite("util_test.never_armed").ok());
}

TEST_F(FailpointTest, EveryNthFiresOnSchedule) {
  failpoint::Registry::Instance().Arm("util_test.nth",
                                      failpoint::EveryNth(3));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(!EvalSite("util_test.nth").ok());
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      true, false, false, true}));
  EXPECT_EQ(failpoint::Registry::Instance().Stats("util_test.nth").fires,
            3u);
}

TEST_F(FailpointTest, OneShotFiresExactlyOnce) {
  failpoint::Registry::Instance().Arm("util_test.one",
                                      failpoint::OneShot(2));
  EXPECT_TRUE(EvalSite("util_test.one").ok());
  Status injected = EvalSite("util_test.one");
  EXPECT_EQ(injected.code(), StatusCode::kIoError);
  EXPECT_TRUE(failpoint::IsInjected(injected));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(EvalSite("util_test.one").ok());
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  auto draw = [](uint64_t seed) {
    failpoint::Registry::Instance().Arm(
        "util_test.prob", failpoint::Probability(0.5, seed));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!EvalSite("util_test.prob").ok());
    }
    return fired;
  };
  std::vector<bool> first = draw(7);
  EXPECT_EQ(first, draw(7));       // Same seed, same schedule.
  EXPECT_NE(first, draw(8));       // Different seed, different schedule.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FailpointTest, NoteAndSitePropagate) {
  failpoint::Trigger trigger = failpoint::OneShot(1);
  trigger.note = "ENOSPC";
  failpoint::Registry::Instance().Arm("util_test.note", trigger);
  Status injected = EvalSite("util_test.note");
  ASSERT_FALSE(injected.ok());
  EXPECT_NE(std::string(injected.message()).find("ENOSPC"),
            std::string::npos);
  EXPECT_NE(std::string(injected.message()).find("util_test.note"),
            std::string::npos);
}

TEST_F(FailpointTest, DisarmAllClearsEverything) {
  failpoint::Registry::Instance().Arm("util_test.a", failpoint::EveryNth(1));
  failpoint::Registry::Instance().Arm("util_test.b", failpoint::EveryNth(1));
  EXPECT_EQ(failpoint::Registry::Instance().ArmedSites().size(), 2u);
  EXPECT_FALSE(EvalSite("util_test.a").ok());
  failpoint::Registry::Instance().DisarmAll();
  EXPECT_TRUE(failpoint::Registry::Instance().ArmedSites().empty());
  EXPECT_TRUE(EvalSite("util_test.a").ok());
  EXPECT_TRUE(EvalSite("util_test.b").ok());
}

// --------------------------- fs error paths -------------------------------
//
// Failpoints stand in for the hard-to-provoke real failures (ENOSPC,
// EACCES, fsync loss) so the cleanup contracts get exercised every run.

class FsFailpointTest : public FailpointTest {};

TEST_F(FsFailpointTest, WriteStringToFileCleansUpTempOnFsyncFailure) {
  const std::string path = ::testing::TempDir() + "/sp_fsfp_atomic.txt";
  ASSERT_TRUE(WriteStringToFile(path, "established").ok());

  failpoint::Trigger trigger = failpoint::OneShot(1);
  trigger.note = "ENOSPC";
  failpoint::Registry::Instance().Arm("fs.write.fsync", trigger);
  Status failed = WriteStringToFile(path, "replacement");
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failpoint::IsInjected(failed));
  // The atomic-replace contract: no temp litter, old contents intact.
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_EQ(ReadFileToString(path).value(), "established");
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST_F(FsFailpointTest, AppendFileReportsShortWriteAndTruncates) {
  const std::string path = ::testing::TempDir() + "/sp_fsfp_append.log";
  if (FileExists(path)) {
    ASSERT_TRUE(RemoveFile(path).ok());
  }
  AppendFile file;
  ASSERT_TRUE(file.Open(path).ok());
  ASSERT_TRUE(file.Append("durable|").ok());

  failpoint::Registry::Instance().Arm("fs.append.partial",
                                      failpoint::OneShot(1));
  Status failed = file.Append("0123456789");
  ASSERT_FALSE(failed.ok());
  // The error reports how much of the payload actually landed...
  EXPECT_NE(std::string(failed.message()).find("short write"),
            std::string::npos)
      << failed.ToString();
  // ...size() still names the durable prefix, and truncating to it
  // drops the torn bytes so the next append continues cleanly.
  EXPECT_EQ(file.size(), 8u);
  ASSERT_TRUE(file.TruncateTo(file.size()).ok());
  ASSERT_TRUE(file.Append("recovered").ok());
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(ReadFileToString(path).value(), "durable|recovered");
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST_F(FsFailpointTest, AppendFileTruncateToWithdrawsFullRecord) {
  const std::string path = ::testing::TempDir() + "/sp_fsfp_withdraw.log";
  if (FileExists(path)) {
    ASSERT_TRUE(RemoveFile(path).ok());
  }
  AppendFile file;
  ASSERT_TRUE(file.Open(path).ok());
  ASSERT_TRUE(file.Append("keep").ok());
  ASSERT_TRUE(file.Append("withdraw-me").ok());
  // The record is fully written (e.g. its fsync failed after the write);
  // TruncateTo withdraws it so it cannot resurface at recovery.
  ASSERT_TRUE(file.TruncateTo(4).ok());
  EXPECT_EQ(file.size(), 4u);
  ASSERT_TRUE(file.Append("!").ok());
  ASSERT_TRUE(file.Close().ok());
  EXPECT_EQ(ReadFileToString(path).value(), "keep!");
  ASSERT_TRUE(RemoveFile(path).ok());
}

TEST_F(FsFailpointTest, AppendFileOpenFailureWithAccessNote) {
  failpoint::Trigger trigger = failpoint::OneShot(1);
  trigger.note = "EACCES";
  failpoint::Registry::Instance().Arm("fs.append.open", trigger);
  AppendFile file;
  Status failed = file.Open(::testing::TempDir() + "/sp_fsfp_denied.log");
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(std::string(failed.message()).find("EACCES"),
            std::string::npos);
}

TEST_F(FsFailpointTest, SyncDirectoryFailureSurfaces) {
  failpoint::Registry::Instance().Arm("fs.dir.sync", failpoint::OneShot(1));
  Status failed = SyncDirectory(::testing::TempDir());
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failpoint::IsInjected(failed));
  // Disarmed, the same call works.
  failpoint::Registry::Instance().DisarmAll();
  EXPECT_TRUE(SyncDirectory(::testing::TempDir()).ok());
}

#endif  // STORYPIVOT_FAILPOINTS

}  // namespace
}  // namespace storypivot
