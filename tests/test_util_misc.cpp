// Tests for TextTable, ArgParser, logger, ThreadPool.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace symbiosis::util {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.str();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.123, 1), "12.3%");
  EXPECT_EQ(TextTable::pct(1.0, 0), "100%");
}

TEST(TextTable, RaggedRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  t.add_row({"1", "2", "3", "4"});
  EXPECT_FALSE(t.str().empty());
  EXPECT_EQ(t.rows(), 2u);
}

TEST(ArgParser, ParsesAllKinds) {
  ArgParser args("prog", "test");
  auto& s = args.add_string("name", "a string", "default");
  auto& i = args.add_i64("count", "an int", -1);
  auto& u = args.add_u64("seed", "a u64", 7);
  auto& d = args.add_double("ratio", "a double", 0.5);
  auto& f = args.add_flag("verbose", "a flag");
  const char* argv[] = {"prog", "--name=x",  "--count", "-42", "--seed=123",
                        "--ratio", "2.25", "--verbose", "positional"};
  ASSERT_TRUE(args.parse(9, argv));
  EXPECT_EQ(s, "x");
  EXPECT_EQ(i, -42);
  EXPECT_EQ(u, 123u);
  EXPECT_DOUBLE_EQ(d, 2.25);
  EXPECT_TRUE(f);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(ArgParser, DefaultsSurviveEmptyArgv) {
  ArgParser args("prog", "test");
  auto& u = args.add_u64("seed", "seed", 42);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.parse(1, argv));
  EXPECT_EQ(u, 42u);
}

TEST(ArgParser, RejectsUnknownOption) {
  ArgParser args("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(args.parse(2, argv));
}

TEST(ArgParser, RejectsBadNumber) {
  ArgParser args("prog", "test");
  args.add_i64("n", "int", 0);
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(args.parse(2, argv));
}

TEST(ArgParser, HelpReturnsFalse) {
  ArgParser args("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(args.parse(2, argv));
}

TEST(Log, ParseLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("nonsense"), LogLevel::Info);
}

TEST(Log, LevelFiltering) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  SYMBIOSIS_LOG_DEBUG("should be dropped %d", 1);
  set_log_level(before);
}

TEST(ThreadPool, ParallelForCoversAll) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(1);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

}  // namespace
}  // namespace symbiosis::util
