// Tests for the §8 hybrid-model exploration: one named register plus m-1
// unnamed ones makes two-process deadlock-free mutex solvable for EVERY
// m >= 3 — including the even m that Theorem 3.1 proves impossible in the
// purely anonymous model. Model-checked exhaustively for small m.
#include <gtest/gtest.h>

#include <vector>

#include "extensions/hybrid_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/verify.hpp"
#include "runtime/schedule.hpp"
#include "runtime/simulator.hpp"
#include "runtime/threaded.hpp"

namespace anoncoord {
namespace {

naming_assignment hybrid_pair(int m, const permutation& unnamed_second) {
  return naming_assignment({hybrid_naming(identity_permutation(m - 1)),
                            hybrid_naming(unnamed_second)});
}

TEST(HybridMutexTest, RejectsTooFewRegisters) {
  EXPECT_THROW(hybrid_mutex(1, 2), precondition_error);
}

TEST(HybridMutexTest, OddMUsesAllRegistersEvenMIgnoresNamed) {
  EXPECT_TRUE(hybrid_mutex(1, 5).uses_named_register());
  EXPECT_FALSE(hybrid_mutex(1, 4).uses_named_register());
  EXPECT_FALSE(hybrid_mutex(1, 6).uses_named_register());
}

TEST(HybridMutexTest, HybridNamingPinsRegisterZero) {
  const auto p = hybrid_naming(permutation{2, 0, 1});
  EXPECT_EQ(p, (permutation{0, 3, 1, 2}));
  EXPECT_THROW(hybrid_naming(permutation{0, 0}), precondition_error);
}

TEST(HybridMutexTest, SoloEntryNeverTouchesNamedRegisterWhenEven) {
  std::vector<hybrid_mutex> machines;
  machines.emplace_back(9, 4);
  machines.emplace_back(8, 4);
  simulator<hybrid_mutex> sim(
      4, hybrid_pair(4, identity_permutation(3)), std::move(machines));
  sim.run_solo(0, 1000, [](const hybrid_mutex& mc) {
    return mc.in_critical_section();
  });
  EXPECT_TRUE(sim.machine(0).in_critical_section());
  EXPECT_EQ(sim.memory().peek(0), 0u) << "named register must stay untouched";
  for (int r = 1; r < 4; ++r) EXPECT_EQ(sim.memory().peek(r), 9u);
}

TEST(HybridMutexTest, EvenMModelChecksCleanWhereAnonymousCannot) {
  // Theorem 3.1: no purely anonymous algorithm for even m. With one named
  // register: every numbering of the unnamed part is correct. m = 4 gives
  // 3! = 6 numbering pairs (first process fixed, WLOG).
  for (const auto& perm : all_permutations(3)) {
    std::vector<hybrid_mutex> machines;
    machines.emplace_back(1, 4);
    machines.emplace_back(2, 4);
    const auto rep = verify_config<hybrid_mutex>(
        {4, hybrid_pair(4, perm), std::move(machines)},
        mutex_spec<hybrid_mutex>());
    EXPECT_EQ(rep.verdict(), "OK")
        << "unnamed part [" << perm[0] << perm[1] << perm[2] << "]";
  }
}

TEST(HybridMutexTest, OddMStillWorks) {
  for (const auto& perm : all_rotations(4)) {
    std::vector<hybrid_mutex> machines;
    machines.emplace_back(1, 5);
    machines.emplace_back(2, 5);
    const auto rep = verify_config<hybrid_mutex>(
        {5, hybrid_pair(5, perm), std::move(machines)},
        mutex_two_in_cs<hybrid_mutex>);
    EXPECT_EQ(rep.verdict(), "OK");
  }
}

TEST(HybridMutexTest, RandomSchedulesProgressForEvenM) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    xoshiro256 rng(seed);
    std::vector<hybrid_mutex> machines;
    machines.emplace_back(11, 6);
    machines.emplace_back(22, 6);
    simulator<hybrid_mutex> sim(
        6,
        naming_assignment({hybrid_naming(random_permutation(5, rng)),
                           hybrid_naming(random_permutation(5, rng))}),
        std::move(machines));
    random_schedule sched(seed);
    std::uint64_t entries = 0;
    auto res =
        sim.run(sched, 300000,
                [&](const simulator<hybrid_mutex>& s, const trace_event&) {
                  int in = 0;
                  for (int p = 0; p < 2; ++p)
                    in += s.machine(p).in_critical_section() ? 1 : 0;
                  EXPECT_LE(in, 1);
                  entries =
                      s.machine(0).cs_entries() + s.machine(1).cs_entries();
                  return entries < 40;
                });
    EXPECT_TRUE(res.stopped_by_observer) << "seed=" << seed;
  }
}

TEST(HybridMutexTest, ThreadedStressEvenM) {
  std::vector<hybrid_mutex> machines;
  machines.emplace_back(5, 4);
  machines.emplace_back(6, 4);
  xoshiro256 rng(77);
  naming_assignment naming({hybrid_naming(random_permutation(3, rng)),
                            hybrid_naming(random_permutation(3, rng))});
  const auto res =
      run_mutex_stress(std::move(machines), 4, naming, /*iterations=*/300);
  EXPECT_EQ(res.violations, 0u);
  EXPECT_EQ(res.canary, res.total_entries);
}

}  // namespace
}  // namespace anoncoord
