// Differential testing of the verification surface.
//
// For randomized terminating configurations (machines running small random
// register programs under random namings) verify_config at one and at
// several explorer workers must return IDENTICAL results, and every
// reported violating schedule must replay to the same violation on a fresh
// simulator. The packed row arena is diffed against the plain object-level
// BFS of reference_explorer.hpp: verdicts, counts and counterexamples must
// match, and the packed bytes must undercut the verbatim 4-byte-word
// layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/anon_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/reference_explorer.hpp"
#include "modelcheck/verify.hpp"
#include "runtime/schedule.hpp"
#include "runtime/simulator.hpp"

#include "random_scribbler.hpp"

namespace anoncoord {
namespace {

using test_support::case_bad;
using test_support::make_case;
using test_support::random_case;
using test_support::scribbler;

/// Replay a schedule on a fresh simulator and evaluate the bad predicate on
/// the resulting configuration.
bool replays_to_violation(const random_case& c,
                          const std::vector<int>& schedule) {
  simulator<scribbler> sim(c.registers, c.naming, c.machines);
  scripted_schedule script(schedule);
  sim.run(script, schedule.size(), {});
  std::vector<std::uint64_t> regs;
  for (int r = 0; r < c.registers; ++r) regs.push_back(sim.memory().peek(r));
  std::vector<scribbler> procs;
  for (int p = 0; p < sim.process_count(); ++p) procs.push_back(sim.machine(p));
  return case_bad(c, regs, procs);
}

TEST(DifferentialModelCheckTest, RandomConfigsAllEnginesAgree) {
  int violated_cases = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const random_case c = make_case(seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));

    model_config<scribbler> cfg{c.registers, c.naming, c.machines};
    const config_predicate<scribbler> bad =
        [&c](const std::vector<std::uint64_t>& regs,
             const std::vector<scribbler>& procs) {
          return case_bad(c, regs, procs);
        };

    const auto bfs = verify_config(cfg, bad);
    // The explorer stops early on a violation (complete stays false) and
    // otherwise must exhaust the tiny state space.
    ASSERT_TRUE(bfs.complete || bfs.violated);

    verify_options par_opt;
    par_opt.workers = 3;
    const auto par = verify_config(cfg, bad, par_opt);
    ASSERT_TRUE(par.complete || par.violated);
    EXPECT_EQ(bfs.complete, par.complete);

    // One and several workers agree exactly, not just on the verdict — on
    // violating runs too.
    EXPECT_EQ(bfs.violated, par.violated);
    EXPECT_EQ(bfs.states, par.states);
    EXPECT_EQ(bfs.edges, par.edges);
    EXPECT_EQ(bfs.dedup_hits, par.dedup_hits);
    EXPECT_EQ(bfs.violating_schedule, par.violating_schedule);

    // Every reported counterexample replays to the same violation.
    if (bfs.violated) {
      ++violated_cases;
      EXPECT_TRUE(replays_to_violation(c, bfs.violating_schedule));
      EXPECT_TRUE(replays_to_violation(c, par.violating_schedule));
    }
  }
  // The seed family must exercise both outcomes, or the test is vacuous.
  EXPECT_GT(violated_cases, 0);
  EXPECT_LT(violated_cases, 12);
}

// ---------------------------------------------------------------------------
// Fig. 1 mutex: every two-process configuration up to m = 5 is exhausted at
// two workers, and none may break mutual exclusion.
// ---------------------------------------------------------------------------

TEST(DifferentialModelCheckTest, MutexMeVerdictConsistentAcrossEngines) {
  for (int m = 3; m <= 5; ++m) {
    for (int stride = 1; stride < m; ++stride) {
      SCOPED_TRACE("m=" + std::to_string(m) + " stride=" +
                   std::to_string(stride));
      naming_assignment naming(
          {identity_permutation(m), rotation_permutation(m, stride)});
      std::vector<anon_mutex> machines;
      machines.emplace_back(1, m);
      machines.emplace_back(2, m);
      model_config<anon_mutex> cfg{m, naming, machines};
      const config_predicate<anon_mutex> two_in_cs =
          [](const std::vector<process_id>&,
             const std::vector<anon_mutex>& procs) {
            int c = 0;
            for (const auto& p : procs)
              if (p.in_critical_section()) ++c;
            return c >= 2;
          };

      verify_options par_opt;
      par_opt.workers = 2;
      par_opt.max_states = 5'000'000;
      const auto par = verify_config(cfg, two_in_cs, par_opt);
      ASSERT_TRUE(par.complete);
      EXPECT_FALSE(par.violated) << "Fig. 1 never breaks ME for 2 processes";
    }
  }
}

// ---------------------------------------------------------------------------
// Packed row arena vs the reference oracle: the encoding is an internal
// representation choice, so every observable result — verdicts, state and
// edge counts, dedup hits, counterexamples — must equal the plain BFS's, at
// every worker count.
// ---------------------------------------------------------------------------

TEST(DifferentialModelCheckTest, CompressedArenaMatchesVerbatimOnMutex) {
  // m = 4 at stride 2 deadlocks (Theorem 3.1's even-m witness), so this
  // drives the counterexample reconstructor through the packed-decode path;
  // m = 3 at stride 1 covers the all-OK verdict.
  const struct {
    int m;
    int stride;
    std::uint64_t row_bytes;
  } cases[] = {{4, 2, 381'832}, {3, 1, 56'011}};
  for (const auto& tc : cases) {
    SCOPED_TRACE("m=" + std::to_string(tc.m) + " stride=" +
                 std::to_string(tc.stride));
    const naming_assignment naming(
        {identity_permutation(tc.m), rotation_permutation(tc.m, tc.stride)});
    const auto ms = detail::mutex_machines(tc.m, naming, {1, 2});

    reference_explorer<anon_mutex> ref(tc.m, naming, ms);
    const auto want = detail::run_mutex_check(ref);
    // Verbatim rows: one 4-byte word per column, m registers + 2 machines.
    const std::uint64_t verb_bytes =
        want.num_states * static_cast<std::uint64_t>(tc.m + 2) * 4;

    explorer<anon_mutex> comp(tc.m, naming, ms);
    const auto cres = detail::run_mutex_check(comp);
    EXPECT_EQ(cres.verdict(), want.verdict());
    EXPECT_EQ(cres.num_states, want.num_states);
    EXPECT_EQ(cres.stuck_states, want.stuck_states);
    EXPECT_EQ(cres.counterexample, want.counterexample);
    // The packed arena must actually shrink the footprint. Width epochs
    // open only when a column outgrows its width, so there are few of them,
    // and the store stays within the final row width per state plus at most
    // one page-tail per epoch. The final row's bits are bounded through the
    // pools: no column holds an id above its pool's largest.
    EXPECT_EQ(comp.stored_row_bytes(), tc.row_bytes);
    EXPECT_LT(comp.stored_row_bytes(), verb_bytes);
    EXPECT_GT(comp.keyframe_rows(), 0u);
    EXPECT_LT(comp.keyframe_rows(), cres.num_states);
    std::uint32_t max_value = 0, max_machine = 0;
    comp.pool().for_each_value_id(
        [&](std::uint32_t id) { max_value = std::max(max_value, id); });
    comp.pool().for_each_machine_id(
        [&](std::uint32_t id) { max_machine = std::max(max_machine, id); });
    const std::uint64_t row_bits =
        static_cast<std::uint64_t>(tc.m) * std::bit_width(max_value) +
        2u * std::bit_width(max_machine);
    EXPECT_LE(comp.stored_row_bytes(),
              cres.num_states * ((row_bits + 7) / 8) +
                  comp.keyframe_rows() * byte_arena::kPageSize);

    for (int workers : {1, 2, 4, 8}) {
      const std::string where = "workers=" + std::to_string(workers);
      explorer<anon_mutex>::options par_opt;
      par_opt.workers = workers;
      explorer<anon_mutex> par(tc.m, naming, ms, par_opt);
      const auto pres = detail::run_mutex_check(par);
      EXPECT_EQ(pres.verdict(), want.verdict()) << where;
      EXPECT_EQ(pres.num_states, want.num_states) << where;
      EXPECT_EQ(pres.counterexample, want.counterexample) << where;
      // Workers intern in thread-timing order, but each window's columns
      // are sized from the pools' id bounds, so the packed bytes depend
      // neither on the worker count nor on the run.
      EXPECT_EQ(par.stored_row_bytes(), comp.stored_row_bytes()) << where;
    }
  }
}

}  // namespace
}  // namespace anoncoord
