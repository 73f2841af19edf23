// Exhaustive model-checking tests: the executable form of Theorems 3.1
// (both directions, for concrete m), 4.1/4.2 and 5.2.
//
// These explore EVERY interleaving of the configured processes, so they are
// strictly stronger than the schedule sweeps for the configurations covered.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "baselines/ca_consensus.hpp"
#include "core/fa_mutex.hpp"
#include "mem/payloads.hpp"
#include "modelcheck/agreement_check.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/fa_check.hpp"
#include "modelcheck/mutex_check.hpp"
#include "runtime/schedule.hpp"
#include "runtime/simulator.hpp"
#include "util/hash.hpp"
#include "util/permutation.hpp"

namespace anoncoord {
namespace {

// ---------------------------------------------------------------------------
// Explorer mechanics on a tiny machine.
// ---------------------------------------------------------------------------

/// A 2-phase toy machine: writes its id to register 0, then stops.
struct toy_machine {
  using value_type = std::uint64_t;
  std::uint64_t id = 0;
  int phase = 0;

  op_desc peek() const {
    return phase == 0 ? op_desc{op_kind::write, 0} : op_desc{op_kind::none, -1};
  }
  template <class Mem>
  void step(Mem& mem) {
    if (phase == 0) {
      mem.write(0, id);
      phase = 1;
    }
  }
  bool done() const { return phase == 1; }
  friend bool operator==(const toy_machine&, const toy_machine&) = default;
  std::size_t hash() const { return id * 31 + static_cast<std::size_t>(phase); }
};

TEST(ExplorerTest, EnumeratesInterleavingsExactly) {
  // Two one-write machines: states are {fresh, after-1, after-2, after-both
  // in either order} — register ends as the last writer, so 2 final states.
  explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                          {toy_machine{1, 0}, toy_machine{2, 0}});
  auto res = e.explore();
  EXPECT_TRUE(res.complete);
  // init, p0-moved, p1-moved, p0p1, p1p0  => 5 distinct states.
  EXPECT_EQ(res.num_states, 5u);
}

TEST(ExplorerTest, FindsBadStateWithSchedule) {
  explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                          {toy_machine{1, 0}, toy_machine{2, 0}});
  auto res = e.explore([](const global_state<toy_machine>& s) {
    return s.regs[0] == 2;  // "bad": register holds 2
  });
  ASSERT_TRUE(res.safety_violated());
  // The returned schedule, replayed, must produce the bad state.
  EXPECT_EQ(res.bad_schedule, std::vector<int>{1});
}

TEST(ExplorerTest, MaxStatesCapsExploration) {
  explorer<toy_machine>::options opt;
  opt.max_states = 2;
  explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                          {toy_machine{1, 0}, toy_machine{2, 0}}, opt);
  auto res = e.explore();
  EXPECT_FALSE(res.complete);
  EXPECT_LE(res.num_states, 3u);  // cap checked per expansion wave
}

TEST(ExplorerTest, RejectsMoreThan255Processes) {
  // The stepping process is recorded in one byte. Construction only: no
  // threads are started and nothing is explored.
  const auto machines = [](int n) {
    std::vector<toy_machine> out;
    for (int p = 0; p < n; ++p)
      out.push_back(toy_machine{static_cast<std::uint64_t>(p), 0});
    return out;
  };
  EXPECT_THROW(explorer<toy_machine>(1, naming_assignment::identity(256, 1),
                                     machines(256)),
               precondition_error);
  EXPECT_NO_THROW(explorer<toy_machine>(
      1, naming_assignment::identity(255, 1), machines(255)));
}

TEST(ExplorerTest, BookkeepingBytesOnReferenceConfig) {
  // Fig. 1 at n = 2, m = 5, stride 2 (342,886 states), trivial group: a
  // 4-byte parent and a 1-byte via per state, no group element, and one
  // 4-byte target per edge plus a 1-byte out-degree per state.
  const naming_assignment naming(
      {identity_permutation(5), rotation_permutation(5, 2)});
  explorer<anon_mutex> e(5, naming, detail::mutex_machines(5, naming, {1, 2}));
  auto res = e.explore();
  ASSERT_TRUE(res.complete);
  ASSERT_EQ(res.num_states, 342'886u);
  const std::uint64_t states = res.num_states;
  const std::uint64_t edges = res.num_edges;
  explorer_bookkeeping b = e.bookkeeping_bytes();
  EXPECT_EQ(b.provenance, 5 * states);
  EXPECT_EQ(b.successor_slots, 4 * edges + states);
  EXPECT_EQ(b.csr, 0u);
  // 8-byte cells plus 1-byte tags, at most 70% full.
  EXPECT_GE(b.seen_table * 7, 9 * states * 10);
  // The packed rows: 5.8576 B/state, within the 12 B/state bound.
  EXPECT_EQ(e.stored_row_bytes(), 2'008'506u);
  EXPECT_LE(e.stored_row_bytes(), 12 * states);

  const auto spec = mutex_spec<anon_mutex>();
  e.check_progress(res, spec.progress->premise, spec.progress->goal);
  EXPECT_EQ(res.stuck_states, 0u);
  b = e.bookkeeping_bytes();
  EXPECT_EQ(b.csr, 4 * (states + 1) + 4 * edges);
  EXPECT_EQ(b.total(),
            b.seen_table + 5 * states + 4 * edges + states + b.csr);
}

TEST(ExplorerTest, BookkeepingKeepsGroupElementsOnlyUnderSymmetry) {
  // fa n = 3, m = 3 under S_3 x C_3: the element index joins parent and
  // via, 9 B/state.
  explorer<fa_mutex>::options opt;
  opt.symmetry = true;
  explorer<fa_mutex> e(3, naming_assignment::identity(3, 3),
                       std::vector<fa_mutex>(3, fa_mutex(3)), opt);
  const auto res = e.explore();
  ASSERT_TRUE(res.complete);
  EXPECT_EQ(e.bookkeeping_bytes().provenance, 9 * res.num_states);
}

/// One explore(bad) + check_progress(premise, goal) pass and what it left
/// behind: the result, the stored row bytes and the bookkeeping.
template <class Machine>
struct full_run {
  typename explorer<Machine>::result res;
  std::uint64_t row_bytes = 0;
  std::uint64_t bookkeeping = 0;
};

template <class Machine, class Bad, class Premise, class Goal>
full_run<Machine> run_once(explorer<Machine>& e, const Bad& bad,
                           const Premise& premise, const Goal& goal) {
  full_run<Machine> out;
  out.res = e.explore(bad);
  EXPECT_TRUE(out.res.complete);
  EXPECT_FALSE(out.res.safety_violated());
  e.check_progress(out.res, premise, goal);
  out.row_bytes = e.stored_row_bytes();
  out.bookkeeping = e.bookkeeping_bytes().total();
  return out;
}

template <class Machine>
void expect_same_run(const full_run<Machine>& want,
                     const full_run<Machine>& got, const std::string& what) {
  EXPECT_EQ(got.res.complete, want.res.complete) << what;
  EXPECT_EQ(got.res.num_states, want.res.num_states) << what;
  EXPECT_EQ(got.res.num_edges, want.res.num_edges) << what;
  EXPECT_EQ(got.res.dedup_hits, want.res.dedup_hits) << what;
  EXPECT_EQ(got.res.stuck_states, want.res.stuck_states) << what;
  EXPECT_EQ(got.res.stuck_state, want.res.stuck_state) << what;
  EXPECT_EQ(got.res.bad_schedule, want.res.bad_schedule) << what;
  EXPECT_EQ(got.res.stuck_schedule, want.res.stuck_schedule) << what;
  EXPECT_EQ(got.row_bytes, want.row_bytes) << what;
  EXPECT_EQ(got.bookkeeping, want.bookkeeping) << what;
}

/// explore() frees the seen table on return; a second explore() on the same
/// explorer must rebuild it and reproduce the first run, which must in turn
/// equal a fresh explorer's run. Returns the first run at 2 workers.
template <class Machine, class Bad, class Premise, class Goal>
full_run<Machine> expect_reexplore_matches(int m, const naming_assignment& naming,
                              const std::vector<Machine>& machines,
                              typename explorer<Machine>::options opt,
                              const Bad& bad, const Premise& premise,
                              const Goal& goal, const std::string& what) {
  full_run<Machine> first;
  for (const int workers : {1, 2}) {
    opt.workers = workers;
    const std::string tag = what + " workers=" + std::to_string(workers);
    explorer<Machine> e(m, naming, machines, opt);
    first = run_once(e, bad, premise, goal);
    const auto second = run_once(e, bad, premise, goal);
    explorer<Machine> fresh(m, naming, machines, opt);
    expect_same_run(first, second, tag + " second run");
    expect_same_run(first, run_once(fresh, bad, premise, goal),
                    tag + " fresh explorer");
    if (opt.spill_budget_bytes > 0) {
      EXPECT_GT(e.spill_stats().spilled_pages, 0u) << tag;
    }
  }
  return first;
}

TEST(ExplorerTest, ReexploreAfterRelease) {
  const auto mutex = mutex_spec<anon_mutex>();
  const auto& mutex_bad = mutex.safety.front().is_bad;
  // Fig. 1 at m = 4, stride 2: Theorem 3.1's deadlock, so the progress
  // pass finds stuck states and a stuck schedule.
  const naming_assignment naming(
      {identity_permutation(4), rotation_permutation(4, 2)});
  const auto machines = detail::mutex_machines(4, naming, {1, 2});
  EXPECT_GT(expect_reexplore_matches(4, naming, machines, {}, mutex_bad,
                                     mutex.progress->premise,
                                     mutex.progress->goal, "fig1 m=4")
                .res.stuck_states,
            0u);
  // The same run with the rows spilling under a 64 KiB budget.
  explorer<anon_mutex>::options spill;
  spill.spill_budget_bytes = 64 * 1024;
  expect_reexplore_matches(4, naming, machines, spill, mutex_bad,
                           mutex.progress->premise, mutex.progress->goal,
                           "fig1 m=4 spill");
  // fa n = 3, m = 3 under S_3 x C_3: the group elements are chunked too.
  explorer<fa_mutex>::options sym;
  sym.symmetry = true;
  const auto fa = mutex_spec<fa_mutex>();
  expect_reexplore_matches(
      3, naming_assignment::identity(3, 3), std::vector<fa_mutex>(3, fa_mutex(3)),
      sym, fa.safety.front().is_bad, fa.progress->premise, fa.progress->goal,
      "fa n=3 m=3 symmetry");
}

// ---------------------------------------------------------------------------
// Theorem 3.1, positive direction: odd m => ME + progress for every naming.
// ---------------------------------------------------------------------------

TEST(MutexModelCheckTest, M3AllNamingPairsAreCorrect) {
  // With two processes, fixing process 0's numbering to the identity is
  // fully general; enumerate all 3! numberings for process 1.
  for (const auto& perm : all_permutations(3)) {
    auto res = check_anon_mutex_pair(3, perm);
    EXPECT_TRUE(res.ok()) << "perm [" << perm[0] << perm[1] << perm[2]
                          << "]: " << res.verdict()
                          << " states=" << res.states;
  }
}

TEST(MutexModelCheckTest, M5AllRotationPairsAreCorrect) {
  for (const auto& perm : all_rotations(5)) {
    auto res = check_anon_mutex_pair(5, perm, 5'000'000);
    EXPECT_TRUE(res.ok()) << "rotation [" << perm[0] << "]: " << res.verdict()
                          << " states=" << res.states;
  }
}

// ---------------------------------------------------------------------------
// Theorem 3.1, negative direction: even m admits a naming with no progress.
// ---------------------------------------------------------------------------

TEST(MutexModelCheckTest, M2OppositeOrderDeadlocks) {
  auto res = check_anon_mutex_pair(2, rotation_permutation(2, 1));
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violated) << "ME never breaks for Fig. 1";
  EXPECT_EQ(res.verdict(), "DEADLOCK") << "m=2 at offset 1 must deadlock";
  EXPECT_GT(res.stuck_states, 0u);
  EXPECT_FALSE(res.counterexample.empty());
}

TEST(MutexModelCheckTest, M4HalfRotationDeadlocks) {
  auto res = check_anon_mutex_pair(4, rotation_permutation(4, 2));
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.violated);
  EXPECT_EQ(res.verdict(), "DEADLOCK") << "m=4 at offset 2 must deadlock";
  EXPECT_GT(res.stuck_states, 0u);
}

TEST(MutexModelCheckTest, EvenOddTableMatchesTheorem31) {
  // The E1 table in miniature: for each m, does there EXIST a rotation pair
  // with a progress violation? Theorem 3.1 says yes iff m is even.
  for (int m = 2; m <= 5; ++m) {
    bool any_violation = false;
    for (int s = 1; s < m; ++s) {
      auto res = check_anon_mutex_pair(m, rotation_permutation(m, s),
                                       5'000'000);
      ASSERT_TRUE(res.complete) << "m=" << m << " s=" << s;
      EXPECT_FALSE(res.violated);
      if (res.verdict() == "DEADLOCK") any_violation = true;
    }
    EXPECT_EQ(any_violation, m % 2 == 0) << "m=" << m;
  }
}

TEST(MutexModelCheckTest, IdenticalNumberingsDegradeEvenM) {
  // Same numbering for both processes (offset 0): with an odd m the
  // algorithm still works.
  auto res = check_anon_mutex_pair(3, identity_permutation(3));
  EXPECT_TRUE(res.ok()) << res.verdict();
}

TEST(MutexModelCheckTest, CounterexampleScheduleReplays) {
  // Replay the extracted deadlock schedule in the simulator and confirm it
  // lands in a state from which solo runs cannot reach the CS.
  auto res = check_anon_mutex_pair(4, rotation_permutation(4, 2));
  ASSERT_EQ(res.verdict(), "DEADLOCK");
  ASSERT_FALSE(res.counterexample.empty());

  naming_assignment naming(
      {identity_permutation(4), rotation_permutation(4, 2)});
  std::vector<anon_mutex> machines;
  machines.emplace_back(1, 4);
  machines.emplace_back(2, 4);
  simulator<anon_mutex> sim(4, naming, std::move(machines));
  scripted_schedule script(res.counterexample);
  sim.run(script, 1'000'000, {});
  // From the stuck state, no continuation enters the CS; try both solo.
  for (int p = 0; p < 2; ++p) {
    sim.run_solo(p, 20000,
                 [](const anon_mutex& mc) { return mc.in_critical_section(); });
    EXPECT_FALSE(sim.machine(p).in_critical_section());
  }
}

// ---------------------------------------------------------------------------
// Fig. 2 consensus: exhaustive agreement/validity for n = 2.
// ---------------------------------------------------------------------------

class ConsensusModelCheck
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t,
                                                 std::uint64_t>> {};

TEST_P(ConsensusModelCheck, AgreementValidityAndTerminationPotential) {
  const auto [shift, in0, in1] = GetParam();
  naming_assignment naming(
      {identity_permutation(3), rotation_permutation(3, shift)});
  auto res = check_anon_consensus(2, naming, {{1, in0}, {2, in1}});
  EXPECT_TRUE(res.ok()) << res.verdict() << " states=" << res.states;
}

INSTANTIATE_TEST_SUITE_P(
    ShiftXInputs, ConsensusModelCheck,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<ConsensusModelCheck::ParamType>& info) {
      return "shift" + std::to_string(std::get<0>(info.param)) + "_in" +
             std::to_string(std::get<1>(info.param)) +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Commit-adopt consensus (the baseline with agreed slots): rounds are
// unbounded, so each process gets a step budget that makes the state space
// finite. The explorer then covers every schedule in which no process takes
// more than kSteps steps.
// ---------------------------------------------------------------------------

/// ca_consensus that stops (peek() is none) once it has taken kSteps steps.
/// The remaining budget is part of the state, so hash and == include it.
struct step_budget_ca {
  using value_type = ca_record;
  static constexpr int kSteps = 44;

  ca_consensus inner;
  int left = kSteps;

  op_desc peek() const {
    return left > 0 ? inner.peek() : op_desc{op_kind::none, -1};
  }
  template <class Mem>
  void step(Mem& mem) {
    inner.step(mem);
    --left;
  }
  friend bool operator==(const step_budget_ca&,
                         const step_budget_ca&) = default;
  std::size_t hash() const {
    std::size_t seed = inner.hash();
    hash_combine(seed, left);
    return seed;
  }
};

TEST(CaConsensusModelCheck, SafeUnderEveryScheduleWithinStepBudget) {
  const int n = 2;
  explorer<step_budget_ca> e(
      ca_consensus::register_count(n),
      naming_assignment::identity(n, ca_consensus::register_count(n)),
      {step_budget_ca{ca_consensus(0, n, 1)},
       step_budget_ca{ca_consensus(1, n, 2)}});
  const auto res = e.explore([](const global_state<step_budget_ca>& s) {
    const ca_consensus& a = s.procs[0].inner;
    const ca_consensus& b = s.procs[1].inner;
    if (a.done() && b.done() && *a.decision() != *b.decision())
      return true;  // agreement violation
    for (const ca_consensus* p : {&a, &b})
      if (p->done() && *p->decision() != 1 && *p->decision() != 2)
        return true;  // validity violation
    return false;
  });
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.safety_violated());
  EXPECT_EQ(res.num_states, 5'098u);
}

// ---------------------------------------------------------------------------
// Fig. 3 renaming: exhaustive uniqueness/perfectness for n = 2.
// ---------------------------------------------------------------------------

TEST(RenamingModelCheck, TwoProcessesAllRotations) {
  for (int shift = 0; shift < 3; ++shift) {
    naming_assignment naming(
        {identity_permutation(3), rotation_permutation(3, shift)});
    auto res = check_anon_renaming(2, naming, {7, 9});
    EXPECT_TRUE(res.ok()) << "shift=" << shift << ": " << res.verdict()
                          << " states=" << res.states;
  }
}

TEST(RenamingModelCheck, TwoProcessesNonRotationNaming) {
  naming_assignment naming({identity_permutation(3), permutation{1, 0, 2}});
  auto res = check_anon_renaming(2, naming, {7, 9});
  EXPECT_TRUE(res.ok()) << res.verdict() << " states=" << res.states;
}

}  // namespace
}  // namespace anoncoord
