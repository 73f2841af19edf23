// The model checker's engines against the reference oracle
// (modelcheck/reference_explorer.hpp).
//
// The oracle is first pinned on closed forms: n independent counters with
// limits L_p reach exactly prod(L_p + 1) states, and under the full
// S_n x C_m group n equal counters reach one state per multiset,
// C(L + n, n). Then the explorer at 1/2/4/8 workers must equal the oracle
// exactly — completeness, verdicts, state and edge counts, dedup hits,
// stuck-state counts, bad states and both counterexample schedules, on
// violating runs too — and store the same row bytes at every worker count,
// on Fig. 1 (every rotation stride), the fully anonymous mutex (identity,
// relabeled identity and rotation namings, up to n = 4 and including the
// n = 2, m = 4 deadlock), the random scribbler family (also at 3 workers,
// whose slices of a window are uneven) and the pinned reference config;
// Fig. 1's even-m half rotations must deadlock there.
// check_progress re-run on one result with other predicates must match a
// fresh single check, on both engines. The one check harness (run_check)
// must give the oracle's verdict, state and stuck counts and counterexample
// on the explorer at 1 and 2 workers for every spec family: Fig. 2
// consensus, Fig. 3 renaming and fully anonymous agreement at n = 2; and on
// counters it must name the first failing safety property in spec order and
// read INCOMPLETE when the cap stops the run before a violation.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <tuple>
#include <vector>

#include "core/anon_consensus.hpp"
#include "core/anon_mutex.hpp"
#include "core/anon_renaming.hpp"
#include "core/fa_agreement.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/agreement_check.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/fa_check.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/reference_explorer.hpp"
#include "modelcheck/verify.hpp"

#include "random_scribbler.hpp"

namespace anoncoord {
namespace {

/// A process that takes `limit` internal steps and stops. Fully anonymous
/// (no id, nothing to reindex), so symmetry reduction may permute it freely.
struct counter {
  using value_type = std::uint64_t;

  int count = 0;
  int limit = 0;

  op_desc peek() const {
    return {count < limit ? op_kind::internal : op_kind::none, -1};
  }
  template <class Mem>
  void step(Mem&) {
    if (count < limit) ++count;
  }
  counter reindexed(int) const { return *this; }
  friend bool canonical_less(const counter& a, const counter& b) {
    return std::tie(a.count, a.limit) < std::tie(b.count, b.limit);
  }
  friend bool operator==(const counter&, const counter&) = default;
  std::size_t hash() const {
    std::size_t seed = static_cast<std::size_t>(limit);
    hash_combine(seed, count);
    return seed;
  }
};

std::vector<counter> counters(const std::vector<int>& limits) {
  std::vector<counter> out;
  for (const int l : limits) out.push_back(counter{0, l});
  return out;
}

template <class Machine>
using predicate = std::function<bool(const global_state<Machine>&)>;

/// explore(bad), then check_progress(premise, goal) when the run is complete
/// and safe and a premise is given: the shape run_check drives.
template <class Engine, class Machine>
auto run(Engine& e, const predicate<Machine>& bad,
         const predicate<Machine>& premise, const predicate<Machine>& goal) {
  auto res = e.explore(bad);
  if (premise && res.complete && !res.safety_violated())
    e.check_progress(res, premise, goal);
  return res;
}

template <class Oracle, class Got>
void expect_equal(const Oracle& want, const Got& got, const std::string& what) {
  EXPECT_EQ(got.complete, want.complete) << what;
  EXPECT_EQ(got.safety_violated(), want.safety_violated()) << what;
  EXPECT_EQ(got.progress_violated(), want.progress_violated()) << what;
  EXPECT_EQ(got.num_states, want.num_states) << what;
  EXPECT_EQ(got.num_edges, want.num_edges) << what;
  EXPECT_EQ(got.dedup_hits, want.dedup_hits) << what;
  EXPECT_EQ(got.stuck_states, want.stuck_states) << what;
  EXPECT_EQ(got.bad_state, want.bad_state) << what;
  EXPECT_EQ(got.bad_schedule, want.bad_schedule) << what;
  EXPECT_EQ(got.stuck_state, want.stuck_state) << what;
  EXPECT_EQ(got.stuck_schedule, want.stuck_schedule) << what;
}

/// The oracle and the explorer at each of `worker_counts` on one
/// configuration: every worker count must equal the oracle, and store the
/// same row bytes. Returns the oracle's result.
template <class Machine>
typename explorer<Machine>::result expect_engines_match_oracle(
    int m, const naming_assignment& naming,
    const std::vector<Machine>& initial, bool symmetry,
    const predicate<Machine>& bad, const predicate<Machine>& premise,
    const predicate<Machine>& goal, const std::string& what,
    std::initializer_list<int> worker_counts = {1, 2, 4, 8}) {
  typename reference_explorer<Machine>::options ropt;
  ropt.symmetry = symmetry;
  reference_explorer<Machine> oracle(m, naming, initial, ropt);
  const auto want = run(oracle, bad, premise, goal);
  EXPECT_GT(want.num_states, 0u) << what;

  std::uint64_t bytes = 0;
  for (const int workers : worker_counts) {
    const std::string tag = what + " workers=" + std::to_string(workers);
    typename explorer<Machine>::options eopt;
    eopt.workers = workers;
    eopt.symmetry = symmetry;
    explorer<Machine> e(m, naming, initial, eopt);
    expect_equal(want, run(e, bad, premise, goal), tag);
    if (workers == 1) bytes = e.stored_row_bytes();
    EXPECT_EQ(e.stored_row_bytes(), bytes) << tag;
  }
  return want;
}

TEST(ReferenceOracleTest, IndependentCountersGiveProductStateCount) {
  const std::vector<int> limits = {2, 3, 1};
  reference_explorer<counter> oracle(1, naming_assignment::identity(3, 1),
                                     counters(limits));
  auto res = oracle.explore();
  ASSERT_TRUE(res.complete);
  // 3 * 4 * 2 states; each process's steps number L_p * prod_{q != p}.
  EXPECT_EQ(res.num_states, 24u);
  EXPECT_EQ(res.num_edges, 2u * 4 * 2 + 3u * 3 * 2 + 1u * 3 * 4);
  EXPECT_EQ(res.dedup_hits, res.num_edges - (res.num_states - 1));
  // Once process 0 has stepped, "process 0 at 0" is unreachable: the
  // 2 * 4 * 2 states with count_0 > 0 are stuck.
  oracle.check_progress(
      res, [](const global_state<counter>&) { return true; },
      [](const global_state<counter>& s) { return s.procs[0].count == 0; });
  EXPECT_EQ(res.stuck_states, 16u);
  EXPECT_EQ(res.stuck_schedule, std::vector<int>{0});

  // The all-done state is the last one BFS discovers, at depth sum(L_p).
  const auto done = oracle.explore([](const global_state<counter>& s) {
    for (const auto& c : s.procs)
      if (c.count < c.limit) return false;
    return true;
  });
  ASSERT_TRUE(done.safety_violated());
  EXPECT_EQ(done.num_states, 24u);
  EXPECT_EQ(done.bad_schedule, (std::vector<int>{0, 0, 1, 1, 1, 2}));
}

TEST(ReferenceOracleTest, EqualCountersUnderSymmetryGiveMultisetCount) {
  // n = 3 counters of limit 2 on m = 2 registers: the group is S_3 x C_2
  // (12 elements) and the orbits are the multisets of counts,
  // C(2 + 3, 3) = 10 of them.
  reference_explorer<counter>::options opt;
  opt.symmetry = true;
  reference_explorer<counter> oracle(2, naming_assignment::identity(3, 2),
                                     counters({2, 2, 2}), opt);
  const auto res = oracle.explore();
  ASSERT_TRUE(res.complete);
  EXPECT_EQ(res.num_states, 10u);

  expect_engines_match_oracle<counter>(
      2, naming_assignment::identity(3, 2), counters({2, 2, 2}), true, {},
      {}, {}, "counters sym");
  expect_engines_match_oracle<counter>(
      2, naming_assignment::identity(3, 2), counters({2, 3, 1}), false, {},
      {}, {}, "counters");
}

TEST(ReferenceOracleTest, AnonMutexEveryStride) {
  const auto spec = mutex_spec<anon_mutex>();
  for (int m = 2; m <= 4; ++m)
    for (int stride = 0; stride < m; ++stride)
      for (const bool sym : {false, true}) {
        const naming_assignment naming(
            {identity_permutation(m), rotation_permutation(m, stride)});
        const std::string what = "anon m=" + std::to_string(m) +
                                 " stride=" + std::to_string(stride) +
                                 " sym=" + std::to_string(sym);
        const auto want = expect_engines_match_oracle<anon_mutex>(
            m, naming, detail::mutex_machines(m, naming, {1, 2}), sym,
            spec.safety.front().is_bad, spec.progress->premise,
            spec.progress->goal, what);
        // Theorem 3.1's even-m half rotation deadlocks, so the stuck count
        // and the first stuck state's schedule, both read through the
        // reverse CSR, are compared at every worker count.
        if (m % 2 == 0 && stride == m / 2) {
          EXPECT_GT(want.stuck_states, 0u) << what;
          EXPECT_FALSE(want.stuck_schedule.empty()) << what;
        }
      }
}

/// check_progress on one explored result, goal after goal, must report
/// exactly what a fresh explore() plus a single check reports per goal.
template <class Make>
void expect_recheck_matches_fresh(
    const Make& make, const std::vector<predicate<anon_mutex>>& goals,
    const std::string& what) {
  auto e = make();
  auto res = e.explore();
  ASSERT_TRUE(res.complete) << what;
  for (std::size_t k = 0; k < goals.size(); ++k) {
    e.check_progress(res, mutex_someone_trying, goals[k]);
    auto fresh_engine = make();
    auto fresh = fresh_engine.explore();
    fresh_engine.check_progress(fresh, mutex_someone_trying, goals[k]);
    expect_equal(fresh, res, what + " goal #" + std::to_string(k));
  }
}

TEST(ReferenceOracleTest, RecheckedProgressMatchesFreshCheck) {
  // m = 4 half rotation: "someone in the CS" has stuck states, "anything"
  // has none, so a check that accumulated across calls or kept an earlier
  // stuck state would differ from the fresh one.
  constexpr int m = 4;
  const naming_assignment naming(
      {identity_permutation(m), rotation_permutation(m, m / 2)});
  const auto initial = detail::mutex_machines(m, naming, {1, 2});
  const predicate<anon_mutex> in_cs = mutex_spec<anon_mutex>().progress->goal;
  const predicate<anon_mutex> anything = [](const global_state<anon_mutex>&) {
    return true;
  };
  const std::vector<predicate<anon_mutex>> goals = {in_cs, anything, in_cs};
  expect_recheck_matches_fresh(
      [&] { return reference_explorer<anon_mutex>(m, naming, initial); },
      goals, "oracle");
  for (const int workers : {1, 2}) {
    explorer<anon_mutex>::options opt;
    opt.workers = workers;
    expect_recheck_matches_fresh(
        [&] { return explorer<anon_mutex>(m, naming, initial, opt); }, goals,
        "explorer workers=" + std::to_string(workers));
  }
}

TEST(ReferenceOracleTest, FaMutexIdentityAndRotationNamings) {
  const auto spec = mutex_spec<fa_mutex>();
  struct config {
    int n, m;
    naming_assignment naming;
    const char* shape;
  };
  std::vector<config> configs;
  for (int n = 2; n <= 3; ++n)
    for (int m = 2; m <= 3; ++m) {
      configs.push_back({n, m, naming_assignment::identity(n, m), "identity"});
      configs.push_back(
          {n, m, naming_assignment::rotations(n, m, 1), "rotation"});
    }
  // Theorem 3.1's shape: a deadlock.
  configs.push_back({2, 4, naming_assignment::identity(2, 4), "identity"});
  // |G| = 48.
  configs.push_back({4, 2, naming_assignment::identity(4, 2), "identity"});
  // Identity conjugated by a register reflection: still full prefix classes.
  configs.push_back({3, 3,
                     apply_global_permutation(
                         naming_assignment::identity(3, 3), {2, 1, 0}),
                     "relabeled"});
  for (const config& c : configs)
    for (const bool sym : {false, true}) {
      expect_engines_match_oracle<fa_mutex>(
          c.m, c.naming,
          std::vector<fa_mutex>(static_cast<std::size_t>(c.n), fa_mutex(c.m)),
          sym, spec.safety.front().is_bad, spec.progress->premise,
          spec.progress->goal,
          "fa n=" + std::to_string(c.n) + " m=" + std::to_string(c.m) + " " +
              c.shape + " sym=" + std::to_string(sym));
    }
  const auto dead = check_fa_mutex(4, naming_assignment::identity(2, 4));
  EXPECT_EQ(dead.verdict(), "DEADLOCK");
}

TEST(ReferenceOracleTest, RandomScribblerSeeds) {
  int violated = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const test_support::random_case c = test_support::make_case(seed);
    const predicate<test_support::scribbler> bad =
        [&c](const global_state<test_support::scribbler>& s) {
          return test_support::case_bad(c, s.regs, s.procs);
        };
    reference_explorer<test_support::scribbler> oracle(c.registers, c.naming,
                                                       c.machines);
    if (oracle.explore(bad).safety_violated()) ++violated;
    // 3 workers splits the 128-parent windows into uneven slices.
    expect_engines_match_oracle<test_support::scribbler>(
        c.registers, c.naming, c.machines, false, bad, {}, {},
        "seed=" + std::to_string(seed), {1, 2, 3, 4, 8});
  }
  EXPECT_GT(violated, 0);
  EXPECT_LT(violated, 12);
}

TEST(ReferenceOracleTest, ReferenceConfigSequential) {
  // Fig. 1 at n = 2, m = 5, stride 2: the pinned 342,886-state config.
  const naming_assignment naming(
      {identity_permutation(5), rotation_permutation(5, 2)});
  const auto initial = detail::mutex_machines(5, naming, {1, 2});
  const auto spec = mutex_spec<anon_mutex>();
  const auto& bad = spec.safety.front().is_bad;
  const auto& premise = spec.progress->premise;
  const auto& goal = spec.progress->goal;
  reference_explorer<anon_mutex> oracle(5, naming, initial);
  const auto want = run(oracle, bad, premise, goal);
  EXPECT_TRUE(want.complete);
  EXPECT_EQ(want.num_states, 342'886u);
  EXPECT_FALSE(want.safety_violated());
  EXPECT_EQ(want.stuck_states, 0u);
  explorer<anon_mutex> seq(5, naming, initial);
  expect_equal(want, run(seq, bad, premise, goal), "m=5 stride=2 seq");
}

/// run_check with `spec` on the oracle and on the explorer at 1 and 2
/// workers: each explorer report must equal the oracle's in verdict, state
/// and stuck counts and counterexample. Returns the oracle's report.
template <class Machine>
verify_report expect_harness_matches_oracle(
    int registers, const naming_assignment& naming,
    const std::vector<Machine>& initial, const check_spec<Machine>& spec,
    const std::string& what, bool symmetry = false,
    std::uint64_t max_states = 2'000'000) {
  typename reference_explorer<Machine>::options ropt;
  ropt.symmetry = symmetry;
  ropt.max_states = max_states;
  reference_explorer<Machine> oracle(registers, naming, initial, ropt);
  const verify_report want = run_check(oracle, spec);
  for (const int workers : {1, 2}) {
    const std::string tag = what + " workers=" + std::to_string(workers);
    typename explorer<Machine>::options eopt;
    eopt.workers = workers;
    eopt.symmetry = symmetry;
    eopt.max_states = max_states;
    explorer<Machine> e(registers, naming, initial, eopt);
    const verify_report got = run_check(e, spec);
    EXPECT_EQ(got.verdict(), want.verdict()) << tag;
    EXPECT_EQ(got.states, want.states) << tag;
    EXPECT_EQ(got.stuck_states, want.stuck_states) << tag;
    EXPECT_EQ(got.counterexample, want.counterexample) << tag;
  }
  return want;
}

TEST(ReferenceOracleTest, ConsensusSpecEveryRotation) {
  // Fig. 2 at n = 2 on 2n - 1 = 3 registers, equal and distinct inputs.
  for (int shift = 0; shift < 3; ++shift)
    for (const std::uint64_t in1 : {1u, 2u}) {
      const naming_assignment naming(
          {identity_permutation(3), rotation_permutation(3, shift)});
      const std::vector<anon_consensus> initial = {anon_consensus(1, 1, 2),
                                                   anon_consensus(2, in1, 2)};
      const std::string what = "consensus shift=" + std::to_string(shift) +
                               " inputs=1," + std::to_string(in1);
      const verify_report want = expect_harness_matches_oracle(
          3, naming, initial, consensus_spec({1, in1}), what);
      EXPECT_EQ(want.verdict(), "OK") << what;
      const verify_report check =
          check_anon_consensus(2, naming, {{1, 1}, {2, in1}});
      EXPECT_EQ(check.verdict(), want.verdict()) << what;
      EXPECT_EQ(check.states, want.states) << what;
    }
}

TEST(ReferenceOracleTest, RenamingSpecEveryRotation) {
  // Fig. 3 at n = 2 on 3 registers.
  for (int shift = 0; shift < 3; ++shift) {
    const naming_assignment naming(
        {identity_permutation(3), rotation_permutation(3, shift)});
    const std::vector<anon_renaming> initial = {anon_renaming(7, 2),
                                                anon_renaming(9, 2)};
    const std::string what = "renaming shift=" + std::to_string(shift);
    const verify_report want = expect_harness_matches_oracle(
        3, naming, initial, renaming_spec(2), what);
    EXPECT_EQ(want.verdict(), "OK") << what;
    const verify_report check = check_anon_renaming(2, naming, {7, 9});
    EXPECT_EQ(check.verdict(), want.verdict()) << what;
    EXPECT_EQ(check.states, want.states) << what;
  }
}

TEST(ReferenceOracleTest, FaAgreementSpecN2M3) {
  for (const auto& naming : {naming_assignment::identity(2, 3),
                             naming_assignment::rotations(2, 3, 1)})
    for (const std::vector<std::uint64_t>& inputs :
         {std::vector<std::uint64_t>{1, 2}, std::vector<std::uint64_t>{5, 5}})
      for (const bool sym : {false, true}) {
        const std::vector<fa_agreement> initial = {fa_agreement(inputs[0], 3),
                                                   fa_agreement(inputs[1], 3)};
        const std::string what =
            "fa_agreement inputs=" + std::to_string(inputs[0]) + "," +
            std::to_string(inputs[1]) + " sym=" + std::to_string(sym);
        const verify_report want = expect_harness_matches_oracle(
            3, naming, initial, fa_agreement_spec(inputs), what, sym);
        EXPECT_EQ(want.verdict(), "OK") << what;
        const verify_report check =
            check_fa_agreement(3, naming, inputs, 2'000'000, sym);
        EXPECT_EQ(check.verdict(), want.verdict()) << what;
        EXPECT_EQ(check.states, want.states) << what;
      }
}

/// A safety property over counters.
check_spec<counter>::safety_property counter_property(
    std::string failure, std::function<bool(const std::vector<counter>&)> f) {
  return {std::move(failure),
          [f = std::move(f)](const global_state<counter>& s) {
            return f(s.procs);
          }};
}

bool all_done(const std::vector<counter>& cs) {
  for (const counter& c : cs)
    if (c.count < c.limit) return false;
  return true;
}

int total_count(const std::vector<counter>& cs) {
  int t = 0;
  for (const counter& c : cs) t += c.count;
  return t;
}

TEST(CheckHarnessTest, NamesOnlyFailingSecondProperty) {
  // Counters with limits 2, 3, 1 reach their all-done state last, at depth
  // 6 (IndependentCountersGiveProductStateCount); no count ever passes its
  // limit.
  check_spec<counter> spec;
  spec.safety.push_back(counter_property("OVERRUN", [](const auto& cs) {
    for (const counter& c : cs)
      if (c.count > c.limit) return true;
    return false;
  }));
  spec.safety.push_back(counter_property("ALL-DONE", all_done));
  const verify_report rep = expect_harness_matches_oracle(
      1, naming_assignment::identity(3, 1), counters({2, 3, 1}), spec,
      "second fails");
  EXPECT_EQ(rep.verdict(), "ALL-DONE");
  EXPECT_TRUE(rep.violated);
  EXPECT_FALSE(rep.complete);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.states, 24u);
  EXPECT_EQ(rep.counterexample, (std::vector<int>{0, 0, 1, 1, 1, 2}));
}

TEST(CheckHarnessTest, BothFailingNamesFirstInSpecOrder) {
  // "all done" and "total count 6" hold on exactly the same state, so the
  // counterexample state breaks both and spec order decides the verdict,
  // as fa_agreement's spec puts agreement before validity.
  const auto done = counter_property("ALL-DONE", all_done);
  const auto total = counter_property(
      "TOTAL-SIX", [](const auto& cs) { return total_count(cs) == 6; });
  for (const bool done_first : {true, false}) {
    check_spec<counter> spec;
    spec.safety = done_first ? std::vector{done, total}
                             : std::vector{total, done};
    const verify_report rep = expect_harness_matches_oracle(
        1, naming_assignment::identity(3, 1), counters({2, 3, 1}), spec,
        done_first ? "done first" : "total first");
    EXPECT_EQ(rep.verdict(), done_first ? "ALL-DONE" : "TOTAL-SIX");
    EXPECT_EQ(rep.counterexample, (std::vector<int>{0, 0, 1, 1, 1, 2}));
  }
  const check_spec<fa_agreement> fa = fa_agreement_spec({1, 2});
  ASSERT_EQ(fa.safety.size(), 2u);
  EXPECT_EQ(fa.safety[0].failure, "AGREEMENT-VIOLATION");
  EXPECT_EQ(fa.safety[1].failure, "VALIDITY-VIOLATION");
}

TEST(CheckHarnessTest, ViolationBeyondCapReadsIncomplete) {
  // The all-done state is the 24th stored; a 10-state cap stops first.
  check_spec<counter> spec;
  spec.safety.push_back(counter_property("NEVER", [](const auto&) {
    return false;
  }));
  spec.safety.push_back(counter_property("ALL-DONE", all_done));
  const verify_report rep = expect_harness_matches_oracle(
      1, naming_assignment::identity(3, 1), counters({2, 3, 1}), spec,
      "capped", /*symmetry=*/false, /*max_states=*/10);
  EXPECT_EQ(rep.verdict(), "INCOMPLETE");
  EXPECT_FALSE(rep.violated);
  EXPECT_FALSE(rep.complete);
  EXPECT_TRUE(rep.counterexample.empty());
}

}  // namespace
}  // namespace anoncoord
