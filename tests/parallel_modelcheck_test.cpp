// Explorer worker-stage tests: mechanics on a tiny machine at several worker
// counts, bit-identical equivalence with the one-worker run, and the
// determinism guarantee (same counts and verdicts for every worker count,
// run repeatedly — the test that catches races in the shared pools and
// canonicalization memos).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/payloads.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/verify.hpp"
#include "util/permutation.hpp"

namespace anoncoord {
namespace {

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

TEST(ParallelExplorerTest, EnumeratesInterleavingsExactly) {
  for (int workers : {1, 2, 3}) {
    explorer<toy_machine>::options opt;
    opt.workers = workers;
    explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                            {toy_machine{1, 0}, toy_machine{2, 0}}, opt);
    auto res = e.explore();
    EXPECT_TRUE(res.complete) << "workers=" << workers;
    EXPECT_EQ(res.num_states, 5u) << "workers=" << workers;
  }
}

TEST(ParallelExplorerTest, FindsBadStateWithSchedule) {
  for (int workers : {1, 2}) {
    explorer<toy_machine>::options opt;
    opt.workers = workers;
    explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                            {toy_machine{1, 0}, toy_machine{2, 0}}, opt);
    auto res = e.explore([](const global_state<toy_machine>& s) {
      return s.regs[0] == 2;  // "bad": register holds 2
    });
    ASSERT_TRUE(res.safety_violated()) << "workers=" << workers;
    EXPECT_EQ(res.bad_schedule, std::vector<int>{1}) << "workers=" << workers;
  }
}

TEST(ParallelExplorerTest, MaxStatesCapsExploration) {
  // The cap is checked before each parent's successors, so every worker
  // count stops at the same state: the root's two successors are stored,
  // then the next parent is refused.
  for (int workers : {1, 2, 4}) {
    explorer<toy_machine>::options opt;
    opt.workers = workers;
    opt.max_states = 2;
    explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                            {toy_machine{1, 0}, toy_machine{2, 0}}, opt);
    auto res = e.explore();
    EXPECT_FALSE(res.complete) << "workers=" << workers;
    EXPECT_EQ(res.num_states, 3u) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Bit-identical equivalence with the sequential explorer on Fig. 1 configs,
// including the progress analysis (where parent chains matter).
// ---------------------------------------------------------------------------

TEST(ParallelExplorerTest, BitIdenticalToSequentialOnMutexConfigs) {
  struct config {
    int m;
    int stride;
  };
  for (const config c : {config{3, 1}, config{3, 2}, config{4, 2}}) {
    const auto seq = check_anon_mutex_pair(c.m, rotation_permutation(c.m, c.stride));
    for (int workers : {1, 2, 4}) {
      naming_assignment naming({identity_permutation(c.m),
                                rotation_permutation(c.m, c.stride)});
      const auto par = check_anon_mutex(c.m, naming, {1, 2}, 2'000'000,
                                        /*symmetry=*/false, workers);
      SCOPED_TRACE("m=" + std::to_string(c.m) + " stride=" +
                   std::to_string(c.stride) + " workers=" +
                   std::to_string(workers));
      EXPECT_EQ(par.complete, seq.complete);
      EXPECT_EQ(par.verdict(), seq.verdict());
      EXPECT_EQ(par.states, seq.states);
      EXPECT_EQ(par.stuck_states, seq.stuck_states);
      EXPECT_EQ(par.counterexample, seq.counterexample);
    }
  }
}

TEST(ParallelExplorerTest, EdgeAndDedupCountsMatchSequential) {
  naming_assignment naming(
      {identity_permutation(3), rotation_permutation(3, 1)});
  std::vector<anon_mutex> machines;
  machines.emplace_back(1, 3);
  machines.emplace_back(2, 3);

  explorer<anon_mutex> seq(3, naming, machines);
  const auto sres = seq.explore();
  ASSERT_TRUE(sres.complete);

  explorer<anon_mutex>::options popt;
  popt.workers = 3;
  explorer<anon_mutex> par(3, naming, machines, popt);
  const auto pres = par.explore();
  ASSERT_TRUE(pres.complete);

  EXPECT_EQ(pres.num_states, sres.num_states);
  EXPECT_EQ(pres.num_edges, sres.num_edges);
  EXPECT_EQ(pres.dedup_hits, sres.dedup_hits);
  // In a BFS over a deduplicated graph every edge either discovers a state
  // or is a dedup hit; the root is the only undiscovered-by-edge state.
  EXPECT_EQ(pres.num_edges, pres.num_states - 1 + pres.dedup_hits);
}

TEST(ParallelExplorerTest, VerifyConfigEnginesReportEqualCounts) {
  // Fig. 1 at m = 3, rotation 1 (14,032 states): verify_config runs the
  // same explorer at every worker count, so it reports the same states,
  // edges and dedup hits for each — edges are counted even though
  // verify_config stores none.
  const naming_assignment naming(
      {identity_permutation(3), rotation_permutation(3, 1)});
  const model_config<anon_mutex> cfg{3, naming,
                                     detail::mutex_machines(3, naming, {1, 2})};
  const config_predicate<anon_mutex> bad = mutex_two_in_cs<anon_mutex>;
  verify_options vopt;
  const verify_report seq = verify_config(cfg, bad, vopt);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.states, 14'032u);
  EXPECT_EQ(seq.edges, 28'064u);
  EXPECT_EQ(seq.edges, seq.states - 1 + seq.dedup_hits);
  for (int workers : {1, 2, 4}) {
    vopt.workers = workers;
    const verify_report par = verify_config(cfg, bad, vopt);
    EXPECT_TRUE(par.ok()) << "workers=" << workers;
    EXPECT_EQ(par.states, seq.states) << "workers=" << workers;
    EXPECT_EQ(par.edges, seq.edges) << "workers=" << workers;
    EXPECT_EQ(par.dedup_hits, seq.dedup_hits) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Determinism: repeated runs at 1, 2 and 8 workers must agree bit-for-bit
// (catches seen-table races and nondeterministic merges).
// ---------------------------------------------------------------------------

TEST(ParallelExplorerTest, DeterministicAcrossRunsAndWorkerCounts) {
  // m=4 at stride 2 deadlocks (counterexample schedule exercised), m=3 at
  // stride 1 verifies clean — both complete quickly.
  struct config {
    int m;
    int stride;
  };
  for (const config c : {config{4, 2}, config{3, 1}}) {
    naming_assignment naming({identity_permutation(c.m),
                              rotation_permutation(c.m, c.stride)});
    const auto reference = check_anon_mutex(c.m, naming, {1, 2});
    for (int workers : {1, 2, 8}) {
      for (int rep = 0; rep < 10; ++rep) {
        const auto res = check_anon_mutex(c.m, naming, {1, 2}, 2'000'000,
                                          /*symmetry=*/false, workers);
        SCOPED_TRACE("m=" + std::to_string(c.m) + " workers=" +
                     std::to_string(workers) + " rep=" + std::to_string(rep));
        ASSERT_EQ(res.complete, reference.complete);
        ASSERT_EQ(res.states, reference.states);
        ASSERT_EQ(res.verdict(), reference.verdict());
        ASSERT_EQ(res.stuck_states, reference.stuck_states);
        ASSERT_EQ(res.counterexample, reference.counterexample);
      }
    }
  }
}

}  // namespace
}  // namespace anoncoord
