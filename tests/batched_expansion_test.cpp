// The batched frontier-expansion pipeline (explorer::run_batched and the
// parallel analogue): differential evidence that the staged
// decode -> expand -> canonicalize -> hash -> group-probe window is a
// drop-in replacement for the per-successor loop it optimizes.
//
// Pinned here:
//   * sequential on/off bit-identity — verdict, state count, stuck count,
//     counterexample schedule AND stored row bytes (verbatim + compressed
//     arena) across safe and deadlocking configs in both machine regimes,
//     with and without symmetry reduction;
//   * parallel on/off and worker-count bit-identity — the batched parallel
//     engine matches the batched sequential engine at 1/2/4/8 workers, and
//     matches its own unbatched mode, stored row bytes included (the TSan CI job re-runs this suite to
//     certify the concurrent_tag_index CAS protocol and the shared
//     transition memo race-free under the batched schedule);
//   * counterexample identity on the m = 4, n = 2 fully anonymous deadlock —
//     the schedule replay must not move when the expansion order is staged;
//   * phase accounting — batched runs fill the expand/canonicalize/probe/
//     encode breakdown and the probe-group counters; unbatched runs leave
//     the probe counters zero (the per-successor loop has no group probes),
//     and verify() surfaces the same numbers in its report.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/anon_mutex.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/fa_check.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/parallel_explorer.hpp"
#include "modelcheck/verify.hpp"

namespace anoncoord {
namespace {

std::vector<anon_mutex> machines(int m, int n) {
  std::vector<anon_mutex> out;
  for (int p = 0; p < n; ++p)
    out.emplace_back(static_cast<process_id>(p + 1), m);
  return out;
}

naming_assignment identity_naming(int n, int m) {
  return naming_assignment(
      std::vector<permutation>(static_cast<std::size_t>(n),
                               identity_permutation(m)));
}

bool two_in_cs(const global_state<anon_mutex>& s) {
  return mutex_cs_count(s) >= 2;
}

void expect_results_identical(const mutex_check_result& a,
                              const mutex_check_result& b,
                              const std::string& what) {
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.mutual_exclusion, b.mutual_exclusion) << what;
  EXPECT_EQ(a.progress, b.progress) << what;
  EXPECT_EQ(a.num_states, b.num_states) << what;
  EXPECT_EQ(a.stuck_states, b.stuck_states) << what;
  EXPECT_EQ(a.counterexample, b.counterexample) << what;
}

// ---------------------------------------------------------------------------
// Sequential on/off bit-identity.
// ---------------------------------------------------------------------------

TEST(BatchedExpansionTest, SequentialVerdictsIdenticalBatchedOnOff) {
  // Raw and symmetry-reduced runs in both regimes, packed canonicalization
  // on (the production pairing) — check_* signature is (..., max_states,
  // symmetry, packed, batched).
  for (int m : {2, 3}) {
    for (bool sym : {false, true}) {
      const std::string what =
          "anon m=" + std::to_string(m) + " sym=" + std::to_string(sym);
      const auto on = check_anon_mutex(m, identity_naming(2, m), {1, 2},
                                       2'000'000, sym, true, true);
      const auto off = check_anon_mutex(m, identity_naming(2, m), {1, 2},
                                        2'000'000, sym, true, false);
      expect_results_identical(on, off, what);
    }
  }
  {
    const auto on = check_fa_mutex(3, identity_naming(3, 3), 2'000'000, true,
                                   true, true);
    const auto off = check_fa_mutex(3, identity_naming(3, 3), 2'000'000, true,
                                    true, false);
    expect_results_identical(on, off, "fa m=3 n=3");
  }
}

TEST(BatchedExpansionTest, DeadlockCounterexampleIdenticalBatchedOnOff) {
  // The m = 4, n = 2 fully anonymous deadlock: the staged expansion visits
  // successors in a different machine-level order internally, yet the
  // deterministic insert order must keep the replayed stuck schedule
  // byte-for-byte the same.
  const auto on = check_fa_mutex(4, identity_naming(2, 4), 2'000'000, true,
                                 true, true);
  const auto off = check_fa_mutex(4, identity_naming(2, 4), 2'000'000, true,
                                  true, false);
  EXPECT_EQ(on.verdict(), "DEADLOCK");
  EXPECT_FALSE(on.counterexample.empty());
  expect_results_identical(on, off, "fa m=4 n=2 deadlock");
}

TEST(BatchedExpansionTest, StoredRowBytesIdenticalSequential) {
  // The seen-set storage must be byte-identical either way, in both the
  // verbatim and the bit-packed arena: same rows, same order.
  for (bool compress : {false, true}) {
    std::uint64_t bytes[2] = {0, 0};
    std::uint64_t states[2] = {0, 0};
    for (int b = 0; b < 2; ++b) {
      explorer<anon_mutex>::options opt;
      opt.max_states = 2'000'000;
      opt.symmetry = true;
      opt.compress_arena = compress;
      opt.batched_expansion = b == 1;
      explorer<anon_mutex> e(3, identity_naming(2, 3), machines(3, 2), opt);
      const auto res = e.explore(two_in_cs);
      EXPECT_TRUE(res.complete);
      states[b] = res.num_states;
      bytes[b] = e.stored_row_bytes();
    }
    EXPECT_EQ(states[0], states[1]);
    EXPECT_EQ(bytes[0], bytes[1])
        << "stored bytes diverged, compress=" << compress;
    EXPECT_GT(bytes[1], 0u);
  }
}

// ---------------------------------------------------------------------------
// Parallel on/off and worker-count bit-identity.
// ---------------------------------------------------------------------------

TEST(BatchedExpansionTest, ParallelWorkersBitIdenticalBatchedOn) {
  const auto seq_anon = check_anon_mutex(3, identity_naming(2, 3), {1, 2},
                                         2'000'000, true, true, true);
  const auto seq_fa = check_fa_mutex(3, identity_naming(3, 3), 2'000'000,
                                     true, true, true);
  const auto seq_dead = check_fa_mutex(4, identity_naming(2, 4), 2'000'000,
                                       true, true, true);
  for (int workers : {1, 2, 4, 8}) {
    const std::string tag = "workers=" + std::to_string(workers);
    expect_results_identical(
        seq_anon,
        check_anon_mutex_parallel(3, identity_naming(2, 3), {1, 2}, workers,
                                  2'000'000, true, true, true),
        "anon " + tag);
    expect_results_identical(
        seq_fa,
        check_fa_mutex_parallel(3, identity_naming(3, 3), workers, 2'000'000,
                                true, true, true),
        "fa " + tag);
    expect_results_identical(
        seq_dead,
        check_fa_mutex_parallel(4, identity_naming(2, 4), workers, 2'000'000,
                                true, true, true),
        "fa deadlock " + tag);
  }
}

TEST(BatchedExpansionTest, ParallelBatchedOnOffIdentical) {
  // The parallel engine against itself, staged vs per-successor, at the
  // worker counts where CAS contention actually happens.
  for (int workers : {2, 4}) {
    const std::string tag = "workers=" + std::to_string(workers);
    expect_results_identical(
        check_anon_mutex_parallel(3, identity_naming(2, 3), {1, 2}, workers,
                                  2'000'000, true, true, true),
        check_anon_mutex_parallel(3, identity_naming(2, 3), {1, 2}, workers,
                                  2'000'000, true, true, false),
        "anon " + tag);
    expect_results_identical(
        check_fa_mutex_parallel(4, identity_naming(2, 4), workers, 2'000'000,
                                true, true, true),
        check_fa_mutex_parallel(4, identity_naming(2, 4), workers, 2'000'000,
                                true, true, false),
        "fa deadlock " + tag);
  }
}

TEST(BatchedExpansionTest, StoredRowBytesIdenticalParallelUnderSymmetry) {
  // The parallel engine's packed bytes depend neither on the worker count
  // nor on the pipeline, also when the packed canonicalization kernel
  // interns group-element images from every worker.
  std::uint64_t first = 0;
  for (int workers : {1, 2, 4, 8}) {
    for (const bool batched : {true, false}) {
      parallel_explorer<fa_mutex>::options opt;
      opt.workers = workers;
      opt.max_states = 2'000'000;
      opt.symmetry = true;
      opt.batched_expansion = batched;
      parallel_explorer<fa_mutex> e(
          3, identity_naming(3, 3), std::vector<fa_mutex>(3, fa_mutex(3)),
          opt);
      const auto res = e.explore();
      EXPECT_TRUE(res.complete);
      if (first == 0) first = e.stored_row_bytes();
      EXPECT_EQ(e.stored_row_bytes(), first)
          << "workers=" << workers << " batched=" << batched;
    }
  }
  EXPECT_GT(first, 0u);
}

// ---------------------------------------------------------------------------
// Phase accounting.
// ---------------------------------------------------------------------------

TEST(BatchedExpansionTest, PhaseCountersFilledBatchedZeroProbesUnbatched) {
  const auto run = [](bool batched) {
    explorer<anon_mutex>::options opt;
    opt.max_states = 2'000'000;
    opt.symmetry = true;
    opt.batched_expansion = batched;
    explorer<anon_mutex> e(3, identity_naming(2, 3), machines(3, 2), opt);
    const auto res = e.explore(two_in_cs);
    EXPECT_TRUE(res.complete);
    return e.phase_counters();
  };
  const auto on = run(true);
  EXPECT_GT(on.expand_ns, 0u);
  EXPECT_GT(on.probe_ns, 0u);
  EXPECT_GT(on.probe_groups_scanned, 0u);
  EXPECT_GE(on.probe_max_group_chain, 1u);
  const auto off = run(false);
  // The per-successor loop owns no group-probe tables.
  EXPECT_EQ(off.probe_groups_scanned, 0u);
  EXPECT_EQ(off.probe_max_group_chain, 0u);
}

TEST(BatchedExpansionTest, VerifyReportSurfacesPhaseBreakdown) {
  verify_options vopt;
  vopt.max_states = 2'000'000;
  vopt.symmetry = true;
  const model_config<anon_mutex> cfg{3, identity_naming(2, 3),
                                     machines(3, 2)};
  const config_predicate<anon_mutex> bad =
      [](const std::vector<anon_mutex::value_type>&,
         const std::vector<anon_mutex>& procs) {
        int c = 0;
        for (const auto& p : procs)
          if (p.in_critical_section()) ++c;
        return c >= 2;
      };

  for (verify_engine engine :
       {verify_engine::bfs, verify_engine::parallel_bfs}) {
    vopt.engine = engine;
    vopt.workers = engine == verify_engine::parallel_bfs ? 2 : 1;

    vopt.batched_expansion = true;
    const auto on = verify_config(cfg, bad, vopt);
    EXPECT_TRUE(on.ok()) << to_string(engine);
    EXPECT_GT(on.expand_ns, 0u) << to_string(engine);
    EXPECT_GT(on.probe_ns, 0u) << to_string(engine);
    EXPECT_GT(on.probe_groups_scanned, 0u) << to_string(engine);

    vopt.batched_expansion = false;
    const auto off = verify_config(cfg, bad, vopt);
    EXPECT_EQ(off.probe_groups_scanned, 0u) << to_string(engine);
    EXPECT_EQ(on.states, off.states) << to_string(engine);
    EXPECT_EQ(on.violated, off.violated) << to_string(engine);
  }
}

}  // namespace
}  // namespace anoncoord
