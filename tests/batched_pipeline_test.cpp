// The batched frontier-expansion pipeline (explorer::run and its worker
// generation stage): the staged decode -> expand -> canonicalize -> hash ->
// group-probe window. Verdicts, counts and schedules are pinned against the
// reference oracle in reference_oracle_test.cpp; pinned here:
//   * worker-count bit-identity — the explorer at 2/4/8 workers matches its
//     one-worker run, stored row bytes included (the TSan CI job re-runs
//     this suite to certify the shared pools and canonicalization memos
//     race-free);
//   * phase accounting — runs fill the expand/canonicalize/probe/encode
//     breakdown and the probe-group counters, and verify() surfaces the
//     same numbers in its report.
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

const explorer<anon_mutex>::state_predicate two_in_cs =
    mutex_spec<anon_mutex>().safety.front().is_bad;

void expect_results_identical(const verify_report& a, const verify_report& b,
                              const std::string& what) {
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.verdict(), b.verdict()) << what;
  EXPECT_EQ(a.states, b.states) << what;
  EXPECT_EQ(a.stuck_states, b.stuck_states) << what;
  EXPECT_EQ(a.counterexample, b.counterexample) << what;
}

// ---------------------------------------------------------------------------
// Parallel worker-count bit-identity.
// ---------------------------------------------------------------------------

TEST(BatchedExpansionTest, ParallelWorkersBitIdentical) {
  const auto seq_anon = check_anon_mutex(3, identity_naming(2, 3), {1, 2},
                                         2'000'000, true);
  const auto seq_fa = check_fa_mutex(3, identity_naming(3, 3), 2'000'000,
                                     true);
  const auto seq_dead = check_fa_mutex(4, identity_naming(2, 4), 2'000'000,
                                       true);
  for (int workers : {1, 2, 4, 8}) {
    const std::string tag = "workers=" + std::to_string(workers);
    expect_results_identical(
        seq_anon,
        check_anon_mutex(3, identity_naming(2, 3), {1, 2}, 2'000'000, true,
                         workers),
        "anon " + tag);
    expect_results_identical(
        seq_fa,
        check_fa_mutex(3, identity_naming(3, 3), 2'000'000, true, workers),
        "fa " + tag);
    expect_results_identical(
        seq_dead,
        check_fa_mutex(4, identity_naming(2, 4), 2'000'000, true, workers),
        "fa deadlock " + tag);
  }
}

TEST(BatchedExpansionTest, StoredRowBytesIdenticalParallelUnderSymmetry) {
  // The packed bytes do not depend on the worker count, also when the
  // packed canonicalization kernel interns group-element images from every
  // worker.
  std::uint64_t first = 0;
  for (int workers : {1, 2, 4, 8}) {
    explorer<fa_mutex>::options opt;
    opt.workers = workers;
    opt.max_states = 2'000'000;
    opt.symmetry = true;
    explorer<fa_mutex> e(3, identity_naming(3, 3),
                         std::vector<fa_mutex>(3, fa_mutex(3)), opt);
    const auto res = e.explore();
    EXPECT_TRUE(res.complete);
    if (first == 0) first = e.stored_row_bytes();
    EXPECT_EQ(e.stored_row_bytes(), first) << "workers=" << workers;
  }
  EXPECT_GT(first, 0u);
}

// ---------------------------------------------------------------------------
// Phase accounting.
// ---------------------------------------------------------------------------

TEST(BatchedExpansionTest, PhaseCountersFilled) {
  // Every phase is timed per window or per slice, and encode from a fixed
  // sample of appends, so each must still read nonzero when it ran — and
  // canonicalize exactly zero when the group is trivial and it never ran.
  for (const bool symmetry : {true, false}) {
    explorer<anon_mutex>::options opt;
    opt.max_states = 2'000'000;
    opt.symmetry = symmetry;
    explorer<anon_mutex> e(3, identity_naming(2, 3), machines(3, 2), opt);
    const auto res = e.explore(two_in_cs);
    EXPECT_TRUE(res.complete);
    const explore_phase_stats& ph = e.phase_counters();
    EXPECT_GT(ph.expand_ns, 0u) << "symmetry=" << symmetry;
    EXPECT_GT(ph.probe_ns, 0u) << "symmetry=" << symmetry;
    EXPECT_GT(ph.encode_ns, 0u) << "symmetry=" << symmetry;
    EXPECT_GT(ph.probe_groups_scanned, 0u) << "symmetry=" << symmetry;
    EXPECT_GE(ph.probe_max_group_chain, 1u) << "symmetry=" << symmetry;
    if (symmetry)
      EXPECT_GT(ph.canonicalize_ns, 0u);
    else
      EXPECT_EQ(ph.canonicalize_ns, 0u);
  }
}

TEST(BatchedExpansionTest, VerifyReportSurfacesPhaseBreakdown) {
  verify_options vopt;
  vopt.max_states = 2'000'000;
  vopt.symmetry = true;
  const model_config<anon_mutex> cfg{3, identity_naming(2, 3),
                                     machines(3, 2)};
  const config_predicate<anon_mutex> bad = mutex_two_in_cs<anon_mutex>;

  for (const int workers : {1, 2}) {
    vopt.workers = workers;
    const std::string where = "workers=" + std::to_string(workers);
    const auto rep = verify_config(cfg, bad, vopt);
    EXPECT_TRUE(rep.ok()) << where;
    EXPECT_GT(rep.expand_ns, 0u) << where;
    EXPECT_GT(rep.probe_ns, 0u) << where;
    EXPECT_GT(rep.probe_groups_scanned, 0u) << where;
  }
}

}  // namespace
}  // namespace anoncoord
