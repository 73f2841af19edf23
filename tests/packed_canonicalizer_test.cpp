// The packed-word canonicalization kernel (modelcheck/symmetry.hpp,
// packed_canonicalizer): differential evidence that the interned-id
// gather + rank-row compare is a drop-in replacement for the object-domain
// symmetry_group::canonicalize.
//
// Pinned here:
//   * kernel vs object bit-identity — canonical image AND canonicalizing
//     element index (the sigma-chain tie-break) — exhaustively over every
//     stored state of n <= 3 x m <= 3 configurations, anon_mutex (the
//     process-symmetric regime, per-element value memos) and fa_mutex (the
//     fully anonymous regime, shift-keyed machine memos), under identity
//     and rotation namings;
//   * rank-snapshot order-isomorphism under churn — ids interned AFTER the
//     last snapshot rebuild must flow through the object-domain fallback
//     and keep the compare exact, so the differential also runs with a
//     deliberately stale snapshot (one early rebuild, then none);
//   * candidate accounting — each non-identity element is counted exactly
//     once per canonicalization as a full apply, a first-word prune, or
//     (packed only) a longest-common-prefix prune;
//   * engine-level equivalence — the explorer stays bit-identical to its
//     one-worker run at 2/4/8 workers (the TSan CI job re-runs this suite
//     to certify the shared memo tables race-free); its verdicts, counts
//     and schedules are pinned against the reference oracle in
//     reference_oracle_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/anon_mutex.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/fa_check.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/state_pool.hpp"
#include "modelcheck/symmetry.hpp"

namespace anoncoord {
namespace {

std::vector<anon_mutex> machines(int m, int n) {
  std::vector<anon_mutex> out;
  for (int p = 0; p < n; ++p)
    out.emplace_back(static_cast<process_id>(p + 1), m);
  return out;
}

std::vector<fa_mutex> fa_machines(int m, int n) {
  return std::vector<fa_mutex>(static_cast<std::size_t>(n), fa_mutex(m));
}

naming_assignment identity_naming(int n, int m) {
  return naming_assignment(
      std::vector<permutation>(static_cast<std::size_t>(n),
                               identity_permutation(m)));
}

bool two_in_cs(const global_state<anon_mutex>& s) {
  return mutex_cs_count(s) >= 2;
}

bool fa_two_in_cs(const global_state<fa_mutex>& s) {
  return fa_mutex_cs_count(s) >= 2;
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
// Kernel vs object-domain differential.
// ---------------------------------------------------------------------------

/// Explore unreduced, then canonicalize every stored state through both
/// paths and demand identical images and element indices. `refresh_each`
/// rebuilds the rank snapshots before every row (full coverage, the
/// rank-speed compare); otherwise only one early rebuild happens and later
/// rows hit ids the snapshot has never seen — the object-domain fallback —
/// which must not change a single answer.
template <class Machine, class Pred>
void expect_kernel_bit_identical(int m, const naming_assignment& naming,
                                 const std::vector<Machine>& initial,
                                 const Pred& pred, bool refresh_each) {
  const auto g = symmetry_group<Machine>::compute(naming, initial);
  const int n = static_cast<int>(initial.size());
  typename explorer<Machine>::options opt;
  opt.max_states = 20'000;  // ample orbit coverage even where capped
  explorer<Machine> e(m, naming, initial, opt);
  const auto res = e.explore(pred);
  ASSERT_GT(res.num_states, 0u);

  state_pool<Machine> pool;
  packed_canonicalizer<Machine> pk;
  pk.attach(&g, &pool, m, n);
  packed_canonical_scratch pks;
  canonical_scratch<Machine> cs;
  canonicalize_stats pstats{}, ostats{};
  bool went_stale = false;
  std::vector<std::uint32_t> row;
  for (std::uint64_t i = 0; i < res.num_states; ++i) {
    const auto s = e.state(i);
    row.clear();
    for (const auto& r : s.regs) row.push_back(pool.intern_value(r));
    for (const auto& p : s.procs) row.push_back(pool.intern_machine(p));
    if (refresh_each || i == 0) pk.refresh_ranks();
    went_stale = went_stale || pk.ranks_stale();
    const int pelem = pk.canonicalize_row(row.data(), pks, pstats);

    auto oregs = s.regs;
    auto oprocs = s.procs;
    const int oelem = g.canonicalize(oregs, oprocs, cs, &ostats);

    ASSERT_EQ(pelem, oelem) << "element index diverged at state " << i;
    for (int r = 0; r < m; ++r)
      ASSERT_EQ(pool.value(row[static_cast<std::size_t>(r)]),
                oregs[static_cast<std::size_t>(r)])
          << "register " << r << " at state " << i;
    for (int p = 0; p < n; ++p)
      ASSERT_TRUE(pool.machine(row[static_cast<std::size_t>(m + p)]) ==
                  oprocs[static_cast<std::size_t>(p)])
          << "machine " << p << " at state " << i;
  }

  if (g.size() > 1) {
    // Exactly one counter ticks per (state, non-identity element) candidate,
    // in both domains; the object domain never partial-applies.
    const std::uint64_t candidates =
        res.num_states * static_cast<std::uint64_t>(g.size() - 1);
    EXPECT_EQ(pstats.full_applies + pstats.first_word_pruned +
                  pstats.prefix_pruned,
              candidates);
    EXPECT_EQ(ostats.full_applies + ostats.first_word_pruned, candidates);
    EXPECT_EQ(ostats.prefix_pruned, 0u);
    if (!refresh_each && res.num_states > 1) {
      EXPECT_TRUE(went_stale) << "stale-snapshot variant never went stale";
    }
  }
}

TEST(PackedCanonicalizationTest, KernelBitIdenticalExhaustiveSmallOrbits) {
  for (int n : {2, 3})
    for (int m : {2, 3}) {
      expect_kernel_bit_identical(m, identity_naming(n, m), machines(m, n),
                                  two_in_cs, /*refresh_each=*/true);
      expect_kernel_bit_identical(m, naming_assignment::rotations(n, m, 1),
                                  machines(m, n), two_in_cs,
                                  /*refresh_each=*/true);
      expect_kernel_bit_identical(m, identity_naming(n, m), fa_machines(m, n),
                                  fa_two_in_cs, /*refresh_each=*/true);
      expect_kernel_bit_identical(m, naming_assignment::rotations(n, m, 1),
                                  fa_machines(m, n), fa_two_in_cs,
                                  /*refresh_each=*/true);
    }
}

TEST(PackedCanonicalizationTest, StaleSnapshotsFallBackToObjectOrder) {
  // One rank rebuild right after the initial state, then thousands of ids
  // interned behind the snapshot's back: every row now mixes ranked and
  // unranked ids, and the kernel must still match the object path on all
  // of them (the fallback IS the object order, so this pins the
  // order-isomorphism claim at its seam).
  for (int n : {2, 3}) {
    expect_kernel_bit_identical(3, identity_naming(n, 3), machines(3, n),
                                two_in_cs, /*refresh_each=*/false);
    expect_kernel_bit_identical(3, identity_naming(n, 3), fa_machines(3, n),
                                fa_two_in_cs, /*refresh_each=*/false);
    expect_kernel_bit_identical(3, naming_assignment::rotations(n, 3, 1),
                                fa_machines(3, n), fa_two_in_cs,
                                /*refresh_each=*/false);
  }
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: sequential vs parallel.
// ---------------------------------------------------------------------------

TEST(PackedCanonicalizationTest, ParallelWorkersBitIdenticalPackedOn) {
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

TEST(PackedCanonicalizationTest, EngineCountersAccountForEveryCandidate) {
  // Through the engine the same per-candidate accounting must hold: with
  // G the group and C canonicalization calls, the three counters sum to
  // C * (|G| - 1), so the sum is divisible by |G| - 1 and nonzero.
  const auto naming = identity_naming(2, 3);
  const auto procs = machines(3, 2);
  const auto g = symmetry_group<anon_mutex>::compute(naming, procs);
  ASSERT_GT(g.size(), 1);
  explorer<anon_mutex>::options opt;
  opt.max_states = 2'000'000;
  opt.symmetry = true;
  explorer<anon_mutex> e(3, naming, procs, opt);
  const auto res = e.explore(two_in_cs);
  EXPECT_TRUE(res.complete);
  const canonicalize_stats& c = e.canonicalize_counters();
  const std::uint64_t total =
      c.full_applies + c.first_word_pruned + c.prefix_pruned;
  EXPECT_GT(total, 0u);
  EXPECT_EQ(total % static_cast<std::uint64_t>(g.size() - 1), 0u);
}

}  // namespace
}  // namespace anoncoord
