// The packed-word canonicalization kernel (modelcheck/symmetry.hpp,
// packed_canonicalizer): differential evidence that the interned-id
// gather + rank-row compare is a drop-in replacement for the brute-force
// object-domain symmetry_group::orbit_min.
//
// Pinned here:
//   * kernel vs object bit-identity — canonical image AND canonicalizing
//     element index (the sigma-chain tie-break) — through canonicalize_row,
//     the entry point the explorer calls, over every stored state of small
//     configurations: anon_mutex (the process-symmetric regime, per-element
//     value memos) and fa_mutex (the fully anonymous regime, shift-keyed
//     machine memos) up to n = 4, under identity, globally relabeled
//     identity and rotation namings — so both the class-sorting path (full
//     prefix classes) and the element scan (everything else) run;
//   * rank-snapshot order-isomorphism under churn — ids interned AFTER the
//     last snapshot rebuild must flow through the object-domain fallback
//     and keep the compare exact, so the differential also runs with a
//     deliberately stale snapshot (one early rebuild, then none);
//   * candidate accounting — each canonicalization ticks exactly one
//     counter per prefix class when the kernel sorts, and one per
//     non-identity element when it scans (full apply, first-word prune or
//     longest-common-prefix prune), and through the engine the counters
//     sum to that per edge.
// Worker-count bit-identity, which exercises the shared memo tables from
// several threads, is pinned in batched_pipeline_test.cpp; verdicts,
// counts and schedules against the reference oracle in
// reference_oracle_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>
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

const explorer<anon_mutex>::state_predicate two_in_cs =
    mutex_spec<anon_mutex>().safety.front().is_bad;

const explorer<fa_mutex>::state_predicate fa_two_in_cs =
    mutex_spec<fa_mutex>().safety.front().is_bad;

// ---------------------------------------------------------------------------
// Kernel vs object-domain differential.
// ---------------------------------------------------------------------------

/// Counter ticks per canonicalize_row call: one per prefix class when the
/// kernel sorts, one per non-identity element when it scans.
template <class Machine>
std::uint64_t candidates_per_row(const packed_canonicalizer<Machine>& pk,
                                 const symmetry_group<Machine>& g) {
  return pk.sorts_classes() ? pk.num_classes()
                            : static_cast<std::uint64_t>(g.size() - 1);
}

std::uint64_t tally(const canonicalize_stats& c) {
  return c.full_applies + c.first_word_pruned + c.prefix_pruned;
}

/// Explore unreduced, then canonicalize every stored state through both
/// paths and demand identical images and element indices. `refresh_each`
/// rebuilds the rank snapshots before every row (full coverage, the
/// rank-speed compare); otherwise only one early rebuild happens and later
/// rows hit ids the snapshot has never seen — the object-domain fallback —
/// which must not change a single answer. `sorts` is whether the kernel
/// should take the class-sorting path for this group.
template <class Machine, class Pred>
void expect_kernel_bit_identical(int m, const naming_assignment& naming,
                                 const std::vector<Machine>& initial,
                                 const Pred& pred, bool refresh_each,
                                 bool sorts) {
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
  ASSERT_EQ(pk.sorts_classes(), sorts);
  packed_canonical_scratch pks;
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
    const int oelem = g.orbit_min(oregs, oprocs, &ostats);

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
    // Exactly one counter ticks per (state, candidate); orbit_min applies
    // every non-identity element in full and prunes nothing.
    EXPECT_EQ(tally(pstats), res.num_states * candidates_per_row(pk, g));
    EXPECT_EQ(ostats.full_applies,
              res.num_states * static_cast<std::uint64_t>(g.size() - 1));
    EXPECT_EQ(ostats.first_word_pruned + ostats.prefix_pruned, 0u);
    if (!refresh_each && res.num_states > 1) {
      EXPECT_TRUE(went_stale) << "stale-snapshot variant never went stale";
    }
  }
}

/// Identity naming with every register relabeled by one global permutation
/// (the shape perfbench's seeded fa-sym runs): the group is still the full
/// S_n x C_m, conjugated.
naming_assignment relabeled_identity(int n, int m) {
  permutation pi(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j)  // a reflection: no rotation once m >= 3
    pi[static_cast<std::size_t>(j)] = m - 1 - j;
  return apply_global_permutation(identity_naming(n, m), pi);
}

/// The fully anonymous configurations of both differentials: identity and
/// relabeled identity sort prefix classes, rotations fall back to the scan.
void expect_fa_kernel_bit_identical(int n, int m, bool refresh_each) {
  const auto procs = fa_machines(m, n);
  expect_kernel_bit_identical(m, identity_naming(n, m), procs, fa_two_in_cs,
                              refresh_each, /*sorts=*/true);
  expect_kernel_bit_identical(m, relabeled_identity(n, m), procs,
                              fa_two_in_cs, refresh_each, /*sorts=*/true);
  expect_kernel_bit_identical(m, naming_assignment::rotations(n, m, 1), procs,
                              fa_two_in_cs, refresh_each, /*sorts=*/false);
}

TEST(PackedCanonicalizationTest, KernelBitIdenticalExhaustiveSmallOrbits) {
  for (int n : {2, 3})
    for (int m : {2, 3}) {
      expect_kernel_bit_identical(m, identity_naming(n, m), machines(m, n),
                                  two_in_cs, /*refresh_each=*/true,
                                  /*sorts=*/false);
      expect_kernel_bit_identical(m, naming_assignment::rotations(n, m, 1),
                                  machines(m, n), two_in_cs,
                                  /*refresh_each=*/true, /*sorts=*/false);
    }
  for (int n : {2, 3, 4})
    for (int m : {2, 3}) expect_fa_kernel_bit_identical(n, m, true);
}

TEST(PackedCanonicalizationTest, StaleSnapshotsFallBackToObjectOrder) {
  // One rank rebuild right after the initial state, then thousands of ids
  // interned behind the snapshot's back: every row now mixes ranked and
  // unranked ids, and the kernel must still match the object path on all
  // of them (the fallback IS the object order, so this pins the
  // order-isomorphism claim at its seam).
  for (int n : {2, 3})
    expect_kernel_bit_identical(3, identity_naming(n, 3), machines(3, n),
                                two_in_cs, /*refresh_each=*/false,
                                /*sorts=*/false);
  for (int n : {2, 3, 4}) expect_fa_kernel_bit_identical(n, 3, false);
}

TEST(PackedCanonicalizationTest, MemoLookupPastDirectoryIsUnset) {
  // Pool ids reach 2^27 (8 shards of 2^24 locals), beyond the memo's
  // 4,096-segment directory: a lookup there must report a miss rather
  // than read past the directory, so the store that follows is rejected.
  id_memo_table memo;
  const std::uint32_t past = std::uint32_t{1} << 24;
  EXPECT_EQ(memo.lookup(past), id_memo_table::kUnset);
  EXPECT_EQ(memo.lookup(~std::uint32_t{0}), id_memo_table::kUnset);
  EXPECT_THROW(memo.store(past, 7), precondition_error);
  memo.store(past - 1, 7);
  EXPECT_EQ(memo.lookup(past - 1), 7u);
}

TEST(PackedCanonicalizationTest, EngineCountersAccountForEveryCandidate) {
  // Through the engine every successor is canonicalized once by the kernel,
  // so the three counters sum to edges * (|G| - 1) where it scans elements
  // and to edges * (class count) where it sorts prefix classes — plus
  // |G| - 1 for the initial state, which the object domain canonicalizes.
  const auto expect_tally = [](const auto& naming, const auto& procs,
                               const auto& bad, int m, bool sorts) {
    using machine = typename std::decay_t<decltype(procs)>::value_type;
    const auto g = symmetry_group<machine>::compute(naming, procs);
    ASSERT_GT(g.size(), 1);
    state_pool<machine> pool;
    packed_canonicalizer<machine> pk;
    pk.attach(&g, &pool, m, static_cast<int>(procs.size()));
    ASSERT_EQ(pk.sorts_classes(), sorts);
    typename explorer<machine>::options opt;
    opt.max_states = 2'000'000;
    opt.symmetry = true;
    explorer<machine> e(m, naming, procs, opt);
    const auto res = e.explore(bad);
    EXPECT_TRUE(res.complete);
    EXPECT_GT(res.num_edges, 0u);
    EXPECT_EQ(tally(e.canonicalize_counters()),
              res.num_edges * candidates_per_row(pk, g) +
                  static_cast<std::uint64_t>(g.size() - 1));
  };
  expect_tally(identity_naming(2, 3), machines(3, 2), two_in_cs, 3, false);
  expect_tally(identity_naming(3, 3), fa_machines(3, 3), fa_two_in_cs, 3,
               true);
  expect_tally(naming_assignment::rotations(3, 3, 1), fa_machines(3, 3),
               fa_two_in_cs, 3, false);
}

}  // namespace
}  // namespace anoncoord
