// Symmetry reduction: the automorphism group, orbit canonicalization, the
// interned compact state store and naming-orbit sweeps.
//
// The load-bearing claims, each machine-checked here:
//   * the computed group really is the configuration's automorphism group
//     (sizes match the predicted n!-bound cases; non-symmetric machine types
//     and duplicate ids degrade to the trivial group, never to wrongness);
//   * canonicalization is a projection onto orbit representatives, and the
//     returned element maps the original state to its canonical form;
//   * reduced exploration preserves verdicts and shrinks the stored set by
//     at most |G| (quotient bound), with counterexamples that REPLAY to
//     genuine violations on the raw semantics;
//   * the explorer stays bit-identical to its one-worker run under
//     reduction for every worker count;
//   * conjugate naming assignments (the m!-fold register anonymity) give
//     identical verdicts — checked exhaustively for small m — so sweeping
//     orbit representatives decides the full sweep;
//   * the Theorem 3.1/3.4 regressions keep their verdicts under reduction
//     and the golden counterexample schedules stay valid.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "core/anon_mutex.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/state_pool.hpp"
#include "modelcheck/symmetry.hpp"
#include "modelcheck/verify.hpp"
#include "runtime/schedule.hpp"
#include "runtime/simulator.hpp"
#include "runtime/trace_io.hpp"
#include "util/math.hpp"
#include "util/permutation.hpp"

#ifndef ANONCOORD_TEST_DATA_DIR
#define ANONCOORD_TEST_DATA_DIR "tests/data"
#endif

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

/// A deliberately NON-symmetric machine: it reads a fixed physical register
/// through a behaviour that depends on the numeric value of its id (not just
/// equality), and provides no canonical_less. The engines must give it the
/// trivial group, making options.symmetry a no-op rather than unsound.
struct race_machine {
  using value_type = process_id;

  process_id my_id;
  int phase = 0;  // 0: write id to logical 0; 1: read it back; 2: done
  process_id seen = no_process;

  explicit race_machine(process_id id) : my_id(id) {}

  op_desc peek() const {
    if (phase == 0) return {op_kind::write, 0};
    if (phase == 1) return {op_kind::read, 0};
    return {op_kind::none, -1};
  }

  template <class Mem>
  void step(Mem& mem) {
    if (phase == 0) {
      mem.write(0, my_id);
      phase = 1;
    } else if (phase == 1) {
      seen = mem.read(0);
      phase = 2;
    }
  }

  friend bool operator==(const race_machine& a, const race_machine& b) {
    return a.my_id == b.my_id && a.phase == b.phase && a.seen == b.seen;
  }

  std::size_t hash() const {
    std::size_t seed = 0xace;
    hash_combine(seed, my_id);
    hash_combine(seed, phase);
    hash_combine(seed, seen);
    return seed;
  }
};

static_assert(process_symmetric_machine<anon_mutex>);
static_assert(!process_symmetric_machine<race_machine>);

/// Both racers read back their own write: only schedules where each write
/// is immediately followed by its own read — a genuine shallow race.
bool both_won(const std::vector<process_id>&,
              const std::vector<race_machine>& procs) {
  int winners = 0;
  for (const auto& p : procs)
    if (p.phase == 2 && p.seen == p.my_id) ++winners;
  return winners >= 2;
}

// ---------------------------------------------------------------------------
// Group computation.
// ---------------------------------------------------------------------------

TEST(SymmetryGroupTest, IdentityNamingGivesFullSymmetricGroup) {
  const auto g2 = symmetry_group<anon_mutex>::compute(identity_naming(2, 5),
                                                      machines(5, 2));
  EXPECT_EQ(g2.size(), 2);
  const auto g3 = symmetry_group<anon_mutex>::compute(identity_naming(3, 3),
                                                      machines(3, 3));
  EXPECT_EQ(g3.size(), 6);
  EXPECT_FALSE(g3.is_trivial());
}

TEST(SymmetryGroupTest, RotationRingGroupsMatchTheory) {
  // {id, rot m/2} on even m: the swap is an automorphism (group 2); odd-m
  // strides admit no non-trivial automorphism; l equidistant processes on
  // the m-ring form the cyclic group C_l.
  const auto even = symmetry_group<anon_mutex>::compute(
      naming_assignment({identity_permutation(4), rotation_permutation(4, 2)}),
      machines(4, 2));
  EXPECT_EQ(even.size(), 2);
  const auto odd = symmetry_group<anon_mutex>::compute(
      naming_assignment({identity_permutation(5), rotation_permutation(5, 2)}),
      machines(5, 2));
  EXPECT_EQ(odd.size(), 1);
  EXPECT_TRUE(odd.is_trivial());
  const auto ring = symmetry_group<anon_mutex>::compute(
      naming_assignment::rotations(3, 6, 2), machines(6, 3));
  EXPECT_EQ(ring.size(), 3);
}

TEST(SymmetryGroupTest, DuplicateIdsDegradeToTrivial) {
  std::vector<anon_mutex> procs{anon_mutex(7, 3), anon_mutex(7, 3)};
  const auto g =
      symmetry_group<anon_mutex>::compute(identity_naming(2, 3), procs);
  EXPECT_TRUE(g.is_trivial());
}

TEST(SymmetryGroupTest, NonSymmetricMachineTypeGetsTrivialGroup) {
  std::vector<race_machine> procs{race_machine(1), race_machine(2)};
  const auto g =
      symmetry_group<race_machine>::compute(identity_naming(2, 2), procs);
  EXPECT_TRUE(g.is_trivial());
}

// ---------------------------------------------------------------------------
// Canonicalization.
// ---------------------------------------------------------------------------

TEST(CanonicalizeTest, ProjectsOrbitsAndReportsMappingElement) {
  const auto naming = identity_naming(2, 3);
  const auto g = symmetry_group<anon_mutex>::compute(naming, machines(3, 2));
  ASSERT_EQ(g.size(), 2);
  canonical_scratch<anon_mutex> cs;

  // Walk a few steps to get past the (fixed-point) initial state.
  std::vector<process_id> regs(3, no_process);
  auto procs = machines(3, 2);
  for (int p : {0, 0, 1, 0, 1, 1, 0}) {
    permuted_vector_memory<process_id> view(regs, naming.of(p));
    procs[static_cast<std::size_t>(p)].step(view);
  }

  auto canon_regs = regs;
  auto canon_procs = procs;
  const int elem = g.canonicalize(canon_regs, canon_procs, cs);

  // The reported element maps the original tuple to the canonical one.
  std::vector<process_id> mapped_regs;
  std::vector<anon_mutex> mapped_procs;
  g.apply(g.at(elem), regs, procs, mapped_regs, mapped_procs);
  EXPECT_EQ(mapped_regs, canon_regs);
  EXPECT_EQ(mapped_procs, canon_procs);

  // Idempotent, and constant across the whole orbit.
  for (int ei = 0; ei < g.size(); ++ei) {
    std::vector<process_id> alt_regs;
    std::vector<anon_mutex> alt_procs;
    g.apply(g.at(ei), regs, procs, alt_regs, alt_procs);
    g.canonicalize(alt_regs, alt_procs, cs);
    EXPECT_EQ(alt_regs, canon_regs) << "element " << ei;
    EXPECT_EQ(alt_procs, canon_procs) << "element " << ei;
  }
}

/// Brute-force reference canonicalizer: apply EVERY group element and keep
/// the lexicographic minimum, ascending scan with strict-less swap — the
/// exact discipline canonicalize() used before the first-word fast path.
/// The differential test below pins the fast path to this bit-for-bit,
/// including the returned element index (the tie-break).
template <class Machine>
int reference_canonicalize(const symmetry_group<Machine>& g,
                           std::vector<typename Machine::value_type>& regs,
                           std::vector<Machine>& procs) {
  const auto lex_less = [](const std::vector<typename Machine::value_type>& ar,
                           const std::vector<Machine>& ap,
                           const std::vector<typename Machine::value_type>& br,
                           const std::vector<Machine>& bp) {
    for (std::size_t i = 0; i < ar.size(); ++i) {
      if (ar[i] < br[i]) return true;
      if (br[i] < ar[i]) return false;
    }
    for (std::size_t i = 0; i < ap.size(); ++i) {
      if (canonical_less(ap[i], bp[i])) return true;
      if (canonical_less(bp[i], ap[i])) return false;
    }
    return false;
  };
  const auto orig_regs = regs;
  const auto orig_procs = procs;
  std::vector<typename Machine::value_type> tmp_regs;
  std::vector<Machine> tmp_procs;
  int best = 0;
  for (int ei = 1; ei < g.size(); ++ei) {
    g.apply(g.at(ei), orig_regs, orig_procs, tmp_regs, tmp_procs);
    if (lex_less(tmp_regs, tmp_procs, regs, procs)) {
      regs.swap(tmp_regs);
      procs.swap(tmp_procs);
      best = ei;
    }
  }
  return best;
}

/// Explore (unreduced) and check every reachable stored state.
template <class Machine, class Pred>
void expect_fast_path_bit_identical(int m, const naming_assignment& naming,
                                    const std::vector<Machine>& initial,
                                    const Pred& pred) {
  const auto g = symmetry_group<Machine>::compute(naming, initial);
  typename explorer<Machine>::options opt;
  opt.max_states = 30'000;  // plenty of orbit coverage even when capped
  explorer<Machine> e(m, naming, initial, opt);
  const auto res = e.explore(pred);
  canonical_scratch<Machine> cs;
  for (std::uint64_t i = 0; i < res.num_states; ++i) {
    const auto s = e.state(i);
    auto fast_regs = s.regs;
    auto fast_procs = s.procs;
    const int fast_elem = g.canonicalize(fast_regs, fast_procs, cs);
    auto ref_regs = s.regs;
    auto ref_procs = s.procs;
    const int ref_elem = reference_canonicalize(g, ref_regs, ref_procs);
    ASSERT_EQ(fast_elem, ref_elem) << "state " << i;
    ASSERT_EQ(fast_regs, ref_regs) << "state " << i;
    ASSERT_TRUE(fast_procs == ref_procs) << "state " << i;
  }
}

TEST(CanonicalizeTest, FastPathBitIdenticalExhaustiveSmallOrbits) {
  // Process-symmetric regime (groups up to n!) and the fully anonymous
  // product regime (groups up to n!*m), exhaustively for n <= 3 x m <= 3
  // under identity naming (the largest groups) plus a rotation naming.
  for (int n : {2, 3})
    for (int m : {2, 3}) {
      expect_fast_path_bit_identical(m, identity_naming(n, m), machines(m, n),
                                     two_in_cs);
      expect_fast_path_bit_identical(
          m, naming_assignment::rotations(n, m, 1), machines(m, n),
          two_in_cs);
      std::vector<fa_mutex> fa(static_cast<std::size_t>(n), fa_mutex(m));
      const auto fa_pred = [](const global_state<fa_mutex>& s) {
        int c = 0;
        for (const auto& p : s.procs)
          if (p.in_critical_section()) ++c;
        return c >= 2;
      };
      expect_fast_path_bit_identical(m, identity_naming(n, m), fa, fa_pred);
      expect_fast_path_bit_identical(m, naming_assignment::rotations(n, m, 1),
                                     fa, fa_pred);
    }
}

// ---------------------------------------------------------------------------
// Reduced vs unreduced exploration (the property test).
// ---------------------------------------------------------------------------

struct reduction_case {
  int m;
  int n;
  int stride;  // -1 = identity naming for all processes
};

class SymmetryReductionProperty
    : public ::testing::TestWithParam<reduction_case> {};

TEST_P(SymmetryReductionProperty, QuotientPreservesVerdictsAndBounds) {
  const auto [m, n, stride] = GetParam();
  naming_assignment naming =
      stride < 0 ? identity_naming(n, m)
                 : naming_assignment::rotations(n, m, stride);
  const auto procs = machines(m, n);
  const auto group = symmetry_group<anon_mutex>::compute(naming, procs);

  explorer<anon_mutex>::options opt;
  opt.max_states = 2'000'000;
  explorer<anon_mutex> raw(m, naming, procs, opt);
  const auto r = raw.explore(two_in_cs);
  opt.symmetry = true;
  explorer<anon_mutex> red(m, naming, procs, opt);
  const auto q = red.explore(two_in_cs);

  EXPECT_EQ(q.safety_violated(), r.safety_violated());
  EXPECT_EQ(q.complete, r.complete);
  EXPECT_LE(q.num_states, r.num_states);
  if (r.complete && !r.safety_violated()) {
    // Quotient bound: each canonical state stands for at most |G| raw ones.
    EXPECT_LE(r.num_states,
              q.num_states * static_cast<std::uint64_t>(group.size()));
  }
  if (group.is_trivial()) {
    EXPECT_EQ(q.num_states, r.num_states);
    EXPECT_EQ(q.dedup_hits, r.dedup_hits);
  }
  if (r.safety_violated()) {
    // Counterexamples must replay to genuine violations on RAW semantics.
    EXPECT_EQ(q.bad_schedule.size(), r.bad_schedule.size());
    std::vector<process_id> regs(static_cast<std::size_t>(m), no_process);
    auto replay = procs;
    for (int p : q.bad_schedule) {
      permuted_vector_memory<process_id> view(regs, naming.of(p));
      replay[static_cast<std::size_t>(p)].step(view);
    }
    EXPECT_TRUE(two_in_cs({regs, replay}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SymmetryReductionProperty,
    ::testing::Values(reduction_case{3, 2, -1},   // group 2, clean
                      reduction_case{5, 2, -1},   // group 2, clean, larger
                      reduction_case{2, 3, -1},   // group 6, ME violation
                      reduction_case{4, 2, 2},    // group 2, Thm 3.1 deadlock
                      reduction_case{5, 2, 2},    // trivial group
                      reduction_case{3, 2, 1}));  // trivial group

TEST(SymmetryReductionTest, MeasuredReductionFactorsHold) {
  // n = 2, identity naming: |G| = 2 and almost no fixed points, so the
  // stored set halves (2.0x measured). n = 3 on two registers: |G| = 6
  // gives 5.53x to the (violating) verdict. The n! ceiling is the honest
  // limit of sound in-exploration reduction — see docs/modelcheck.md.
  explorer<anon_mutex>::options opt;
  explorer<anon_mutex> raw5(5, identity_naming(2, 5), machines(5, 2), opt);
  const auto r5 = raw5.explore(two_in_cs);
  opt.symmetry = true;
  explorer<anon_mutex> red5(5, identity_naming(2, 5), machines(5, 2), opt);
  const auto q5 = red5.explore(two_in_cs);
  ASSERT_TRUE(r5.complete && q5.complete);
  EXPECT_EQ(r5.num_states, 371'618u);
  EXPECT_EQ(q5.num_states, 185'812u);
  EXPECT_EQ(raw5.pool().storage_bytes(), 2'195'456u);

  opt.symmetry = false;
  explorer<anon_mutex> raw2(2, identity_naming(3, 2), machines(2, 3), opt);
  const auto r2 = raw2.explore(two_in_cs);
  opt.symmetry = true;
  explorer<anon_mutex> red2(2, identity_naming(3, 2), machines(2, 3), opt);
  const auto q2 = red2.explore(two_in_cs);
  ASSERT_TRUE(r2.safety_violated() && q2.safety_violated());
  EXPECT_EQ(r2.bad_schedule.size(), q2.bad_schedule.size());
  EXPECT_EQ(r2.num_states, 198'343u);
  EXPECT_EQ(q2.num_states, 35'873u);
  EXPECT_EQ(raw2.pool().storage_bytes(), 2'228'224u);
}

TEST(SymmetryReductionTest, NonSymmetricMachineSymmetryFlagIsNoOp) {
  const auto naming = identity_naming(2, 2);
  std::vector<race_machine> procs{race_machine(1), race_machine(2)};
  const auto pred = [](const global_state<race_machine>& s) {
    return both_won(s.regs, s.procs);
  };
  explorer<race_machine>::options opt;
  explorer<race_machine> raw(2, naming, procs, opt);
  const auto r = raw.explore(pred);
  opt.symmetry = true;
  explorer<race_machine> red(2, naming, procs, opt);
  const auto q = red.explore(pred);
  EXPECT_EQ(q.num_states, r.num_states);
  EXPECT_EQ(q.safety_violated(), r.safety_violated());
  EXPECT_EQ(q.bad_schedule, r.bad_schedule);
  EXPECT_TRUE(r.safety_violated());  // the race is real
}

TEST(SymmetryReductionTest, ParallelEngineBitIdenticalUnderReduction) {
  struct config {
    int m;
    int n;
  };
  for (const config c : {config{5, 2}, config{2, 3}}) {
    const auto naming = identity_naming(c.n, c.m);
    const auto procs = machines(c.m, c.n);
    explorer<anon_mutex>::options so;
    so.symmetry = true;
    explorer<anon_mutex> seq(c.m, naming, procs, so);
    const auto rs = seq.explore(two_in_cs);
    for (int workers : {1, 2, 4}) {
      explorer<anon_mutex>::options po;
      po.workers = workers;
      po.symmetry = true;
      explorer<anon_mutex> par(c.m, naming, procs, po);
      const auto rp = par.explore(two_in_cs);
      EXPECT_EQ(rp.safety_violated(), rs.safety_violated());
      EXPECT_EQ(rp.bad_schedule, rs.bad_schedule);
      EXPECT_TRUE(rp.bad_state == rs.bad_state);
      // Violating runs too: every worker count stores the one-worker
      // discovery order.
      ASSERT_EQ(rp.num_states, rs.num_states);
      EXPECT_EQ(rp.dedup_hits, rs.dedup_hits);
      for (std::uint64_t i = 0; i < rs.num_states; i += 101)
        ASSERT_TRUE(par.state(i) == seq.state(i)) << "state " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Theorem 3.1 / 3.4 regressions re-run under reduction.
// ---------------------------------------------------------------------------

TEST(SymmetryRegression, Theorem31VerdictsSurviveReduction) {
  // Odd m: clean for every stride. Even m at stride m/2: deadlock, with the
  // stuck counterexample found at the same BFS depth as the raw engine's.
  for (int m : {3, 5})
    for (int stride = 0; stride < m; ++stride) {
      naming_assignment naming(
          {identity_permutation(m), rotation_permutation(m, stride)});
      const auto res = check_anon_mutex(m, naming, {1, 2}, 5'000'000,
                                        /*symmetry=*/true);
      EXPECT_TRUE(res.ok()) << "m=" << m << " stride=" << stride << ": "
                            << res.verdict();
    }
  for (int m : {2, 4}) {
    naming_assignment naming(
        {identity_permutation(m), rotation_permutation(m, m / 2)});
    const auto raw = check_anon_mutex(m, naming, {1, 2});
    const auto red = check_anon_mutex(m, naming, {1, 2}, 2'000'000,
                                      /*symmetry=*/true);
    EXPECT_EQ(red.verdict(), raw.verdict());
    EXPECT_EQ(red.verdict(), "DEADLOCK");
    EXPECT_EQ(red.counterexample.size(), raw.counterexample.size());

    // The reduced engine's counterexample must be a genuine deadlock on the
    // raw semantics: replay it, then let each process run solo.
    std::vector<anon_mutex> ms = machines(m, 2);
    simulator<anon_mutex> sim(m, naming, std::move(ms));
    scripted_schedule script(red.counterexample);
    const auto run = sim.run(script, 1'000'000, {});
    EXPECT_EQ(run.steps, red.counterexample.size());
    for (int p = 0; p < 2; ++p) {
      sim.run_solo(p, 20'000, [](const anon_mutex& mc) {
        return mc.in_critical_section();
      });
      EXPECT_FALSE(sim.machine(p).in_critical_section())
          << "m=" << m << ": process " << p << " escaped";
    }
  }
}

TEST(SymmetryRegression, Theorem34GoldenWitnessAndRingGroup) {
  // The C_3 ring symmetry is exactly what Theorem 3.4 exploits; the golden
  // lock-step witness stays a valid no-CS run, and a bounded reduced
  // exploration of the same configuration stays violation-free.
  const int m = 6, l = 3;
  const auto naming = naming_assignment::rotations(l, m, m / l);
  EXPECT_EQ(symmetry_group<anon_mutex>::compute(naming, machines(m, l)).size(),
            l);

  const std::vector<int> schedule = load_schedule_file(
      std::string(ANONCOORD_TEST_DATA_DIR) + "/thm34_m6_l3_lockstep.sched");
  ASSERT_FALSE(schedule.empty());
  std::vector<anon_mutex> ms = machines(m, l);
  simulator<anon_mutex> sim(m, naming, std::move(ms));
  scripted_schedule script(schedule);
  const auto run = sim.run(script, schedule.size() + 1, {});
  EXPECT_EQ(run.steps, schedule.size());
  for (int p = 0; p < l; ++p)
    EXPECT_EQ(sim.machine(p).cs_entries(), 0u);

  explorer<anon_mutex>::options opt;
  opt.max_states = 50'000;
  opt.symmetry = true;
  explorer<anon_mutex> red(m, naming, machines(m, l), opt);
  const auto res = red.explore(two_in_cs);
  EXPECT_FALSE(res.safety_violated());
  EXPECT_FALSE(res.complete);  // the full space is far larger than the cap
}

// ---------------------------------------------------------------------------
// Naming orbits: the m!-fold config-level reduction.
// ---------------------------------------------------------------------------

TEST(NamingOrbitTest, OrbitSizeIsFactorial) {
  EXPECT_EQ(naming_orbit_size(3), 6u);
  EXPECT_EQ(naming_orbit_size(5), 120u);
  EXPECT_EQ(factorial(10), 3'628'800u);
}

TEST(NamingOrbitTest, RepresentativesPartitionTheFullSweep) {
  const int n = 2, m = 3;
  const auto all = all_naming_assignments(n, m);
  const auto reps = naming_orbit_representatives(n, m);
  EXPECT_EQ(all.size(), 36u);   // (3!)^2
  EXPECT_EQ(reps.size(), 6u);   // (3!)^1
  for (const auto& rep : reps) {
    EXPECT_EQ(rep.of(0), identity_permutation(m));
    EXPECT_EQ(canonical_naming(rep), rep);  // reps are already canonical
  }
  // Every assignment canonicalizes to a representative, each orbit has
  // exactly m! members, and canonical_naming is orbit-invariant.
  std::vector<int> orbit_count(reps.size(), 0);
  for (const auto& naming : all) {
    const auto canon = canonical_naming(naming);
    bool found = false;
    for (std::size_t i = 0; i < reps.size(); ++i)
      if (canon == reps[i]) {
        ++orbit_count[i];
        found = true;
        break;
      }
    EXPECT_TRUE(found);
    for (const auto& pi : all_permutations(m))
      EXPECT_EQ(canonical_naming(apply_global_permutation(naming, pi)), canon);
  }
  for (int c : orbit_count) EXPECT_EQ(c, 6);
}

TEST(NamingOrbitTest, MachineCheckedOrbitEquivalence) {
  // The proof obligation behind sweeping representatives: every naming gets
  // the same verdict (and state/edge counts — the execution graphs are
  // isomorphic) as its canonical form. Exhaustive over all 36 assignments
  // for n = 2, m = 3, and over all 8 (violating) ones for n = 3, m = 2.
  for (const auto& naming : all_naming_assignments(2, 3)) {
    const auto a = check_anon_mutex(3, naming, {1, 2});
    const auto b = check_anon_mutex(3, canonical_naming(naming), {1, 2});
    EXPECT_EQ(a.verdict(), b.verdict());
    EXPECT_EQ(a.num_states, b.num_states);
    EXPECT_EQ(a.stuck_states, b.stuck_states);
  }
  for (const auto& naming : all_naming_assignments(3, 2)) {
    const auto a = check_anon_mutex(2, naming, {1, 2, 3});
    const auto b = check_anon_mutex(2, canonical_naming(naming), {1, 2, 3});
    EXPECT_EQ(a.verdict(), b.verdict());
    EXPECT_EQ(a.num_states, b.num_states);
  }
}

TEST(NamingOrbitTest, SweepOverRepresentativesDecidesFullSweep) {
  const config_predicate<anon_mutex> pred =
      [](const std::vector<process_id>&, const std::vector<anon_mutex>& ps) {
        int c = 0;
        for (const auto& p : ps) c += p.in_critical_section() ? 1 : 0;
        return c >= 2;
      };
  verify_options opt;
  opt.max_states = 500'000;
  const auto full = verify_naming_sweep(2, machines(2, 3), pred, false, opt);
  const auto orbit = verify_naming_sweep(2, machines(2, 3), pred, true, opt);
  EXPECT_EQ(full.configs, 8u);   // (2!)^3
  EXPECT_EQ(orbit.configs, 4u);  // (2!)^2
  EXPECT_EQ(full.incomplete, 0u);
  EXPECT_EQ(orbit.incomplete, 0u);
  // Free action: each orbit contributes exactly m! = 2 identical verdicts.
  EXPECT_EQ(full.violated, orbit.violated * naming_orbit_size(2));
  EXPECT_GT(orbit.violated, 0u);  // three racers on two registers break ME
}

TEST(NamingOrbitTest, OrbitSizeOverflowGuard) {
  EXPECT_EQ(naming_orbit_size(20), 2'432'902'008'176'640'000ull);
  EXPECT_THROW(naming_orbit_size(21), precondition_error);
  EXPECT_THROW(naming_orbit_representatives(2, 21), precondition_error);
}

TEST(NamingOrbitTest, CycleKeyIsInjectiveAndCycleStructured) {
  // Fixed points come out as unit cycles in ascending index order.
  EXPECT_EQ(canonical_cycle_key(identity_permutation(4)),
            (std::vector<int>{1, 0, 1, 1, 1, 2, 1, 3}));
  // A full rotation is one cycle, minimally rotated to start at 0.
  EXPECT_EQ(canonical_cycle_key(rotation_permutation(4, 1)),
            (std::vector<int>{4, 0, 1, 2, 3}));
  // Longest cycle first: the transposition (0 1) precedes the fixed points.
  EXPECT_EQ(canonical_cycle_key(permutation{1, 0, 2, 3}),
            (std::vector<int>{2, 0, 1, 1, 2, 1, 3}));
  // The key determines the permutation.
  std::set<std::vector<int>> keys;
  for (const auto& p : all_permutations(4))
    keys.insert(canonical_cycle_key(p));
  EXPECT_EQ(keys.size(), 24u);
}

TEST(NamingOrbitTest, SymmetricCanonicalIsInvariantUnderBothActions) {
  // n = 2, m = 3: the combined action is global register relabeling times
  // process reordering; the canonical form must be constant on each orbit
  // and a fixed point of its own canonicalization.
  for (const auto& naming : all_naming_assignments(2, 3)) {
    const auto canon = canonical_naming_symmetric(naming);
    EXPECT_EQ(canon.of(0), identity_permutation(3));
    EXPECT_EQ(canonical_naming_symmetric(canon), canon);
    for (const auto& pi : all_permutations(3))
      EXPECT_EQ(canonical_naming_symmetric(apply_global_permutation(naming,
                                                                    pi)),
                canon);
    const naming_assignment swapped({naming.of(1), naming.of(0)});
    EXPECT_EQ(canonical_naming_symmetric(swapped), canon);
  }
}

TEST(NamingOrbitTest, ClassesRefineRepresentativesWithExactWeights) {
  // At n = 2 the class count is (m! + #involutions(m)) / 2 and the weights
  // must partition the m! orbit representatives.
  const struct {
    int m;
    std::size_t classes;
  } rows[] = {{2, 2}, {3, 5}, {4, 17}, {5, 73}, {6, 398}, {7, 2636}};
  for (const auto& row : rows) {
    const auto classes = naming_orbit_classes(2, row.m);
    EXPECT_EQ(classes.size(), row.classes) << "m=" << row.m;
    std::uint64_t total = 0;
    for (const auto& wc : classes) {
      EXPECT_EQ(wc.naming.of(0), identity_permutation(row.m));
      total += wc.weight;
    }
    EXPECT_EQ(total, naming_orbit_size(row.m)) << "m=" << row.m;
  }
  // n = 3, m = 3: weights partition the (m!)^2 = 36 representatives.
  const auto c33 = naming_orbit_classes(3, 3);
  EXPECT_EQ(c33.size(), 10u);
  std::uint64_t total = 0;
  for (const auto& wc : c33) total += wc.weight;
  EXPECT_EQ(total, 36u);
}

TEST(NamingOrbitTest, ProcessInterchangeableDetection) {
  EXPECT_TRUE(process_interchangeable_initial(machines(3, 2)));
  EXPECT_TRUE(process_interchangeable_initial(machines(2, 3)));
  std::vector<anon_mutex> dup;
  dup.emplace_back(static_cast<process_id>(1), 2);
  dup.emplace_back(static_cast<process_id>(1), 2);
  EXPECT_FALSE(process_interchangeable_initial(dup));
  // No canonical_less: not a process-symmetric machine, so never foldable.
  std::vector<race_machine> rm;
  rm.emplace_back(static_cast<process_id>(1));
  rm.emplace_back(static_cast<process_id>(2));
  EXPECT_FALSE(process_interchangeable_initial(rm));
}

TEST(NamingOrbitTest, WeightedClassSweepMatchesFullEnumeration) {
  const config_predicate<anon_mutex> pred =
      [](const std::vector<process_id>&, const std::vector<anon_mutex>& ps) {
        int c = 0;
        for (const auto& p : ps) c += p.in_critical_section() ? 1 : 0;
        return c >= 2;
      };
  verify_options opt;
  opt.max_states = 500'000;
  // n = 3 racers on m = 2 registers: mutual exclusion breaks for some
  // namings, so the weighted totals have something nontrivial to agree on.
  const auto full = verify_naming_sweep(2, machines(2, 3), pred, false, opt);
  const auto orbit = verify_naming_sweep(2, machines(2, 3), pred, true, opt);
  const auto quot =
      verify_naming_sweep(2, machines(2, 3), pred, true, opt, true);
  // With no reduction the weighted totals degenerate to the raw counters.
  EXPECT_EQ(full.full_configs, full.configs);
  EXPECT_EQ(full.full_violated, full.violated);
  // Orbit representatives: 4 reps x m! = the full 8 assignments.
  EXPECT_EQ(orbit.configs, 4u);
  EXPECT_EQ(orbit.full_configs, 8u);
  // Process quotient on top: 2 classes (all-identical tuple; the rest).
  EXPECT_EQ(quot.configs, 2u);
  EXPECT_EQ(quot.full_configs, 8u);
  EXPECT_EQ(quot.incomplete, 0u);
  // All three decide the same full sweep.
  EXPECT_GT(full.violated, 0u);
  EXPECT_EQ(orbit.full_violated, full.violated);
  EXPECT_EQ(quot.full_violated, full.violated);

  // m = 4, n = 2 spot check: 17 classes stand in for 24 representatives
  // and must report identical weighted totals.
  const auto orbit4 = verify_naming_sweep(4, machines(4, 2), pred, true, opt);
  const auto quot4 =
      verify_naming_sweep(4, machines(4, 2), pred, true, opt, true);
  EXPECT_EQ(orbit4.configs, 24u);
  EXPECT_EQ(quot4.configs, 17u);
  EXPECT_EQ(orbit4.full_configs, quot4.full_configs);
  EXPECT_EQ(orbit4.full_violated, quot4.full_violated);
  EXPECT_EQ(quot4.incomplete, 0u);
}

TEST(NamingOrbitTest, ProcessQuotientPreconditions) {
  const config_predicate<anon_mutex> pred =
      [](const std::vector<process_id>&, const std::vector<anon_mutex>&) {
        return false;
      };
  verify_options opt;
  opt.max_states = 1000;
  // The quotient refines the representative sweep; it cannot be combined
  // with full enumeration.
  EXPECT_THROW(
      verify_naming_sweep(2, machines(2, 2), pred, false, opt, true),
      precondition_error);
  // Duplicate ids make the tuple non-interchangeable.
  std::vector<anon_mutex> dup;
  dup.emplace_back(static_cast<process_id>(1), 2);
  dup.emplace_back(static_cast<process_id>(1), 2);
  EXPECT_THROW(verify_naming_sweep(2, dup, pred, true, opt, true),
               precondition_error);
}

// ---------------------------------------------------------------------------
// The interned compact store.
// ---------------------------------------------------------------------------

TEST(StatePoolTest, InternDedupsAndRoundTrips) {
  state_pool<anon_mutex> pool;
  const auto a = pool.intern_value(7);
  const auto b = pool.intern_value(9);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.intern_value(7), a);
  EXPECT_EQ(pool.value(a), 7u);
  EXPECT_EQ(pool.value(b), 9u);
  EXPECT_EQ(pool.num_values(), 2u);

  anon_mutex m1(1, 3), m2(2, 3);
  const auto i1 = pool.intern_machine(m1);
  const auto i2 = pool.intern_machine(m2);
  EXPECT_NE(i1, i2);
  EXPECT_EQ(pool.intern_machine(m1), i1);
  EXPECT_TRUE(pool.machine(i1) == m1);
  EXPECT_TRUE(pool.machine(i2) == m2);
  EXPECT_EQ(pool.num_machines(), 2u);
  EXPECT_GT(pool.storage_bytes(), 0u);

  pool.clear();
  EXPECT_EQ(pool.num_values(), 0u);
  EXPECT_EQ(pool.num_machines(), 0u);
}

TEST(StatePoolTest, ConcurrentInterningIsConsistent) {
  state_pool<anon_mutex> pool;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kValues = 5'000;  // overlapping ranges on purpose
  std::vector<std::vector<std::uint32_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::uint64_t v = 0; v < kValues; ++v)
        ids[static_cast<std::size_t>(t)].push_back(
            pool.intern_value(v + static_cast<std::uint64_t>(t) * 100));
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.num_values(), kValues + (kThreads - 1) * 100);
  for (int t = 0; t < kThreads; ++t)
    for (std::uint64_t v = 0; v < kValues; ++v)
      ASSERT_EQ(pool.value(ids[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(v)]),
                v + static_cast<std::uint64_t>(t) * 100);
}

TEST(StatePoolTest, ExplorerStoresFarFewerComponentsThanStates) {
  // The compaction claim: distinct components stay tiny while states grow.
  explorer<anon_mutex> e(5, identity_naming(2, 5), machines(5, 2));
  const auto res = e.explore(two_in_cs);
  ASSERT_TRUE(res.complete);
  const auto& pool = e.pool();
  EXPECT_GT(res.num_states, 100'000u);
  EXPECT_LE(pool.num_values(), 3u);  // 0 and the two ids
  EXPECT_LT(pool.num_machines(), res.num_states / 10);
  EXPECT_LT(pool.storage_bytes(), 10'000'000u);
}

// ---------------------------------------------------------------------------
// verify_config forwards the symmetry flag to the explorer.
// ---------------------------------------------------------------------------

TEST(SymmetryReductionTest, VerifyConfigWiresSymmetryThrough) {
  model_config<anon_mutex> cfg{2, identity_naming(3, 2), machines(2, 3)};
  const config_predicate<anon_mutex> pred =
      [](const std::vector<process_id>&, const std::vector<anon_mutex>& ps) {
        int c = 0;
        for (const auto& p : ps) c += p.in_critical_section() ? 1 : 0;
        return c >= 2;
      };
  verify_options opt;
  const auto raw = verify_config(cfg, pred, opt);
  opt.symmetry = true;
  const auto sym = verify_config(cfg, pred, opt);
  EXPECT_EQ(sym.violated, raw.violated);
  EXPECT_LT(sym.states, raw.states);
}

}  // namespace
}  // namespace anoncoord
