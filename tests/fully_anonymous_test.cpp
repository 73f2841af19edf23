// The fully anonymous workload family (arXiv 1909.05576) and the full
// S_n x C_m product symmetry quotient it unlocks.
//
// The load-bearing claims, each machine-checked here:
//   * fa_mutex keeps mutual exclusion unconditionally (token-count
//     invariant, checked on every reachable state) and is deadlock-free
//     exactly on the paper's boundary set M(n) — n = 2 deadlocks at even m,
//     n = 3 deadlocks at m = 4, and m = n = 3 livelocks in lockstep;
//   * fa_agreement is safe (agreement + validity) over the complete
//     interleaving space and obstruction-free: a solo suffix decides from
//     EVERY reachable state, not just the initial one;
//   * the computed product group really is a group of automorphisms:
//     closure, commutation phi(step_p(s)) = step_sigma(p)(phi(s)) on every
//     reachable state, and exhaustive orbit-collapse (every state's full
//     orbit canonicalizes to one key) at n = 2,3 x m = 2,3;
//   * reduced exploration preserves verdicts against raw and parallel
//     engines for every pair naming, with counterexamples that fold back
//     through BOTH group factors (sigma via the schedule, pi via replay) to
//     genuine violations on the raw semantics;
//   * the naming sweeps quotient by both factors for fully anonymous
//     machines (process_interchangeable_initial now admits them);
//   * the machines run under the threaded runtime with a real hardware CAS
//     (the conditional-write steps stay atomic off the model checker).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/anon_mutex.hpp"
#include "core/fa_agreement.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/fa_check.hpp"
#include "modelcheck/symmetry.hpp"
#include "modelcheck/verify.hpp"
#include "runtime/schedule.hpp"
#include "runtime/simulator.hpp"
#include "runtime/threaded.hpp"
#include "util/permutation.hpp"

namespace anoncoord {
namespace {

static_assert(fully_anonymous_machine<fa_mutex>);
static_assert(fully_anonymous_machine<fa_agreement>);
static_assert(!fully_anonymous_machine<anon_mutex>);  // carries an id
static_assert(!process_symmetric_machine<fa_mutex>);  // carries no id
static_assert(!process_symmetric_machine<fa_agreement>);
static_assert(symmetry_reducible_machine<fa_mutex>);
static_assert(symmetry_reducible_machine<anon_mutex>);

std::vector<fa_mutex> mutex_machines(int m, int n) {
  return std::vector<fa_mutex>(static_cast<std::size_t>(n), fa_mutex(m));
}

naming_assignment identity_naming(int n, int m) {
  return naming_assignment::identity(n, m);
}

/// All two-process namings with process 0 at the identity — fully general
/// up to relabeling, like check_anon_mutex_pair.
std::vector<naming_assignment> pair_namings(int m) {
  std::vector<naming_assignment> out;
  for (const auto& second : all_permutations(m))
    out.push_back(naming_assignment({identity_permutation(m), second}));
  return out;
}

int raised_count(const std::vector<std::uint64_t>& regs) {
  int c = 0;
  for (std::uint64_t v : regs) c += v == fa_mutex::token_up ? 1 : 0;
  return c;
}

int total_tokens(const std::vector<fa_mutex>& procs) {
  int c = 0;
  for (const auto& p : procs) c += p.tokens();
  return c;
}

// ---------------------------------------------------------------------------
// fa_mutex: the algorithm itself.
// ---------------------------------------------------------------------------

TEST(FaMutexTest, SoloOperationSequenceMatchesPseudocode) {
  // Lines 1-4: one internal step, then m grab-RMWs (all succeed solo) and
  // the win decision folded into the last one; exit mirrors with m
  // release-RMWs. The cursor wraps, never resets.
  const int m = 3;
  std::vector<std::uint64_t> regs(static_cast<std::size_t>(m), 0);
  vector_memory<std::uint64_t> mem(regs);
  fa_mutex p(m);

  EXPECT_EQ(p.peek(), (op_desc{op_kind::internal, -1}));
  p.step(mem);  // line 1
  for (int j = 0; j < m; ++j) {
    EXPECT_EQ(p.peek(), (op_desc{op_kind::write, j}));
    p.step(mem);  // line 3
  }
  EXPECT_TRUE(p.in_critical_section());
  EXPECT_EQ(p.tokens(), m);
  EXPECT_EQ(raised_count(regs), m);

  p.step(mem);  // leave the CS (line 11 -> 12)
  for (int j = 0; j < m; ++j) {
    EXPECT_EQ(p.peek(), (op_desc{op_kind::write, j}));
    p.step(mem);  // line 13
  }
  EXPECT_TRUE(p.in_remainder());
  EXPECT_EQ(p.tokens(), 0);
  EXPECT_EQ(raised_count(regs), 0);
  EXPECT_EQ(p.cs_entries(), 1u);
}

TEST(FaMutexTest, OddMIsCorrectForAllPairNamings) {
  // m in M(2) = odd m: mutual exclusion AND deadlock-freedom for every
  // naming — exhaustive over all pair namings at m = 3, identity at m = 5.
  for (const auto& naming : pair_namings(3)) {
    const auto res = check_fa_mutex(3, naming);
    EXPECT_TRUE(res.ok()) << res.verdict();
  }
  const auto res5 = check_fa_mutex(5, identity_naming(2, 5));
  EXPECT_TRUE(res5.ok()) << res5.verdict();
}

TEST(FaMutexTest, EvenMDeadlocksAtTwoProcesses) {
  // m not in M(2): the (m/2, m/2) token tie is reachable and recurrent —
  // both processes re-run grab passes forever with nothing free. Unlike
  // anon_mutex (where only the stride-m/2 ring deadlocks), the tie exists
  // under EVERY naming: there is no identifier to break it.
  for (const auto& naming : pair_namings(4)) {
    const auto res = check_fa_mutex(4, naming);
    EXPECT_EQ(res.verdict(), "DEADLOCK");
    ASSERT_FALSE(res.counterexample.empty());

    // The stuck schedule must reach a genuine deadlock on raw semantics:
    // replay it, then confirm no solo continuation enters the CS.
    simulator<fa_mutex> sim(4, naming, mutex_machines(4, 2));
    scripted_schedule script(res.counterexample);
    const auto run = sim.run(script, 1'000'000, {});
    EXPECT_EQ(run.steps, res.counterexample.size());
    EXPECT_EQ(sim.machine(0).tokens() + sim.machine(1).tokens(), 4);
    for (int p = 0; p < 2; ++p) {
      sim.run_solo(p, 20'000, [](const fa_mutex& mc) {
        return mc.in_critical_section();
      });
      EXPECT_FALSE(sim.machine(p).in_critical_section())
          << "process " << p << " escaped the deadlock";
    }
  }
}

TEST(FaMutexTest, ThreeProcessBoundaryMatchesTheory) {
  // M(3) = { m : gcd(2, m) = gcd(3, m) = 1 }: m = 5 is in (clean), m = 4
  // is out via gcd(2,4) (two processes tie at 2 tokens each — a genuine
  // deadlock), m = 3 is out via gcd(3,3) but only LIVELOCKS (no stuck
  // state: the symmetric all-lose round is escapable by any asymmetric
  // schedule, so the progress check passes — see the lockstep test below).
  const auto m3 = check_fa_mutex(3, identity_naming(3, 3), 2'000'000,
                                 /*symmetry=*/true);
  EXPECT_EQ(m3.verdict(), "OK");
  const auto m4 = check_fa_mutex(4, identity_naming(3, 4), 2'000'000,
                                 /*symmetry=*/true);
  EXPECT_EQ(m4.verdict(), "DEADLOCK");
  const auto m5 = check_fa_mutex(5, identity_naming(3, 5), 2'000'000,
                                 /*symmetry=*/true);
  EXPECT_EQ(m5.verdict(), "OK");
}

TEST(FaMutexTest, RotationLockstepLivelocksAtMEqualsN) {
  // The necessity half of the m = n = 3 exclusion from M(3): with the
  // stride-1 rotation naming each process starts its ring pass one slot
  // apart, so the round-robin schedule has each grab exactly one token,
  // lose (1 < ceil(3/2)), release its token and wait — returning to a
  // previously seen global state with zero CS entries: an infinite
  // starvation schedule exists, so the algorithm is not deadlock-free at
  // m = n = 3 even though no deadlock STATE exists.
  const int m = 3, n = 3;
  const auto naming = naming_assignment::rotations(n, m, 1);
  std::vector<std::uint64_t> regs(static_cast<std::size_t>(m), 0);
  auto procs = mutex_machines(m, n);

  std::vector<global_state<fa_mutex>> seen;
  bool revisited = false;
  for (int round = 0; round < 64 && !revisited; ++round) {
    for (int p = 0; p < n; ++p) {
      permuted_vector_memory<std::uint64_t> view(regs, naming.of(p));
      procs[static_cast<std::size_t>(p)].step(view);
    }
    const global_state<fa_mutex> now{regs, procs};
    revisited = std::find(seen.begin(), seen.end(), now) != seen.end();
    seen.push_back(now);
  }
  EXPECT_TRUE(revisited);  // the lockstep run cycles...
  for (const auto& p : procs)
    EXPECT_EQ(p.cs_entries(), 0u);  // ...without anyone ever entering
}

TEST(FaMutexTest, TokenInvariantHoldsOnEveryReachableState) {
  // The mutual-exclusion proof obligation, checked as stated in the
  // header: sum_i cpt_i == #raised registers on every reachable state.
  // (ME follows: a CS process holds m tokens, so nobody else holds any.)
  for (const auto& [n, m] : {std::pair{2, 3}, std::pair{2, 4},
                             std::pair{3, 2}}) {
    explorer<fa_mutex> e(m, identity_naming(n, m), mutex_machines(m, n));
    const auto res = e.explore();
    ASSERT_TRUE(res.complete);
    for (std::uint64_t i = 0; i < res.num_states; ++i) {
      const auto s = e.state(i);
      ASSERT_EQ(total_tokens(s.procs), raised_count(s.regs))
          << "n=" << n << " m=" << m << " state " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// fa_agreement: safety exhaustively, obstruction-freedom from every state.
// ---------------------------------------------------------------------------

TEST(FaAgreementTest, SoloRunDecidesItsInputWithinTheBound) {
  for (int m : {2, 3, 5}) {
    std::vector<std::uint64_t> regs(static_cast<std::size_t>(m), 0);
    vector_memory<std::uint64_t> mem(regs);
    fa_agreement p(7, m);
    const std::uint64_t bound =
        static_cast<std::uint64_t>(m) * (2 * static_cast<std::uint64_t>(m) + 2);
    std::uint64_t steps = 0;
    while (!p.done() && steps < bound) {
      p.step(mem);
      ++steps;
    }
    EXPECT_TRUE(p.done()) << "m=" << m;
    EXPECT_EQ(p.decision().value_or(0), 7u) << "m=" << m;
    EXPECT_LE(steps, bound);
  }
}

TEST(FaAgreementTest, SafetyIsExhaustiveForAllPairNamings) {
  // Agreement + validity over the COMPLETE interleaving space, for every
  // pair naming, raw and reduced, distinct and equal inputs.
  for (const auto& naming : pair_namings(3)) {
    for (const bool symmetry : {false, true}) {
      const auto distinct =
          check_fa_agreement(3, naming, {1, 2}, 2'000'000, symmetry);
      EXPECT_TRUE(distinct.ok()) << distinct.verdict();
      const auto equal =
          check_fa_agreement(3, naming, {5, 5}, 2'000'000, symmetry);
      EXPECT_TRUE(equal.ok()) << equal.verdict();
    }
  }
}

TEST(FaAgreementTest, ObstructionFreedomFromEveryReachableState) {
  // The liveness contract, checked strongly: from EVERY reachable state of
  // the contended n = 2, m = 3 system, letting either process run solo
  // decides within the solo bound (per cycle at most 2m+1 steps, at most
  // m+1 cycles from an arbitrary mid-protocol state).
  const int m = 3;
  const auto naming = identity_naming(2, m);
  std::vector<fa_agreement> initial{fa_agreement(1, m), fa_agreement(2, m)};
  explorer<fa_agreement> e(m, naming, initial);
  const auto res = e.explore();
  ASSERT_TRUE(res.complete);
  const std::uint64_t bound = static_cast<std::uint64_t>(m + 1) *
                              (2 * static_cast<std::uint64_t>(m) + 1);
  for (std::uint64_t i = 0; i < res.num_states; ++i) {
    const auto s = e.state(i);
    for (int solo = 0; solo < 2; ++solo) {
      auto regs = s.regs;
      auto p = s.procs[static_cast<std::size_t>(solo)];
      permuted_vector_memory<std::uint64_t> view(regs, naming.of(solo));
      std::uint64_t steps = 0;
      while (!p.done() && steps < bound) {
        p.step(view);
        ++steps;
      }
      ASSERT_TRUE(p.done()) << "state " << i << " solo " << solo;
    }
  }
}

TEST(FaAgreementTest, BoundedThreeProcessSafety) {
  // n = 3 on m = 2n-1 = 5 registers: the full space is too large for a
  // tier-1 test even reduced, so this pins a bounded prefix — every state
  // within the cap satisfies agreement + validity.
  const auto res = check_fa_agreement(5, identity_naming(3, 5), {1, 2, 3},
                                      200'000, /*symmetry=*/true);
  EXPECT_FALSE(res.complete);  // documents that the cap bit
  // No state within the cap breaks agreement or validity.
  EXPECT_EQ(res.verdict(), "INCOMPLETE");
}

// ---------------------------------------------------------------------------
// The S_n x C_m product group.
// ---------------------------------------------------------------------------

TEST(FaSymmetryGroupTest, ProductGroupSizesMatchTheStructure) {
  // Identity and rotation namings make every lambda_p a rotation, so the
  // group is the full product: n! * m — past the n! ceiling of the
  // process-symmetric regime (anon_mutex at the same sizes: n!).
  EXPECT_EQ(symmetry_group<fa_mutex>::compute(identity_naming(2, 3),
                                              mutex_machines(3, 2))
                .size(),
            6);
  EXPECT_EQ(symmetry_group<fa_mutex>::compute(identity_naming(3, 3),
                                              mutex_machines(3, 3))
                .size(),
            18);
  EXPECT_EQ(symmetry_group<fa_mutex>::compute(identity_naming(3, 5),
                                              mutex_machines(5, 3))
                .size(),
            30);
  EXPECT_EQ(symmetry_group<fa_mutex>::compute(
                naming_assignment::rotations(3, 5, 2), mutex_machines(5, 3))
                .size(),
            30);
  // A generic (random) naming keeps at least the per-process rotation that
  // exists only through p = 0's own frame: sigma = id, d0 = 0.
  const auto gr = symmetry_group<fa_mutex>::compute(
      naming_assignment::random(2, 4, 42), mutex_machines(4, 2));
  EXPECT_GE(gr.size(), 1);
  // Distinct-input agreement machines still get the full group: the group
  // moves whole machines, it never needs to rename anything.
  std::vector<fa_agreement> agree{fa_agreement(1, 3), fa_agreement(2, 3)};
  EXPECT_EQ(symmetry_group<fa_agreement>::compute(identity_naming(2, 3), agree)
                .size(),
            6);
}

TEST(FaSymmetryGroupTest, InterchangeableInitialDetection) {
  EXPECT_TRUE(process_interchangeable_initial(mutex_machines(3, 2)));
  EXPECT_TRUE(process_interchangeable_initial(mutex_machines(5, 3)));
  std::vector<fa_agreement> same{fa_agreement(7, 3), fa_agreement(7, 3)};
  EXPECT_TRUE(process_interchangeable_initial(same));
  std::vector<fa_agreement> mixed{fa_agreement(1, 3), fa_agreement(2, 3)};
  EXPECT_FALSE(process_interchangeable_initial(mixed));
}

/// Step process p once on a raw (regs, procs) tuple.
template <class Machine>
void raw_step(const naming_assignment& naming,
              std::vector<typename Machine::value_type>& regs,
              std::vector<Machine>& procs, int p) {
  permuted_vector_memory<typename Machine::value_type> view(regs,
                                                            naming.of(p));
  procs[static_cast<std::size_t>(p)].step(view);
}

/// The automorphism property on every reachable state of a configuration:
/// phi_e(step_p(s)) == step_sigma(p)(phi_e(s)) for every element and every
/// process. This is the soundness theorem for the product group, checked
/// by brute force rather than trusted.
template <class Machine>
void check_commutation(int m, const naming_assignment& naming,
                       std::vector<Machine> initial) {
  explorer<Machine> e(m, naming, initial);
  const auto res = e.explore();
  ASSERT_TRUE(res.complete);
  const auto g = symmetry_group<Machine>::compute(naming, initial);
  ASSERT_GT(g.size(), 1);
  const int n = static_cast<int>(initial.size());
  std::vector<typename Machine::value_type> phi_regs, stepped_phi_regs;
  std::vector<Machine> phi_procs, stepped_phi_procs;
  for (std::uint64_t i = 0; i < res.num_states; ++i) {
    const auto s = e.state(i);
    for (int ei = 0; ei < g.size(); ++ei) {
      const auto& elem = g.at(ei);
      g.apply(elem, s.regs, s.procs, phi_regs, phi_procs);
      for (int p = 0; p < n; ++p) {
        // step_p then phi ...
        auto stepped_regs = s.regs;
        auto stepped_procs = s.procs;
        raw_step(naming, stepped_regs, stepped_procs, p);
        g.apply(elem, stepped_regs, stepped_procs, stepped_phi_regs,
                stepped_phi_procs);
        // ... versus phi then step_sigma(p).
        auto phi_then_step_regs = phi_regs;
        auto phi_then_step_procs = phi_procs;
        raw_step(naming, phi_then_step_regs, phi_then_step_procs,
                 elem.sigma[static_cast<std::size_t>(p)]);
        ASSERT_EQ(stepped_phi_regs, phi_then_step_regs)
            << "state " << i << " elem " << ei << " proc " << p;
        ASSERT_TRUE(stepped_phi_procs == phi_then_step_procs)
            << "state " << i << " elem " << ei << " proc " << p;
      }
    }
  }
}

TEST(FaSymmetryGroupTest, ElementsCommuteWithEveryStepFaMutex) {
  check_commutation<fa_mutex>(3, identity_naming(2, 3), mutex_machines(3, 2));
  check_commutation<fa_mutex>(2, identity_naming(3, 2), mutex_machines(2, 3));
  check_commutation<fa_mutex>(3, naming_assignment::rotations(2, 3, 1),
                              mutex_machines(3, 2));
}

TEST(FaSymmetryGroupTest, ElementsCommuteWithEveryStepFaAgreement) {
  check_commutation<fa_agreement>(
      3, identity_naming(2, 3),
      std::vector<fa_agreement>{fa_agreement(1, 3), fa_agreement(2, 3)});
}

TEST(FaSymmetryGroupTest, GroupIsClosedUnderComposition) {
  // (sigma2 o sigma1, pi2 o pi1) must be an element again — together with
  // the per-state orbit checks below this extends orbit-collapse from the
  // checked representatives to every state in their orbits.
  for (const auto& [n, m] : {std::pair{2, 3}, std::pair{3, 3},
                             std::pair{3, 5}}) {
    const auto g = symmetry_group<fa_mutex>::compute(identity_naming(n, m),
                                                     mutex_machines(m, n));
    EXPECT_EQ(g.size(), [](int k) {
      int f = 1;
      for (int i = 2; i <= k; ++i) f *= i;
      return f;
    }(n) * m);
    for (int a = 0; a < g.size(); ++a)
      for (int b = 0; b < g.size(); ++b) {
        std::vector<int> sigma(static_cast<std::size_t>(n));
        for (int p = 0; p < n; ++p)
          sigma[static_cast<std::size_t>(p)] =
              g.at(b).sigma[static_cast<std::size_t>(
                  g.at(a).sigma[static_cast<std::size_t>(p)])];
        const permutation pi =
            compose_permutations(g.at(b).pi, g.at(a).pi);
        bool found = false;
        for (int c = 0; c < g.size() && !found; ++c)
          found = g.at(c).sigma == sigma && g.at(c).pi == pi;
        ASSERT_TRUE(found) << "composition of " << a << " and " << b
                           << " left the group";
      }
  }
}

/// Exhaustive orbit-collapse over a complete reachable set: every state's
/// full orbit maps to ONE canonical key, the mapping element reported by
/// orbit_min really maps the original to the canonical form, and
/// canonicalization is idempotent.
template <class Machine>
void check_orbit_collapse(int m, const naming_assignment& naming,
                          std::vector<Machine> initial, bool reduced) {
  typename explorer<Machine>::options opt;
  opt.symmetry = reduced;
  explorer<Machine> e(m, naming, initial, opt);
  const auto res = e.explore();
  ASSERT_TRUE(res.complete);
  const auto g = symmetry_group<Machine>::compute(naming, initial);
  std::vector<typename Machine::value_type> orbit_regs;
  std::vector<Machine> orbit_procs;
  for (std::uint64_t i = 0; i < res.num_states; ++i) {
    const auto s = e.state(i);
    auto canon_regs = s.regs;
    auto canon_procs = s.procs;
    const int elem = g.orbit_min(canon_regs, canon_procs);
    // The reported element maps the original tuple to the canonical one.
    g.apply(g.at(elem), s.regs, s.procs, orbit_regs, orbit_procs);
    ASSERT_EQ(orbit_regs, canon_regs) << "state " << i;
    ASSERT_TRUE(orbit_procs == canon_procs) << "state " << i;
    // The WHOLE orbit maps to the same canonical key.
    for (int ei = 0; ei < g.size(); ++ei) {
      g.apply(g.at(ei), s.regs, s.procs, orbit_regs, orbit_procs);
      g.orbit_min(orbit_regs, orbit_procs);
      ASSERT_EQ(orbit_regs, canon_regs) << "state " << i << " elem " << ei;
      ASSERT_TRUE(orbit_procs == canon_procs)
          << "state " << i << " elem " << ei;
    }
  }
}

TEST(FaOrbitEquivalenceTest, EveryOrbitCollapsesToOneKeyExhaustively) {
  // The ISSUE's grid: n = 2,3 x m = 2,3 — raw reachable sets for the three
  // small configurations; n = 3, m = 3 (165k raw states) is covered via
  // its canonical representatives (every reachable state is in some
  // checked representative's orbit, and closure — checked above — lifts
  // orbit-collapse from a representative to its whole orbit).
  check_orbit_collapse<fa_mutex>(2, identity_naming(2, 2),
                                 mutex_machines(2, 2), /*reduced=*/false);
  check_orbit_collapse<fa_mutex>(3, identity_naming(2, 3),
                                 mutex_machines(3, 2), /*reduced=*/false);
  check_orbit_collapse<fa_mutex>(2, identity_naming(3, 2),
                                 mutex_machines(2, 3), /*reduced=*/false);
  check_orbit_collapse<fa_mutex>(3, identity_naming(3, 3),
                                 mutex_machines(3, 3), /*reduced=*/true);
  // And the agreement machine, whose orbit moves distinct inputs around.
  check_orbit_collapse<fa_agreement>(
      3, identity_naming(2, 3),
      std::vector<fa_agreement>{fa_agreement(1, 3), fa_agreement(2, 3)},
      /*reduced=*/false);
}

// ---------------------------------------------------------------------------
// Reduced vs raw vs parallel differentials, and counterexample fold-back.
// ---------------------------------------------------------------------------

TEST(FaQuotientDifferentialTest, VerdictsAgreeAcrossEnginesForAllPairNamings) {
  for (int m : {3, 4}) {
    for (const auto& naming : pair_namings(m)) {
      const auto g =
          symmetry_group<fa_mutex>::compute(naming, mutex_machines(m, 2));
      const auto raw = check_fa_mutex(m, naming);
      const auto red = check_fa_mutex(m, naming, 2'000'000, /*symmetry=*/true);
      const auto par =
          check_fa_mutex(m, naming, 2'000'000, /*symmetry=*/true,
                         /*workers=*/2);
      EXPECT_EQ(red.verdict(), raw.verdict());
      EXPECT_EQ(par.verdict(), raw.verdict());
      EXPECT_EQ(par.states, red.states);
      EXPECT_LE(red.states, raw.states);
      // Quotient bound: each canonical state covers at most |G| raw ones.
      EXPECT_LE(raw.states,
                red.states * static_cast<std::uint64_t>(g.size()));
      EXPECT_EQ(par.counterexample, red.counterexample);
    }
  }
}

TEST(FaQuotientDifferentialTest, ProductGroupBeatsProcessOnlyCeilings) {
  // Identity namings make every ring rotation compatible, so S_n x C_m has
  // n! x m elements and the measured factor must strictly beat the
  // process-only reduction of the Fig. 1 machines at the same n (2.0x at
  // n = 2, 5.53x at n = 3; SymmetryReductionTest.MeasuredReductionFactorsHold).
  const struct {
    int n;
    std::size_t group;
    std::uint64_t raw_states;
    std::uint64_t reduced_states;
    double ceiling;
  } cases[] = {{2, 6, 2'787, 466, 2.0}, {3, 18, 164'829, 9'436, 5.53}};
  const int m = 3;
  for (const auto& tc : cases) {
    SCOPED_TRACE("n=" + std::to_string(tc.n));
    const auto naming = identity_naming(tc.n, m);
    EXPECT_EQ(
        symmetry_group<fa_mutex>::compute(naming, mutex_machines(m, tc.n))
            .size(),
        tc.group);
    const auto raw = check_fa_mutex(m, naming);
    const auto red = check_fa_mutex(m, naming, 2'000'000, /*symmetry=*/true);
    const auto par = check_fa_mutex(m, naming, 2'000'000, /*symmetry=*/true,
                                    /*workers=*/2);
    EXPECT_EQ(raw.states, tc.raw_states);
    EXPECT_EQ(red.states, tc.reduced_states);
    EXPECT_GT(static_cast<double>(raw.states) /
                  static_cast<double>(red.states),
              tc.ceiling);
    EXPECT_EQ(red.verdict(), raw.verdict());
    EXPECT_EQ(par.verdict(), red.verdict());
    EXPECT_EQ(par.states, red.states);
    EXPECT_EQ(par.counterexample, red.counterexample);
  }
}

TEST(FaQuotientDifferentialTest, CounterexampleFoldsBackThroughBothFactors) {
  // A G-invariant "bad" predicate that only trips deep in the protocol:
  // some process holds every token. The reduced engine finds it on the
  // QUOTIENT graph; the reported schedule and state must be CONCRETE — the
  // sigma-chain folds process indices back and the replay re-applies the
  // register permutations — so replaying the schedule on raw semantics
  // must reproduce the reported state exactly and satisfy the predicate.
  const int m = 3, n = 2;
  const auto naming = identity_naming(n, m);
  const auto bad = [m](const global_state<fa_mutex>& s) {
    for (const auto& p : s.procs)
      if (p.tokens() == m) return true;
    return false;
  };
  explorer<fa_mutex>::options opt;
  opt.symmetry = true;
  explorer<fa_mutex> red(m, naming, mutex_machines(m, n), opt);
  const auto res = red.explore(bad);
  ASSERT_TRUE(res.safety_violated());
  ASSERT_TRUE(res.bad_state.has_value());
  EXPECT_TRUE(bad(*res.bad_state));

  auto regs = std::vector<std::uint64_t>(static_cast<std::size_t>(m), 0);
  auto procs = mutex_machines(m, n);
  for (int p : res.bad_schedule) raw_step(naming, regs, procs, p);
  EXPECT_EQ(regs, res.bad_state->regs);
  EXPECT_TRUE(procs == res.bad_state->procs);
  EXPECT_TRUE(bad({regs, procs}));

  // Same fold-back for a progress counterexample (the even-m deadlock),
  // where the schedule crosses many canonicalization twists.
  const auto dead = check_fa_mutex(4, identity_naming(2, 4), 2'000'000,
                                   /*symmetry=*/true);
  ASSERT_EQ(dead.verdict(), "DEADLOCK");
  auto regs4 = std::vector<std::uint64_t>(4, 0);
  auto procs4 = mutex_machines(4, 2);
  for (int p : dead.counterexample)
    raw_step(identity_naming(2, 4), regs4, procs4, p);
  EXPECT_EQ(total_tokens(procs4), 4);  // the (2, 2) tie, concretely
  EXPECT_EQ(raised_count(regs4), 4);
}

TEST(FaQuotientDifferentialTest, NamingSweepQuotientsByBothFactors) {
  // Sweeps over fully anonymous machines now pass the
  // process_interchangeable_initial gate, so the weighted class sweep
  // (register-anonymity factor x process factor) must decide the same
  // full enumeration totals. Predicate: someone reaches the CS — true for
  // every naming at m = 3, n = 2, so the totals are non-degenerate.
  const config_predicate<fa_mutex> someone_enters =
      [](const std::vector<std::uint64_t>&, const std::vector<fa_mutex>& ps) {
        for (const auto& p : ps)
          if (p.in_critical_section()) return true;
        return false;
      };
  verify_options opt;
  opt.max_states = 500'000;
  const auto full =
      verify_naming_sweep(3, mutex_machines(3, 2), someone_enters, false, opt);
  const auto orbit =
      verify_naming_sweep(3, mutex_machines(3, 2), someone_enters, true, opt);
  const auto quot = verify_naming_sweep(3, mutex_machines(3, 2),
                                        someone_enters, true, opt, true);
  EXPECT_EQ(full.configs, 36u);   // (3!)^2
  EXPECT_EQ(orbit.configs, 6u);   // (3!)^1 representatives
  EXPECT_EQ(quot.configs, 5u);    // weighted classes (n = 2, m = 3)
  EXPECT_EQ(full.incomplete, 0u);
  EXPECT_EQ(quot.incomplete, 0u);
  EXPECT_EQ(full.full_configs, 36u);
  EXPECT_EQ(orbit.full_configs, 36u);
  EXPECT_EQ(quot.full_configs, 36u);
  EXPECT_EQ(full.violated, 36u);  // the CS is reachable everywhere
  EXPECT_EQ(orbit.full_violated, 36u);
  EXPECT_EQ(quot.full_violated, 36u);
}

// ---------------------------------------------------------------------------
// The threaded runtime: real CAS, real contention.
// ---------------------------------------------------------------------------

TEST(FaThreadedTest, SpinStressKeepsMutualExclusion) {
  const int m = 3, n = 2;
  const std::uint64_t iterations = 1'500;
  const auto res = run_mutex_stress(mutex_machines(m, n), m,
                                    identity_naming(n, m), iterations);
  EXPECT_EQ(res.violations, 0u);
  EXPECT_EQ(res.total_entries, iterations * n);
  EXPECT_EQ(res.canary, res.total_entries);
}

TEST(FaThreadedTest, FutexStressKeepsMutualExclusion) {
  const int m = 5, n = 3;  // m in M(3): deadlock-free, safe to block on
  const std::uint64_t iterations = 400;
  threaded_options opt;
  opt.wait = wait_mode::futex;
  const auto res = run_mutex_stress(mutex_machines(m, n), m,
                                    identity_naming(n, m), iterations, opt);
  EXPECT_EQ(res.violations, 0u);
  EXPECT_EQ(res.total_entries, iterations * n);
  EXPECT_EQ(res.canary, res.total_entries);
}

}  // namespace
}  // namespace anoncoord
