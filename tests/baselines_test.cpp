// Tests for the named-model baselines: Peterson, filter lock, bakery,
// commit-adopt consensus and the §5 trivial renaming. They run under the
// same drivers as the anonymous algorithms (identity naming = the standard
// model), including exhaustive model checks where the state spaces are tiny.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/bakery_mutex.hpp"
#include "baselines/ca_consensus.hpp"
#include "baselines/filter_mutex.hpp"
#include "baselines/peterson_mutex.hpp"
#include "baselines/tournament_mutex.hpp"
#include "baselines/trivial_renaming.hpp"
#include "mem/naming.hpp"
#include "modelcheck/agreement_check.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/verify.hpp"
#include "runtime/schedule.hpp"
#include "runtime/simulator.hpp"

namespace anoncoord {
namespace {

template <class Machine>
int procs_in_cs(const simulator<Machine>& sim) {
  int c = 0;
  for (int p = 0; p < sim.process_count(); ++p)
    if (sim.machine(p).in_critical_section()) ++c;
  return c;
}

// ---------------------------------------------------------------------------
// Peterson.
// ---------------------------------------------------------------------------

TEST(PetersonTest, RejectsBadIndex) {
  EXPECT_THROW(peterson_mutex(2), precondition_error);
  EXPECT_THROW(peterson_mutex(-1), precondition_error);
}

TEST(PetersonTest, SoloEntryAndExit) {
  std::vector<peterson_mutex> machines{peterson_mutex(0), peterson_mutex(1)};
  simulator<peterson_mutex> sim(3, naming_assignment::identity(2, 3),
                                std::move(machines));
  sim.run_solo(0, 100, [](const peterson_mutex& mc) {
    return mc.in_critical_section();
  });
  EXPECT_TRUE(sim.machine(0).in_critical_section());
  // Solo cost: enter + write flag + write turn + read flag = 4 steps.
  EXPECT_EQ(sim.steps_of(0), 4u);
  sim.run_solo(0, 100,
               [](const peterson_mutex& mc) { return mc.in_remainder(); });
  EXPECT_EQ(sim.memory().peek(0), 0u);
  EXPECT_EQ(sim.machine(0).cs_entries(), 1u);
}

TEST(PetersonTest, ModelCheckedExhaustively) {
  const auto rep = verify_config<peterson_mutex>(
      {3, naming_assignment::identity(2, 3),
       {peterson_mutex(0), peterson_mutex(1)}},
      mutex_spec<peterson_mutex>());
  EXPECT_EQ(rep.verdict(), "OK");
}

TEST(PetersonTest, RandomSchedulesStayExclusive) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<peterson_mutex> machines{peterson_mutex(0), peterson_mutex(1)};
    simulator<peterson_mutex> sim(3, naming_assignment::identity(2, 3),
                                  std::move(machines));
    random_schedule sched(seed);
    std::uint64_t entries = 0;
    auto res =
        sim.run(sched, 100000,
                [&](const simulator<peterson_mutex>& s, const trace_event&) {
                  EXPECT_LE(procs_in_cs(s), 1);
                  entries =
                      s.machine(0).cs_entries() + s.machine(1).cs_entries();
                  return entries < 50;
                });
    EXPECT_TRUE(res.stopped_by_observer) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Filter lock.
// ---------------------------------------------------------------------------

TEST(FilterTest, RejectsBadParameters) {
  EXPECT_THROW(filter_mutex(0, 1), precondition_error);
  EXPECT_THROW(filter_mutex(3, 3), precondition_error);
}

TEST(FilterTest, SoloEntry) {
  const int n = 3;
  std::vector<filter_mutex> machines;
  for (int i = 0; i < n; ++i) machines.emplace_back(i, n);
  simulator<filter_mutex> sim(filter_mutex::register_count(n),
                              naming_assignment::identity(n, 2 * n - 1),
                              std::move(machines));
  sim.run_solo(1, 1000,
               [](const filter_mutex& mc) { return mc.in_critical_section(); });
  EXPECT_TRUE(sim.machine(1).in_critical_section());
  sim.run_solo(1, 1000,
               [](const filter_mutex& mc) { return mc.in_remainder(); });
  EXPECT_EQ(sim.machine(1).cs_entries(), 1u);
}

TEST(FilterTest, TwoProcessModelCheck) {
  const int n = 2;
  const auto rep = verify_config<filter_mutex>(
      {filter_mutex::register_count(n),
       naming_assignment::identity(n, 2 * n - 1),
       {filter_mutex(0, n), filter_mutex(1, n)}},
      mutex_spec<filter_mutex>());
  EXPECT_EQ(rep.verdict(), "OK");
}

class FilterSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(FilterSweep, NProcessRandomSchedules) {
  const auto [n, seed] = GetParam();
  std::vector<filter_mutex> machines;
  for (int i = 0; i < n; ++i) machines.emplace_back(i, n);
  simulator<filter_mutex> sim(
      filter_mutex::register_count(n),
      naming_assignment::identity(n, filter_mutex::register_count(n)),
      std::move(machines));
  random_schedule sched(seed);
  std::uint64_t entries = 0;
  auto res = sim.run(sched, 400000,
                     [&](const simulator<filter_mutex>& s, const trace_event&) {
                       EXPECT_LE(procs_in_cs(s), 1);
                       entries = 0;
                       for (int p = 0; p < s.process_count(); ++p)
                         entries += s.machine(p).cs_entries();
                       return entries < 30;
                     });
  EXPECT_TRUE(res.stopped_by_observer)
      << "n=" << n << " seed=" << seed << ": only " << entries << " entries";
}

INSTANTIATE_TEST_SUITE_P(NxSeed, FilterSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4, 5),
                                            ::testing::Values(1u, 2u, 3u)));

// ---------------------------------------------------------------------------
// Tournament lock.
// ---------------------------------------------------------------------------

TEST(TournamentTest, TreeGeometry) {
  EXPECT_EQ(tournament_mutex::leaves_for(2), 2);
  EXPECT_EQ(tournament_mutex::leaves_for(3), 4);
  EXPECT_EQ(tournament_mutex::leaves_for(4), 4);
  EXPECT_EQ(tournament_mutex::leaves_for(5), 8);
  EXPECT_EQ(tournament_mutex::register_count(2), 3);   // one Peterson node
  EXPECT_EQ(tournament_mutex::register_count(4), 9);   // three nodes
  EXPECT_EQ(tournament_mutex::register_count(8), 21);  // seven nodes
}

TEST(TournamentTest, SoloEntryClimbsAndReleases) {
  const int n = 4;
  std::vector<tournament_mutex> machines;
  for (int i = 0; i < n; ++i) machines.emplace_back(i, n);
  const int regs = tournament_mutex::register_count(n);
  simulator<tournament_mutex> sim(regs, naming_assignment::identity(n, regs),
                                  std::move(machines));
  sim.run_solo(2, 1000, [](const tournament_mutex& mc) {
    return mc.in_critical_section();
  });
  EXPECT_TRUE(sim.machine(2).in_critical_section());
  sim.run_solo(2, 1000,
               [](const tournament_mutex& mc) { return mc.in_remainder(); });
  // All flags released.
  for (int r = 0; r < regs; ++r) {
    if (r % 3 != 2) {  // skip turn registers
      EXPECT_EQ(sim.memory().peek(r), 0u) << "register " << r;
    }
  }
  EXPECT_EQ(sim.machine(2).cs_entries(), 1u);
}

TEST(TournamentTest, TwoProcessModelCheck) {
  const int n = 2;
  const int regs = tournament_mutex::register_count(n);
  const auto rep = verify_config<tournament_mutex>(
      {regs, naming_assignment::identity(n, regs),
       {tournament_mutex(0, n), tournament_mutex(1, n)}},
      mutex_spec<tournament_mutex>());
  EXPECT_EQ(rep.verdict(), "OK");
}

class TournamentSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(TournamentSweep, NProcessRandomSchedules) {
  const auto [n, seed] = GetParam();
  std::vector<tournament_mutex> machines;
  for (int i = 0; i < n; ++i) machines.emplace_back(i, n);
  const int regs = tournament_mutex::register_count(n);
  simulator<tournament_mutex> sim(regs, naming_assignment::identity(n, regs),
                                  std::move(machines));
  random_schedule sched(seed);
  std::uint64_t entries = 0;
  auto res =
      sim.run(sched, 400000,
              [&](const simulator<tournament_mutex>& s, const trace_event&) {
                EXPECT_LE(procs_in_cs(s), 1);
                entries = 0;
                for (int p = 0; p < s.process_count(); ++p)
                  entries += s.machine(p).cs_entries();
                return entries < 30;
              });
  EXPECT_TRUE(res.stopped_by_observer)
      << "n=" << n << " seed=" << seed << ": only " << entries << " entries";
}

INSTANTIATE_TEST_SUITE_P(NxSeed, TournamentSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4, 5, 8),
                                            ::testing::Values(1u, 2u, 3u)));

// ---------------------------------------------------------------------------
// Bakery.
// ---------------------------------------------------------------------------

TEST(BakeryTest, SoloEntryTakesTicketOne) {
  const int n = 3;
  std::vector<bakery_mutex> machines;
  for (int i = 0; i < n; ++i) machines.emplace_back(i, n);
  simulator<bakery_mutex> sim(bakery_mutex::register_count(n),
                              naming_assignment::identity(n, 2 * n),
                              std::move(machines));
  sim.run_solo(0, 1000,
               [](const bakery_mutex& mc) { return mc.in_critical_section(); });
  EXPECT_TRUE(sim.machine(0).in_critical_section());
  EXPECT_EQ(sim.memory().peek(n + 0), 1u);  // ticket = max(0..0) + 1
}

TEST(BakeryTest, FirstComeFirstServedOrder) {
  // p0 completes its doorway before p1 starts: p0 must enter first.
  const int n = 2;
  std::vector<bakery_mutex> machines{bakery_mutex(0, n), bakery_mutex(1, n)};
  simulator<bakery_mutex> sim(bakery_mutex::register_count(n),
                              naming_assignment::identity(n, 2 * n),
                              std::move(machines));
  // Drive p0 through the doorway (choosing off written).
  sim.run_solo(0, 100, [](const bakery_mutex& mc) {
    return mc.phase() == bakery_phase::wait_choosing;
  });
  // Now p1 runs as far as it can: it must NOT pass p0.
  sim.run_solo(1, 2000, [](const bakery_mutex& mc) {
    return mc.in_critical_section();
  });
  EXPECT_FALSE(sim.machine(1).in_critical_section());
  // p0 finishes, exits; then p1 gets in.
  sim.run_solo(0, 2000,
               [](const bakery_mutex& mc) { return mc.in_remainder(); });
  sim.run_solo(1, 2000, [](const bakery_mutex& mc) {
    return mc.in_critical_section();
  });
  EXPECT_TRUE(sim.machine(1).in_critical_section());
}

class BakerySweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BakerySweep, NProcessRandomSchedules) {
  const auto [n, seed] = GetParam();
  std::vector<bakery_mutex> machines;
  for (int i = 0; i < n; ++i) machines.emplace_back(i, n);
  simulator<bakery_mutex> sim(
      bakery_mutex::register_count(n),
      naming_assignment::identity(n, bakery_mutex::register_count(n)),
      std::move(machines));
  random_schedule sched(seed);
  std::uint64_t entries = 0;
  auto res = sim.run(sched, 400000,
                     [&](const simulator<bakery_mutex>& s, const trace_event&) {
                       EXPECT_LE(procs_in_cs(s), 1);
                       entries = 0;
                       for (int p = 0; p < s.process_count(); ++p)
                         entries += s.machine(p).cs_entries();
                       return entries < 30;
                     });
  EXPECT_TRUE(res.stopped_by_observer)
      << "n=" << n << " seed=" << seed << ": only " << entries << " entries";
}

INSTANTIATE_TEST_SUITE_P(NxSeed, BakerySweep,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(1u, 2u, 3u)));

// ---------------------------------------------------------------------------
// Commit-adopt consensus.
// ---------------------------------------------------------------------------

TEST(CaConsensusTest, RejectsBadParameters) {
  EXPECT_THROW(ca_consensus(0, 2, 0), precondition_error);
  EXPECT_THROW(ca_consensus(2, 2, 1), precondition_error);
}

TEST(CaConsensusTest, SoloDecidesOwnInputInTwoRounds) {
  const int n = 3;
  std::vector<ca_consensus> machines;
  for (int i = 0; i < n; ++i)
    machines.emplace_back(i, n, static_cast<std::uint64_t>(10 + i));
  simulator<ca_consensus> sim(ca_consensus::register_count(n),
                              naming_assignment::identity(n, 2 * n),
                              std::move(machines));
  sim.run_solo(0, 10000, [](const ca_consensus& mc) { return mc.done(); });
  ASSERT_TRUE(sim.machine(0).done());
  EXPECT_EQ(*sim.machine(0).decision(), 10u);
  EXPECT_LE(sim.machine(0).round(), 2u);
}

TEST(CaConsensusTest, LateProcessAdoptsDecision) {
  const int n = 2;
  std::vector<ca_consensus> machines{ca_consensus(0, n, 5),
                                     ca_consensus(1, n, 6)};
  simulator<ca_consensus> sim(ca_consensus::register_count(n),
                              naming_assignment::identity(n, 2 * n),
                              std::move(machines));
  sim.run_solo(0, 10000, [](const ca_consensus& mc) { return mc.done(); });
  sim.run_solo(1, 10000, [](const ca_consensus& mc) { return mc.done(); });
  ASSERT_TRUE(sim.machine(0).done());
  ASSERT_TRUE(sim.machine(1).done());
  EXPECT_EQ(*sim.machine(1).decision(), *sim.machine(0).decision());
  EXPECT_EQ(*sim.machine(0).decision(), 5u);
}

TEST(CaConsensusTest, ModelCheckedAgreementTwoProcs) {
  // Unlike Figs. 1-3 the CA construction has unbounded state (round numbers
  // grow forever under adversarial alternation), so exhaustive exploration
  // cannot terminate; verify agreement/validity over a large BFS prefix,
  // which covers every run of up to that many distinct states.
  // Fig. 2's agreement/validity spec, without its progress part: a capped
  // run has no complete graph to check termination on.
  const int n = 2;
  const std::vector<std::uint64_t> inputs{1, 2};
  auto spec = consensus_spec<ca_consensus>(inputs);
  spec.progress.reset();
  std::vector<ca_consensus> machines;
  for (int i = 0; i < n; ++i)
    machines.emplace_back(i, n, inputs[static_cast<std::size_t>(i)]);
  verify_options opt;
  opt.max_states = 300'000;
  const auto rep = verify_config<ca_consensus>(
      {ca_consensus::register_count(n), naming_assignment::identity(n, 2 * n),
       std::move(machines)},
      spec, opt);
  EXPECT_FALSE(rep.complete) << "CA rounds are unbounded by design";
  EXPECT_FALSE(rep.violated);
  EXPECT_EQ(rep.verdict(), "INCOMPLETE");
}

class CaSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CaSweep, AgreementUnderBurstySchedules) {
  const auto [n, seed] = GetParam();
  std::vector<ca_consensus> machines;
  xoshiro256 rng(seed);
  std::set<std::uint64_t> inputs;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t in = rng.below(3) + 1;
    inputs.insert(in);
    machines.emplace_back(i, n, in);
  }
  simulator<ca_consensus> sim(
      ca_consensus::register_count(n),
      naming_assignment::identity(n, ca_consensus::register_count(n)),
      std::move(machines));
  bursty_schedule sched(seed, 50, 20 * n);
  auto res = sim.run(sched, 2'000'000,
                     [](const simulator<ca_consensus>& s, const trace_event&) {
                       for (int p = 0; p < s.process_count(); ++p)
                         if (!s.machine(p).done()) return true;
                       return false;
                     });
  ASSERT_TRUE(res.stopped_by_observer) << "n=" << n << " seed=" << seed;
  std::set<std::uint64_t> decisions;
  for (int p = 0; p < n; ++p) decisions.insert(*sim.machine(p).decision());
  EXPECT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(inputs.count(*decisions.begin()));
}

INSTANTIATE_TEST_SUITE_P(NxSeed, CaSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Values(1u, 2u, 3u, 4u)));

// ---------------------------------------------------------------------------
// Trivial renaming (ordered elections).
// ---------------------------------------------------------------------------

TEST(TrivialRenamingTest, SequentialArrivalGetsSequentialNames) {
  const int n = 3;
  std::vector<trivial_renaming> machines;
  for (int i = 0; i < n; ++i)
    machines.emplace_back(i, n, static_cast<process_id>(500 + i));
  simulator<trivial_renaming> sim(
      trivial_renaming::register_count(n),
      naming_assignment::identity(n, trivial_renaming::register_count(n)),
      std::move(machines));
  for (int p = 0; p < n; ++p) {
    sim.run_solo(p, 100000,
                 [](const trivial_renaming& mc) { return mc.done(); });
    ASSERT_TRUE(sim.machine(p).done()) << "p=" << p;
    EXPECT_EQ(*sim.machine(p).name(), static_cast<std::uint32_t>(p + 1));
  }
}

TEST(TrivialRenamingTest, AdaptiveForLoneParticipant) {
  const int n = 4;
  std::vector<trivial_renaming> machines;
  for (int i = 0; i < n; ++i)
    machines.emplace_back(i, n, static_cast<process_id>(700 + i));
  simulator<trivial_renaming> sim(
      trivial_renaming::register_count(n),
      naming_assignment::identity(n, trivial_renaming::register_count(n)),
      std::move(machines));
  sim.run_solo(2, 100000,
               [](const trivial_renaming& mc) { return mc.done(); });
  ASSERT_TRUE(sim.machine(2).done());
  EXPECT_EQ(*sim.machine(2).name(), 1u);
}

class TrivialRenamingSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(TrivialRenamingSweep, UniquePerfectNamesUnderBurstySchedules) {
  const auto [n, seed] = GetParam();
  std::vector<trivial_renaming> machines;
  for (int i = 0; i < n; ++i)
    machines.emplace_back(i, n, static_cast<process_id>(900 + 7 * i));
  simulator<trivial_renaming> sim(
      trivial_renaming::register_count(n),
      naming_assignment::identity(n, trivial_renaming::register_count(n)),
      std::move(machines));
  bursty_schedule sched(seed, 60, 40 * n);
  auto res = sim.run(sched, 3'000'000,
                     [](const simulator<trivial_renaming>& s,
                        const trace_event&) {
                       for (int p = 0; p < s.process_count(); ++p)
                         if (!s.machine(p).done()) return true;
                       return false;
                     });
  ASSERT_TRUE(res.stopped_by_observer) << "n=" << n << " seed=" << seed;
  std::set<std::uint32_t> names;
  for (int p = 0; p < n; ++p) {
    const auto v = *sim.machine(p).name();
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, static_cast<std::uint32_t>(n));
    EXPECT_TRUE(names.insert(v).second) << "duplicate " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(NxSeed, TrivialRenamingSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace anoncoord
