// Out-of-core verification through the verify facade: spill-enabled runs of
// the BFS explorer, at one and at several workers, must be bit-identical to
// fully in-memory runs (verdict, state/edge counts, counterexample schedule,
// stored row bytes), and the checkpointed sweep
// scheduler must reproduce a sequential sweep's weighted totals exactly —
// across worker counts, and across a kill-and-resume split of the classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "core/anon_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/verify.hpp"
#include "util/check.hpp"
#include "util/permutation.hpp"

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

const config_predicate<anon_mutex> two_in_cs = mutex_two_in_cs<anon_mutex>;

void expect_reports_identical(const verify_report& mem,
                              const verify_report& sp) {
  EXPECT_EQ(mem.complete, sp.complete);
  EXPECT_EQ(mem.violated, sp.violated);
  EXPECT_EQ(mem.states, sp.states);
  EXPECT_EQ(mem.edges, sp.edges);
  EXPECT_EQ(mem.dedup_hits, sp.dedup_hits);
  EXPECT_EQ(mem.counterexample, sp.counterexample);
}

// ---------------------------------------------------------------------------
// Spillable arenas under verify_config.
// ---------------------------------------------------------------------------

TEST(OutOfCoreVerifyTest, SpillMatchesInMemoryOnBothEngines) {
  // m = 5, n = 2 exhausts >100k states (~1 MB of compressed arena), so a
  // two-page resident budget forces real spilling at one and three workers.
  const model_config<anon_mutex> cfg{5, identity_naming(2, 5), machines(5, 2)};
  for (const bool parallel : {false, true}) {
    verify_options opt;
    opt.workers = parallel ? 3 : 1;
    const auto mem = verify_config(cfg, two_in_cs, opt);
    ASSERT_TRUE(mem.complete);
    EXPECT_FALSE(mem.violated);
    EXPECT_EQ(mem.spill_pages, 0u);

    opt.spill_budget_bytes = 2 * byte_arena::kPageSize;
    const auto sp = verify_config(cfg, two_in_cs, opt);
    expect_reports_identical(mem, sp);
    EXPECT_GT(sp.spill_pages, 0u) << "parallel=" << parallel;
    EXPECT_EQ(sp.spill_bytes, sp.spill_pages * byte_arena::kPageSize);
  }
}

TEST(OutOfCoreVerifyTest, SpillMatchesInMemoryOnViolation) {
  // Three racers on two registers break mutual exclusion; the spill run must
  // report the exact same counterexample schedule. The budget is set below a
  // single page so any sealed page spills immediately.
  const model_config<anon_mutex> cfg{2, identity_naming(3, 2), machines(2, 3)};
  for (const bool parallel : {false, true}) {
    verify_options opt;
    opt.workers = parallel ? 2 : 1;
    const auto mem = verify_config(cfg, two_in_cs, opt);
    ASSERT_TRUE(mem.violated);
    opt.spill_budget_bytes = 1;
    const auto sp = verify_config(cfg, two_in_cs, opt);
    expect_reports_identical(mem, sp);
    EXPECT_FALSE(sp.counterexample.empty());
  }
}

TEST(OutOfCoreVerifyTest, StoredBytesIdenticalAcrossWorkersUnderSpill) {
  // Symmetry on and a two-page resident budget: the packed bytes, the
  // counts and the spill traffic are those of the in-memory one-worker run
  // at every worker count.
  explorer<anon_mutex>::options opt;
  opt.symmetry = true;
  explorer<anon_mutex> mem(5, identity_naming(2, 5), machines(5, 2), opt);
  const auto want = mem.explore();
  ASSERT_TRUE(want.complete);
  opt.spill_budget_bytes = 2 * byte_arena::kPageSize;
  std::uint64_t spilled = 0;
  for (const int workers : {1, 2, 4, 8}) {
    const std::string where = "workers=" + std::to_string(workers);
    opt.workers = workers;
    explorer<anon_mutex> e(5, identity_naming(2, 5), machines(5, 2), opt);
    const auto got = e.explore();
    EXPECT_TRUE(got.complete) << where;
    EXPECT_EQ(got.num_states, want.num_states) << where;
    EXPECT_EQ(got.num_edges, want.num_edges) << where;
    EXPECT_EQ(got.dedup_hits, want.dedup_hits) << where;
    EXPECT_EQ(e.stored_row_bytes(), mem.stored_row_bytes()) << where;
    if (workers == 1) spilled = e.spill_stats().spilled_pages;
    EXPECT_GT(e.spill_stats().spilled_pages, 0u) << where;
    EXPECT_EQ(e.spill_stats().spilled_pages, spilled) << where;
  }
}

TEST(OutOfCoreVerifyTest, ReferenceConfigHoldsThirdOfInMemoryBudget) {
  // Fig. 1 at n = 2, m = 5, stride 2 with the full ME + progress check,
  // its packed arena capped at a third of its in-memory footprint. At one
  // and two workers the verdict, state count and counterexample equal the
  // in-memory run's, pages really spill, and the resident high-water mark
  // stays within the budget plus slack: the open head page rides over, and
  // the frontier window being expanded stays resident.
  const naming_assignment naming(
      {identity_permutation(5), rotation_permutation(5, 2)});
  const auto procs = detail::mutex_machines(5, naming, {1, 2});
  explorer<anon_mutex> mem(5, naming, procs);
  const verify_report want = run_check(mem, mutex_spec<anon_mutex>());
  const std::uint64_t budget = mem.stored_row_bytes() / 3;
  EXPECT_EQ(budget, 669'502u);
  const std::uint64_t slack = 8 * byte_arena::kPageSize;
  for (const int workers : {1, 2}) {
    const std::string where = "workers=" + std::to_string(workers);
    explorer<anon_mutex>::options opt;
    opt.workers = workers;
    opt.spill_budget_bytes = budget;
    explorer<anon_mutex> e(5, naming, procs, opt);
    const verify_report got = run_check(e, mutex_spec<anon_mutex>());
    const arena_spill_stats st = e.spill_stats();
    EXPECT_EQ(got.verdict(), want.verdict()) << where;
    EXPECT_EQ(got.states, want.states) << where;
    EXPECT_EQ(got.counterexample, want.counterexample) << where;
    EXPECT_GT(st.spilled_pages, 0u) << where;
    EXPECT_LE(st.resident_hw_bytes, budget + slack) << where;
    // Each frontier window and the progress pass read their rows as one
    // page range, so a cold page faults back in at most once per scan;
    // scattered access would re-fault the same pages many times over.
    if (workers == 1) {
      EXPECT_LE(st.faulted_pages, 2 * st.spilled_pages);
    }
  }
}

// ---------------------------------------------------------------------------
// The scheduled sweep: worker pools, checkpoints, resume.
// ---------------------------------------------------------------------------

void expect_sweeps_identical(const naming_sweep_report& a,
                             const naming_sweep_report& b) {
  EXPECT_EQ(a.configs, b.configs);
  EXPECT_EQ(a.violated, b.violated);
  EXPECT_EQ(a.incomplete, b.incomplete);
  EXPECT_EQ(a.total_states, b.total_states);
  EXPECT_EQ(a.full_configs, b.full_configs);
  EXPECT_EQ(a.full_violated, b.full_violated);
  EXPECT_EQ(a.verdicts, b.verdicts);
}

TEST(SweepSchedulerTest, WorkerPoolMatchesSequentialSweep) {
  verify_options opt;
  opt.max_states = 500'000;
  const auto seq = verify_naming_sweep(2, machines(2, 3), two_in_cs, true, opt);
  ASSERT_EQ(seq.configs, 4u);
  ASSERT_GT(seq.violated, 0u);
  for (const int workers : {2, 4}) {
    sweep_schedule_options sched;
    sched.workers = workers;
    const auto par = verify_naming_sweep(2, machines(2, 3), two_in_cs, true,
                                         opt, false, sched);
    expect_sweeps_identical(seq, par);
    EXPECT_EQ(par.resumed_classes, 0u);
    EXPECT_EQ(par.pending_classes, 0u);
  }
}

TEST(SweepSchedulerTest, PerJobSpillBudgetPreservesSweepTotals) {
  verify_options opt;
  opt.max_states = 500'000;
  const auto mem = verify_naming_sweep(4, machines(4, 2), two_in_cs, true, opt);
  verify_options sp_opt = opt;
  sp_opt.spill_budget_bytes = 1;  // every sealed page of every job spills
  sweep_schedule_options sched;
  sched.workers = 3;
  const auto sp = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                      sp_opt, false, sched);
  expect_sweeps_identical(mem, sp);
}

TEST(SweepSchedulerTest, CheckpointResumeMatchesUninterrupted) {
  const std::string ckpt =
      ::testing::TempDir() + "anoncoord-sweep-resume-test.ckpt";
  std::remove(ckpt.c_str());
  verify_options opt;
  opt.max_states = 500'000;
  // 24 orbit classes for m = 4, n = 2: a real multi-class sweep.
  const auto whole = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                         opt);
  ASSERT_EQ(whole.configs, 24u);

  // "Kill" the run after 7 classes: max_classes is the deterministic stand-in
  // for an interrupt — the journal holds exactly the completed classes.
  sweep_schedule_options first;
  first.checkpoint_path = ckpt;
  first.max_classes = 7;
  const auto partial = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                           opt, false, first);
  EXPECT_EQ(partial.resumed_classes, 0u);
  EXPECT_EQ(partial.pending_classes, 24u - 7u);
  EXPECT_EQ(partial.configs, 7u);

  // A torn trailing record (the process died mid-write) must be skipped, not
  // trip up the resume.
  {
    std::ofstream torn(ckpt, std::ios::app);
    torn << "class=9 vio";  // no newline, truncated mid-field
  }

  // Resume on a worker pool: 7 classes load from the journal, the remaining
  // 17 are verified, and the weighted totals match the uninterrupted run.
  sweep_schedule_options resume;
  resume.checkpoint_path = ckpt;
  resume.workers = 3;
  const auto resumed = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                           opt, false, resume);
  EXPECT_EQ(resumed.resumed_classes, 7u);
  EXPECT_EQ(resumed.pending_classes, 0u);
  expect_sweeps_identical(whole, resumed);

  // A third run is a pure replay: everything loads, nothing is verified.
  const auto replay = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                          opt, false, resume);
  EXPECT_EQ(replay.resumed_classes, 24u);
  expect_sweeps_identical(whole, replay);

  std::remove(ckpt.c_str());
}

/// The class indices a sweep journal records, sorted.
std::vector<std::uint64_t> journal_classes(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::vector<std::uint64_t> out;
  while (std::getline(in, line)) {
    std::uint64_t idx = 0;
    sweep_class_record rec;
    if (parse_sweep_record(line, idx, rec)) out.push_back(idx);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SweepSchedulerTest, EveryClassRunsExactlyOnce) {
  // Workers claim classes from one shared index: at any worker count the
  // journal must record each of the 24 m = 4 orbit classes exactly once,
  // and a max_classes cap must verify exactly the first classes in order.
  const std::string ckpt =
      ::testing::TempDir() + "anoncoord-sweep-once-test.ckpt";
  verify_options opt;
  opt.max_states = 500'000;
  const auto seq = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                       opt);
  ASSERT_EQ(seq.configs, 24u);
  std::vector<std::uint64_t> every(24);
  std::iota(every.begin(), every.end(), std::uint64_t{0});
  for (const int workers : {1, 2, 3, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::remove(ckpt.c_str());
    sweep_schedule_options sched;
    sched.workers = workers;
    sched.checkpoint_path = ckpt;
    const auto got = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                         opt, false, sched);
    expect_sweeps_identical(seq, got);
    EXPECT_EQ(journal_classes(ckpt), every);
  }

  std::remove(ckpt.c_str());
  sweep_schedule_options capped;
  capped.workers = 8;
  capped.checkpoint_path = ckpt;
  capped.max_classes = 7;
  const auto part = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                        opt, false, capped);
  EXPECT_EQ(part.configs, 7u);
  EXPECT_EQ(part.pending_classes, 24u - 7u);
  EXPECT_EQ(journal_classes(ckpt),
            std::vector<std::uint64_t>(every.begin(), every.begin() + 7));
  EXPECT_EQ(part.verdicts,
            std::vector<char>(seq.verdicts.begin(), seq.verdicts.begin() + 7));
  std::remove(ckpt.c_str());
}

TEST(SweepSchedulerTest, CheckpointHeaderMismatchRejected) {
  const std::string ckpt =
      ::testing::TempDir() + "anoncoord-sweep-mismatch-test.ckpt";
  std::remove(ckpt.c_str());
  verify_options opt;
  opt.max_states = 100'000;
  sweep_schedule_options sched;
  sched.checkpoint_path = ckpt;
  const auto ok =
      verify_naming_sweep(2, machines(2, 2), two_in_cs, true, opt, false,
                          sched);
  EXPECT_GT(ok.configs, 0u);
  // Same path, different sweep shape: the header guard must refuse to merge.
  EXPECT_THROW(verify_naming_sweep(2, machines(2, 3), two_in_cs, true, opt,
                                   false, sched),
               precondition_error);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace anoncoord
