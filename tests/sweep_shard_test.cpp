// Sharded sweep execution and journal merging: shard slices must partition
// the orbit classes, merged shard journals must reproduce an uninterrupted
// single-process sweep's weighted totals bit-identically (including after a
// kill-and-resume of one shard), and merge_sweep_journals must handle every
// journal edge case — duplicate claims, conflicting claims, coverage gaps,
// torn tails, header mismatches — exactly as documented.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/anon_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/sweep_journal.hpp"
#include "modelcheck/verify.hpp"
#include "util/check.hpp"

namespace anoncoord {
namespace {

std::vector<anon_mutex> machines(int m, int n) {
  std::vector<anon_mutex> out;
  for (int p = 0; p < n; ++p)
    out.emplace_back(static_cast<process_id>(p + 1), m);
  return out;
}

const config_predicate<anon_mutex> two_in_cs = mutex_two_in_cs<anon_mutex>;

std::string temp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + name;
  std::remove(p.c_str());
  return p;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

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

// Run one shard of the m-register quotient sweep, journaling to `path`.
naming_sweep_report run_shard(int m, int index, int count,
                              const std::string& path,
                              std::uint64_t max_classes = 0) {
  verify_options opt;
  opt.max_states = 8'000'000;
  sweep_schedule_options sched;
  sched.shard_index = index;
  sched.shard_count = count;
  sched.checkpoint_path = path;
  sched.max_classes = max_classes;
  return verify_naming_sweep(m, machines(m, 2), two_in_cs, true, opt, true,
                             sched);
}

// The uninterrupted single-process quotient sweep at m (the golden run).
naming_sweep_report run_single(int m) {
  verify_options opt;
  opt.max_states = 8'000'000;
  return verify_naming_sweep(m, machines(m, 2), two_in_cs, true, opt, true);
}

// Replay a journal through the production aggregator: everything resumes,
// nothing is re-verified, and the report carries the weighted totals.
naming_sweep_report replay_journal(int m, const std::string& path) {
  verify_options opt;
  opt.max_states = 8'000'000;
  sweep_schedule_options sched;
  sched.checkpoint_path = path;
  return verify_naming_sweep(m, machines(m, 2), two_in_cs, true, opt, true,
                             sched);
}

// ---------------------------------------------------------------------------
// Shard slicing.
// ---------------------------------------------------------------------------

TEST(SweepShardTest, ShardSlicesPartitionClasses) {
  // m = 4, n = 2 in process-quotient mode: 17 orbit classes. Five shards
  // (which do not divide 17 evenly) must still cover every class exactly
  // once: shard sizes sum to 17, and the merged journals have no gap and no
  // duplicate.
  const int kShards = 5;
  std::vector<std::string> paths;
  std::uint64_t owned = 0;
  for (int i = 0; i < kShards; ++i) {
    paths.push_back(temp_path("anoncoord-shard-part-" + std::to_string(i) +
                              ".ckpt"));
    const auto rep = run_shard(4, i, kShards, paths[static_cast<size_t>(i)]);
    owned += rep.shard_classes;
    EXPECT_EQ(rep.shard_pending, 0u) << "shard " << i;
  }
  EXPECT_EQ(owned, 17u);
  sweep_journal_header h{};
  std::vector<sweep_class_record> recs;
  const auto stats = merge_sweep_journals(paths, h, recs);
  EXPECT_EQ(stats.decided_classes, 17u);
  EXPECT_EQ(stats.missing_classes, 0u);
  EXPECT_EQ(stats.duplicates, 0u);
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(SweepShardTest, InvalidShardSpecRejected) {
  verify_options opt;
  opt.max_states = 100'000;
  sweep_schedule_options sched;
  sched.shard_index = 2;
  sched.shard_count = 2;  // index out of range
  EXPECT_THROW(verify_naming_sweep(3, machines(3, 2), two_in_cs, true, opt,
                                   true, sched),
               precondition_error);
}

// ---------------------------------------------------------------------------
// Acceptance: merged 2-shard totals == uninterrupted single-process totals,
// at m = 4 (with a killed-and-resumed shard) and at m = 5.
// ---------------------------------------------------------------------------

TEST(SweepShardTest, TwoShardMergeMatchesUninterruptedM4AfterKillResume) {
  const std::string j0 = temp_path("anoncoord-shard-m4-0.ckpt");
  const std::string j1 = temp_path("anoncoord-shard-m4-1.ckpt");
  const std::string jm = temp_path("anoncoord-shard-m4-merged.ckpt");
  const auto golden = run_single(4);
  ASSERT_EQ(golden.configs, 17u);

  const auto s0 = run_shard(4, 0, 2, j0);
  EXPECT_EQ(s0.shard_pending, 0u);

  // "Kill" shard 1 after 3 of its classes (max_classes is the deterministic
  // stand-in for an interrupt), tear its trailing record mid-write, then
  // resume it to completion.
  const auto killed = run_shard(4, 1, 2, j1, /*max_classes=*/3);
  EXPECT_EQ(killed.configs, 3u);
  EXPECT_GT(killed.shard_pending, 0u);
  {
    std::ofstream torn(j1, std::ios::app);
    torn << "class=12 violated=0 comp";  // no newline, died mid-field
  }
  const auto resumed = run_shard(4, 1, 2, j1);
  EXPECT_EQ(resumed.resumed_classes, 3u);
  EXPECT_EQ(resumed.shard_pending, 0u);

  sweep_journal_header h{};
  std::vector<sweep_class_record> recs;
  const auto stats = merge_sweep_journals({j0, j1}, h, recs);
  EXPECT_EQ(stats.missing_classes, 0u);
  write_sweep_journal(jm, h, recs);
  const auto merged = replay_journal(4, jm);
  EXPECT_EQ(merged.resumed_classes, 17u);
  EXPECT_EQ(merged.pending_classes, 0u);
  expect_sweeps_identical(golden, merged);

  std::remove(j0.c_str());
  std::remove(j1.c_str());
  std::remove(jm.c_str());
}

TEST(SweepShardTest, TwoShardMergeMatchesUninterruptedM5) {
  const std::string j0 = temp_path("anoncoord-shard-m5-0.ckpt");
  const std::string j1 = temp_path("anoncoord-shard-m5-1.ckpt");
  const std::string jm = temp_path("anoncoord-shard-m5-merged.ckpt");
  const auto golden = run_single(5);
  ASSERT_EQ(golden.configs, 73u);

  for (int i = 0; i < 2; ++i) {
    const auto rep = run_shard(5, i, 2, i == 0 ? j0 : j1);
    EXPECT_EQ(rep.shard_pending, 0u) << "shard " << i;
  }
  sweep_journal_header h{};
  std::vector<sweep_class_record> recs;
  const auto stats = merge_sweep_journals({j0, j1}, h, recs);
  EXPECT_EQ(stats.decided_classes, 73u);
  EXPECT_EQ(stats.missing_classes, 0u);
  write_sweep_journal(jm, h, recs);
  const auto merged = replay_journal(5, jm);
  expect_sweeps_identical(golden, merged);

  std::remove(j0.c_str());
  std::remove(j1.c_str());
  std::remove(jm.c_str());
}

// ---------------------------------------------------------------------------
// Cost-balanced shard slices (balanced_shard_bounds + class_costs).
// ---------------------------------------------------------------------------

TEST(SweepShardTest, BalancedBoundsEqualCostsDegenerateToCountSplit) {
  // With all costs equal, boundary k is the smallest i whose prefix covers
  // k/C of the total, i.e. ceil(n*k/C) — the mirror image of the classic
  // floor-based count split, equally balanced (shard sizes differ by at
  // most one from the fair share).
  const std::vector<std::uint64_t> costs(17, 5);
  const auto bounds = balanced_shard_bounds(costs, 5);
  ASSERT_EQ(bounds.size(), 6u);
  for (unsigned k = 0; k <= 5; ++k)
    EXPECT_EQ(bounds[k], (17u * k + 4u) / 5u) << "boundary " << k;
  for (unsigned k = 1; k <= 5; ++k) {
    const std::uint64_t size = bounds[k] - bounds[k - 1];
    EXPECT_GE(size, 3u);
    EXPECT_LE(size, 4u);
  }
}

TEST(SweepShardTest, BalancedBoundsPartitionAndBalanceSkewedCosts) {
  // One monster class (the ~50x skew ROADMAP measured): the monster's shard
  // must get nothing else, and every slice stays contiguous and disjoint
  // while covering all classes.
  std::vector<std::uint64_t> costs(10, 1);
  costs[3] = 100;
  const auto bounds = balanced_shard_bounds(costs, 3);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 10u);
  for (std::size_t k = 1; k < bounds.size(); ++k)
    EXPECT_LE(bounds[k - 1], bounds[k]);
  // The monster lands alone (plus at most its cheap left neighbors): the
  // shard containing index 3 carries >= 100/109 of the weight, so both
  // other shards together own the nine cheap classes.
  int monster_shard = -1;
  for (int k = 0; k < 3; ++k)
    if (bounds[static_cast<size_t>(k)] <= 3 &&
        3 < bounds[static_cast<size_t>(k) + 1])
      monster_shard = k;
  ASSERT_NE(monster_shard, -1);
  std::uint64_t monster_cost = 0;
  for (auto i = bounds[static_cast<size_t>(monster_shard)];
       i < bounds[static_cast<size_t>(monster_shard) + 1]; ++i)
    monster_cost += costs[static_cast<size_t>(i)];
  EXPECT_GE(monster_cost, 100u);
  EXPECT_LE(monster_cost - 100u, 3u);  // at most the three cheap left ones
}

TEST(SweepShardTest, BalancedBoundsClampZeroCostsAndTolerateFewClasses) {
  // Zero costs clamp to 1 so the prefix stays strictly increasing and the
  // final boundary lands on the class count even when zeros dominate.
  const auto z = balanced_shard_bounds({0, 0, 0, 0}, 2);
  ASSERT_EQ(z.size(), 3u);
  EXPECT_EQ(z[0], 0u);
  EXPECT_EQ(z[1], 2u);
  EXPECT_EQ(z[2], 4u);
  // More shards than classes: trailing shards own empty slices, nothing is
  // lost or duplicated.
  const auto few = balanced_shard_bounds({7, 7}, 5);
  ASSERT_EQ(few.size(), 6u);
  EXPECT_EQ(few.front(), 0u);
  EXPECT_EQ(few.back(), 2u);
  std::uint64_t covered = 0;
  for (std::size_t k = 1; k < few.size(); ++k) {
    EXPECT_LE(few[k - 1], few[k]);
    covered += few[k] - few[k - 1];
  }
  EXPECT_EQ(covered, 2u);
  // Empty sweep: all boundaries zero.
  const auto none = balanced_shard_bounds({}, 3);
  for (const auto b : none) EXPECT_EQ(b, 0u);
}

TEST(SweepShardTest, CostBalancedTwoShardMergeMatchesUninterruptedM4) {
  // The acceptance shape of the count-balanced test, with slices sized by
  // per-class cost: a prior run's journal supplies measured state counts,
  // both shards derive boundaries from the same vector, and the merged
  // totals must be bit-identical to the golden single-process sweep.
  const std::string jc = temp_path("anoncoord-shard-cost-prior.ckpt");
  const std::string j0 = temp_path("anoncoord-shard-cost-0.ckpt");
  const std::string j1 = temp_path("anoncoord-shard-cost-1.ckpt");
  const auto golden = run_single(4);
  ASSERT_EQ(golden.configs, 17u);

  // Record the measured per-class costs in a journal (the golden run again,
  // this time checkpointed), then read them back the way sweep_shard does.
  {
    verify_options opt;
    opt.max_states = 8'000'000;
    sweep_schedule_options sched;
    sched.checkpoint_path = jc;
    verify_naming_sweep(4, machines(4, 2), two_in_cs, true, opt, true, sched);
  }
  sweep_journal_header ch;
  ch.registers = 4;
  ch.processes = 2;
  ch.classes = 17;
  ch.orbit = true;
  ch.quotient = true;
  std::vector<sweep_class_record> crecs(17);
  ASSERT_EQ(load_sweep_journal(jc, ch, crecs), 17u);
  std::vector<std::uint64_t> costs(17);
  for (std::size_t i = 0; i < 17; ++i) {
    ASSERT_TRUE(crecs[i].done);
    costs[i] = crecs[i].states;
  }

  std::uint64_t owned = 0;
  for (int i = 0; i < 2; ++i) {
    verify_options opt;
    opt.max_states = 8'000'000;
    sweep_schedule_options sched;
    sched.shard_index = i;
    sched.shard_count = 2;
    sched.checkpoint_path = i == 0 ? j0 : j1;
    sched.class_costs = costs;
    const auto rep = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                         opt, true, sched);
    owned += rep.shard_classes;
    EXPECT_EQ(rep.shard_pending, 0u) << "shard " << i;
  }
  EXPECT_EQ(owned, 17u);

  sweep_journal_header h{};
  std::vector<sweep_class_record> recs;
  const auto stats = merge_sweep_journals({j0, j1}, h, recs);
  EXPECT_EQ(stats.decided_classes, 17u);
  EXPECT_EQ(stats.missing_classes, 0u);
  EXPECT_EQ(stats.duplicates, 0u);
  const std::string jm = temp_path("anoncoord-shard-cost-merged.ckpt");
  write_sweep_journal(jm, h, recs);
  const auto merged = replay_journal(4, jm);
  expect_sweeps_identical(golden, merged);

  std::remove(jc.c_str());
  std::remove(j0.c_str());
  std::remove(j1.c_str());
  std::remove(jm.c_str());
}

TEST(SweepShardTest, CostVectorSizeMismatchRejected) {
  verify_options opt;
  opt.max_states = 100'000;
  sweep_schedule_options sched;
  sched.class_costs.assign(1000, 1);  // far more costs than sweep classes
  EXPECT_THROW(verify_naming_sweep(3, machines(3, 2), two_in_cs, true, opt,
                                   true, sched),
               precondition_error);
}

// ---------------------------------------------------------------------------
// Synthetic journal edge cases for merge_sweep_journals.
// ---------------------------------------------------------------------------

sweep_journal_header test_header() {
  sweep_journal_header h;
  h.registers = 3;
  h.processes = 2;
  h.classes = 6;
  h.orbit = true;
  h.quotient = true;
  return h;
}

std::string rec_line(std::uint64_t idx, bool violated, bool complete,
                     std::uint64_t states) {
  sweep_class_record r;
  r.done = true;
  r.violated = violated;
  r.complete = complete;
  r.states = states;
  return format_sweep_record(idx, r) + "\n";
}

TEST(SweepJournalMergeTest, OverlappingIdenticalClaimsDedup) {
  // Two shards ran with overlapping slices; the overlap re-verified class 2
  // deterministically, so the duplicate claims agree and merge silently.
  const auto h = test_header();
  const std::string a = temp_path("anoncoord-merge-dup-a.ckpt");
  const std::string b = temp_path("anoncoord-merge-dup-b.ckpt");
  write_file(a, h.line() + "\n" + rec_line(0, false, true, 10) +
                    rec_line(1, true, true, 20) + rec_line(2, false, true, 5));
  write_file(b, h.line() + "\n" + rec_line(2, false, true, 5) +
                    rec_line(3, false, true, 7) + rec_line(4, true, true, 9) +
                    rec_line(5, false, true, 1));
  sweep_journal_header out{};
  std::vector<sweep_class_record> recs;
  const auto stats = merge_sweep_journals({a, b}, out, recs);
  EXPECT_EQ(out, h);
  EXPECT_EQ(stats.records, 7u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.decided_classes, 6u);
  EXPECT_EQ(stats.missing_classes, 0u);
  EXPECT_EQ(recs[2].states, 5u);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SweepJournalMergeTest, ConflictingClaimsRejected) {
  // The same class with different outcomes means the inputs are not shards
  // of one deterministic sweep — merging them would fabricate totals.
  const auto h = test_header();
  const std::string a = temp_path("anoncoord-merge-conflict-a.ckpt");
  const std::string b = temp_path("anoncoord-merge-conflict-b.ckpt");
  write_file(a, h.line() + "\n" + rec_line(2, false, true, 5));
  write_file(b, h.line() + "\n" + rec_line(2, false, true, 6));
  sweep_journal_header out{};
  std::vector<sweep_class_record> recs;
  EXPECT_THROW(merge_sweep_journals({a, b}, out, recs), precondition_error);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SweepJournalMergeTest, GappedRangesCountMissing) {
  // Shard 1 of 3 never ran: its slice shows up as missing classes, and the
  // merged journal still round-trips the classes that were decided.
  const auto h = test_header();
  const std::string a = temp_path("anoncoord-merge-gap-a.ckpt");
  const std::string b = temp_path("anoncoord-merge-gap-b.ckpt");
  write_file(a, h.line() + "\n" + rec_line(0, false, true, 10) +
                    rec_line(1, true, true, 20));
  write_file(b, h.line() + "\n" + rec_line(4, false, true, 7) +
                    rec_line(5, false, true, 3));
  sweep_journal_header out{};
  std::vector<sweep_class_record> recs;
  const auto stats = merge_sweep_journals({a, b}, out, recs);
  EXPECT_EQ(stats.decided_classes, 4u);
  EXPECT_EQ(stats.missing_classes, 2u);
  EXPECT_FALSE(recs[2].done);
  EXPECT_FALSE(recs[3].done);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SweepJournalMergeTest, TornTailInOneOfN) {
  // One journal ends in a record the dying process never finished writing;
  // the torn line is skipped and everything before it still merges.
  const auto h = test_header();
  const std::string a = temp_path("anoncoord-merge-torn-a.ckpt");
  const std::string b = temp_path("anoncoord-merge-torn-b.ckpt");
  write_file(a, h.line() + "\n" + rec_line(0, false, true, 10) +
                    rec_line(1, false, true, 4) + "class=2 violated=0 co");
  write_file(b, h.line() + "\n" + rec_line(3, false, true, 7) +
                    rec_line(4, false, true, 2) + rec_line(5, true, true, 9));
  sweep_journal_header out{};
  std::vector<sweep_class_record> recs;
  const auto stats = merge_sweep_journals({a, b}, out, recs);
  EXPECT_EQ(stats.skipped_lines, 1u);
  EXPECT_EQ(stats.decided_classes, 5u);
  EXPECT_EQ(stats.missing_classes, 1u);
  EXPECT_FALSE(recs[2].done);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(SweepJournalMergeTest, HeaderVersionMismatchRejected) {
  const auto h = test_header();
  const std::string a = temp_path("anoncoord-merge-hdr-a.ckpt");
  const std::string b = temp_path("anoncoord-merge-hdr-b.ckpt");
  const std::string c = temp_path("anoncoord-merge-hdr-c.ckpt");
  write_file(a, h.line() + "\n" + rec_line(0, false, true, 10));
  // Same format version, different sweep shape (m = 4, 24 classes).
  sweep_journal_header other = h;
  other.registers = 4;
  other.classes = 24;
  write_file(b, other.line() + "\n" + rec_line(0, false, true, 10));
  // Unknown format version string entirely.
  write_file(c, "anoncoord-sweep-ckpt-v9 registers=3 processes=2 classes=6 "
                "orbit=1 quotient=1\n");
  sweep_journal_header out{};
  std::vector<sweep_class_record> recs;
  EXPECT_THROW(merge_sweep_journals({a, b}, out, recs), precondition_error);
  EXPECT_THROW(merge_sweep_journals({a, c}, out, recs), precondition_error);
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(c.c_str());
}

TEST(SweepJournalMergeTest, MergeOfMergeIdempotent) {
  // Merging a merged journal (alone, or with one of its original inputs)
  // must reproduce the same canonical journal byte for byte.
  const auto h = test_header();
  const std::string a = temp_path("anoncoord-merge-idem-a.ckpt");
  const std::string b = temp_path("anoncoord-merge-idem-b.ckpt");
  const std::string m1 = temp_path("anoncoord-merge-idem-m1.ckpt");
  const std::string m2 = temp_path("anoncoord-merge-idem-m2.ckpt");
  // Records arrive out of order and with a gap: the writer canonicalizes.
  write_file(a, h.line() + "\n" + rec_line(4, true, true, 9) +
                    rec_line(0, false, true, 10));
  write_file(b, h.line() + "\n" + rec_line(2, false, true, 5) +
                    rec_line(1, false, true, 3));
  sweep_journal_header out{};
  std::vector<sweep_class_record> recs;
  merge_sweep_journals({a, b}, out, recs);
  write_sweep_journal(m1, out, recs);

  sweep_journal_header out2{};
  std::vector<sweep_class_record> recs2;
  const auto again = merge_sweep_journals({m1, a}, out2, recs2);
  EXPECT_EQ(again.duplicates, 2u);  // every record of `a` is already in m1
  write_sweep_journal(m2, out2, recs2);
  EXPECT_EQ(read_file(m1), read_file(m2));
  EXPECT_NE(read_file(m1), "");

  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(m1.c_str());
  std::remove(m2.c_str());
}

}  // namespace
}  // namespace anoncoord
