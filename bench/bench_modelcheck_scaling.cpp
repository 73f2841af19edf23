// Verification-throughput scaling: wall time of the BFS explorer against its
// worker count, and of the m = 4 naming sweep against a two-shard split.
// The deterministic results these runs rest on (state counts, reduction
// factors, bytes per state, spill budgets) are pinned in ctest; this bench
// only times them.
//
// Worker table — state-space exploration: the explorer at one worker vs
// 1/2/4/8 workers (full verification: ME safety + EF-progress) on the
// reference configuration (Fig. 1 mutex, n = 2, m = 5, process 1 rotated by
// 2), with states and wall time per run. Verdicts, state counts and counterexamples
// are bit-identical by construction; the table shows it.
//
// Sharded sweep — the m = 4 quotient sweep single-process vs split across
// two journaling shards whose journals are merged and replayed through the
// production aggregator. The merged weighted totals
// must equal the single-process run's and cover every class; the 2-shard
// speedup must reach 1.8x on hosts with >= 2 cores (the gate is skipped,
// and says so, on a single-core host). The journals are named after the
// process id, so concurrent runs on one host never resume each other's
// classes. Merge record/duplicate/missing counts land in the JSON metrics
// counters.
//
//   ./bench_modelcheck_scaling [--reps=3]
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/anon_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/sweep_journal.hpp"
#include "modelcheck/verify.hpp"
#include "util/cli.hpp"
#include "util/permutation.hpp"
#include "util/probe_group.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

#include "bench_json.hpp"

using namespace anoncoord;

namespace {

/// The worker table: the explorer at one worker and at 1/2/4/8 workers.
/// Repetitions are interleaved across the engines so a noisy scheduling
/// window hits all of them alike; each engine reports its best rep. Returns
/// whether every worker count's verdict, states and counterexample equal
/// one worker's.
bool run_worker_table(int reps, benchjson::bench_reporter& report) {
  const int m = 5;
  const naming_assignment naming(
      {identity_permutation(m), rotation_permutation(m, 2)});
  const std::vector<int> worker_counts{1, 2, 4, 8};
  mutex_check_result seq_res;
  std::vector<mutex_check_result> par_res(worker_counts.size());
  double seq_time = 0;
  std::vector<double> par_time(worker_counts.size(), 0);
  for (int rep = 0; rep < reps; ++rep) {
    {
      stopwatch t;
      seq_res = check_anon_mutex(m, naming, {1, 2}, 8'000'000,
                                 /*symmetry=*/false);
      const double s = t.elapsed_seconds();
      if (rep == 0 || s < seq_time) seq_time = s;
    }
    for (std::size_t w = 0; w < worker_counts.size(); ++w) {
      stopwatch t;
      par_res[w] = check_anon_mutex(m, naming, {1, 2}, 8'000'000,
                                    /*symmetry=*/false, worker_counts[w]);
      const double s = t.elapsed_seconds();
      if (rep == 0 || s < par_time[w]) par_time[w] = s;
    }
  }

  report.sample("bfs_seconds", seq_time, "s");
  report.sample("bfs_states", static_cast<double>(seq_res.num_states));
  ascii_table table({"engine", "workers", "states", "verdict", "ms",
                     "speedup"});
  table.add("bfs (baseline)", 1, seq_res.num_states, seq_res.verdict(),
            seq_time * 1e3, 1.0);
  bool identical = true;
  double speedup_at_8 = 0;
  for (std::size_t w = 0; w < worker_counts.size(); ++w) {
    const mutex_check_result& res = par_res[w];
    identical = identical && res.num_states == seq_res.num_states &&
                res.verdict() == seq_res.verdict() &&
                res.counterexample == seq_res.counterexample;
    const double speedup = seq_time / par_time[w];
    if (worker_counts[w] == 8) speedup_at_8 = speedup;
    report.sample(
        "parallel_bfs_seconds/workers=" + std::to_string(worker_counts[w]),
        par_time[w], "s");
    table.add("parallel", worker_counts[w], res.num_states, res.verdict(),
              par_time[w] * 1e3, speedup);
  }
  report.sample("parallel_speedup_at_8", speedup_at_8, "x");
  std::cout << table.render() << "\n";
  std::cout << "verdicts/states/counterexamples bit-identical to one worker: "
            << (identical ? "yes" : "NO — BUG") << "\n\n";
  return identical;
}

/// The three journal files of one sharded-sweep run, named after this
/// process so that two runs on one host never share them, and removed when
/// the run ends — normally or by an exception.
struct shard_journals {
  std::string shard0, shard1, merged;

  shard_journals() {
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("anoncoord_bench_" + std::to_string(::getpid())))
            .string();
    shard0 = stem + "_shard0.ckpt";
    shard1 = stem + "_shard1.ckpt";
    merged = stem + "_merged.ckpt";
  }
  shard_journals(const shard_journals&) = delete;
  shard_journals& operator=(const shard_journals&) = delete;
  ~shard_journals() { clear(); }

  void clear() const {
    for (const std::string* p : {&shard0, &shard1, &merged})
      std::remove(p->c_str());
  }
};

/// The sharded sweep: the m = 4 quotient sweep (17 orbit classes),
/// single-process vs two shards journaling their slices, then merged and
/// replayed through the production aggregator. Returns whether the merged
/// totals match and, on a host with >= 2 cores, the speedup reached 1.8x.
bool run_shard_sweep(int reps, unsigned hw_cores,
                     benchjson::bench_reporter& report) {
  const int m = 4;
  std::vector<anon_mutex> procs;
  procs.emplace_back(1, m);
  procs.emplace_back(2, m);
  const config_predicate<anon_mutex> two_in_cs =
      [](const std::vector<process_id>&, const std::vector<anon_mutex>& ps) {
        int c = 0;
        for (const auto& p : ps)
          if (p.in_critical_section()) ++c;
        return c >= 2;
      };
  verify_options opt;
  opt.max_states = 8'000'000;
  const shard_journals journals;

  naming_sweep_report single{};
  double t_single = 0;
  for (int rep = 0; rep < reps; ++rep) {
    stopwatch t;
    single = verify_naming_sweep(m, procs, two_in_cs, true, opt, true);
    const double s = t.elapsed_seconds();
    if (rep == 0 || s < t_single) t_single = s;
  }
  double t_shard = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // A journal left by the previous rep would resume (skip) its classes
    // and fake the timing, so every rep starts from empty journals.
    journals.clear();
    stopwatch t;
    const auto run_shard = [&](int idx, const std::string& path) {
      sweep_schedule_options ss;
      ss.shard_index = idx;
      ss.shard_count = 2;
      ss.checkpoint_path = path;
      verify_naming_sweep(m, procs, two_in_cs, true, opt, true, ss);
    };
    std::thread s0(run_shard, 0, journals.shard0);
    std::thread s1(run_shard, 1, journals.shard1);
    s0.join();
    s1.join();
    const double s = t.elapsed_seconds();
    if (rep == 0 || s < t_shard) t_shard = s;
  }

  sweep_journal_header mh{};
  std::vector<sweep_class_record> mrecs;
  const sweep_merge_stats ms =
      merge_sweep_journals({journals.shard0, journals.shard1}, mh, mrecs);
  write_sweep_journal(journals.merged, mh, mrecs);
  // Resume the merged journal through the production sweep: every class
  // comes back from the journal, none is re-verified, and the weighted
  // totals are recomputed by the same aggregation loop the shards used.
  sweep_schedule_options msched;
  msched.checkpoint_path = journals.merged;
  const naming_sweep_report merged =
      verify_naming_sweep(m, procs, two_in_cs, true, opt, true, msched);
  const bool totals_match =
      ms.missing_classes == 0 && merged.pending_classes == 0 &&
      merged.resumed_classes == single.configs &&
      merged.configs == single.configs &&
      merged.full_configs == single.full_configs &&
      merged.violated == single.violated &&
      merged.full_violated == single.full_violated &&
      merged.incomplete == single.incomplete &&
      merged.total_states == single.total_states;
  const double speedup = t_shard > 0 ? t_single / t_shard : 0;
  const bool speedup_ok = hw_cores < 2 || speedup >= 1.8;

  ascii_table table({"mode", "classes", "weighted-tuples", "states", "ms"});
  table.add("single process", single.configs, single.full_configs,
            single.total_states, t_single * 1e3);
  table.add("2 shards + merge", merged.configs, merged.full_configs,
            merged.total_states, t_shard * 1e3);
  std::cout << table.render() << "\n";
  std::cout << "sharded sweep m=" << m << ": merge records=" << ms.records
            << " duplicates=" << ms.duplicates
            << " missing-classes=" << ms.missing_classes
            << ", merged totals bit-identical to single-process: "
            << (totals_match ? "yes" : "NO — BUG") << ", 2-shard speedup "
            << speedup << "x";
  if (hw_cores >= 2)
    std::cout << " (target >= 1.8x: " << (speedup_ok ? "met" : "NOT MET")
              << ")";
  else
    std::cout << " (single-core host: 1.8x speedup gate skipped)";
  std::cout << "\n\n";

  report.sample("shard_sweep_seconds/single", t_single, "s");
  report.sample("shard_sweep_seconds/two_shards", t_shard, "s");
  report.sample("shard_speedup", speedup, "x");
  report.metric("shard_count", 2);
  report.metric("shard_merge_records", ms.records);
  report.metric("shard_merge_duplicates", ms.duplicates);
  report.metric("shard_merge_missing", ms.missing_classes);
  report.metric("shard_totals_match", totals_match ? 1 : 0);
  report.metric("shard_speedup_ok", speedup_ok ? 1 : 0);
  return totals_match && speedup_ok;
}

}  // namespace

int main(int argc, char** argv) {
  cli_args args;
  args.define("reps", "3", "timing repetitions (best-of)");
  if (!args.parse(argc, argv)) {
    std::cout << args.help("bench_modelcheck_scaling");
    return 0;
  }
  const int reps = std::max(1, static_cast<int>(args.get_int("reps")));
  const unsigned hw_cores = std::max(1u, std::thread::hardware_concurrency());
  benchjson::bench_reporter report("bench_modelcheck_scaling");
  report.config("probe_backend", probe_backend());
  report.config("reps", reps);
  report.config("hardware_concurrency", static_cast<int>(hw_cores));

  std::cout << "Model-checking throughput — Fig. 1 mutex, n = 2 "
               "(hardware_concurrency="
            << hw_cores
            << (hw_cores < 2 ? ": parallel speedup not measurable here" : "")
            << ")\n\n";
  try {
    const bool identical = run_worker_table(reps, report);
    const bool shards_ok = run_shard_sweep(reps, hw_cores, report);
    report.metric("verdicts_match", identical ? 1 : 0);
    report.write();
    return identical && shards_ok ? 0 : 1;
  } catch (const std::exception& e) {
    // Caught here so that the stack unwinds and the shard journals go.
    std::cerr << "bench_modelcheck_scaling: " << e.what() << "\n";
    return 1;
  }
}
