// Verification-throughput scaling: the BFS explorer's worker stage and its
// reductions against their one-worker / unreduced baselines,
// on the fixed reference configuration (Fig. 1 mutex, n = 2, m = 5,
// process 1 rotated by 2).
//
// Part 1 — state-space exploration: the explorer at one worker vs the
// explorer at 1/2/4/8 workers (full verification: ME safety +
// EF-progress), with states, dedup hits and wall time per run. Verdicts and
// state counts are bit-identical by construction; the table shows it.
//
// There is no part 2; the other parts keep their numbers so that existing
// --part=N selections stay valid.
//
// Part 3 — symmetry reduction: stored-state counts with orbit
// canonicalization off vs on. Two configurations: the shared-naming n = 2
// reference (automorphism group of size n! = 2 — the mathematical ceiling
// for sound in-exploration reduction, so the honest factor is 2x) and the
// n = 3 shared-naming config on two registers (group size 3! = 6, measured
// >= 3x to the verdict). Also reports the interned compact-store footprint.
//
// Part 4 — naming-orbit sweep: full verification of EVERY naming assignment
// at m = 3 (36 configs) vs one representative per m!-orbit (6 configs);
// verdict counts must agree exactly (full = orbit x m!) and the sweep runs
// >= 5x faster.
//
// Part 5 — packed state arenas: bit-packed row storage on the reference
// config and on a deadlocking even-m config (so a counterexample schedule is
// decoded through the packed path). Verdicts, state counts and
// counterexample schedules must be identical at one and two workers, and the
// packed footprint must stay <= 12 B per stored state; any disagreement
// makes the bench exit nonzero.
//
// Part 6 — out-of-core spilling: the reference config re-verified with the
// packed arena capped at one third of its measured in-memory footprint,
// at one and at two workers. Verdicts, state counts and counterexamples must be
// bit-identical to the in-memory runs and the arena's resident high-water
// mark must stay under budget + slack; any divergence exits nonzero.
// spill_pages / spill_bytes / resident high-water land in the JSON metrics
// counters (not result series — they are not deterministic across engines).
//
// Part 7 — full product-group symmetry: the fully anonymous mutex
// (fa_mutex, arXiv 1909.05576) explored raw vs reduced under the
// S_n x C_m product group — n! x m elements, past the n! ceiling that
// bounds part 3's process-symmetric machines. Gates: the measured factor
// must exceed part 3's ceilings (> 2.0 at n = 2, > 5.53 at n = 3),
// verdicts and state counts must be bit-identical across raw, reduced and
// reduced at two workers, and the deadlock counterexample
// found on the quotient graph must replay to a genuine deadlock on raw
// semantics (the fold through both group factors). Any divergence exits
// nonzero.
//
// Part 8 — sharded sweep execution: the m = 4 quotient sweep single-process
// vs split across two journaling shards whose journals are merged and
// replayed through the production aggregator. The merged weighted totals
// must be bit-identical to the single-process run and cover every class;
// the 2-shard speedup must reach 1.8x on hosts with >= 2 cores (the gate is
// skipped, and says so, on a single-core host). Merge record/duplicate/
// missing counts land in the JSON metrics counters.
//
// --part=N runs a single part (1, 3-8; 0 = all) so CI perf-smoke jobs can
// scope to the gates they diff. Skipped parts report nothing and their
// acceptance gates pass vacuously.
//
// With --sweep-m=6 (or 7) also runs the full weighted naming sweep at that
// m through the polynomial orbit classes — minutes of work, off by default.
// The sweep runs on --sweep-workers threads and, with --sweep-checkpoint, is
// resumable: each completed orbit class appends a journal record, and an
// interrupted run (--sweep-max-classes caps classes per invocation) picks up
// where it stopped with identical weighted totals.
//
//   ./bench_modelcheck_scaling [--part=0] [--m=5] [--stride=2] [--reps=3]
//                              [--sweep-m=0]
//                              [--sweep-workers=1] [--sweep-checkpoint=FILE]
//                              [--sweep-max-classes=0]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/anon_mutex.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/fa_check.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/sweep_journal.hpp"
#include "modelcheck/verify.hpp"
#include "util/arena.hpp"
#include "util/cli.hpp"
#include "util/permutation.hpp"
#include "util/probe_group.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

#include "bench_json.hpp"

using namespace anoncoord;

int main(int argc, char** argv) {
  cli_args args;
  args.define("m", "5", "registers in the reference config (Fig. 1, n = 2)");
  args.define("stride", "2", "rotation offset of process 1's numbering");
  args.define("reps", "3", "timing repetitions (best-of)");
  args.define("sweep-m", "0",
              "if >= 2, also run the full weighted naming sweep at this m "
              "(m = 6 takes minutes)");
  args.define("sweep-workers", "1",
              "worker threads for the --sweep-m orbit-class jobs");
  args.define("sweep-checkpoint", "",
              "journal file making the --sweep-m sweep resumable");
  args.define("sweep-max-classes", "0",
              "verify at most this many classes per invocation (0 = all; "
              "use with --sweep-checkpoint to split a long sweep)");
  args.define("part", "0", "run only this part (1, 3-8; 0 = all)");
  if (!args.parse(argc, argv)) {
    std::cout << args.help("bench_modelcheck_scaling");
    return 0;
  }
  const int m = static_cast<int>(args.get_int("m"));
  const int stride = static_cast<int>(args.get_int("stride"));
  const int reps = std::max(1, static_cast<int>(args.get_int("reps")));
  const int sweep_quotient_m = static_cast<int>(args.get_int("sweep-m"));
  const int sweep_workers =
      std::max(1, static_cast<int>(args.get_int("sweep-workers")));
  const std::string sweep_checkpoint = args.get("sweep-checkpoint");
  const std::uint64_t sweep_max_classes =
      static_cast<std::uint64_t>(args.get_int("sweep-max-classes"));
  const int part_sel = static_cast<int>(args.get_int("part"));
  const auto run_part = [&](int p) { return part_sel == 0 || part_sel == p; };
  benchjson::bench_reporter report("bench_modelcheck_scaling");
  report.config("probe_backend", probe_backend());
  report.config("part", part_sel);
  report.config("m", m);
  report.config("stride", stride);
  report.config("reps", reps);
  const unsigned hw_cores = std::max(1u, std::thread::hardware_concurrency());
  report.config("hardware_concurrency", static_cast<int>(hw_cores));

  naming_assignment naming(
      {identity_permutation(m), rotation_permutation(m, stride)});

  std::cout << "Model-checking throughput — Fig. 1 mutex, n = 2, m = " << m
            << ", stride " << stride << "\n\n";

  // Shared across parts: the reference-config machines/model_config and the
  // two-in-CS safety predicate.
  std::vector<anon_mutex> machines;
  machines.emplace_back(1, m);
  machines.emplace_back(2, m);
  model_config<anon_mutex> cfg{m, naming, machines};
  const config_predicate<anon_mutex> two_in_cs =
      [](const std::vector<process_id>&, const std::vector<anon_mutex>& ps) {
        int c = 0;
        for (const auto& p : ps)
          if (p.in_critical_section()) ++c;
        return c >= 2;
      };

  // -------------------------------------------------------------------
  // Part 1: BFS exploration, one worker vs the worker sweep.
  // Repetitions are interleaved across the engines (seq, then each worker
  // count, then the next rep) so a noisy scheduling window hits all of
  // them alike instead of biasing whichever engine it happened to cover;
  // each engine reports its best rep.
  // -------------------------------------------------------------------
  bool identical = true;
  double speedup_at_8 = 0;
  if (run_part(1)) {
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
    ascii_table bfs_table({"engine", "workers", "states", "dedup-hits",
                           "verdict", "ms", "speedup"});
    bfs_table.add("bfs (baseline)", 1, seq_res.num_states,
                  std::uint64_t{0} /*n/a*/, seq_res.verdict(), seq_time * 1e3,
                  1.0);

    for (std::size_t w = 0; w < worker_counts.size(); ++w) {
      const int workers = worker_counts[w];
      const mutex_check_result& res = par_res[w];
      const double t = par_time[w];
      identical = identical && res.num_states == seq_res.num_states &&
                  res.verdict() == seq_res.verdict() &&
                  res.counterexample == seq_res.counterexample;
      const double speedup = seq_time / t;
      if (workers == 8) speedup_at_8 = speedup;
      report.sample("parallel_bfs_seconds/workers=" + std::to_string(workers),
                    t, "s");
      // dedup hits: from a safety-only verify_config run.
      verify_options vopt;
      vopt.workers = workers;
      vopt.max_states = 8'000'000;
      const auto stats = verify_config<anon_mutex>(cfg, two_in_cs, vopt);
      bfs_table.add("parallel", workers, res.num_states, stats.dedup_hits,
                    res.verdict(), t * 1e3, speedup);
    }
    std::cout << bfs_table.render() << "\n";
    std::cout << "verdicts/states/counterexamples bit-identical to "
                 "sequential: "
              << (identical ? "yes" : "NO — BUG") << "\n";
    std::cout << "hardware_concurrency=" << hw_cores
              << (hw_cores < 2 ? " (single core: parallel speedup not "
                                 "measurable on this host)"
                               : "")
              << "\n\n";
  }

  // -------------------------------------------------------------------
  // Part 3: orbit canonicalization, stored states off vs on.
  // -------------------------------------------------------------------
  double reduction_n2 = 0, reduction_n3 = 0;
  bool symmetry_verdicts_match = true;
  if (run_part(3)) {
  ascii_table sym_table({"config", "group", "raw-states", "orbit-states",
                         "reduction", "raw-ms", "orbit-ms", "verdicts"});
  struct sym_config {
    const char* name;
    int registers;
    int processes;
  };
  for (const sym_config sc : {sym_config{"shared naming, n=2", m, 2},
                              sym_config{"shared naming, n=3", 2, 3}}) {
    const naming_assignment shared(std::vector<permutation>(
        static_cast<std::size_t>(sc.processes),
        identity_permutation(sc.registers)));
    std::vector<anon_mutex> procs;
    for (int p = 0; p < sc.processes; ++p)
      procs.emplace_back(static_cast<process_id>(p + 1), sc.registers);
    const auto group = symmetry_group<anon_mutex>::compute(shared, procs);
    const auto bad = [](const global_state<anon_mutex>& s) {
      return mutex_cs_count(s) >= 2;
    };
    explorer<anon_mutex>::options eopt;
    eopt.max_states = 8'000'000;
    explorer<anon_mutex>::result raw_res, orbit_res;
    double raw_t = 0, orbit_t = 0;
    for (int rep = 0; rep < reps; ++rep) {
      stopwatch t1;
      explorer<anon_mutex> raw(sc.registers, shared, procs, eopt);
      raw_res = raw.explore(bad);
      const double s1 = t1.elapsed_seconds();
      if (rep == 0 || s1 < raw_t) raw_t = s1;
      eopt.symmetry = true;
      stopwatch t2;
      explorer<anon_mutex> orbit(sc.registers, shared, procs, eopt);
      orbit_res = orbit.explore(bad);
      const double s2 = t2.elapsed_seconds();
      if (rep == 0 || s2 < orbit_t) orbit_t = s2;
      eopt.symmetry = false;
      if (rep + 1 == reps) {
        // Compact-store footprint on the final raw run.
        report.sample("packed_bytes_per_state/n=" +
                          std::to_string(sc.processes),
                      static_cast<double>(4 * (sc.registers + sc.processes)),
                      "B");
        report.sample("pool_storage_bytes/n=" + std::to_string(sc.processes),
                      static_cast<double>(raw.pool().storage_bytes()), "B");
      }
    }
    // Raw and reduced BFS may surface different (equally short)
    // counterexamples; require matching verdicts and depths, and replay the
    // reduced schedule under raw semantics to confirm it is genuine.
    bool verdicts_ok =
        raw_res.safety_violated() == orbit_res.safety_violated() &&
        raw_res.bad_schedule.size() == orbit_res.bad_schedule.size();
    if (verdicts_ok && orbit_res.safety_violated()) {
      std::vector<process_id> regs(static_cast<std::size_t>(sc.registers), 0);
      auto replay = procs;
      for (int p : orbit_res.bad_schedule) {
        permuted_vector_memory<process_id> view(regs, shared.of(p));
        replay[static_cast<std::size_t>(p)].step(view);
      }
      verdicts_ok = bad({regs, replay});
    }
    symmetry_verdicts_match = symmetry_verdicts_match && verdicts_ok;
    const double reduction = static_cast<double>(raw_res.num_states) /
                             static_cast<double>(orbit_res.num_states);
    (sc.processes == 2 ? reduction_n2 : reduction_n3) = reduction;
    const std::string tag = "n=" + std::to_string(sc.processes);
    report.sample("symmetry_raw_states/" + tag,
                  static_cast<double>(raw_res.num_states));
    report.sample("symmetry_orbit_states/" + tag,
                  static_cast<double>(orbit_res.num_states));
    report.sample("symmetry_reduction/" + tag, reduction, "x");
    sym_table.add(sc.name, group.size(), raw_res.num_states,
                  orbit_res.num_states, reduction, raw_t * 1e3, orbit_t * 1e3,
                  verdicts_ok ? "match" : "MISMATCH");
  }
  std::cout << sym_table.render() << "\n";
  }

  // -------------------------------------------------------------------
  // Part 4: full naming sweep vs orbit representatives (m = 3 fixed: the
  // full sweep is (m!)^n configs and grows hopeless fast).
  // -------------------------------------------------------------------
  double sweep_speedup = 0;
  bool sweep_verdicts_match = true;
  if (run_part(4)) {
    const int sweep_m = 3;
    std::vector<anon_mutex> sweep_procs;
    sweep_procs.emplace_back(1, sweep_m);
    sweep_procs.emplace_back(2, sweep_m);
    verify_options sweep_opt;
    sweep_opt.max_states = 1'000'000;
    naming_sweep_report full_sweep, orbit_sweep;
    double full_t = 0, orbit_t = 0;
    for (int rep = 0; rep < reps; ++rep) {
      full_sweep = verify_naming_sweep(sweep_m, sweep_procs, two_in_cs, false,
                                       sweep_opt);
      if (rep == 0 || full_sweep.wall_seconds < full_t)
        full_t = full_sweep.wall_seconds;
      orbit_sweep = verify_naming_sweep(sweep_m, sweep_procs, two_in_cs, true,
                                        sweep_opt);
      if (rep == 0 || orbit_sweep.wall_seconds < orbit_t)
        orbit_t = orbit_sweep.wall_seconds;
    }
    sweep_speedup = orbit_t > 0 ? full_t / orbit_t : 0.0;
    // Free m!-action: the full sweep must decompose into orbits exactly.
    sweep_verdicts_match =
        full_sweep.configs ==
            orbit_sweep.configs * naming_orbit_size(sweep_m) &&
        full_sweep.violated ==
            orbit_sweep.violated * naming_orbit_size(sweep_m) &&
        full_sweep.incomplete == 0 && orbit_sweep.incomplete == 0;
    ascii_table sweep_table(
        {"sweep", "configs", "violated", "states", "ms", "speedup"});
    sweep_table.add("full (m!)^n", full_sweep.configs, full_sweep.violated,
                    full_sweep.total_states, full_t * 1e3, 1.0);
    sweep_table.add("orbit reps", orbit_sweep.configs, orbit_sweep.violated,
                    orbit_sweep.total_states, orbit_t * 1e3, sweep_speedup);
    std::cout << sweep_table.render() << "\n";
    report.sample("naming_sweep_full_seconds", full_t, "s");
    report.sample("naming_sweep_orbit_seconds", orbit_t, "s");
    report.sample("naming_sweep_speedup", sweep_speedup, "x");
    report.metric("naming_sweep_verdicts_match", sweep_verdicts_match ? 1 : 0);
  }

  // -------------------------------------------------------------------
  // Part 5: packed state arenas at one and two workers. The deadlock config
  // decodes a stuck-schedule counterexample through the packed path; the
  // reference config carries the <= 12 B/state bound.
  // -------------------------------------------------------------------
  bool arena_match = true;
  bool arena_bytes_ok = true;
  double compressed_bps = 0;
  if (run_part(5)) {
  ascii_table arena_table({"config", "workers", "states", "B/state",
                           "epochs", "verdict", "cex-len", "ms"});
  struct arena_config {
    const char* name;
    int m;
    int stride;
    bool is_reference;
  };
  for (const arena_config ac :
       {arena_config{"reference", m, stride, true},
        arena_config{"deadlock m=4", 4, 2, false}}) {
    const naming_assignment anm({identity_permutation(ac.m),
                                 rotation_permutation(ac.m, ac.stride)});
    const auto amach = detail::mutex_machines(ac.m, anm, {1, 2});
    mutex_check_result base;
    for (const int workers : {1, 2}) {
      mutex_check_result res;
      std::uint64_t row_bytes = 0, keyframes = 0;
      double t_best = 0;
      for (int rep = 0; rep < reps; ++rep) {
        stopwatch t;
        explorer<anon_mutex>::options eopt;
        eopt.workers = workers;
        eopt.max_states = 8'000'000;
        explorer<anon_mutex> e(ac.m, anm, amach, eopt);
        res = detail::run_mutex_check(e);
        row_bytes = e.stored_row_bytes();
        keyframes = e.keyframe_rows();
        const double s = t.elapsed_seconds();
        if (rep == 0 || s < t_best) t_best = s;
      }
      const double bps = res.num_states
                             ? static_cast<double>(row_bytes) /
                                   static_cast<double>(res.num_states)
                             : 0.0;
      if (workers == 1) {
        base = res;
        if (ac.is_reference) compressed_bps = bps;
      } else {
        arena_match = arena_match && res.verdict() == base.verdict() &&
                      res.num_states == base.num_states &&
                      res.counterexample == base.counterexample;
      }
      const std::string tag = std::string(ac.is_reference ? "ref" : "dead") +
                              "/compressed" +
                              (workers > 1 ? "/parallel" : "");
      report.sample("arena_bytes_per_state/" + tag, bps, "B");
      report.sample("arena_seconds/" + tag, t_best, "s");
      arena_table.add(ac.name, workers, res.num_states, bps, keyframes,
                      res.verdict(), res.counterexample.size(), t_best * 1e3);
    }
  }
  arena_bytes_ok = compressed_bps > 0 && compressed_bps <= 12.0;
  std::cout << arena_table.render() << "\n";
  std::cout << "packed rows: " << compressed_bps
            << " B/state on the reference config (bound <= 12), "
            << "verdicts/states/counterexamples identical at 1 and 2 "
               "workers: "
            << (arena_match ? "yes" : "NO — BUG") << "\n\n";
  report.metric("arena_verdicts_match", arena_match ? 1 : 0);
  report.metric("arena_bytes_bound_met", arena_bytes_ok ? 1 : 0);
  }

  // -------------------------------------------------------------------
  // Part 6: out-of-core spilling. Measure the in-memory packed arena
  // footprint on the reference config, cap the resident budget at a third
  // of it, and re-verify at one and two workers: bit-identical results, real
  // spill traffic, and an arena high-water mark that respects the budget.
  // -------------------------------------------------------------------
  bool spill_match = true;
  bool spill_budget_held = true;
  bool spill_refault_bounded = true;
  std::uint64_t spill_budget = 0;
  arena_spill_stats worst_spill{};
  arena_spill_stats seq_spill{};
  if (run_part(6)) {
    const auto oc_mach = detail::mutex_machines(m, naming, {1, 2});
    ascii_table spill_table({"engine", "states", "verdict", "spill-pages",
                             "spill-KB", "resident-hw-KB", "faulted",
                             "point-reads", "ms"});
    mutex_check_result mem_res;
    std::uint64_t inmem_bytes = 0;
    double mem_t = 0;
    {
      stopwatch t;
      explorer<anon_mutex>::options eopt;
      eopt.max_states = 8'000'000;
      explorer<anon_mutex> e(m, naming, oc_mach, eopt);
      mem_res = detail::run_mutex_check(e);
      inmem_bytes = e.stored_row_bytes();
      mem_t = t.elapsed_seconds();
      spill_table.add("in-memory", mem_res.num_states, mem_res.verdict(),
                      std::uint64_t{0}, 0.0, 0.0, std::uint64_t{0},
                      std::uint64_t{0}, mem_t * 1e3);
    }
    spill_budget = inmem_bytes / 3;
    // Budget overshoot allowance: the open head page rides over, and the
    // current frontier window's pages stay resident while it is expanded.
    const std::uint64_t slack = 8 * byte_arena::kPageSize;
    struct spill_engine {
      const char* name;
      int workers;
    };
    for (const spill_engine se :
         {spill_engine{"spill", 1}, spill_engine{"spill, 2 workers", 2}}) {
      stopwatch t;
      explorer<anon_mutex>::options eopt;
      eopt.workers = se.workers;
      eopt.max_states = 8'000'000;
      eopt.spill_budget_bytes = spill_budget;
      explorer<anon_mutex> e(m, naming, oc_mach, eopt);
      const mutex_check_result res = detail::run_mutex_check(e);
      const arena_spill_stats st = e.spill_stats();
      const double t_run = t.elapsed_seconds();
      spill_match = spill_match && res.verdict() == mem_res.verdict() &&
                    res.num_states == mem_res.num_states &&
                    res.counterexample == mem_res.counterexample &&
                    st.spilled_pages > 0;
      spill_budget_held =
          spill_budget_held && st.resident_hw_bytes <= spill_budget + slack;
      if (se.workers == 1) seq_spill = st;
      if (st.spilled_pages > worst_spill.spilled_pages) worst_spill = st;
      spill_table.add(se.name, res.num_states, res.verdict(),
                      st.spilled_pages,
                      static_cast<double>(st.spill_bytes) / 1024.0,
                      static_cast<double>(st.resident_hw_bytes) / 1024.0,
                      st.faulted_pages, st.point_reads, t_run * 1e3);
      report.sample(std::string("spill_seconds/") +
                        (se.workers > 1 ? "parallel" : "seq"),
                    t_run, "s");
    }
    // Spill-counter assertion for the offset-ordered scans: the explorer
    // prefetches each frontier window's rows as one arena page
    // range, and the progress pass does the same, so a cold page faults back
    // in at most once per scan. If a scan regressed to scattered access, the
    // clock would evict and re-fault the same pages repeatedly and
    // faulted_pages would run a multiple of spilled_pages. Duplicate probes
    // read their matched rows all over the arena; those reads copy the row
    // out of the spill file (point-reads) and never fault a page in.
    spill_refault_bounded = seq_spill.spilled_pages > 0 &&
                            seq_spill.faulted_pages <=
                                2 * seq_spill.spilled_pages;
    std::cout << spill_table.render() << "\n";
    std::cout << "out-of-core: budget " << spill_budget / 1024
              << " KB (in-memory footprint " << inmem_bytes / 1024
              << " KB / 3), verdicts/states/counterexamples bit-identical "
              << "with real spilling: " << (spill_match ? "yes" : "NO — BUG")
              << ", resident high-water within budget+slack: "
              << (spill_budget_held ? "yes" : "NO — BUG")
              << ", seq refaults bounded (faulted " << seq_spill.faulted_pages
              << " <= 2 x spilled " << seq_spill.spilled_pages
              << "): " << (spill_refault_bounded ? "yes" : "NO — BUG")
              << "\n\n";
    // Counters, not result series: spill traffic follows the arena's
    // eviction policy, not the verdict, so it stays out of the
    // deterministic gate.
    report.metric("spill_pages", worst_spill.spilled_pages);
    report.metric("spill_bytes", worst_spill.spill_bytes);
    report.metric("spill_resident_hw_bytes", worst_spill.resident_hw_bytes);
    report.metric("spill_budget_bytes", spill_budget);
    report.metric("spill_faulted_pages", worst_spill.faulted_pages);
    report.metric("spill_evicted_pages", worst_spill.evicted_pages);
    report.metric("spill_point_reads", worst_spill.point_reads);
    report.metric("spill_verdicts_match", spill_match ? 1 : 0);
    report.metric("spill_budget_held", spill_budget_held ? 1 : 0);
    report.metric("spill_refault_bounded", spill_refault_bounded ? 1 : 0);
  }

  // -------------------------------------------------------------------
  // Part 7: the S_n x C_m product group on the fully anonymous mutex.
  // Identity namings make every ring rotation compatible, so the group has
  // n! x m elements — reduction factors past part 3's n! ceiling. The
  // factor gates are strict improvements over part 3's measured 2.000x
  // (n = 2) and 5.53x (n = 3).
  // -------------------------------------------------------------------
  double fa_reduction_n2 = 0, fa_reduction_n3 = 0;
  bool fa_verdicts_match = true;
  bool fa_factors_ok = true;
  if (run_part(7)) {
  ascii_table fa_table({"config", "group", "raw-states", "orbit-states",
                        "reduction", "raw-ms", "orbit-ms", "verdicts"});
  struct fa_config {
    const char* name;
    int registers;
    int processes;
    double floor;  ///< part 3's factor at the same n — must be beaten
  };
  for (const fa_config fc :
       {fa_config{"fully anonymous, n=2 m=3", 3, 2, 2.0},
        fa_config{"fully anonymous, n=3 m=3", 3, 3, 5.53}}) {
    const auto fa_naming =
        naming_assignment::identity(fc.processes, fc.registers);
    const std::vector<fa_mutex> fa_procs(
        static_cast<std::size_t>(fc.processes), fa_mutex(fc.registers));
    const auto group = symmetry_group<fa_mutex>::compute(fa_naming, fa_procs);
    mutex_check_result fa_raw, fa_orbit, fa_par;
    double raw_t = 0, orbit_t = 0;
    for (int rep = 0; rep < reps; ++rep) {
      stopwatch t1;
      fa_raw = check_fa_mutex(fc.registers, fa_naming, 2'000'000,
                              /*symmetry=*/false);
      const double s1 = t1.elapsed_seconds();
      if (rep == 0 || s1 < raw_t) raw_t = s1;
      stopwatch t2;
      fa_orbit = check_fa_mutex(fc.registers, fa_naming, 2'000'000,
                                /*symmetry=*/true);
      const double s2 = t2.elapsed_seconds();
      if (rep == 0 || s2 < orbit_t) orbit_t = s2;
    }
    fa_par = check_fa_mutex(fc.registers, fa_naming, 2'000'000,
                            /*symmetry=*/true, /*workers=*/2);
    bool ok = fa_raw.verdict() == fa_orbit.verdict() &&
              fa_par.verdict() == fa_orbit.verdict() &&
              fa_par.num_states == fa_orbit.num_states &&
              fa_par.counterexample == fa_orbit.counterexample;
    fa_verdicts_match = fa_verdicts_match && ok;
    const double reduction = static_cast<double>(fa_raw.num_states) /
                             static_cast<double>(fa_orbit.num_states);
    (fc.processes == 2 ? fa_reduction_n2 : fa_reduction_n3) = reduction;
    const std::string tag = "n=" + std::to_string(fc.processes);
    report.sample("fa_symmetry_group/" + tag,
                  static_cast<double>(group.size()));
    report.sample("fa_symmetry_raw_states/" + tag,
                  static_cast<double>(fa_raw.num_states));
    report.sample("fa_symmetry_orbit_states/" + tag,
                  static_cast<double>(fa_orbit.num_states));
    report.sample("fa_symmetry_reduction/" + tag, reduction, "x");
    fa_table.add(fc.name, group.size(), fa_raw.num_states,
                 fa_orbit.num_states, reduction, raw_t * 1e3, orbit_t * 1e3,
                 ok ? "match" : "MISMATCH");
  }
  // Counterexample fold-back: the even-m deadlock found on the QUOTIENT
  // graph must replay, on raw semantics, to the (m/2, m/2) token tie.
  {
    const auto fold_naming = naming_assignment::identity(2, 4);
    const auto dead = check_fa_mutex(4, fold_naming, 2'000'000,
                                     /*symmetry=*/true);
    bool fold_ok = dead.verdict() == "DEADLOCK" && !dead.counterexample.empty();
    if (fold_ok) {
      std::vector<std::uint64_t> regs(4, fa_mutex::token_down);
      std::vector<fa_mutex> replay(2, fa_mutex(4));
      for (int p : dead.counterexample) {
        permuted_vector_memory<std::uint64_t> view(regs, fold_naming.of(p));
        replay[static_cast<std::size_t>(p)].step(view);
      }
      int tokens = 0;
      for (const auto& pr : replay) tokens += pr.tokens();
      fold_ok = tokens == 4 &&
                std::count(regs.begin(), regs.end(), fa_mutex::token_up) == 4;
    }
    fa_verdicts_match = fa_verdicts_match && fold_ok;
    report.metric("fa_counterexample_folds", fold_ok ? 1 : 0);
  }
  std::cout << fa_table.render() << "\n";
  fa_factors_ok = fa_reduction_n2 > 2.0 && fa_reduction_n3 > 5.53;
  }

  // -------------------------------------------------------------------
  // Optional: full weighted naming sweep at --sweep-m via the polynomial
  // orbit classes (process quotient). m = 6 decides all 6!^2 = 518,400
  // naming tuples through 398 verified classes.
  // -------------------------------------------------------------------
  if (sweep_quotient_m >= 2) {
    std::vector<anon_mutex> qprocs;
    qprocs.emplace_back(1, sweep_quotient_m);
    qprocs.emplace_back(2, sweep_quotient_m);
    verify_options qopt;
    qopt.max_states = 8'000'000;
    sweep_schedule_options qsched;
    qsched.workers = sweep_workers;
    qsched.checkpoint_path = sweep_checkpoint;
    qsched.max_classes = sweep_max_classes;
    const naming_sweep_report q = verify_naming_sweep(
        sweep_quotient_m, qprocs, two_in_cs, true, qopt, true, qsched);
    std::cout << "weighted sweep m=" << sweep_quotient_m << ": " << q.configs
              << " classes decide " << q.full_configs
              << " full naming tuples; violated=" << q.violated << " ("
              << q.full_violated << " weighted), incomplete=" << q.incomplete
              << ", states=" << q.total_states << ", "
              << q.wall_seconds << " s";
    if (!sweep_checkpoint.empty())
      std::cout << " [workers=" << sweep_workers << ", resumed "
                << q.resumed_classes << " classes from checkpoint, "
                << q.pending_classes << " left pending]";
    std::cout << "\n\n";
    report.sample("weighted_sweep_classes",
                  static_cast<double>(q.configs));
    report.sample("weighted_sweep_full_configs",
                  static_cast<double>(q.full_configs));
    report.sample("weighted_sweep_seconds", q.wall_seconds, "s");
    report.metric("resumed_classes", q.resumed_classes);
    report.metric("pending_classes", q.pending_classes);
  }

  // -------------------------------------------------------------------
  // Part 8: sharded sweep execution. The m = 4 quotient sweep (17 orbit
  // classes) runs once single-process, then split across two shards that
  // each journal their slice; the journals are merged and replayed through
  // the production aggregator. Gates: the merge covers every class and the
  // merged weighted totals are bit-identical to the single-process run.
  // The 2-shard speedup must reach 1.8x when the host has >= 2 cores; on a
  // single-core host the speedup gate is skipped (and says so).
  // -------------------------------------------------------------------
  bool shard_totals_match = true;
  bool shard_speedup_ok = true;
  double shard_speedup = 0;
  if (run_part(8)) {
    const int sm = 4;
    std::vector<anon_mutex> sprocs;
    sprocs.emplace_back(1, sm);
    sprocs.emplace_back(2, sm);
    verify_options sopt;
    sopt.max_states = 8'000'000;
    const std::string dir = std::filesystem::temp_directory_path().string();
    const std::string j0 = dir + "/anoncoord_bench_shard0.ckpt";
    const std::string j1 = dir + "/anoncoord_bench_shard1.ckpt";
    const std::string jm = dir + "/anoncoord_bench_merged.ckpt";
    naming_sweep_report single{};
    double t_single = 0;
    for (int rep = 0; rep < reps; ++rep) {
      stopwatch t;
      single = verify_naming_sweep(sm, sprocs, two_in_cs, true, sopt, true,
                                   sweep_schedule_options{});
      const double s = t.elapsed_seconds();
      if (rep == 0 || s < t_single) t_single = s;
    }
    double t_shard = 0;
    for (int rep = 0; rep < reps; ++rep) {
      // Stale journals from an earlier run would resume (skip) classes and
      // fake the timing, so every rep starts from empty shard journals.
      std::remove(j0.c_str());
      std::remove(j1.c_str());
      stopwatch t;
      const auto run_shard = [&](int idx, const std::string& path) {
        sweep_schedule_options ss;
        ss.shard_index = idx;
        ss.shard_count = 2;
        ss.checkpoint_path = path;
        verify_naming_sweep(sm, sprocs, two_in_cs, true, sopt, true, ss);
      };
      std::thread s0(run_shard, 0, j0), s1(run_shard, 1, j1);
      s0.join();
      s1.join();
      const double s = t.elapsed_seconds();
      if (rep == 0 || s < t_shard) t_shard = s;
    }
    sweep_journal_header mh{};
    std::vector<sweep_class_record> mrecs;
    const sweep_merge_stats ms = merge_sweep_journals({j0, j1}, mh, mrecs);
    write_sweep_journal(jm, mh, mrecs);
    // Resume the merged journal through the production sweep: every class
    // comes back from the journal, none is re-verified, and the weighted
    // totals are recomputed by the same aggregation loop the shards used.
    sweep_schedule_options msched;
    msched.checkpoint_path = jm;
    const naming_sweep_report merged = verify_naming_sweep(
        sm, sprocs, two_in_cs, true, sopt, true, msched);
    shard_totals_match =
        ms.missing_classes == 0 && merged.pending_classes == 0 &&
        merged.resumed_classes == single.configs &&
        merged.configs == single.configs &&
        merged.full_configs == single.full_configs &&
        merged.violated == single.violated &&
        merged.full_violated == single.full_violated &&
        merged.incomplete == single.incomplete &&
        merged.total_states == single.total_states;
    shard_speedup = t_shard > 0 ? t_single / t_shard : 0;
    ascii_table shard_table({"mode", "classes", "weighted-tuples", "states",
                             "ms"});
    shard_table.add("single process", single.configs, single.full_configs,
                    single.total_states, t_single * 1e3);
    shard_table.add("2 shards + merge", merged.configs, merged.full_configs,
                    merged.total_states, t_shard * 1e3);
    std::cout << shard_table.render() << "\n";
    std::cout << "sharded sweep m=" << sm << ": merge records=" << ms.records
              << " duplicates=" << ms.duplicates
              << " missing-classes=" << ms.missing_classes
              << ", merged totals bit-identical to single-process: "
              << (shard_totals_match ? "yes" : "NO — BUG")
              << ", 2-shard speedup " << shard_speedup << "x";
    if (hw_cores >= 2) {
      shard_speedup_ok = shard_speedup >= 1.8;
      std::cout << " (target >= 1.8x: "
                << (shard_speedup_ok ? "met" : "NOT MET") << ")";
    } else {
      std::cout << " (single-core host: 1.8x speedup gate skipped)";
    }
    std::cout << "\n\n";
    std::remove(j0.c_str());
    std::remove(j1.c_str());
    std::remove(jm.c_str());
    report.sample("shard_sweep_seconds/single", t_single, "s");
    report.sample("shard_sweep_seconds/two_shards", t_shard, "s");
    report.sample("shard_speedup", shard_speedup, "x");
    report.metric("shard_count", 2);
    report.metric("shard_merge_records", ms.records);
    report.metric("shard_merge_duplicates", ms.duplicates);
    report.metric("shard_merge_missing", ms.missing_classes);
    report.metric("shard_totals_match", shard_totals_match ? 1 : 0);
    report.metric("shard_speedup_ok", shard_speedup_ok ? 1 : 0);
  }

  std::cout << "ACCEPTANCE parallel-speedup@8workers=" << speedup_at_8
            << "x (target >= 2x; needs >= 2 cores, host has " << hw_cores
            << ")  symmetry-reduction="
            << reduction_n2 << "x@n=2 (n! ceiling) / " << reduction_n3
            << "x@n=3 (target >= 3x)  fa-product-reduction=" << fa_reduction_n2
            << "x@n=2 (target > 2x) / " << fa_reduction_n3
            << "x@n=3 (target > 5.53x)  naming-sweep-speedup=" << sweep_speedup
            << "x (target >= 5x)  arena-bytes-per-state=" << compressed_bps
            << " (target <= 12)  out-of-core-budget=" << spill_budget / 1024
            << "KB (identical=" << (spill_match ? "yes" : "NO")
            << ", budget-held=" << (spill_budget_held ? "yes" : "NO")
            << ", refaults-bounded=" << (spill_refault_bounded ? "yes" : "NO")
            << ")  sharded-sweep=" << shard_speedup
            << "x (totals-identical=" << (shard_totals_match ? "yes" : "NO")
            << ", speedup-gate="
            << (hw_cores >= 2 ? (shard_speedup_ok ? "met" : "NOT MET")
                              : "skipped, single core")
            << ")  verdicts-match="
            << (identical && symmetry_verdicts_match &&
                        fa_verdicts_match && sweep_verdicts_match &&
                        arena_match && spill_match
                    ? "yes"
                    : "NO")
            << "\n";
  // Only report the cross-part summary series when their source part ran:
  // a --part=N report must not carry zero-valued placeholders (the schema
  // checker rejects a zero bytes-per-state, and a zero series would
  // collide with a full run's real value in the deterministic diff).
  if (run_part(1)) report.sample("parallel_speedup_at_8", speedup_at_8, "x");
  if (run_part(5)) report.sample("bytes_per_stored_state", compressed_bps, "B");
  report.metric("verdicts_match",
                identical && symmetry_verdicts_match &&
                        fa_verdicts_match && sweep_verdicts_match &&
                        arena_match && spill_match
                    ? 1
                    : 0);
  report.metric("fa_factors_ok", fa_factors_ok ? 1 : 0);
  report.write();
  return identical && symmetry_verdicts_match &&
                 fa_verdicts_match && fa_factors_ok && sweep_verdicts_match &&
                 arena_match && arena_bytes_ok && spill_match &&
                 spill_budget_held && spill_refault_bounded &&
                 shard_totals_match && shard_speedup_ok
             ? 0
             : 1;
}
