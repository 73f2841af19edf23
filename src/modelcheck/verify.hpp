// verify_config(): one entry point over every verification engine.
//
// The repo now has three mechanical provers — the sequential BFS explorer,
// the parallel reduction-aware explorer, and the CHESS-style systematic
// tester (with optional sleep-set reduction). They take the same inputs (a
// register count, a naming assignment, initial machines, a bad-state
// predicate) but grew distinct result types. verify_config() runs any of
// them on a uniform model_config and returns uniform per-run stats (states,
// dedup hits, schedules, reduction counters, wall time), which is what the
// scaling bench and the differential tests consume.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/sweep_journal.hpp"
#include "modelcheck/parallel_explorer.hpp"
#include "modelcheck/systematic.hpp"
#include "obs/metrics.hpp"
#include "util/padded.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "util/work_steal.hpp"

namespace anoncoord {

enum class verify_engine {
  bfs,               ///< sequential explorer (explorer.hpp)
  parallel_bfs,      ///< sharded explorer (parallel_explorer.hpp)
  systematic,        ///< bounded schedule enumeration (systematic.hpp)
  systematic_sleep,  ///< + sleep-set partial-order reduction
};

inline std::string to_string(verify_engine e) {
  switch (e) {
    case verify_engine::bfs: return "bfs";
    case verify_engine::parallel_bfs: return "parallel-bfs";
    case verify_engine::systematic: return "systematic";
    case verify_engine::systematic_sleep: return "systematic+sleep";
  }
  return "?";
}

struct verify_options {
  verify_engine engine = verify_engine::bfs;
  int workers = 1;                         ///< parallel_bfs only
  std::uint64_t max_states = 2'000'000;    ///< BFS engines
  int max_steps = 40;                      ///< systematic engines
  int max_preemptions = 2;                 ///< systematic engines
  std::uint64_t max_runs = 50'000'000;     ///< systematic engines
  /// Orbit-representative symmetry reduction (modelcheck/symmetry.hpp).
  /// BFS engines dedup states by canonical form; systematic engines key
  /// their dominance cache by canonical form (implies state_cache). The
  /// predicate must be invariant under the configuration's automorphisms.
  bool symmetry = false;
  /// Dominance-cache pruning for the systematic engines (see
  /// systematic_tester::options::state_cache).
  bool state_cache = false;
  /// Out-of-core mode for the BFS engines (see explorer::options): resident
  /// budget for the packed row arena, 0 = fully in-memory. In a
  /// scheduled sweep this is the PER-JOB budget — every class's engine gets
  /// its own arena and spill file.
  std::uint64_t spill_budget_bytes = 0;
  std::string spill_dir;
  /// Packed interned-id canonicalization for the BFS engines (see
  /// packed_canonicalizer in modelcheck/symmetry.hpp). Off preserves the
  /// object-domain path for differentials; verdicts, state counts, and
  /// schedules are bit-identical either way.
  bool packed_canonicalization = true;
  /// Staged batch expansion + group-probing seen tables for the BFS engines
  /// (see explorer::options::batched_expansion). Off reproduces the previous
  /// release's per-successor loop and linear-probe tables; verdicts, state
  /// counts, stored bytes and schedules are bit-identical either way.
  bool batched_expansion = true;
};

/// Uniform per-run statistics. For BFS engines `states` counts distinct
/// global states; for systematic engines it counts executed steps and
/// `schedules` counts enumerated maximal schedules.
struct verify_report {
  verify_engine engine{};
  bool complete = false;
  bool violated = false;
  std::uint64_t states = 0;
  std::uint64_t edges = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t schedules = 0;
  std::uint64_t sleep_pruned = 0;
  std::uint64_t cache_pruned = 0;
  std::uint64_t spill_pages = 0;  ///< arena pages written out-of-core
  std::uint64_t spill_bytes = 0;  ///< bytes written to the spill file
  /// Canonicalization prune effectiveness (BFS engines; zero for trivial
  /// groups and the systematic engines). full_applies counts elements whose
  /// image was fully materialized (or fully compared on a tie);
  /// first_word_pruned / prefix_pruned count elements rejected at word 0 /
  /// at a later word of the longest-common-prefix compare. The object-domain
  /// path folds its fast-path skip into first_word_pruned and never reports
  /// prefix_pruned, so the split is mode-dependent while the sum of pruned +
  /// applied elements is comparable across modes.
  std::uint64_t canon_full_applies = 0;
  std::uint64_t canon_first_word_pruned = 0;
  std::uint64_t canon_prefix_pruned = 0;
  /// Hot-loop phase breakdown (BFS engines; zero for the systematic
  /// engines). Sequential runs report wall time per stage; parallel runs sum
  /// per-worker ticks, so the phase total is aggregate CPU time and can
  /// exceed wall_seconds. probe_groups_scanned / probe_max_group_chain are
  /// group-probe seen-table counters and stay zero with
  /// batched_expansion=false (the legacy tables don't track them).
  std::uint64_t expand_ns = 0;
  std::uint64_t canonicalize_ns = 0;
  std::uint64_t probe_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t probe_groups_scanned = 0;
  std::uint64_t probe_max_group_chain = 0;
  double wall_seconds = 0.0;
  std::vector<int> violating_schedule;

  bool ok() const { return complete && !violated; }
};

/// A model configuration: what every engine needs to start.
template <class Machine>
struct model_config {
  int registers = 0;
  naming_assignment naming;
  std::vector<Machine> initial;
};

/// Bad-state predicate over (registers, machines) — the systematic tester's
/// native shape; BFS engines adapt it to global_state.
template <class Machine>
using config_predicate =
    std::function<bool(const std::vector<typename Machine::value_type>&,
                       const std::vector<Machine>&)>;

template <class Machine>
verify_report verify_config(const model_config<Machine>& cfg,
                            const config_predicate<Machine>& is_bad,
                            const verify_options& opt = {}) {
  verify_report out;
  out.engine = opt.engine;
  const auto as_state_pred = [&](const global_state<Machine>& s) {
    return is_bad(s.regs, s.procs);
  };
  stopwatch timer;
  switch (opt.engine) {
    case verify_engine::bfs: {
      typename explorer<Machine>::options eopt;
      eopt.max_states = opt.max_states;
      eopt.symmetry = opt.symmetry;
      eopt.spill_budget_bytes = opt.spill_budget_bytes;
      eopt.spill_dir = opt.spill_dir;
      eopt.packed_canonicalization = opt.packed_canonicalization;
      eopt.batched_expansion = opt.batched_expansion;
      explorer<Machine> e(cfg.registers, cfg.naming, cfg.initial, eopt);
      const auto res = e.explore(as_state_pred);
      out.complete = res.complete;
      out.violated = res.safety_violated();
      out.states = res.num_states;
      out.edges = res.num_edges;
      out.dedup_hits = res.dedup_hits;
      out.violating_schedule = res.bad_schedule;
      const arena_spill_stats spill = e.spill_stats();
      out.spill_pages = spill.spilled_pages;
      out.spill_bytes = spill.spill_bytes;
      const canonicalize_stats cs = e.canonicalize_counters();
      out.canon_full_applies = cs.full_applies;
      out.canon_first_word_pruned = cs.first_word_pruned;
      out.canon_prefix_pruned = cs.prefix_pruned;
      const explore_phase_stats& ph = e.phase_counters();
      out.expand_ns = ph.expand_ns;
      out.canonicalize_ns = ph.canonicalize_ns;
      out.probe_ns = ph.probe_ns;
      out.encode_ns = ph.encode_ns;
      out.probe_groups_scanned = ph.probe_groups_scanned;
      out.probe_max_group_chain = ph.probe_max_group_chain;
      break;
    }
    case verify_engine::parallel_bfs: {
      typename parallel_explorer<Machine>::options popt;
      popt.workers = opt.workers;
      popt.max_states = opt.max_states;
      popt.record_edges = false;  // safety-only entry point
      popt.symmetry = opt.symmetry;
      popt.spill_budget_bytes = opt.spill_budget_bytes;
      popt.spill_dir = opt.spill_dir;
      popt.packed_canonicalization = opt.packed_canonicalization;
      popt.batched_expansion = opt.batched_expansion;
      parallel_explorer<Machine> e(cfg.registers, cfg.naming, cfg.initial,
                                   popt);
      const auto res = e.explore(as_state_pred);
      out.complete = res.complete;
      out.violated = res.safety_violated();
      out.states = res.num_states;
      out.edges = res.num_edges;
      out.dedup_hits = res.dedup_hits;
      out.violating_schedule = res.bad_schedule;
      const arena_spill_stats spill = e.spill_stats();
      out.spill_pages = spill.spilled_pages;
      out.spill_bytes = spill.spill_bytes;
      const canonicalize_stats cs = e.canonicalize_counters();
      out.canon_full_applies = cs.full_applies;
      out.canon_first_word_pruned = cs.first_word_pruned;
      out.canon_prefix_pruned = cs.prefix_pruned;
      const explore_phase_stats& ph = e.phase_counters();
      out.expand_ns = ph.expand_ns;
      out.canonicalize_ns = ph.canonicalize_ns;
      out.probe_ns = ph.probe_ns;
      out.encode_ns = ph.encode_ns;
      out.probe_groups_scanned = ph.probe_groups_scanned;
      out.probe_max_group_chain = ph.probe_max_group_chain;
      break;
    }
    case verify_engine::systematic:
    case verify_engine::systematic_sleep: {
      systematic_tester<Machine> tester(cfg.registers, cfg.naming,
                                        cfg.initial);
      typename systematic_tester<Machine>::options topt;
      topt.max_steps = opt.max_steps;
      topt.max_preemptions = opt.max_preemptions;
      topt.max_runs = opt.max_runs;
      topt.sleep_sets = opt.engine == verify_engine::systematic_sleep;
      topt.state_cache = opt.state_cache || opt.symmetry;
      topt.symmetry = opt.symmetry;
      const auto res = tester.run(is_bad, topt);
      out.complete = res.complete;
      out.violated = res.violated;
      out.states = res.states_visited;
      out.schedules = res.runs;
      out.sleep_pruned = res.sleep_pruned;
      out.cache_pruned = res.cache_pruned;
      out.violating_schedule = res.violating_schedule;
      break;
    }
  }
  out.wall_seconds = timer.elapsed_seconds();
  if (obs::enabled()) {
    auto& reg = obs::metrics_registry::global();
    reg.counter("verify.runs").add(1);
    reg.counter("verify.states").add(out.states);
    reg.counter("verify.schedules").add(out.schedules);
    reg.counter("verify.dedup_hits").add(out.dedup_hits);
    reg.counter("verify.sleep_pruned").add(out.sleep_pruned);
    reg.counter("verify.cache_pruned").add(out.cache_pruned);
    reg.counter("canonicalize.full_applies").add(out.canon_full_applies);
    reg.counter("canonicalize.first_word_pruned")
        .add(out.canon_first_word_pruned);
    reg.counter("canonicalize.prefix_pruned").add(out.canon_prefix_pruned);
    reg.counter("explore.expand_ns").add(out.expand_ns);
    reg.counter("explore.canonicalize_ns").add(out.canonicalize_ns);
    reg.counter("explore.probe_ns").add(out.probe_ns);
    reg.counter("explore.encode_ns").add(out.encode_ns);
    reg.counter("explore.probe_groups_scanned").add(out.probe_groups_scanned);
    if (out.violated) reg.counter("verify.violations").add(1);
    if (!out.complete) reg.counter("verify.incomplete").add(1);
    reg.histogram("verify.wall_us")
        .record(static_cast<std::uint64_t>(out.wall_seconds * 1e6));
  }
  return out;
}

/// The uniform per-run stats as JSON — what bench reporters embed and what
/// docs/modelcheck.md documents as the machine-readable verify record.
inline obs::json_value to_json(const verify_report& report) {
  obs::json_value out = obs::json_value::make_object();
  out.set("engine", to_string(report.engine));
  out.set("complete", report.complete);
  out.set("violated", report.violated);
  out.set("states", report.states);
  out.set("edges", report.edges);
  out.set("dedup_hits", report.dedup_hits);
  out.set("schedules", report.schedules);
  out.set("sleep_pruned", report.sleep_pruned);
  out.set("cache_pruned", report.cache_pruned);
  out.set("spill_pages", report.spill_pages);
  out.set("spill_bytes", report.spill_bytes);
  out.set("canon_full_applies", report.canon_full_applies);
  out.set("canon_first_word_pruned", report.canon_first_word_pruned);
  out.set("canon_prefix_pruned", report.canon_prefix_pruned);
  out.set("expand_ns", report.expand_ns);
  out.set("canonicalize_ns", report.canonicalize_ns);
  out.set("probe_ns", report.probe_ns);
  out.set("encode_ns", report.encode_ns);
  out.set("probe_groups_scanned", report.probe_groups_scanned);
  out.set("probe_max_group_chain", report.probe_max_group_chain);
  out.set("wall_seconds", report.wall_seconds);
  obs::json_value sched = obs::json_value::make_array();
  for (int p : report.violating_schedule) sched.push_back(p);
  out.set("violating_schedule", std::move(sched));
  return out;
}

/// Orchestration for verify_naming_sweep: orbit classes run as independent
/// jobs on a work-stealing pool, a checkpoint journal makes an interrupted
/// sweep resumable, and max_classes caps how many fresh classes one run
/// verifies (the deterministic "kill" used by tests and the CI resume
/// smoke). Per-job memory budgets ride in verify_options — each class's
/// engine gets its own arena (and spill file) sized by spill_budget_bytes.
/// With workers > 1 the bad-state predicate runs concurrently, so it must be
/// thread-safe (stateless predicates, the common case, trivially are).
struct sweep_schedule_options {
  int workers = 1;
  std::string checkpoint_path;    ///< "" = no checkpointing
  std::uint64_t max_classes = 0;  ///< 0 = verify every pending class
  /// Deterministic shard spec for multi-process execution. Every shard
  /// computes the same global class list (the enumerators are
  /// deterministic) and claims the contiguous slice
  /// [classes*shard_index/shard_count, classes*(shard_index+1)/shard_count).
  /// Slices are disjoint and cover every class, so N shard journals merge
  /// (modelcheck/sweep_journal.hpp) into exactly an uninterrupted run.
  /// Classes outside this shard's slice are reported pending unless a
  /// (merged) checkpoint already decided them.
  int shard_index = 0;
  int shard_count = 1;
  /// Cost-balanced sharding: when non-empty, one estimated cost per class
  /// (journal-recorded state counts from a prior run, or any heuristic
  /// weight) and the shard slices come from balanced_shard_bounds instead of
  /// the count-balanced split. Size must equal the sweep's class count.
  /// Slices stay contiguous and deterministic, so N shard journals still
  /// merge into exactly an uninterrupted run — but EVERY shard process must
  /// be given the identical cost vector, or their slices will not tile.
  std::vector<std::uint64_t> class_costs;
};

/// Aggregate over a full- or orbit-reduced naming sweep (below).
struct naming_sweep_report {
  std::uint64_t configs = 0;     ///< configurations verified
  std::uint64_t violated = 0;    ///< configurations with a violation
  std::uint64_t incomplete = 0;  ///< configurations that hit a cap
  std::uint64_t total_states = 0;
  std::uint64_t resumed_classes = 0;  ///< classes loaded from the checkpoint
  std::uint64_t pending_classes = 0;  ///< left undone (max_classes / sharding)
  std::uint64_t shard_classes = 0;    ///< classes in this run's shard slice
  std::uint64_t shard_pending = 0;    ///< of those, still undone afterwards
  /// Weighted totals the reduced sweep certifies for the FULL (m!)^n
  /// enumeration: each verified config stands for weight x m! raw naming
  /// tuples (weight > 1 only in process-quotient mode). With no reduction
  /// these equal configs / violated.
  std::uint64_t full_configs = 0;
  std::uint64_t full_violated = 0;
  double wall_seconds = 0.0;
  /// Per-config violation flags, in the enumerator's deterministic order
  /// (all_naming_assignments / naming_orbit_representatives /
  /// naming_orbit_classes). Classes left pending by max_classes are skipped;
  /// a completed (possibly resumed) sweep always has one entry per config.
  std::vector<char> verdicts;
};

/// Verify `initial` under EVERY naming assignment of `registers` physical
/// registers — or, with orbit_representatives_only, under one representative
/// per orbit of the registers!-fold global-permutation action (see
/// naming_orbit_representatives in mem/naming.hpp). Conjugate namings have
/// isomorphic transition systems — reachable states map by relabeling the
/// physical register file, machines untouched — so any predicate that reads
/// registers only through the machines' own numbering (in particular every
/// predicate over machine local states) gets the identical verdict on every
/// member of an orbit, and the reduced sweep decides the full one at 1/m!
/// the cost. The orbit-equivalence test machine-checks this claim
/// exhaustively for small m.
///
/// `process_quotient` additionally folds orbit representatives that differ
/// only by WHICH process holds which numbering (naming_orbit_classes): each
/// verified class then stands for weight x m! raw tuples, reported in
/// full_configs / full_violated. That fold is sound only when permuting
/// processes cannot change the verdict, so it REQUIREs an initial tuple
/// that is symmetric up to identifier renaming
/// (process_interchangeable_initial) — and, like explore_options.symmetry,
/// trusts the predicate to be renaming-invariant. The class canonicalizer
/// is polynomial (cycle-structure keys, n! candidates), which is what makes
/// the full m = 6 and m = 7 sweeps (at n = 2) decidable: 398 and 2636
/// classes instead of 6! = 720 and 7! = 5040 representatives.
template <class Machine>
naming_sweep_report verify_naming_sweep(
    int registers, const std::vector<Machine>& initial,
    const config_predicate<Machine>& is_bad, bool orbit_representatives_only,
    const verify_options& opt = {}, bool process_quotient = false,
    const sweep_schedule_options& sched = {}) {
  stopwatch timer;
  const int n = static_cast<int>(initial.size());
  const std::uint64_t per_rep =
      orbit_representatives_only ? naming_orbit_size(registers) : 1;
  std::vector<weighted_naming> sweep;
  if (process_quotient) {
    ANONCOORD_REQUIRE(orbit_representatives_only,
                      "process quotient refines the orbit-representative "
                      "sweep; enable orbit_representatives_only");
    ANONCOORD_REQUIRE(process_interchangeable_initial(initial),
                      "process quotient needs an S_n-interchangeable initial "
                      "tuple (process-symmetric: one program, distinct ids; "
                      "fully anonymous: pairwise-equal machines)");
    sweep = naming_orbit_classes(n, registers);
  } else {
    const std::vector<naming_assignment> namings =
        orbit_representatives_only
            ? naming_orbit_representatives(n, registers)
            : all_naming_assignments(n, registers);
    sweep.reserve(namings.size());
    for (const naming_assignment& naming : namings)
      sweep.push_back({naming, 1});
  }

  naming_sweep_report out;
  std::vector<sweep_class_record> recs(sweep.size());
  sweep_journal_header jh;
  jh.registers = registers;
  jh.processes = n;
  jh.classes = sweep.size();
  jh.orbit = orbit_representatives_only;
  jh.quotient = process_quotient;
  const std::string header = jh.line();
  bool had_checkpoint = false;
  bool torn_tail = false;
  if (!sched.checkpoint_path.empty()) {
    std::ifstream probe(sched.checkpoint_path, std::ios::binary);
    had_checkpoint = probe.is_open();
    if (had_checkpoint) {
      probe.seekg(0, std::ios::end);
      if (probe.tellg() > 0) {
        probe.seekg(-1, std::ios::end);
        char last = 0;
        probe.get(last);
        torn_tail = last != '\n';
      }
    }
  }
  if (had_checkpoint)
    out.resumed_classes =
        load_sweep_journal(sched.checkpoint_path, jh, recs);

  std::ofstream journal;
  std::mutex journal_mu;
  if (!sched.checkpoint_path.empty()) {
    journal.open(sched.checkpoint_path, std::ios::app);
    ANONCOORD_REQUIRE(journal.is_open(),
                      "cannot open sweep checkpoint " + sched.checkpoint_path);
    if (!had_checkpoint) journal << header << '\n' << std::flush;
    // A torn trailing record (the previous run died mid-write) is skipped by
    // the loader; terminate it so the next append starts on a fresh line
    // instead of gluing onto the fragment.
    if (torn_tail) journal << '\n' << std::flush;
  }

  // The pending job list: this shard's class slice, minus checkpointed
  // classes, truncated by max_classes. Truncation in class order keeps the
  // "interrupted" prefix deterministic, and because the totals below
  // aggregate by class index, any interrupt/resume/shard split that
  // eventually covers every class reproduces an uninterrupted run's
  // weighted totals exactly.
  ANONCOORD_REQUIRE(sched.shard_count >= 1 && sched.shard_index >= 0 &&
                        sched.shard_index < sched.shard_count,
                    "sweep shard spec needs 0 <= shard_index < shard_count");
  std::size_t shard_lo, shard_hi;
  if (!sched.class_costs.empty()) {
    ANONCOORD_REQUIRE(sched.class_costs.size() == sweep.size(),
                      "class_costs must carry one cost per sweep class");
    const std::vector<std::uint64_t> bounds =
        balanced_shard_bounds(sched.class_costs, sched.shard_count);
    shard_lo = static_cast<std::size_t>(
        bounds[static_cast<std::size_t>(sched.shard_index)]);
    shard_hi = static_cast<std::size_t>(
        bounds[static_cast<std::size_t>(sched.shard_index) + 1]);
  } else {
    shard_lo = sweep.size() * static_cast<std::size_t>(sched.shard_index) /
               static_cast<std::size_t>(sched.shard_count);
    shard_hi = sweep.size() * static_cast<std::size_t>(sched.shard_index + 1) /
               static_cast<std::size_t>(sched.shard_count);
  }
  out.shard_classes = shard_hi - shard_lo;
  std::vector<std::uint64_t> todo;
  for (std::size_t i = shard_lo; i < shard_hi; ++i)
    if (!recs[i].done) todo.push_back(i);
  if (sched.max_classes != 0 && todo.size() > sched.max_classes)
    todo.resize(static_cast<std::size_t>(sched.max_classes));

  const auto run_class = [&](std::uint64_t idx) {
    const auto i = static_cast<std::size_t>(idx);
    model_config<Machine> cfg{registers, sweep[i].naming, initial};
    const verify_report rep = verify_config(cfg, is_bad, opt);
    recs[i].done = true;
    recs[i].violated = rep.violated;
    recs[i].complete = rep.complete;
    recs[i].states = rep.states;
    if (journal.is_open()) {
      std::lock_guard lk(journal_mu);
      journal << format_sweep_record(idx, recs[i]) << '\n' << std::flush;
    }
  };

  const int nworkers =
      std::max(1, std::min(sched.workers, static_cast<int>(todo.size())));
  if (nworkers <= 1) {
    for (const std::uint64_t idx : todo) run_class(idx);
  } else {
    // Classes are independent jobs: seed per-worker Chase-Lev deques with
    // contiguous slices and let dry workers steal — the same discipline as
    // the parallel explorer's frontier, at job granularity.
    auto deques =
        std::make_unique<padded<ws_deque>[]>(static_cast<std::size_t>(nworkers));
    for (int w = 0; w < nworkers; ++w) {
      const std::size_t lo =
          todo.size() * static_cast<std::size_t>(w) /
          static_cast<std::size_t>(nworkers);
      const std::size_t hi =
          todo.size() * static_cast<std::size_t>(w + 1) /
          static_cast<std::size_t>(nworkers);
      ws_deque& d = deques[static_cast<std::size_t>(w)].value;
      d.reset(hi - lo);
      for (std::size_t k = hi; k > lo; --k) d.push(todo[k - 1]);
    }
    thread_pool pool(nworkers);
    pool.run([&](int w) {
      ws_deque& own = deques[static_cast<std::size_t>(w)].value;
      std::uint64_t idx = 0;
      for (;;) {
        if (own.pop(idx)) {
          run_class(idx);
          continue;
        }
        bool stole = false;
        bool maybe_work = false;
        for (int k = 1; k < nworkers && !stole; ++k) {
          ws_deque& victim =
              deques[static_cast<std::size_t>((w + k) % nworkers)].value;
          if (victim.steal(idx)) stole = true;
          else if (!victim.empty()) maybe_work = true;
        }
        if (stole) {
          run_class(idx);
          continue;
        }
        if (!maybe_work && own.empty()) return;
      }
    });
  }

  // Aggregate by class index, not completion order — the totals are a pure
  // function of which classes are done, so any interrupt/resume split that
  // eventually covers every class yields identical weighted results.
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (!recs[i].done) {
      ++out.pending_classes;
      if (i >= shard_lo && i < shard_hi) ++out.shard_pending;
      continue;
    }
    ++out.configs;
    out.full_configs += sweep[i].weight * per_rep;
    out.total_states += recs[i].states;
    if (recs[i].violated) {
      ++out.violated;
      out.full_violated += sweep[i].weight * per_rep;
    }
    // A violated run stops early by design; "incomplete" means a cap was
    // hit without reaching a verdict.
    if (!recs[i].complete && !recs[i].violated) ++out.incomplete;
    out.verdicts.push_back(recs[i].violated ? 1 : 0);
  }
  out.wall_seconds = timer.elapsed_seconds();
  return out;
}

}  // namespace anoncoord
