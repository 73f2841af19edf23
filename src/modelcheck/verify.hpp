// verify_config(): the safety entry point over the BFS explorer.
//
// The explorer (explorer.hpp, whose generation stage runs on
// options.workers threads) is the one mechanical prover: it exhausts the
// reachable state space, so its verdict holds over every interleaving.
// verify_config() runs it on a uniform model_config with a predicate over
// (registers, machines) and returns uniform per-run stats (states, edges,
// dedup hits, spill and canonicalization counters, phase times, wall time),
// which is what the scaling bench, the naming sweeps and the differential
// tests consume.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/sweep_journal.hpp"
#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace anoncoord {

struct verify_options {
  int workers = 1;  ///< explorer generation-stage workers
  std::uint64_t max_states = 2'000'000;
  /// Orbit-representative symmetry reduction (modelcheck/symmetry.hpp):
  /// states are deduplicated by canonical form. The predicate must be
  /// invariant under the configuration's automorphisms.
  bool symmetry = false;
  /// Out-of-core mode (see explorer::options): resident budget for the
  /// packed row arena, 0 = fully in-memory. In a scheduled sweep this is
  /// the PER-JOB budget — every class's explorer gets its own arena and
  /// spill file.
  std::uint64_t spill_budget_bytes = 0;
  std::string spill_dir;
};

/// Uniform per-run statistics; `states` counts distinct stored global states.
struct verify_report {
  bool complete = false;
  bool violated = false;
  std::uint64_t states = 0;
  std::uint64_t edges = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t spill_pages = 0;  ///< arena pages written out-of-core
  std::uint64_t spill_bytes = 0;  ///< bytes written to the spill file
  /// Canonicalization prune effectiveness (zero for trivial groups).
  /// full_applies counts candidates whose image was fully materialized (or
  /// fully compared on a tie); first_word_pruned / prefix_pruned count
  /// candidates rejected at word 0 / at a later word of the
  /// longest-common-prefix compare. A candidate is a group element, or a
  /// prefix class where the kernel sorts classes (fully anonymous identity
  /// namings): a sorted class is one full apply.
  std::uint64_t canon_full_applies = 0;
  std::uint64_t canon_first_word_pruned = 0;
  std::uint64_t canon_prefix_pruned = 0;
  /// Hot-loop phase breakdown (see explore_phase_stats). expand and
  /// canonicalize sum the generation workers' ticks, so with several
  /// workers the phase total is partly CPU time and can exceed
  /// wall_seconds. probe_groups_scanned / probe_max_group_chain are the
  /// group-probe seen-table counters.
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

/// A model configuration: what the explorer needs to start.
template <class Machine>
struct model_config {
  int registers = 0;
  naming_assignment naming;
  std::vector<Machine> initial;
};

/// Bad-state predicate over (registers, machines); verify_config adapts it
/// to global_state.
template <class Machine>
using config_predicate =
    std::function<bool(const std::vector<typename Machine::value_type>&,
                       const std::vector<Machine>&)>;

template <class Machine>
verify_report verify_config(const model_config<Machine>& cfg,
                            const config_predicate<Machine>& is_bad,
                            const verify_options& opt = {}) {
  verify_report out;
  const auto as_state_pred = [&](const global_state<Machine>& s) {
    return is_bad(s.regs, s.procs);
  };
  stopwatch timer;
  typename explorer<Machine>::options eopt;
  eopt.workers = opt.workers;
  eopt.max_states = opt.max_states;
  eopt.record_edges = false;  // safety-only entry point
  eopt.symmetry = opt.symmetry;
  eopt.spill_budget_bytes = opt.spill_budget_bytes;
  eopt.spill_dir = opt.spill_dir;
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
  out.wall_seconds = timer.elapsed_seconds();
  if (obs::enabled()) {
    auto& reg = obs::metrics_registry::global();
    reg.counter("verify.runs").add(1);
    reg.counter("verify.states").add(out.states);
    reg.counter("verify.dedup_hits").add(out.dedup_hits);
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
  out.set("complete", report.complete);
  out.set("violated", report.violated);
  out.set("states", report.states);
  out.set("edges", report.edges);
  out.set("dedup_hits", report.dedup_hits);
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
/// jobs on a thread pool, claimed in class order from one shared index; a
/// checkpoint journal makes an interrupted sweep resumable, and max_classes
/// caps how many fresh classes one run verifies (the deterministic "kill"
/// used by tests and the CI resume smoke). Per-job memory budgets ride in verify_options — each class's
/// explorer gets its own arena (and spill file) sized by spill_budget_bytes.
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

  // Classes are independent jobs of very uneven cost (milliseconds to
  // seconds each): every worker claims the next class in `todo` order from
  // one shared index until none is left.
  std::atomic<std::size_t> next{0};
  const std::function<void(int)> drain = [&](int) {
    for (std::size_t k = next++; k < todo.size(); k = next++)
      run_class(todo[k]);
  };
  const int nworkers =
      std::max(1, std::min(sched.workers, static_cast<int>(todo.size())));
  if (nworkers <= 1)
    drain(0);
  else
    thread_pool(nworkers).run(drain);

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
