// verify_config(): the one check entry point. A check_spec names a
// configuration's safety properties (bad-state predicates, each with the
// verdict it yields) and at most one progress property; run_check() drives
// any engine with explorer's explore/check_progress shape (explorer.hpp and
// the reference oracle) through it to one verify_report, whose verdict()
// names the first failing property. verify_config() runs it on the
// explorer, whose verdict holds over every interleaving, and adds its
// per-run stats (spill and canonicalization counters, phase times, wall
// time), which the check_* functions, the benches, the naming sweeps and
// the differential tests consume.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/sweep_journal.hpp"
#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace anoncoord {

/// One check's verdict and uniform per-run statistics; `states` counts
/// distinct stored global states.
struct verify_report {
  bool complete = false;
  bool violated = false;  ///< a safety property failed
  std::uint64_t states = 0;
  std::uint64_t edges = 0;
  std::uint64_t dedup_hits = 0;
  /// Premise states from which the progress goal is unreachable (0 unless
  /// the spec has a progress property and the run was complete and safe).
  std::uint64_t stuck_states = 0;
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
  /// The failing property's failure string; empty when none failed.
  std::string failure;
  /// Schedule to the bad state, or to the first stuck state.
  std::vector<int> counterexample;

  bool ok() const { return complete && failure.empty(); }
  /// The failing property's failure string, else INCOMPLETE when a cap
  /// stopped the run, else OK.
  std::string verdict() const {
    if (!failure.empty()) return failure;
    return complete ? "OK" : "INCOMPLETE";
  }
};

/// A model configuration: what the explorer needs to start.
template <class Machine>
struct model_config {
  int registers = 0;
  naming_assignment naming;
  std::vector<Machine> initial;
};

/// What a check claims of a configuration. Every safety property is a
/// bad-state predicate checked on every stored state; the first one in
/// spec order that holds on the bad state names the verdict. The progress
/// property, run only on a complete safe run, asks that from every
/// reachable premise state some goal state is reachable. Under symmetry
/// every predicate must be invariant under the configuration's group.
template <class Machine>
struct check_spec {
  using predicate = std::function<bool(const global_state<Machine>&)>;
  struct safety_property {
    std::string failure;  ///< the verdict when a reachable state is bad
    predicate is_bad;
  };
  struct progress_property {
    std::string failure;  ///< the verdict when a premise state is stuck
    predicate premise;
    predicate goal;
  };
  std::vector<safety_property> safety;
  std::optional<progress_property> progress;
};

/// Bad-state predicate over (registers, machines); verify_config adapts it
/// to a one-property spec whose failure is SAFETY-VIOLATION.
template <class Machine>
using config_predicate =
    std::function<bool(const std::vector<typename Machine::value_type>&,
                       const std::vector<Machine>&)>;

/// The one check harness: explore with the spec's safety properties, name
/// the first failing one, and run the progress property on a complete safe
/// run (an explorer must record edges for it). Fills the verdict and the
/// engine-independent counts only.
template <class Engine, class Machine>
verify_report run_check(Engine& e, const check_spec<Machine>& spec) {
  using state = global_state<Machine>;
  const auto first_bad = [&spec](const state& s) {
    return std::find_if(spec.safety.begin(), spec.safety.end(),
                        [&s](const auto& p) { return p.is_bad(s); });
  };
  // A one-property spec hands its predicate to explore() as is, so a fresh
  // state pays no extra std::function hop.
  auto res = spec.safety.size() == 1
                 ? e.explore(spec.safety.front().is_bad)
                 : e.explore([&](const state& s) {
                     return first_bad(s) != spec.safety.end();
                   });
  verify_report out;
  out.complete = res.complete;
  out.violated = res.safety_violated();
  out.states = res.num_states;
  out.edges = res.num_edges;
  out.dedup_hits = res.dedup_hits;
  if (out.violated) {
    const auto bad = first_bad(*res.bad_state);
    ANONCOORD_REQUIRE(bad != spec.safety.end(),
                      "no safety property holds on the replayed bad state: "
                      "a predicate is not invariant under the symmetry group");
    out.failure = bad->failure;
    out.counterexample = std::move(res.bad_schedule);
    return out;
  }
  if (!spec.progress || !res.complete) return out;
  e.check_progress(res, spec.progress->premise, spec.progress->goal);
  out.stuck_states = res.stuck_states;
  if (res.progress_violated()) {
    out.failure = spec.progress->failure;
    out.counterexample = std::move(res.stuck_schedule);
  }
  return out;
}

/// run_check on an explorer built from `cfg` and `opt` (edges recorded only
/// when the spec has progress), plus the explorer's stats and wall time.
template <class Machine>
verify_report verify_config(const model_config<Machine>& cfg,
                            const check_spec<Machine>& spec,
                            const verify_options& opt = {}) {
  stopwatch timer;
  const typename explorer<Machine>::options eopt{opt,
                                                 spec.progress.has_value()};
  explorer<Machine> e(cfg.registers, cfg.naming, cfg.initial, eopt);
  verify_report out = run_check(e, spec);
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
    if (!out.failure.empty()) reg.counter("verify.violations").add(1);
    if (!out.complete) reg.counter("verify.incomplete").add(1);
    reg.histogram("verify.wall_us")
        .record(static_cast<std::uint64_t>(out.wall_seconds * 1e6));
  }
  return out;
}

/// verify_config on the one-property spec {SAFETY-VIOLATION: is_bad}.
template <class Machine>
verify_report verify_config(const model_config<Machine>& cfg,
                            const config_predicate<Machine>& is_bad,
                            const verify_options& opt = {}) {
  const auto bad = [&is_bad](const global_state<Machine>& s) {
    return is_bad(s.regs, s.procs);
  };
  return verify_config(cfg, check_spec<Machine>{{{"SAFETY-VIOLATION", bad}}, {}},
                       opt);
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
/// (process_interchangeable_initial) — and, like verify_options::symmetry,
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
