// Explicit-state model checker for step-machine systems.
//
// A global state is (register contents, every process's local state) — the
// paper's §6.1 definition. Because machines are deterministic given what
// they read, each enabled process contributes exactly one successor, and the
// reachable graph under *all* interleavings is explored by BFS with
// memoization. This mechanically verifies, for concrete configurations, what
// the paper proves by hand:
//
//   * safety invariants (mutual exclusion, agreement, ...) hold in every
//     reachable state, with a counterexample schedule extracted on failure;
//   * progress potential: from every reachable state satisfying a premise
//     (e.g. "someone is in the entry code"), a goal state (e.g. "someone is
//     in the CS") is reachable. A reachable state from which the goal is
//     UNreachable is a genuine liveness violation — every continuation of
//     that run avoids the goal forever — which is exactly the shape of the
//     even-m and lock-step counterexamples behind Theorems 3.1 and 3.4.
//
// Storage is packed and interned (modelcheck/state_pool.hpp): register
// values and machine local states are hash-consed into component pools, and
// a seen state is one row of (m + n) 32-bit pool ids. Seen-table equality is
// a column-by-column compare of that row against the stored one
// (row_store::equals), hashing is util/hash.hpp's hash_words, and a
// successor reuses its parent's row with at most two patched words (the
// stepped machine, the written register) — no full-state copies anywhere on
// the hot path. By default (options.compress_arena) the seen rows themselves
// are bit-packed in arena pages (row_store: each column in the bit width of
// its largest id so far), so reading a stored row back is O(1) arithmetic
// and needs nothing but its index; the opt-out keeps them verbatim. The
// reported result is bit-identical to the original full-copy explorer in
// both modes.
//
// The hot loop itself is a staged batch pipeline (options.batched_expansion,
// on by default — see docs/modelcheck.md "hot-path pipeline"): the frontier
// is processed in fixed windows of kExpandWindow parents. Stage 1 decodes
// the window's parent rows behind one batched spill fault-in; stage 2
// generates every successor of the window into a flat packed-row staging
// buffer, canonicalizing each row as it is staged (fused, so the component
// pools intern in exactly the one-at-a-time order — stored-row bytes depend
// on id assignment); stage 3 hashes the whole batch; stage 4 probes/inserts
// in discovery order while software-prefetching the probe group of the entry
// a few slots ahead, so the seen-table miss latency overlaps the probes in
// flight. The seen table is a Swiss-table-style group-probing index
// (util/flat_index.hpp): one 16-byte tag compare per group, cell memory
// touched only for candidate slots. The opt-out preserves the per-successor
// loop for differentials; verdicts, state counts, stored-row bytes and
// counterexample schedules are bit-identical in both modes.
//
// With options.symmetry the seen-table keys are orbit representatives under
// the configuration's automorphism group (modelcheck/symmetry.hpp):
// successors are canonicalized before dedup, which shrinks the stored state
// count by up to |G| <= n! while preserving reachability and every
// G-invariant verdict. Counterexample schedules are stored against quotient
// states, so they are mapped back to concrete schedules by folding the
// per-state group elements (sigma-inverse chain) and re-validated by replay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/state_pool.hpp"
#include "modelcheck/symmetry.hpp"
#include "runtime/step_machine.hpp"
#include "util/check.hpp"
#include "util/flat_index.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"

namespace anoncoord {

/// Per-phase hot-loop breakdown of an exploration run. The four phase times
/// partition the batched pipeline (they are measured as cycle_clock ticks and
/// converted once per run against a wall-clock calibration, so each is a few
/// rdtsc pairs per window, not per successor): expand = parent decode +
/// successor generation, canonicalize = symmetry-kernel time inside the
/// generation stage, probe = seen-table find/insert, encode = row-arena
/// append. The unbatched loop reports only encode_ns and the probe counters
/// (its other phases are interleaved per successor and bracketing them would
/// cost more than they measure).
struct explore_phase_stats {
  std::uint64_t expand_ns = 0;
  std::uint64_t canonicalize_ns = 0;
  std::uint64_t probe_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t probe_groups_scanned = 0;
  std::uint64_t probe_max_group_chain = 0;

  void merge(const explore_phase_stats& o) {
    expand_ns += o.expand_ns;
    canonicalize_ns += o.canonicalize_ns;
    probe_ns += o.probe_ns;
    encode_ns += o.encode_ns;
    probe_groups_scanned += o.probe_groups_scanned;
    if (o.probe_max_group_chain > probe_max_group_chain)
      probe_max_group_chain = o.probe_max_group_chain;
  }
};

/// Memory adapter exposing a plain vector as a register file (the model
/// checker owns register contents inside each global state). Indexing is
/// unchecked: the explorers validate the naming permutation once at
/// construction, so every physical index handed in here is already in range.
template <class V>
class vector_memory {
 public:
  using value_type = V;

  explicit vector_memory(std::vector<V>& regs) : regs_(&regs) {}

  int size() const { return static_cast<int>(regs_->size()); }
  V read(int physical) const {
    return (*regs_)[static_cast<std::size_t>(physical)];
  }
  void write(int physical, V v) {
    (*regs_)[static_cast<std::size_t>(physical)] = std::move(v);
  }

 private:
  std::vector<V>* regs_;
};

/// Register view over a plain vector that *references* the permutation —
/// naming_view copies and revalidates it per construction, which would be
/// per successor here. Validation happens once in the engine constructors.
template <class V>
class permuted_vector_memory {
 public:
  using value_type = V;

  permuted_vector_memory(std::vector<V>& regs, const permutation& perm)
      : regs_(&regs), perm_(&perm) {}

  int size() const { return static_cast<int>(perm_->size()); }
  V read(int logical) const {
    return (*regs_)[static_cast<std::size_t>(physical(logical))];
  }
  void write(int logical, V v) {
    (*regs_)[static_cast<std::size_t>(physical(logical))] = std::move(v);
  }
  int physical(int logical) const {
    return (*perm_)[static_cast<std::size_t>(logical)];
  }

 private:
  std::vector<V>* regs_;
  const permutation* perm_;
};

template <class Machine>
struct global_state {
  using value_type = typename Machine::value_type;

  std::vector<value_type> regs;
  std::vector<Machine> procs;

  friend bool operator==(const global_state&, const global_state&) = default;

  std::size_t hash() const {
    std::size_t seed = 0x57a7e;
    for (const auto& r : regs) hash_combine(seed, hash_value(r));
    for (const auto& p : procs) hash_combine(seed, p.hash());
    return seed;
  }
};

template <class Machine>
class explorer {
 public:
  using state_type = global_state<Machine>;
  using state_predicate = std::function<bool(const state_type&)>;
  using value_type = typename Machine::value_type;

  struct options {
    /// Exploration cap; result.complete reports whether it was reached.
    std::uint64_t max_states = 2'000'000;
    /// Dedup states by their orbit representative under the configuration's
    /// automorphism group (modelcheck/symmetry.hpp): the naming-conjugation
    /// group for process_symmetric_machine types, the full S_n x C_m
    /// product for fully_anonymous_machine types. Sound only when every
    /// predicate passed to explore()/check_progress() is invariant under
    /// the group action; machine types with neither trait get the trivial
    /// group, making this a no-op rather than a wrong answer.
    bool symmetry = false;
    /// Store seen rows bit-packed in arena pages (state_pool.hpp's
    /// row_store: each column in the bit width of its largest id so far)
    /// instead of verbatim 4-byte words. Identical verdicts, counts and
    /// schedules either way. Packed is the recommended default: on the
    /// reference config it stores 4.8x fewer row bytes for about 6% more
    /// CPU (docs/modelcheck.md, "the packed state arena"), and only packed
    /// rows can spill; verbatim is the reference layout the differential
    /// tests compare against.
    bool compress_arena = true;
    /// Out-of-core mode (packed arena only): resident budget in bytes for
    /// the row arena; cold pages spill to an unlinked temp file under
    /// spill_dir ("" = $TMPDIR or /tmp). The frontier and the progress pass
    /// fault them back window by window, evicting behind themselves;
    /// duplicate checks read single rows from the file without faulting.
    /// Verdicts, counts and counterexamples are bit-identical to in-memory
    /// runs. 0 keeps everything resident.
    std::uint64_t spill_budget_bytes = 0;
    std::string spill_dir;
    /// Canonicalize successors in the packed interned-id word domain
    /// (modelcheck/symmetry.hpp's packed_canonicalizer: per-element rename
    /// memo tables + rank-row compare) instead of reconstructing states.
    /// Verdicts, stored-state counts, element indices and counterexamples
    /// are bit-identical either way — the opt-out preserves the
    /// object-domain path for differentials, like compress_arena.
    bool packed_canonicalization = true;
    /// Process the frontier through the staged batch pipeline (windowed
    /// parent decode -> flat successor staging -> batch hash -> prefetched
    /// probe/insert) instead of one successor at a time. Verdicts, state
    /// counts, stored-row bytes and counterexample schedules are
    /// bit-identical either way — the opt-out preserves the per-successor
    /// loop for differentials, like packed_canonicalization.
    bool batched_expansion = true;
  };

  struct result {
    bool complete = false;        ///< full reachable set explored
    std::uint64_t num_states = 0;
    std::uint64_t num_edges = 0;
    std::uint64_t dedup_hits = 0;  ///< successors that were already known

    /// First reachable state violating the safety predicate, if any,
    /// together with the schedule (process indices) leading to it. Under
    /// symmetry both are concrete: the schedule is the quotient path mapped
    /// through the group elements and the state is its replay.
    std::optional<state_type> bad_state;
    std::vector<int> bad_schedule;

    /// Progress analysis (filled by check_progress): reachable states
    /// satisfying the premise from which no goal state is reachable.
    std::uint64_t stuck_states = 0;
    std::optional<state_type> stuck_state;
    std::vector<int> stuck_schedule;

    bool safety_violated() const { return bad_state.has_value(); }
    bool progress_violated() const { return stuck_states > 0; }
  };

  explorer(int registers, naming_assignment naming,
           std::vector<Machine> initial_machines, options opt = {})
      : registers_(registers), naming_(std::move(naming)),
        initial_machines_(std::move(initial_machines)), opt_(opt) {
    ANONCOORD_REQUIRE(
        naming_.processes() == static_cast<int>(initial_machines_.size()),
        "naming assignment and machine count disagree");
    ANONCOORD_REQUIRE(naming_.registers() == registers,
                      "naming assignment built for a different register file");
    // naming_view validates per construction; we validate once here instead
    // and use unchecked permuted access on the hot path.
    for (int p = 0; p < naming_.processes(); ++p)
      ANONCOORD_REQUIRE(is_permutation_of_iota(naming_.of(p)),
                        "naming must be a permutation of register indices");
    group_ = opt_.symmetry
                 ? symmetry_group<Machine>::compute(naming_, initial_machines_)
                 : symmetry_group<Machine>::trivial(naming_.processes(),
                                                    registers_);
  }

  /// Explore the reachable state space, checking `is_bad` (safety violation)
  /// on every discovered state. Exploration stops early on a violation.
  result explore(const state_predicate& is_bad = {}) {
    reset();
    result res;
    scratch_.regs.assign(static_cast<std::size_t>(registers_), value_type{});
    scratch_.procs = initial_machines_;
    {
      canon_.regs = scratch_.regs;
      canon_.procs = scratch_.procs;
      const int elem =
          group_.canonicalize(canon_.regs, canon_.procs, cs_, &cstats_);
      build_words(canon_);
      intern_words(/*parent=*/-1, /*via=*/-1, elem);
    }
    if (is_bad && is_bad(canon_)) {
      res.bad_state = concrete_state(0);
      res.bad_schedule = concrete_schedule(0);
      finish(res);
      return res;
    }

    res.complete = opt_.batched_expansion ? run_batched(res, is_bad)
                                          : run_unbatched(res, is_bad);
    finish(res);
    return res;
  }

  /// After a *complete* explore(): verify that from every reachable state
  /// satisfying `premise`, some state satisfying `goal` is reachable.
  /// Populates the progress fields of `res`. Under symmetry the analysis
  /// runs on the quotient graph — sound for G-invariant predicates.
  void check_progress(result& res, const state_predicate& premise,
                      const state_predicate& goal) const {
    ANONCOORD_REQUIRE(res.complete,
                      "progress analysis needs a complete state space");
    const std::size_t n = num_states();
    std::vector<char> reaches_goal(n, 0);
    // Reverse adjacency in CSR form — two passes over the edge records
    // instead of one heap-allocated bucket per state. Cached across calls
    // (naming sweeps re-check the same run with different predicates, and
    // reduced/raw comparison runs re-enter here per run).
    if (csr_offsets_.size() != n + 1) {
      csr_offsets_.assign(n + 1, 0);
      for (const auto& [from, to] : edges_) ++csr_offsets_[to + 1];
      for (std::size_t i = 0; i < n; ++i) csr_offsets_[i + 1] += csr_offsets_[i];
      csr_sources_.resize(edges_.size());
      std::vector<std::uint32_t> cursor(csr_offsets_.begin(),
                                        csr_offsets_.end() - 1);
      for (const auto& [from, to] : edges_) csr_sources_[cursor[to]++] = from;
    }
    const std::vector<std::uint32_t>& offsets = csr_offsets_;
    const std::vector<std::uint32_t>& sources = csr_sources_;
    std::vector<std::uint32_t> queue;
    queue.reserve(n);
    state_type scratch;
    scan_window window(rows_);
    for (std::size_t i = 0; i < n; ++i) {
      window.prefetch(i);
      load_state(static_cast<std::uint64_t>(i), scratch);
      if (goal(scratch)) {
        reaches_goal[i] = 1;
        queue.push_back(static_cast<std::uint32_t>(i));
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto v = queue[head];
      for (std::uint32_t k = offsets[v]; k < offsets[v + 1]; ++k) {
        const auto u = sources[k];
        if (!reaches_goal[u]) {
          reaches_goal[u] = 1;
          queue.push_back(u);
        }
      }
    }
    window = scan_window(rows_);
    for (std::size_t i = 0; i < n; ++i) {
      if (reaches_goal[i]) continue;
      window.prefetch(i);
      load_state(static_cast<std::uint64_t>(i), scratch);
      if (premise(scratch)) {
        ++res.stuck_states;
        if (!res.stuck_state) {
          res.stuck_state = concrete_state(static_cast<std::int64_t>(i));
          res.stuck_schedule = concrete_schedule(static_cast<std::int64_t>(i));
        }
      }
    }
  }

  std::uint64_t num_states() const { return parent_.size(); }

  /// Stored state `idx` (the orbit representative under symmetry).
  state_type state(std::uint64_t idx) const {
    state_type s;
    load_state(idx, s);
    return s;
  }

  /// Interned-component statistics (the compact-store win the bench reports).
  const state_pool<Machine>& pool() const { return pool_; }

  /// Per-phase hot-loop breakdown of the last explore() (see
  /// explore_phase_stats for which fields each mode fills).
  const explore_phase_stats& phase_counters() const { return phases_; }

  /// Row-storage bytes actually committed for the seen set (the bench's
  /// bytes-per-state numerator; same accounting basis in both modes).
  std::uint64_t stored_row_bytes() const { return rows_.stored_bytes(); }

  /// Rows that opened a width epoch in the packed store (diagnostics; 0 in
  /// verbatim mode where the notion does not apply).
  std::uint64_t keyframe_rows() const { return rows_.keyframes(); }

  /// Spill counters from the backing arena (all zero when spilling is off).
  arena_spill_stats spill_stats() const { return rows_.spill_stats(); }

  /// Canonicalization prune counters for the last explore() (both domains;
  /// all zero when the group is trivial).
  const canonicalize_stats& canonicalize_counters() const { return cstats_; }

 private:
  std::size_t stride() const {
    return static_cast<std::size_t>(registers_) + initial_machines_.size();
  }

  void reset() {
    pool_.clear();
    cstats_ = canonicalize_stats{};
    packed_ = opt_.packed_canonicalization && !group_.is_trivial() &&
              symmetry_reducible_machine<Machine>;
    if (packed_)
      pk_.attach(&group_, &pool_, registers_,
                 static_cast<int>(initial_machines_.size()));
    row_store_options ropt;
    if (opt_.compress_arena) {
      ropt.spill.budget_bytes = opt_.spill_budget_bytes;
      ropt.spill.dir = opt_.spill_dir;
    }
    rows_.configure(stride(), opt_.compress_arena, ropt);
    // The opt-out reproduces the previous pipeline end to end, seen table
    // included: per-successor expansion probing the linear-probe table.
    use_linear_ = !opt_.batched_expansion;
    index_.clear();
    lindex_.clear();
    opc_.clear();
    tmemo_.clear();
    tindex_.clear();
    pstats_ = probe_stats{};
    index_.stats = &pstats_;
    phases_ = explore_phase_stats{};
    pt_expand_ = pt_canon_ = pt_probe_ = pt_encode_ = 0;
    cal_timer_.reset();
    cal_tick0_ = cycle_clock::now();
    parent_.clear();
    via_.clear();
    elem_.clear();
    edges_.clear();
    csr_offsets_.clear();
    csr_sources_.clear();
  }

  /// The per-successor expansion loop (options.batched_expansion = false).
  /// Returns whether the reachable set was fully explored; a safety
  /// violation or the max_states cap stops early with false.
  bool run_unbatched(result& res, const state_predicate& is_bad) {
    const std::size_t m = static_cast<std::size_t>(registers_);
    const std::size_t n = initial_machines_.size();
    const bool reduce = !group_.is_trivial();
    // Out-of-core runs expand the frontier in arena-offset order (BFS
    // append order IS offset order) and batch the window's cold-page
    // faults up front instead of dribbling them out one load at a time.
    constexpr std::uint64_t kSpillWindow = 128;
    std::uint64_t frontier = 0;
    while (frontier < num_states()) {
      if (num_states() >= opt_.max_states) return false;  // incomplete
      if ((frontier & (kSpillWindow - 1)) == 0 && rows_.spill_enabled())
        rows_.prefetch_rows(frontier, frontier + kSpillWindow);
      const auto s = static_cast<std::int64_t>(frontier++);
      prow_.resize(stride());
      rows_.load(static_cast<std::uint64_t>(s), prow_.data());
      fill_state(prow_.data(), scratch_);
      if (saved_.size() != n) saved_ = scratch_.procs;
      // Quiescent point: refresh the packed kernel's rank snapshots once
      // they fall behind the pools. Ids interned mid-expansion stay exact
      // through the kernel's object-domain fallback.
      if (packed_) pk_.maybe_refresh_ranks();
      for (int p = 0; p < static_cast<int>(n); ++p) {
        Machine& machine = scratch_.procs[static_cast<std::size_t>(p)];
        const op_desc op = machine.peek();
        if (op.kind == op_kind::none) continue;
        const permutation& perm = naming_.of(p);
        // Undo log: the machine that moves, and the register a write hits.
        saved_[static_cast<std::size_t>(p)] = machine;
        int written = -1;
        value_type old_value{};
        if (op.kind == op_kind::write) {
          written = perm[static_cast<std::size_t>(op.index)];
          old_value = scratch_.regs[static_cast<std::size_t>(written)];
        }
        permuted_vector_memory<value_type> view(scratch_.regs, perm);
        machine.step(view);

        std::int64_t idx;
        bool fresh;
        int elem = 0;
        if (packed_) {
          // Packed kernel: patch the parent's row (the stepped machine and
          // at most one written register — same relative encoding as the
          // non-reduced path), then canonicalize the row in the interned-id
          // word domain. No state reconstruction per group element.
          wbuf_.assign(prow_.begin(), prow_.end());
          wbuf_[m + static_cast<std::size_t>(p)] =
              pool_.intern_machine(machine);
          if (written >= 0)
            wbuf_[static_cast<std::size_t>(written)] = pool_.intern_value(
                scratch_.regs[static_cast<std::size_t>(written)]);
          elem = pk_.canonicalize_row(wbuf_.data(), pks_, cstats_);
          std::tie(idx, fresh) = intern_words(s, p, elem);
        } else if (reduce) {
          canon_.regs = scratch_.regs;
          canon_.procs = scratch_.procs;
          elem = group_.canonicalize(canon_.regs, canon_.procs, cs_, &cstats_);
          build_words(canon_);
          std::tie(idx, fresh) = intern_words(s, p, elem);
        } else {
          // Relative encoding: the successor's row is the parent's row with
          // the stepped machine and (at most) the written register patched.
          wbuf_.assign(prow_.begin(), prow_.end());
          wbuf_[m + static_cast<std::size_t>(p)] =
              pool_.intern_machine(machine);
          if (written >= 0)
            wbuf_[static_cast<std::size_t>(written)] = pool_.intern_value(
                scratch_.regs[static_cast<std::size_t>(written)]);
          std::tie(idx, fresh) = intern_words(s, p, 0);
        }
        if (!fresh) ++res.dedup_hits;
        edges_.emplace_back(static_cast<std::uint32_t>(s),
                            static_cast<std::uint32_t>(idx));
        if (fresh && is_bad) {
          // The packed path never materialized the canonical state; the
          // predicate (G-invariant by contract) runs on its reconstruction.
          if (packed_) fill_state(wbuf_.data(), canon_);
          if (is_bad(reduce ? canon_ : scratch_)) {
            res.bad_state = concrete_state(idx);
            res.bad_schedule = concrete_schedule(idx);
            return false;
          }
        }
        // Undo: restore the moved machine and the overwritten register.
        machine = saved_[static_cast<std::size_t>(p)];
        if (written >= 0)
          scratch_.regs[static_cast<std::size_t>(written)] =
              std::move(old_value);
      }
    }
    return true;
  }

  /// A successor staged by the batched pipeline, waiting for its probe.
  struct staged_succ {
    std::uint32_t pslot;  ///< parent's slot within the window
    std::int32_t via;     ///< process index that stepped
    std::int32_t elem;    ///< canonicalizing group element
    std::size_t hash;     ///< filled by the batch-hash stage
  };

  /// The staged batch pipeline (options.batched_expansion = true). Same
  /// contract as run_unbatched, same observable effects bit for bit: the
  /// component pools intern in identical order (canonicalization is fused
  /// into the generation stage), rows are appended in identical order, the
  /// max_states cap is re-checked before each parent's probe group, and the
  /// first violating fresh state in staged order matches the unbatched
  /// violation point.
  bool run_batched(result& res, const state_predicate& is_bad) {
    const std::size_t m = static_cast<std::size_t>(registers_);
    const std::size_t n = initial_machines_.size();
    const std::size_t st = stride();
    const bool reduce = !group_.is_trivial();
    // Window size doubles as the spill fault-in window, so one prefetch_rows
    // call per window replaces the unbatched loop's modulo check.
    constexpr std::uint64_t kExpandWindow = 128;
    // How far ahead of the probe cursor to warm seen-table groups. Far
    // enough to cover a memory round-trip at ~40 probes/us, near enough
    // that the lines still sit in L1 when the probe arrives.
    constexpr std::size_t kPrefetchAhead = 8;
    srows_.resize(static_cast<std::size_t>(kExpandWindow) * n * st);
    std::uint64_t frontier = 0;
    while (frontier < num_states()) {
      const std::uint64_t wbegin = frontier;
      const std::size_t wlen = static_cast<std::size_t>(
          std::min<std::uint64_t>(kExpandWindow, num_states() - wbegin));
      const std::uint64_t t0 = cycle_clock::now();
      // Stage 1: decode the window's parent rows behind one batched
      // cold-page fault-in (BFS append order IS arena-offset order).
      if (rows_.spill_enabled())
        rows_.prefetch_rows(wbegin, wbegin + wlen);
      wrows_.resize(wlen * st);
      for (std::size_t k = 0; k < wlen; ++k)
        rows_.load(wbegin + k, wrows_.data() + k * st);
      // Stage 2: generate every successor of the window into the flat
      // staging buffer. Canonicalization is fused here, successor by
      // successor, so the component pools intern in exactly the
      // one-at-a-time order — pool id values set the packed column widths,
      // so reordering them would change stored bytes.
      staged_.clear();
      soff_.assign(wlen + 1, 0);
      if (packed_) pk_.maybe_refresh_ranks();
      if (!reduce || packed_) {
        // Interned-id successor generation: a step is a pure function of
        // (machine id, value id at the op's register) — that key captures
        // plain reads, plain writes AND the CAS fallback (a write that
        // reads its target first) — so the transition memo patches rows
        // without reconstructing states, stepping machines or re-hashing
        // components. Misses evaluate the real machine and intern in the
        // same (machine, then written value) order the per-successor loop
        // uses, and a component's first production always coincides with
        // its producing pair's first occurrence, so pool id assignment —
        // and with it every stored row byte — is identical.
        for (std::size_t k = 0; k < wlen; ++k) {
          const std::uint32_t* prow = wrows_.data() + k * st;
          for (int p = 0; p < static_cast<int>(n); ++p) {
            const std::uint32_t w = prow[m + static_cast<std::size_t>(p)];
            const cached_op& oc = op_for(w);
            if (oc.kind == op_kind::none) continue;
            std::uint32_t vid_in = kNoValueId;
            std::size_t phys = 0;
            if (oc.kind != op_kind::internal) {
              phys = static_cast<std::size_t>(
                  naming_.of(p)[static_cast<std::size_t>(oc.index)]);
              vid_in = prow[phys];
            }
            const std::uint64_t key = (std::uint64_t{w} << 32) | vid_in;
            const auto kh = static_cast<std::size_t>(mix64(key));
            std::uint32_t w_out, vid_out;
            const std::uint32_t ti = tindex_.find(kh, [&](std::uint32_t i) {
              return tmemo_[i].key == key;
            });
            if (ti != flat_index::npos) {
              w_out = tmemo_[ti].mach;
              vid_out = tmemo_[ti].value;
            } else {
              std::tie(w_out, vid_out) = eval_transition(w, oc, vid_in);
              tindex_.insert(kh, static_cast<std::uint32_t>(tmemo_.size()));
              tmemo_.push_back({key, w_out, vid_out});
            }
            std::uint32_t* row = srows_.data() + staged_.size() * st;
            std::memcpy(row, prow, st * sizeof(std::uint32_t));
            row[m + static_cast<std::size_t>(p)] = w_out;
            if (oc.kind == op_kind::write) row[phys] = vid_out;
            int elem = 0;
            if (packed_) {
              const std::uint64_t c0 = cycle_clock::now();
              elem = pk_.canonicalize_row_batched(row, pks_, cstats_);
              pt_canon_ += cycle_clock::now() - c0;
            }
            // is_bad is deferred to the probe stage: the staged row IS the
            // (canonical) state, so fresh states reconstruct it there and
            // duplicates never pay the predicate.
            staged_.push_back({static_cast<std::uint32_t>(k), p, elem, 0});
          }
          soff_[k + 1] = static_cast<std::uint32_t>(staged_.size());
        }
      } else {
        // Object-domain canonicalization (the packed_canonicalization
        // opt-out under symmetry): the group canonicalizer needs real state
        // objects, so this path keeps the materialize/step/undo flow.
        for (std::size_t k = 0; k < wlen; ++k) {
          const std::uint32_t* prow = wrows_.data() + k * st;
          fill_state(prow, scratch_);
          if (saved_.size() != n) saved_ = scratch_.procs;
          for (int p = 0; p < static_cast<int>(n); ++p) {
            Machine& machine = scratch_.procs[static_cast<std::size_t>(p)];
            const op_desc op = machine.peek();
            if (op.kind == op_kind::none) continue;
            const permutation& perm = naming_.of(p);
            saved_[static_cast<std::size_t>(p)] = machine;
            int written = -1;
            value_type old_value{};
            if (op.kind == op_kind::write) {
              written = perm[static_cast<std::size_t>(op.index)];
              old_value = scratch_.regs[static_cast<std::size_t>(written)];
            }
            permuted_vector_memory<value_type> view(scratch_.regs, perm);
            machine.step(view);

            std::uint32_t* row = srows_.data() + staged_.size() * st;
            canon_.regs = scratch_.regs;
            canon_.procs = scratch_.procs;
            const std::uint64_t c0 = cycle_clock::now();
            const int elem =
                group_.canonicalize(canon_.regs, canon_.procs, cs_, &cstats_);
            pt_canon_ += cycle_clock::now() - c0;
            build_words_into(canon_, row);
            staged_.push_back({static_cast<std::uint32_t>(k), p, elem, 0});
            machine = saved_[static_cast<std::size_t>(p)];
            if (written >= 0)
              scratch_.regs[static_cast<std::size_t>(written)] =
                  std::move(old_value);
          }
          soff_[k + 1] = static_cast<std::uint32_t>(staged_.size());
        }
      }
      const std::uint64_t t1 = cycle_clock::now();
      pt_expand_ += t1 - t0;
      // Stage 3: hash the whole batch back to back — pure streaming over
      // the staging buffer, no table traffic mixed in.
      for (std::size_t i = 0; i < staged_.size(); ++i)
        staged_[i].hash = hash_words(srows_.data() + i * st, st);
      // Stage 4: probe/insert in discovery order, warming the probe group
      // of the entry kPrefetchAhead slots ahead so its tag and cell lines
      // are in flight while earlier probes retire.
      std::size_t si = 0;
      for (std::size_t k = 0; k < wlen; ++k) {
        // Re-checked per parent (not per window): the unbatched loop stops
        // before expanding the next frontier state once the cap is hit, and
        // an incomplete run must cut off at the identical state count.
        if (num_states() >= opt_.max_states) {
          pt_probe_ += cycle_clock::now() - t1;
          return false;  // incomplete
        }
        const auto s = static_cast<std::int64_t>(wbegin + k);
        for (const std::size_t gend = soff_[k + 1]; si < gend; ++si) {
          if (si + kPrefetchAhead < staged_.size())
            index_.prefetch(staged_[si + kPrefetchAhead].hash);
          const staged_succ& ss = staged_[si];
          const std::uint32_t* row = srows_.data() + si * st;
          const auto [idx, fresh] = intern_row(row, ss.hash, s, ss.via, ss.elem);
          if (!fresh) ++res.dedup_hits;
          edges_.emplace_back(static_cast<std::uint32_t>(s),
                              static_cast<std::uint32_t>(idx));
          if (fresh && is_bad) {
            // The staged row is the stored (canonical) state in every mode;
            // the predicate (G-invariant by contract under symmetry) runs
            // on its reconstruction, exactly as often as unbatched — on
            // fresh states only.
            fill_state(row, canon_);
            if (is_bad(canon_)) {
              res.bad_state = concrete_state(idx);
              res.bad_schedule = concrete_schedule(idx);
              pt_probe_ += cycle_clock::now() - t1;
              return false;
            }
          }
        }
      }
      pt_probe_ += cycle_clock::now() - t1;
      frontier = wbegin + wlen;
    }
    return true;
  }

  /// Pack `s` into wbuf_: m register-value ids then n machine ids.
  void build_words(const state_type& s) {
    wbuf_.resize(stride());
    build_words_into(s, wbuf_.data());
  }

  /// Pack `s` into `out` (stride() words): m value ids then n machine ids.
  void build_words_into(const state_type& s, std::uint32_t* out) {
    std::size_t w = 0;
    for (const auto& r : s.regs) out[w++] = pool_.intern_value(r);
    for (const auto& p : s.procs) out[w++] = pool_.intern_machine(p);
  }

  /// Sentinel value id for transitions with no register input (internal
  /// steps); pool ids are dense and never reach it.
  static constexpr std::uint32_t kNoValueId = 0xffffffffu;

  /// A machine id's peeked op (kind + logical register index), cached per
  /// pool id. index -2 marks a not-yet-peeked entry.
  struct cached_op {
    op_kind kind = op_kind::none;
    int index = -2;
  };

  const cached_op& op_for(std::uint32_t w) {
    if (w >= opc_.size()) opc_.resize(w + 1);
    cached_op& e = opc_[static_cast<std::size_t>(w)];
    if (e.index == -2) {
      const op_desc op = pool_.machine(w).peek();
      e.kind = op.kind;
      e.index = op.index;
    }
    return e;
  }

  /// Memory adapter for transition-memo misses: serves the op's register
  /// value on any read and captures the (at most one) write. No cas()
  /// member, so compare_and_swap takes the same read+write fallback as the
  /// explorer's vector-backed views.
  struct one_op_memory {
    using value_type = typename Machine::value_type;
    int nregs = 0;
    value_type in{};
    value_type out{};
    bool wrote = false;

    int size() const { return nregs; }
    value_type read(int) const { return in; }
    void write(int, value_type v) {
      out = std::move(v);
      wrote = true;
    }
  };

  /// Evaluate one transition for real (memo miss): reconstruct the machine,
  /// step it against the adapter, and intern the results — machine first,
  /// then the written value, the per-successor loop's interning order.
  std::pair<std::uint32_t, std::uint32_t> eval_transition(std::uint32_t w,
                                                          const cached_op& oc,
                                                          std::uint32_t vid) {
    Machine mach = pool_.machine(w);
    one_op_memory mem;
    mem.nregs = registers_;
    if (oc.kind != op_kind::internal) mem.in = pool_.value(vid);
    mach.step(mem);
    const std::uint32_t w_out = pool_.intern_machine(mach);
    const std::uint32_t vid_out =
        mem.wrote ? pool_.intern_value(mem.out) : vid;
    return {w_out, vid_out};
  }

  /// Dedup-insert wbuf_; returns (index, inserted-fresh).
  std::pair<std::int64_t, bool> intern_words(std::int64_t parent, int via,
                                             int elem) {
    return intern_row(wbuf_.data(), hash_words(wbuf_.data(), stride()),
                      parent, via, elem);
  }

  /// Dedup-insert an explicit packed row with a precomputed hash.
  std::pair<std::int64_t, bool> intern_row(const std::uint32_t* row,
                                           std::size_t h, std::int64_t parent,
                                           int via, int elem) {
    const auto eq = [&](std::uint32_t i) { return rows_.equals(i, row); };
    const std::uint32_t found =
        use_linear_ ? lindex_.find(h, eq) : index_.find(h, eq);
    if (found != flat_index::npos) return {found, false};
    const std::uint64_t idx = num_states();
    ANONCOORD_REQUIRE(idx < flat_index::npos, "state index space exhausted");
    const std::uint64_t e0 = cycle_clock::now();
    rows_.append(row);
    pt_encode_ += cycle_clock::now() - e0;
    if (use_linear_)
      lindex_.insert(h, static_cast<std::uint32_t>(idx));
    else
      index_.insert(h, static_cast<std::uint32_t>(idx));
    parent_.push_back(parent);
    via_.push_back(via);
    elem_.push_back(elem);
    return {static_cast<std::int64_t>(idx), true};
  }

  /// Expand a packed row into component form, reusing `out`'s capacity.
  void fill_state(const std::uint32_t* w, state_type& out) const {
    const std::size_t m = static_cast<std::size_t>(registers_);
    const std::size_t n = initial_machines_.size();
    if (out.regs.size() == m && out.procs.size() == n) {
      for (std::size_t r = 0; r < m; ++r) out.regs[r] = pool_.value(w[r]);
      for (std::size_t p = 0; p < n; ++p)
        out.procs[p] = pool_.machine(w[m + p]);
    } else {
      out.regs.clear();
      out.procs.clear();
      for (std::size_t r = 0; r < m; ++r) out.regs.push_back(pool_.value(w[r]));
      for (std::size_t p = 0; p < n; ++p)
        out.procs.push_back(pool_.machine(w[m + p]));
    }
  }

  /// Decode stored state `idx` into `out`, reusing its capacity.
  void load_state(std::uint64_t idx, state_type& out) const {
    rowtmp_.resize(stride());
    rows_.load(idx, rowtmp_.data());
    fill_state(rowtmp_.data(), out);
  }

  /// The concrete schedule reaching stored state `idx`. Without symmetry
  /// this is the recorded via chain. With symmetry state i+1's recorded via
  /// acts in the frame already twisted by every canonicalization so far:
  /// with h_i the composition g_i o ... o g_root of the per-state elements,
  /// the concrete process is sigma_{h_i}^-1(via_{i+1}), and the inverse
  /// folds as sigma_{h_{i+1}}^-1 = sigma_{h_i}^-1 o sigma_{g_{i+1}}^-1.
  std::vector<int> concrete_schedule(std::int64_t idx) const {
    std::vector<std::int64_t> path;
    for (std::int64_t i = idx; i >= 0; i = parent_[static_cast<std::size_t>(i)])
      path.push_back(i);
    std::reverse(path.begin(), path.end());
    std::vector<int> sched;
    sched.reserve(path.size() - 1);
    if (group_.is_trivial()) {
      for (std::size_t k = 1; k < path.size(); ++k)
        sched.push_back(via_[static_cast<std::size_t>(path[k])]);
      return sched;
    }
    std::vector<int> sinv =
        group_.at(elem_[static_cast<std::size_t>(path[0])]).sigma_inv;
    std::vector<int> next(sinv.size());
    for (std::size_t k = 1; k < path.size(); ++k) {
      const auto st = static_cast<std::size_t>(path[k]);
      sched.push_back(sinv[static_cast<std::size_t>(via_[st])]);
      const std::vector<int>& g_sinv = group_.at(elem_[st]).sigma_inv;
      for (std::size_t x = 0; x < sinv.size(); ++x)
        next[x] = sinv[static_cast<std::size_t>(g_sinv[x])];
      sinv.swap(next);
    }
    return sched;
  }

  /// The concrete state reaching stored state `idx`: the stored row itself
  /// without symmetry, the replay of the concrete schedule with it.
  state_type concrete_state(std::int64_t idx) const {
    if (group_.is_trivial()) return state(static_cast<std::uint64_t>(idx));
    state_type s;
    s.regs.assign(static_cast<std::size_t>(registers_), value_type{});
    s.procs = initial_machines_;
    for (const int p : concrete_schedule(idx)) {
      permuted_vector_memory<value_type> view(s.regs, naming_.of(p));
      s.procs[static_cast<std::size_t>(p)].step(view);
    }
    return s;
  }

  void finish(result& res) {
    res.num_states = num_states();
    res.num_edges = edges_.size();
    // Convert tick accumulators to nanoseconds with one end-of-run
    // calibration (rdtsc frequency is not the core clock; measuring the
    // ratio against steady_clock over the whole run sidesteps knowing it).
    const std::uint64_t dt = cycle_clock::now() - cal_tick0_;
    const double ratio =
        dt > 0 ? (cal_timer_.elapsed_seconds() * 1e9) / static_cast<double>(dt)
               : 0.0;
    const auto to_ns = [ratio](std::uint64_t ticks) {
      return static_cast<std::uint64_t>(static_cast<double>(ticks) * ratio);
    };
    // The outer brackets include the fused inner ones; report disjoint
    // phases (expand excludes canonicalize, probe excludes encode).
    phases_.canonicalize_ns = to_ns(pt_canon_);
    phases_.expand_ns = to_ns(pt_expand_ > pt_canon_ ? pt_expand_ - pt_canon_ : 0);
    phases_.encode_ns = to_ns(pt_encode_);
    phases_.probe_ns = to_ns(pt_probe_ > pt_encode_ ? pt_probe_ - pt_encode_ : 0);
    phases_.probe_groups_scanned = pstats_.groups_scanned;
    phases_.probe_max_group_chain = pstats_.max_group_chain;
  }

  int registers_;
  naming_assignment naming_;
  std::vector<Machine> initial_machines_;
  options opt_;
  symmetry_group<Machine> group_;

  state_pool<Machine> pool_;
  row_store rows_;  ///< seen rows, bit-packed or verbatim per options
  flat_index index_;          ///< group-probing seen table (batched mode)
  flat_index_linear lindex_;  ///< baseline seen table (the opt-out's)
  bool use_linear_ = false;
  std::vector<std::int64_t> parent_;
  std::vector<int> via_;
  std::vector<int> elem_;  ///< canonicalizing group element per state
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  // Reverse-CSR progress structure, built lazily by check_progress and
  // reused by subsequent calls on the same run.
  mutable std::vector<std::uint32_t> csr_offsets_;
  mutable std::vector<std::uint32_t> csr_sources_;

  // Hot-path scratch (members so explore() allocates nothing per successor).
  state_type scratch_, canon_;
  std::vector<Machine> saved_;
  std::vector<std::uint32_t> wbuf_;
  std::vector<std::uint32_t> prow_;  ///< decoded row of the frontier state
  mutable std::vector<std::uint32_t> rowtmp_;
  // Batched-pipeline staging (run_batched; empty in unbatched runs).
  std::vector<staged_succ> staged_;
  std::vector<std::uint32_t> wrows_;  ///< decoded window parent rows
  std::vector<std::uint32_t> srows_;  ///< flat staged successor rows
  std::vector<std::uint32_t> soff_;   ///< per-parent staged offsets (wlen+1)
  // Interned-id transition memo (batched generation stage).
  struct transition {
    std::uint64_t key;    ///< machine id << 32 | input value id
    std::uint32_t mach;   ///< stepped machine id
    std::uint32_t value;  ///< written (or unchanged input) value id
  };
  std::vector<cached_op> opc_;
  std::vector<transition> tmemo_;
  flat_index tindex_;
  // Phase breakdown: raw tick accumulators plus the published ns view.
  explore_phase_stats phases_;
  probe_stats pstats_;
  std::uint64_t pt_expand_ = 0, pt_canon_ = 0, pt_probe_ = 0, pt_encode_ = 0;
  stopwatch cal_timer_;
  std::uint64_t cal_tick0_ = 0;
  mutable canonical_scratch<Machine> cs_;
  // Packed canonicalization kernel state (reduce + packed_canonicalization).
  bool packed_ = false;
  packed_canonicalizer<Machine> pk_;
  packed_canonical_scratch pks_;
  canonicalize_stats cstats_;
};

}  // namespace anoncoord
