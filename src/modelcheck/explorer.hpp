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
// the hot path. The seen rows themselves are bit-packed in arena pages
// (row_store: each column in the bit width of its pools' id bound), so
// reading a stored row back is O(1) arithmetic and needs nothing but its
// index. The reported result is identical to the plain object-level BFS of
// modelcheck/reference_explorer.hpp, which the tests use as the oracle.
//
// The hot loop itself is a staged batch pipeline (see docs/modelcheck.md
// "hot-path pipeline"): the frontier is processed in fixed windows of
// kExpandWindow parents. Stage 1 decodes the window's parent rows behind one
// batched spill fault-in; stage 2 generates every successor of the window
// into a flat packed-row staging buffer, then canonicalizes and hashes the
// staged rows in passes of their own; stage 3 probes/inserts in discovery
// order while software-prefetching the probe group of the entry a few slots
// ahead, so the seen-table miss latency overlaps the probes in flight, and
// then appends the window's fresh rows to the row store as one batch. The
// seen table is a Swiss-table-style group-probing index (util/flat_index.hpp):
// one 16-byte tag compare per group, cell memory touched only for candidate
// slots, and one walk per successor — a miss returns the slot a fresh state
// is placed in.
//
// With options.workers > 1 stage 2 — memoised successor generation, packed
// canonicalization and hashing, the bulk of the CPU time — runs on a
// fork-join thread_pool, one contiguous slice of the window's parents per
// worker, each worker with its own op cache, transition memo, canonical
// scratch and counters. Everything else stays on the calling thread in
// discovery order: the seen-table probe/insert, the row append, the
// max_states cap and the safety predicate. The pools intern from every
// worker, so ids are handed out in thread-timing order, but the state a
// stored row denotes, its index, parent and schedule are not; before each
// window's appends the row store reserves the pools' id bounds
// (row_store::reserve), which depend only on how many components are
// interned, so the stored bytes are the same at every worker count too.
// Every worker count reproduces the one-worker run exactly.
//
// With options.symmetry the seen-table keys are orbit representatives under
// the configuration's automorphism group (modelcheck/symmetry.hpp):
// successors are canonicalized in the packed interned-id word domain
// (packed_canonicalizer) before dedup, which shrinks the stored state
// count by up to |G| <= n! while preserving reachability and every
// G-invariant verdict. Counterexample schedules are stored against quotient
// states, so they are mapped back to concrete schedules by folding the
// per-state group elements (sigma-inverse chain) and re-validated by replay.
//
// Per-state bookkeeping outside the row store is kept narrow, since the
// spill budget bounds only the rows: a 32-bit parent index and a one-byte
// process index per state (so at most 255 processes), the canonicalizing
// group element only when the group is non-trivial, and the recorded edges
// as per-state successor slots — a state's successors are probed together
// and in state order, so one 32-bit target per edge plus a one-byte
// out-degree per state replaces (from, to) pairs. Each record is a
// chunked_vector (util/chunked_vector.hpp): appends never double or copy,
// so its resident bytes are its element bytes plus at most one 64 Ki-element
// chunk. The seen table is needed only while states are discovered, so
// explore() frees it on return and check_progress()'s reverse CSR reuses
// its memory; the next explore() starts a fresh table. bookkeeping_bytes()
// reports these records next to stored_row_bytes().
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/state_pool.hpp"
#include "modelcheck/symmetry.hpp"
#include "runtime/step_machine.hpp"
#include "util/check.hpp"
#include "util/chunked_vector.hpp"
#include "util/flat_index.hpp"
#include "util/hash.hpp"
#include "util/padded.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace anoncoord {

/// Per-phase hot-loop breakdown of an exploration run. The four phase times
/// partition the batched pipeline. They are measured as cycle_clock ticks,
/// converted once per run against a wall-clock calibration, and no clock is
/// read per successor: expand = parent decode + successor generation and
/// hashing (one tick pair per window for the decode, one per worker slice
/// for generation), canonicalize = the symmetry kernel's pass over a slice's
/// staged rows (one tick pair per slice), probe = seen-table lookup and
/// claim (one tick pair per window), encode = row-arena append (a window's
/// fresh rows are appended as one batch: one tick pair per window). Expand
/// and canonicalize sum every worker's ticks, so with several workers they
/// read as CPU time; probe and encode are the calling thread's time.
/// probe_groups_scanned counts one probe walk per successor (a fresh
/// state's placement reuses its miss).
struct explore_phase_stats {
  std::uint64_t expand_ns = 0;
  std::uint64_t canonicalize_ns = 0;
  std::uint64_t probe_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t probe_groups_scanned = 0;
  std::uint64_t probe_max_group_chain = 0;
};

/// The explorer's resident bytes outside the row store, none of which the
/// spill budget bounds. Counted from element counts, not allocated chunks,
/// so the figures are deterministic.
struct explorer_bookkeeping {
  /// Seen-table cells and probe tags when explore() returned — the table's
  /// high-water mark, since it only grows. explore() frees it then.
  std::uint64_t seen_table = 0;
  std::uint64_t provenance = 0;       ///< parent, via and group element
  std::uint64_t successor_slots = 0;  ///< edge targets and out-degrees
  /// The reverse adjacency the last check_progress built (and freed).
  std::uint64_t csr = 0;

  std::uint64_t total() const {
    return seen_table + provenance + successor_slots + csr;
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

/// How to run one exploration; explorer<M>::options adds record_edges.
struct verify_options {
  /// Workers for the explorer's successor-generation stage (see the file
  /// comment). Every worker count gives the identical result, stored bytes
  /// included; 1 runs the stage inline on the calling thread.
  int workers = 1;
  /// Exploration cap; a run that reaches it is incomplete.
  std::uint64_t max_states = 2'000'000;
  /// Dedup states by their orbit representative under the configuration's
  /// automorphism group (modelcheck/symmetry.hpp): the naming-conjugation
  /// group for process_symmetric_machine types, the full S_n x C_m
  /// product for fully_anonymous_machine types. Sound only when every
  /// predicate is invariant under the group action; machine types with
  /// neither trait get the trivial group, making this a no-op rather than
  /// a wrong answer.
  bool symmetry = false;
  /// Out-of-core mode: resident budget in bytes for the row arena; cold
  /// pages spill to an unlinked temp file under spill_dir ("" = $TMPDIR
  /// or /tmp). The frontier and the progress pass fault them back window
  /// by window, evicting behind themselves; duplicate checks read single
  /// rows from the file without faulting. Verdicts, counts and
  /// counterexamples are bit-identical to in-memory runs. 0 keeps
  /// everything resident. In a scheduled sweep this is the PER-JOB budget:
  /// every class's explorer gets its own arena and spill file.
  std::uint64_t spill_budget_bytes = 0;
  std::string spill_dir;
};

template <class Machine>
class explorer {
 public:
  using state_type = global_state<Machine>;
  using state_predicate = std::function<bool(const state_type&)>;
  using value_type = typename Machine::value_type;

  /// The run's settings plus whether to keep the edges check_progress()
  /// walks. verify_config sets record_edges only when its spec has a
  /// progress property.
  struct options : verify_options {
    /// Record successor edges — per-state successor slots, 4 B per edge
    /// plus 1 B per state — for check_progress(); safety-only runs skip
    /// them. result.num_edges counts the edges either way.
    bool record_edges = true;
  };

  struct result {
    bool complete = false;        ///< full reachable set explored
    std::uint64_t num_states = 0;
    std::uint64_t num_edges = 0;   ///< successors generated and probed
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
    ANONCOORD_REQUIRE(opt_.workers >= 1, "need at least one worker");
    ANONCOORD_REQUIRE(initial_machines_.size() <= kMaxProcesses,
                      "explorer records the stepping process in one byte: "
                      "at most 255 processes");
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
    {
      canon_.regs.assign(static_cast<std::size_t>(registers_), value_type{});
      canon_.procs = initial_machines_;
      const int elem = group_.orbit_min(canon_.regs, canon_.procs, &cstats_);
      std::vector<std::uint32_t> row;
      for (const auto& r : canon_.regs) row.push_back(pool_.intern_value(r));
      for (const auto& p : canon_.procs) row.push_back(pool_.intern_machine(p));
      intern_row(row.data(), hash_words(row.data(), stride()), kNoParent,
                 /*via=*/0, elem);
      store_rows();
    }
    if (is_bad && is_bad(canon_)) {
      res.bad_state = concrete_state(0);
      res.bad_schedule = concrete_schedule(0);
      finish(res);
      return res;
    }

    // Started only now, so a run that stops at the initial state spawns no
    // threads; a 1-worker pool spawns none at all.
    thread_pool threads(opt_.workers);
    res.complete = run(res, is_bad, threads);
    finish(res);
    return res;
  }

  /// After a *complete* explore() with recorded edges: verify that from
  /// every reachable state satisfying `premise`, some state satisfying
  /// `goal` is reachable. Overwrites the progress fields of `res`, so the
  /// same result may be re-checked with other predicates. Under symmetry
  /// the analysis runs on the quotient graph — sound for G-invariant
  /// predicates.
  void check_progress(result& res, const state_predicate& premise,
                      const state_predicate& goal) {
    ANONCOORD_REQUIRE(res.complete,
                      "progress analysis needs a complete state space");
    ANONCOORD_REQUIRE(opt_.record_edges,
                      "progress analysis needs recorded edges");
    res.stuck_states = 0;
    res.stuck_state.reset();
    res.stuck_schedule.clear();
    const std::size_t n = num_states();
    std::vector<char> reaches_goal(n, 0);
    // Reverse adjacency in CSR form. Count in-degrees one slot to the right
    // and take prefix sums (offsets[t] = start of t's bucket), then walk the
    // successor slots forwards, incrementing into place: each bucket ends
    // up holding its predecessors in ascending order, and offsets[t] ends
    // at the bucket's end, so one shift right restores the starts. Both
    // scans run chunk by chunk.
    ANONCOORD_REQUIRE(succ_.size() < flat_index::npos,
                      "edge count exceeds the 32-bit CSR offsets");
    std::vector<std::uint32_t> offsets(n + 1, 0);
    for (const std::uint32_t to : succ_) ++offsets[to + 1];
    for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
    std::vector<std::uint32_t> sources(succ_.size());
    auto slot = succ_.begin();
    std::uint32_t from = 0;
    for (const std::uint8_t d : outdeg_) {
      for (std::uint8_t k = 0; k < d; ++k, ++slot)
        sources[offsets[*slot]++] = from;
      ++from;
    }
    std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
    offsets[0] = 0;
    csr_bytes_ = (offsets.size() + sources.size()) * sizeof(std::uint32_t);
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
          res.stuck_state = concrete_state(static_cast<std::uint32_t>(i));
          res.stuck_schedule = concrete_schedule(static_cast<std::uint32_t>(i));
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

  /// Per-phase hot-loop breakdown of the last explore().
  const explore_phase_stats& phase_counters() const { return phases_; }

  /// Row-storage bytes actually committed for the seen set (the bench's
  /// bytes-per-state numerator; same accounting basis in both modes).
  std::uint64_t stored_row_bytes() const { return rows_.stored_bytes(); }

  /// Resident bytes of the per-state records outside the row store (see
  /// explorer_bookkeeping): the seen table, provenance, successor slots
  /// and, once check_progress has run, the reverse CSR it built.
  explorer_bookkeeping bookkeeping_bytes() const {
    const auto bytes = [](const auto& v) {
      return static_cast<std::uint64_t>(v.size() * sizeof(v[0]));
    };
    explorer_bookkeeping b;
    b.seen_table = seen_table_bytes_;
    b.provenance = bytes(parent_) + bytes(via_) + bytes(elem_);
    b.successor_slots = bytes(succ_) + bytes(outdeg_);
    b.csr = csr_bytes_;
    return b;
  }

  /// Rows that opened a width epoch in the packed store (diagnostics).
  std::uint64_t keyframe_rows() const { return rows_.keyframes(); }

  /// Spill counters from the backing arena (all zero when spilling is off).
  arena_spill_stats spill_stats() const { return rows_.spill_stats(); }

  /// Canonicalization prune counters for the last explore(), summed over
  /// the workers and the initial state (all zero when the group is
  /// trivial).
  canonicalize_stats canonicalize_counters() const {
    canonicalize_stats total = cstats_;
    for (const auto& w : workers_) total.merge(w.value.cstats);
    return total;
  }

 private:
  /// Sentinel value id for transitions with no register input (internal
  /// steps); pool ids are dense and never reach it.
  static constexpr std::uint32_t kNoValueId = 0xffffffffu;
  /// The initial state's parent. State indices stay below flat_index::npos
  /// (intern_row), so no stored state has this index.
  static constexpr std::uint32_t kNoParent = flat_index::npos;
  /// via_ and the out-degrees are one byte each.
  static constexpr std::size_t kMaxProcesses = 255;

  /// End of a transition-memo list.
  static constexpr std::uint32_t kNoTransition = 0xffffffffu;

  /// A machine id's peeked op (kind + logical register index) and the head
  /// of its transition-memo list, cached per pool id. index -2 marks a
  /// not-yet-peeked entry.
  struct cached_op {
    op_kind kind = op_kind::none;
    int index = -2;
    std::uint32_t memo = kNoTransition;
  };

  /// Interned-id transition memo entry: one step of the machine id whose
  /// list it is on. A machine reads few distinct values, so lists are short.
  struct transition {
    std::uint32_t in;     ///< input value id (kNoValueId for internal steps)
    std::uint32_t mach;   ///< stepped machine id
    std::uint32_t value;  ///< written (or unchanged input) value id
    std::uint32_t next;   ///< next entry of the same machine id
  };

  /// A successor staged by the generation stage, waiting for its probe.
  struct staged_succ {
    std::uint8_t via;   ///< process index that stepped
    std::int32_t elem;  ///< canonicalizing group element
    std::size_t hash;   ///< seen-table hash of the staged row
  };

  /// One generation-stage worker's private state. The caches are keyed by
  /// pool ids, which every worker shares, so any worker may expand any
  /// parent; the tick counters are read only after the join.
  struct worker {
    std::vector<cached_op> opc;
    std::vector<transition> tmemo;
    packed_canonical_scratch pks;
    canonicalize_stats cstats;
    std::uint64_t pt_expand = 0;  ///< generation ticks (canon included)
    std::uint64_t pt_canon = 0;   ///< canonicalization ticks within expand
  };

  std::size_t stride() const {
    return static_cast<std::size_t>(registers_) + initial_machines_.size();
  }

  void reset() {
    pool_.clear();
    cstats_ = canonicalize_stats{};
    if (!group_.is_trivial())
      pk_.attach(&group_, &pool_, registers_,
                 static_cast<int>(initial_machines_.size()));
    row_store_options ropt;
    ropt.spill.budget_bytes = opt_.spill_budget_bytes;
    ropt.spill.dir = opt_.spill_dir;
    rows_.configure(stride(), ropt);
    index_.clear();
    workers_.clear();
    workers_.resize(static_cast<std::size_t>(opt_.workers));
    pstats_ = probe_stats{};
    index_.stats = &pstats_;
    phases_ = explore_phase_stats{};
    pt_decode_ = pt_probe_ = pt_encode_ = 0;
    cal_timer_.reset();
    cal_tick0_ = cycle_clock::now();
    parent_.clear();
    via_.clear();
    elem_.clear();
    succ_.clear();
    outdeg_.clear();
    csr_bytes_ = 0;
  }

  /// Parents [lo, hi) of a `wlen`-parent window that worker `w` expands.
  std::pair<std::size_t, std::size_t> slice(std::size_t wlen,
                                            std::size_t w) const {
    const std::size_t nw = workers_.size();
    return {wlen * w / nw, wlen * (w + 1) / nw};
  }

  /// How a window's probe stage ended.
  enum class window_end { done, capped, violated };

  /// The staged batch pipeline. Returns whether the reachable set was fully
  /// explored; a safety violation or the max_states cap stops early with
  /// false. Observable effects are those of a one-parent-at-a-time BFS: the
  /// max_states cap is re-checked before each parent's probe group, and the
  /// first violating fresh state in staged order is the first in discovery
  /// order.
  bool run(result& res, const state_predicate& is_bad, thread_pool& threads) {
    const std::size_t n = initial_machines_.size();
    const std::size_t st = stride();
    // Window size doubles as the spill fault-in window: one prefetch_rows
    // call per window. It is fixed — not scaled by the worker count — so
    // the per-window reserve() points, and with them the stored bytes, are
    // the same at every worker count.
    constexpr std::uint64_t kExpandWindow = 128;
    srows_.resize(static_cast<std::size_t>(kExpandWindow) * n * st);
    staged_.resize(static_cast<std::size_t>(kExpandWindow) * n);
    unstored_.reserve(static_cast<std::size_t>(kExpandWindow) * n);
    send_.resize(static_cast<std::size_t>(kExpandWindow));
    bounds_.resize(st);
    std::size_t wlen = 0;
    const std::function<void(int)> generate_slice = [&](int w) {
      const auto [lo, hi] = slice(wlen, static_cast<std::size_t>(w));
      generate(workers_[static_cast<std::size_t>(w)].value, lo, hi);
    };
    std::uint64_t frontier = 0;
    while (frontier < num_states()) {
      const std::uint64_t wbegin = frontier;
      wlen = static_cast<std::size_t>(
          std::min<std::uint64_t>(kExpandWindow, num_states() - wbegin));
      const std::uint64_t t0 = cycle_clock::now();
      // Stage 1: decode the window's parent rows behind one batched
      // cold-page fault-in (BFS append order IS arena-offset order).
      if (rows_.spill_enabled())
        rows_.prefetch_rows(wbegin, wbegin + wlen);
      wrows_.resize(wlen * st);
      for (std::size_t k = 0; k < wlen; ++k)
        rows_.load(wbegin + k, wrows_.data() + k * st);
      // Rank snapshots rebuild only here, between forks.
      if (!group_.is_trivial()) pk_.maybe_refresh_ranks();
      pt_decode_ += cycle_clock::now() - t0;
      // Stage 2: every successor of the window, staged with its hash.
      threads.run(generate_slice);
      const std::uint64_t t1 = cycle_clock::now();
      // Size the packed columns from the pools' id bounds, not from the
      // window's ids, which depend on thread timing (see the file comment).
      std::fill_n(bounds_.begin(), registers_, pool_.value_id_bound());
      std::fill(bounds_.begin() + registers_, bounds_.end(),
                pool_.machine_id_bound());
      rows_.reserve(bounds_.data());
      // Stage 3: probe/insert. Stage 4: the window's fresh rows reach the
      // arena in one batch; a stopped run's counterexample is read back
      // only after it.
      std::uint32_t bad = 0;
      const window_end end = probe_window(res, is_bad, wbegin, wlen, bad);
      const std::uint64_t t2 = cycle_clock::now();
      store_rows();
      pt_probe_ += t2 - t1;
      pt_encode_ += cycle_clock::now() - t2;
      if (end == window_end::violated) {
        res.bad_state = concrete_state(bad);
        res.bad_schedule = concrete_schedule(bad);
      }
      if (end != window_end::done) return false;
      frontier = wbegin + wlen;
    }
    return true;
  }

  /// Stage 3 for the window [wbegin, wbegin + wlen): probe/insert in
  /// discovery order — slice by slice, each slice's successors packed from
  /// slot lo * n — warming the probe group of the entry kPrefetchAhead
  /// slots ahead so its tag and cell lines are in flight while earlier
  /// probes retire. On a violation `bad` is the violating state's index.
  window_end probe_window(result& res, const state_predicate& is_bad,
                          std::uint64_t wbegin, std::size_t wlen,
                          std::uint32_t& bad) {
    // How far ahead of the probe cursor to warm seen-table groups. Far
    // enough to cover a memory round-trip at ~40 probes/us, near enough
    // that the lines still sit in L1 when the probe arrives.
    constexpr std::size_t kPrefetchAhead = 8;
    const std::size_t n = initial_machines_.size();
    const std::size_t st = stride();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const auto [lo, hi] = slice(wlen, w);
      if (lo == hi) continue;
      std::size_t si = lo * n;
      const std::size_t slice_end = send_[hi - 1];
      for (std::size_t k = lo; k < hi; ++k) {
        // Re-checked per parent (not per window): an incomplete run stops
        // before expanding the first parent past the cap, as a BFS taking
        // one parent at a time would.
        if (num_states() >= opt_.max_states) return window_end::capped;
        const auto s = static_cast<std::uint32_t>(wbegin + k);
        if (opt_.record_edges)
          outdeg_.push_back(static_cast<std::uint8_t>(send_[k] - si));
        for (; si < send_[k]; ++si) {
          if (si + kPrefetchAhead < slice_end)
            index_.prefetch(staged_[si + kPrefetchAhead].hash);
          const staged_succ& ss = staged_[si];
          const std::uint32_t* row = srows_.data() + si * st;
          const auto [idx, fresh] =
              intern_row(row, ss.hash, s, ss.via, ss.elem);
          ++res.num_edges;
          if (!fresh) ++res.dedup_hits;
          if (opt_.record_edges) succ_.push_back(idx);
          if (fresh && is_bad) {
            // The staged row is the stored (canonical) state; the
            // predicate (G-invariant by contract under symmetry) runs on
            // its reconstruction, on fresh states only.
            fill_state(row, canon_);
            if (is_bad(canon_)) {
              bad = idx;
              return window_end::violated;
            }
          }
        }
      }
    }
    return window_end::done;
  }

  /// Stage 2 for parents [lo, hi) of the decoded window: stage each
  /// successor row at slots lo * n onward and record each parent's end
  /// slot in send_. Three passes over the slice — patch, canonicalize (a
  /// non-trivial group only; one tick pair for the whole pass), hash — so
  /// no clock is read per row.
  ///
  /// A step is a pure function of (machine id, value id at the op's
  /// register) — that key captures plain reads, plain writes AND the CAS
  /// fallback (a write that reads its target first) — so the transition
  /// memo patches rows without reconstructing states, stepping machines or
  /// re-hashing components. The memo is indexed by machine id: the op cache
  /// entry holds the head of that machine's list of (input value id ->
  /// result) entries. Misses evaluate the real machine and intern the
  /// results.
  void generate(worker& wk, std::size_t lo, std::size_t hi) {
    const std::uint64_t t0 = cycle_clock::now();
    const std::size_t m = static_cast<std::size_t>(registers_);
    const std::size_t n = initial_machines_.size();
    const std::size_t st = stride();
    const std::size_t first = lo * n;
    std::size_t si = first;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::uint32_t* prow = wrows_.data() + k * st;
      for (int p = 0; p < static_cast<int>(n); ++p) {
        const std::uint32_t w = prow[m + static_cast<std::size_t>(p)];
        cached_op& oc = op_for(wk, w);
        if (oc.kind == op_kind::none) continue;
        std::uint32_t vid_in = kNoValueId;
        std::size_t phys = 0;
        if (oc.kind != op_kind::internal) {
          phys = static_cast<std::size_t>(
              naming_.of(p)[static_cast<std::size_t>(oc.index)]);
          vid_in = prow[phys];
        }
        std::uint32_t t = oc.memo;
        while (t != kNoTransition && wk.tmemo[t].in != vid_in)
          t = wk.tmemo[t].next;
        if (t == kNoTransition) {
          const auto [w_out, vid_out] = eval_transition(w, oc, vid_in);
          t = static_cast<std::uint32_t>(wk.tmemo.size());
          wk.tmemo.push_back({vid_in, w_out, vid_out, oc.memo});
          oc.memo = t;
        }
        const transition& tr = wk.tmemo[t];
        std::uint32_t* row = srows_.data() + si * st;
        std::memcpy(row, prow, st * sizeof(std::uint32_t));
        row[m + static_cast<std::size_t>(p)] = tr.mach;
        if (oc.kind == op_kind::write) row[phys] = tr.value;
        // is_bad is deferred to the probe stage: the staged row IS the
        // (canonical) state, so fresh states reconstruct it there and
        // duplicates never pay the predicate.
        staged_[si++] = {static_cast<std::uint8_t>(p), 0, 0};
      }
      send_[k] = si;
    }
    if (!group_.is_trivial()) {
      const std::uint64_t c0 = cycle_clock::now();
      for (std::size_t j = first; j < si; ++j)
        staged_[j].elem =
            pk_.canonicalize_row(srows_.data() + j * st, wk.pks, wk.cstats);
      wk.pt_canon += cycle_clock::now() - c0;
    }
    for (std::size_t j = first; j < si; ++j)
      staged_[j].hash = hash_words(srows_.data() + j * st, st);
    wk.pt_expand += cycle_clock::now() - t0;
  }

  cached_op& op_for(worker& wk, std::uint32_t w) const {
    if (w >= wk.opc.size()) wk.opc.resize(w + 1);
    cached_op& e = wk.opc[static_cast<std::size_t>(w)];
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
  /// then the written value.
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

  /// Dedup-insert a packed row with a precomputed hash; returns (index,
  /// inserted-fresh). One seen-table walk: a miss's slot is claimed once
  /// the row is queued in unstored_, where it stays — and is compared in
  /// place — until store_rows() appends the batch to the arena. `row` must
  /// stay valid until then.
  std::pair<std::uint32_t, bool> intern_row(const std::uint32_t* row,
                                            std::size_t h, std::uint32_t parent,
                                            std::uint8_t via, int elem) {
    const std::uint64_t stored = rows_.size();
    const std::size_t bytes = stride() * sizeof(std::uint32_t);
    const flat_index::probe pr = index_.lookup(h, [&](std::uint32_t i) {
      return i < stored ? rows_.equals(i, row)
                        : std::memcmp(unstored_[i - stored], row, bytes) == 0;
    });
    if (pr.hit()) return {pr.found, false};
    const std::uint64_t idx = num_states();
    ANONCOORD_REQUIRE(idx < flat_index::npos, "state index space exhausted");
    unstored_.push_back(row);
    index_.claim(pr, static_cast<std::uint32_t>(idx));
    parent_.push_back(parent);
    via_.push_back(via);
    if (!group_.is_trivial()) elem_.push_back(elem);
    return {static_cast<std::uint32_t>(idx), true};
  }

  /// Append the rows intern_row() queued, in index order.
  void store_rows() {
    for (const std::uint32_t* row : unstored_) rows_.append(row);
    unstored_.clear();
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
  std::vector<int> concrete_schedule(std::uint32_t idx) const {
    std::vector<std::uint32_t> path;
    for (std::uint32_t i = idx; i != kNoParent; i = parent_[i]) path.push_back(i);
    std::reverse(path.begin(), path.end());
    std::vector<int> sched;
    sched.reserve(path.size() - 1);
    if (group_.is_trivial()) {
      for (std::size_t k = 1; k < path.size(); ++k)
        sched.push_back(via_[path[k]]);
      return sched;
    }
    std::vector<int> sinv = group_.at(elem_[path[0]]).sigma_inv;
    std::vector<int> next(sinv.size());
    for (std::size_t k = 1; k < path.size(); ++k) {
      const std::uint32_t st = path[k];
      sched.push_back(sinv[via_[st]]);
      const std::vector<int>& g_sinv = group_.at(elem_[st]).sigma_inv;
      for (std::size_t x = 0; x < sinv.size(); ++x)
        next[x] = sinv[static_cast<std::size_t>(g_sinv[x])];
      sinv.swap(next);
    }
    return sched;
  }

  /// The concrete state reaching stored state `idx`: the stored row itself
  /// without symmetry, the replay of the concrete schedule with it.
  state_type concrete_state(std::uint32_t idx) const {
    if (group_.is_trivial()) return state(idx);
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
    // Nothing reads the seen table after discovery: free it here, on every
    // return path of explore(), so check_progress() reuses its memory.
    seen_table_bytes_ = index_.cells.size() * sizeof(index_.cells[0]) +
                        index_.tags.size() * sizeof(index_.tags[0]);
    index_ = flat_index{};
    // Convert tick accumulators to nanoseconds with one end-of-run
    // calibration (rdtsc frequency is not the core clock; measuring the
    // ratio against steady_clock over the whole run sidesteps knowing it;
    // constant-rate rdtsc is core-invariant, so one ratio serves every
    // worker).
    const std::uint64_t dt = cycle_clock::now() - cal_tick0_;
    const double ratio =
        dt > 0 ? (cal_timer_.elapsed_seconds() * 1e9) / static_cast<double>(dt)
               : 0.0;
    const auto to_ns = [ratio](std::uint64_t ticks) {
      return static_cast<std::uint64_t>(static_cast<double>(ticks) * ratio);
    };
    std::uint64_t expand = pt_decode_, canon = 0;
    for (const auto& w : workers_) {
      expand += w.value.pt_expand;
      canon += w.value.pt_canon;
    }
    // A slice's generation bracket includes its canonicalization pass;
    // report disjoint phases (expand excludes canonicalize).
    phases_.canonicalize_ns = to_ns(canon);
    phases_.expand_ns = to_ns(expand > canon ? expand - canon : 0);
    phases_.encode_ns = to_ns(pt_encode_);
    phases_.probe_ns = to_ns(pt_probe_);
    phases_.probe_groups_scanned = pstats_.groups_scanned;
    phases_.probe_max_group_chain = pstats_.max_group_chain;
  }

  int registers_;
  naming_assignment naming_;
  std::vector<Machine> initial_machines_;
  options opt_;
  symmetry_group<Machine> group_;

  state_pool<Machine> pool_;
  row_store rows_;    ///< seen rows, bit-packed
  flat_index index_;  ///< group-probing seen table, freed by explore()
  std::uint64_t seen_table_bytes_ = 0;  ///< its size when explore() returned
  // Provenance per state: BFS-tree parent, the process that stepped into
  // it and, for a non-trivial group only, its canonicalizing element.
  chunked_vector<std::uint32_t> parent_;
  chunked_vector<std::uint8_t> via_;
  chunked_vector<int> elem_;
  // Recorded edges as successor slots: state s's targets are the outdeg_[s]
  // entries of succ_ after those of states 0..s-1.
  chunked_vector<std::uint32_t> succ_;
  chunked_vector<std::uint8_t> outdeg_;
  std::uint64_t csr_bytes_ = 0;  ///< the last check_progress's reverse CSR

  // Hot-path scratch (members so explore() allocates nothing per successor).
  state_type canon_;
  mutable std::vector<std::uint32_t> rowtmp_;
  // Batched-pipeline staging; the workers write disjoint slices.
  std::vector<std::uint32_t> wrows_;  ///< decoded window parent rows
  std::vector<std::uint32_t> srows_;  ///< staged successor rows, n per parent
  std::vector<staged_succ> staged_;   ///< their provenance and hashes
  /// Fresh rows not yet in rows_ (staged rows; indices from rows_.size()).
  std::vector<const std::uint32_t*> unstored_;
  std::vector<std::size_t> send_;     ///< per-parent end slot in staged_
  std::vector<std::uint32_t> bounds_;  ///< per-column id bounds for reserve
  std::vector<padded<worker>> workers_;
  // Phase breakdown: calling-thread tick accumulators plus the published
  // ns view.
  explore_phase_stats phases_;
  probe_stats pstats_;
  std::uint64_t pt_decode_ = 0, pt_probe_ = 0, pt_encode_ = 0;
  stopwatch cal_timer_;
  std::uint64_t cal_tick0_ = 0;
  // Packed canonicalization kernel (non-trivial group only), shared by the
  // workers; its scratch and counters live per worker. cstats_ covers the
  // initial state's orbit_min.
  packed_canonicalizer<Machine> pk_;
  canonicalize_stats cstats_;
};

}  // namespace anoncoord
