// Parallel explicit-state exploration with deterministic merge.
//
// Level-synchronous BFS over the same global states as explorer.hpp, run on
// a fork-join worker pool with two lock-free structures on the hot path:
//
//   * the frontier (one BFS level) is pre-partitioned into per-worker
//     Chase-Lev deques (util/work_steal.hpp): each worker pops its own slice
//     LIFO and steals FIFO from the others when it runs dry, so load
//     balancing is dynamic without an atomic cursor in every claim and
//     without any mutex;
//   * discovered states are deduplicated in ONE open-addressing CAS-insert
//     seen-table (no stripes, no mutexes). A cell packs a 32-bit hash
//     fragment with a tagged payload: either the global index of a merged
//     state or the index of a level-pending entry. Inserting stages the
//     packed row and its (parent, via, elem) provenance in pre-sized bump
//     arenas first, then publishes with a release CAS on the empty cell; a
//     loser re-examines the same cell, so a state is never inserted twice.
//     Same-level duplicates fold their provenance with a CAS-min on the
//     pending entry — the lexicographically smallest (parent, via), i.e.
//     sequential BFS's first discoverer, always wins regardless of timing.
//     The table grows only between levels (single-threaded, re-placing cells
//     by fragment exactly like util/flat_index.hpp), so probes never race a
//     rehash.
//
// At the end of each level the pending states are merged DETERMINISTICALLY:
// sorted by (parent index, stepped process) — exactly the order sequential
// BFS discovers them — then assigned global indices, appended to the row
// store, and their cells rewritten to merged payloads. Verdicts, state
// counts, parent chains and counterexample schedules are therefore
// bit-identical to explorer<Machine> for every worker count; the tests pin
// both engines to the reference oracle (modelcheck/reference_explorer.hpp).
//
// States are packed and interned (modelcheck/state_pool.hpp): register
// values and machine local states are hash-consed into thread-safe component
// pools, and a stored state is one row of (m + n) 32-bit pool ids. Merged
// rows live in a row_store — bit-packed by default (options.compress_arena),
// verbatim on opt-out — which only the single-threaded merge appends to;
// workers read rows by index alone (O(1), no per-thread state), so the store
// is strictly read-only while they expand. The only synchronization on the
// hot path is the seen-table CAS. Before appending a level the merge sizes
// the packed columns from the pools' id bounds (row_store::reserve), which
// do not depend on the order the workers interned in, so the stored bytes
// are the same at every worker count too.
//
// With options.symmetry successors are canonicalized to their orbit
// representative under the configuration's automorphism group
// (modelcheck/symmetry.hpp's packed_canonicalizer, whose memo tables are
// shared read-mostly across workers and whose rank snapshots rebuild only
// between levels) before dedup; every determinism property above
// is preserved because canonicalization is a pure function of the successor
// and the merge order never depends on table placement. Reported
// counterexamples are mapped back to concrete schedules exactly as in the
// sequential engine.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"  // global_state, permuted_vector_memory
#include "modelcheck/state_pool.hpp"
#include "modelcheck/symmetry.hpp"
#include "runtime/step_machine.hpp"
#include "util/check.hpp"
#include "util/flat_index.hpp"
#include "util/hash.hpp"
#include "util/padded.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "util/work_steal.hpp"

namespace anoncoord {

template <class Machine>
class parallel_explorer {
 public:
  using state_type = global_state<Machine>;
  using state_predicate = std::function<bool(const state_type&)>;
  using value_type = typename state_type::value_type;

  struct options {
    int workers = 1;
    /// Exploration cap, checked at level boundaries (so results stay
    /// deterministic for every worker count); result.complete reports
    /// whether the reachable set fit.
    std::uint64_t max_states = 2'000'000;
    /// Successor edges are only needed for check_progress(); safety-only
    /// runs can skip recording them.
    bool record_edges = true;
    /// Orbit-representative dedup; same contract as explorer::options.
    bool symmetry = false;
    /// Bit-packed row store; same contract as explorer::options.
    bool compress_arena = true;
    /// Out-of-core mode; same contract as explorer::options. Within a level
    /// the workers' parent loads fault pages in without evicting; the merge
    /// enforces the budget again, so the resident set can transiently
    /// exceed it by one level's cold frontier pages.
    std::uint64_t spill_budget_bytes = 0;
    std::string spill_dir;
  };

  struct result {
    bool complete = false;
    std::uint64_t num_states = 0;
    std::uint64_t num_edges = 0;
    std::uint64_t dedup_hits = 0;  ///< successors that were already known
    std::uint64_t levels = 0;      ///< BFS depth of the explored region
    int workers = 1;
    double wall_seconds = 0.0;

    std::optional<state_type> bad_state;
    std::vector<int> bad_schedule;

    std::uint64_t stuck_states = 0;
    std::optional<state_type> stuck_state;
    std::vector<int> stuck_schedule;

    bool safety_violated() const { return bad_state.has_value(); }
    bool progress_violated() const { return stuck_states > 0; }
  };

  parallel_explorer(int registers, naming_assignment naming,
                    std::vector<Machine> initial_machines, options opt = {})
      : registers_(registers), naming_(std::move(naming)),
        initial_machines_(std::move(initial_machines)), opt_(opt) {
    ANONCOORD_REQUIRE(opt_.workers >= 1, "need at least one worker");
    ANONCOORD_REQUIRE(
        naming_.processes() == static_cast<int>(initial_machines_.size()),
        "naming assignment and machine count disagree");
    ANONCOORD_REQUIRE(naming_.registers() == registers,
                      "naming assignment built for a different register file");
    // naming_view validates per construction; we validate once here instead.
    for (int p = 0; p < naming_.processes(); ++p)
      ANONCOORD_REQUIRE(is_permutation_of_iota(naming_.of(p)),
                        "naming must be a permutation of register indices");
    group_ = opt_.symmetry
                 ? symmetry_group<Machine>::compute(naming_, initial_machines_)
                 : symmetry_group<Machine>::trivial(naming_.processes(),
                                                    registers_);
    ANONCOORD_REQUIRE(naming_.processes() < (1 << kViaBits) &&
                          group_.size() < (1 << kElemBits),
                      "provenance packing out of range");
  }

  result explore(const state_predicate& is_bad = {}) {
    stopwatch timer;
    reset();
    result res;
    res.workers = opt_.workers;

    {
      state_type init;
      init.regs.assign(static_cast<std::size_t>(registers_), value_type{});
      init.procs = initial_machines_;
      canonical_scratch<Machine> cs;
      const int elem = group_.canonicalize(init.regs, init.procs, cs, &cstats_);
      intern_initial(init, elem);
      if (is_bad && is_bad(init)) {
        res.bad_state = concrete_state(0);
        finish(res, timer);
        return res;
      }
    }

    const int nworkers = opt_.workers;
    thread_pool pool(nworkers);
    workers_.clear();
    workers_.resize(static_cast<std::size_t>(nworkers));
    for (auto& wd : workers_) {
      wd.value.prow.assign(stride(), 0);
    }
    deques_ = std::make_unique<padded<ws_deque>[]>(
        static_cast<std::size_t>(nworkers));

    std::uint64_t level_begin = 0;
    std::uint64_t level_end = 1;
    while (level_begin < level_end) {
      if (num_merged() >= opt_.max_states) {
        finish(res, timer);
        return res;  // incomplete
      }
      const std::uint64_t span = level_end - level_begin;
      prepare_level(span);
      // Seed the deques with contiguous frontier slices (single-threaded:
      // happens-before the fork), then fork the expansion.
      for (int w = 0; w < nworkers; ++w) {
        const std::uint64_t lo =
            level_begin + span * static_cast<std::uint64_t>(w) /
                              static_cast<std::uint64_t>(nworkers);
        const std::uint64_t hi =
            level_begin + span * static_cast<std::uint64_t>(w + 1) /
                              static_cast<std::uint64_t>(nworkers);
        ws_deque& d = deques_[static_cast<std::size_t>(w)].value;
        d.reset(static_cast<std::size_t>(hi - lo));
        for (std::uint64_t g = hi; g > lo; --g) d.push(g - 1);  // pop ascending
      }
      pool.run([&](int w) {
        worker_data& wd = workers_[static_cast<std::size_t>(w)].value;
        ws_deque& own = deques_[static_cast<std::size_t>(w)].value;
        std::uint64_t g = 0;
        for (;;) {
          if (own.pop(g)) {
            expand(g, wd, is_bad);
            continue;
          }
          // Own deque dry: sweep the others, stealing their oldest work. A
          // steal can fail under CAS contention while items remain, so only
          // a sweep that observes every deque empty terminates (no one
          // pushes mid-level: empty is monotone).
          bool stole = false;
          bool maybe_work = false;
          for (int k = 1; k < nworkers && !stole; ++k) {
            ws_deque& victim =
                deques_[static_cast<std::size_t>((w + k) % nworkers)].value;
            if (victim.steal(g)) stole = true;
            else if (!victim.empty()) maybe_work = true;
          }
          if (stole) {
            expand(g, wd, is_bad);
            continue;
          }
          if (!maybe_work && own.empty()) return;
        }
      });
      // Join: deterministic merge, identical to sequential discovery order.
      if (merge_level(res)) {
        finish(res, timer);
        return res;  // safety violation
      }
      level_begin = level_end;
      level_end = num_merged();
      ++res.levels;
    }
    res.complete = true;
    finish(res, timer);
    return res;
  }

  /// After a *complete* explore(): verify that from every reachable state
  /// satisfying `premise`, some state satisfying `goal` is reachable.
  /// Identical semantics (and results) to explorer::check_progress.
  void check_progress(result& res, const state_predicate& premise,
                      const state_predicate& goal) const {
    ANONCOORD_REQUIRE(res.complete,
                      "progress analysis needs a complete state space");
    ANONCOORD_REQUIRE(opt_.record_edges,
                      "progress analysis needs recorded edges");
    const std::size_t n = num_merged();
    std::vector<char> reaches_goal(n, 0);
    // Reverse adjacency in CSR form — two passes over the edge records
    // instead of one heap-allocated bucket per state. Cached across calls on
    // the same run (sweeps re-check with different predicates).
    if (csr_offsets_.size() != n + 1) {
      std::size_t nedges = 0;
      for (const auto& wd : workers_) nedges += wd.value.edges.size();
      csr_offsets_.assign(n + 1, 0);
      for (const auto& wd : workers_)
        for (const auto& e : wd.value.edges) ++csr_offsets_[e.to + 1];
      for (std::size_t i = 0; i < n; ++i) csr_offsets_[i + 1] += csr_offsets_[i];
      csr_sources_.resize(nedges);
      std::vector<std::uint32_t> cursor(csr_offsets_.begin(),
                                        csr_offsets_.end() - 1);
      for (const auto& wd : workers_)
        for (const auto& e : wd.value.edges)
          csr_sources_[cursor[e.to]++] = e.from;
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
          res.stuck_schedule =
              concrete_schedule(static_cast<std::int64_t>(i));
        }
      }
    }
  }

  /// Reachable states in deterministic (sequential-BFS) discovery order.
  std::uint64_t num_states() const { return num_merged(); }
  state_type state(std::uint64_t global) const {
    state_type s;
    load_state(global, s);
    return s;
  }

  /// Interned-component statistics (the compact-store win the bench reports).
  const state_pool<Machine>& pool() const { return pool_; }

  /// Aggregated canonicalization prune/apply counters across all workers
  /// (plus the single-threaded initial-state canonicalize). Call after
  /// explore() has joined; workers mutate their own copies during a level.
  canonicalize_stats canonicalize_counters() const {
    canonicalize_stats total = cstats_;
    for (const auto& wd : workers_) total.merge(wd.value.cstats);
    return total;
  }

  /// Per-phase hot-loop breakdown. Worker tick totals are summed before
  /// calibration, so the phase times read as aggregate CPU time across
  /// workers — they can exceed wall_seconds — while the single-threaded
  /// merge's encode time cannot.
  const explore_phase_stats& phase_counters() const { return phases_; }

  /// Row-storage bytes committed for the merged seen set (the bench's
  /// bytes-per-state numerator; same accounting basis in both modes).
  std::uint64_t stored_row_bytes() const { return rows_.stored_bytes(); }

  /// Rows that opened a width epoch in the packed store (diagnostics; 0 in
  /// verbatim mode where the notion does not apply).
  std::uint64_t keyframe_rows() const { return rows_.keyframes(); }

  /// Spill counters from the backing arena (all zero when spilling is off).
  arena_spill_stats spill_stats() const { return rows_.spill_stats(); }

 private:
  // Seen-table payload (concurrent_tag_index stores it beside the hash
  // fragment): bit 31 is the pending flag; bits 30..0 are a merged global
  // index, or while pending the index of the level's staged entry.
  static constexpr std::uint32_t kPendingBit = 0x80000000u;
  static constexpr std::uint64_t kMaxPayload = 0x7ffffffeull;

  // Packed provenance, CAS-min folded on same-level duplicates. Numeric
  // order == lexicographic (parent, via) order; elem rides along in the low
  // bits (it is a pure function of the successor, so equal (parent, via)
  // implies equal elem, and the tie never decides).
  static constexpr int kViaBits = 12;
  static constexpr int kElemBits = 12;

  static std::uint64_t pack_pve(std::uint64_t parent, int via, int elem) {
    return (parent << (kViaBits + kElemBits)) |
           (static_cast<std::uint64_t>(via) << kElemBits) |
           static_cast<std::uint64_t>(elem);
  }

  /// One state staged between discovery and the level merge.
  struct pending_entry {
    std::atomic<std::uint64_t> pve;  ///< packed provenance, CAS-min folded
    std::uint32_t cell;              ///< cell index, for the merge rewrite
    std::uint32_t global;            ///< assigned by the merge
  };

  /// Resolved successor edge (target rewritten at merge time while pending).
  struct edge_rec {
    std::uint32_t from;
    std::uint32_t to;  ///< kPendingBit-tagged entry index until resolved
  };

  struct worker_data {
    std::vector<edge_rec> edges;
    std::size_t edges_resolved = 0;  ///< watermark: all before it are final
    std::vector<std::uint32_t> fresh;  ///< entry indices this worker published
    std::vector<std::uint32_t> bad;    ///< fresh entries that violated safety
    std::uint64_t dedup_hits = 0;
    state_type scratch;  ///< reused across expansions: no per-parent allocs
    state_type canon;    ///< fresh successor decoded for the safety check
    packed_canonical_scratch pks;  ///< packed-kernel row buffers
    canonicalize_stats cstats;     ///< per-worker prune/apply counters
    std::vector<std::uint32_t> prow;  ///< decoded row of the expanded state
    /// One parent's successors staged as flat rows + their provenance,
    /// hashed and probe-prefetched as a group before the probe loop; phase
    /// tick accumulators and probe counters ride per worker.
    std::vector<std::uint32_t> srows;
    std::vector<std::uint32_t> svia;
    std::vector<std::int32_t> selem;
    std::vector<std::size_t> shash;
    std::uint64_t pt_expand = 0;  ///< generation ticks (canon included)
    std::uint64_t pt_canon = 0;   ///< canonicalization ticks within expand
    std::uint64_t pt_probe = 0;   ///< hash + seen-table probe/publish ticks
    probe_stats pstats;
    /// Per-process undo slots for the machine mutated by step(); persistent
    /// so the save/restore round-trip copy-assigns instead of allocating.
    std::vector<Machine> saved;
  };

  std::size_t stride() const {
    return static_cast<std::size_t>(registers_) + initial_machines_.size();
  }

  std::size_t num_merged() const { return parents_.size(); }

  void reset() {
    pool_.clear();
    cstats_ = canonicalize_stats{};
    if (!group_.is_trivial())
      pk_.attach(&group_, &pool_, registers_,
                 static_cast<int>(initial_machines_.size()));
    row_store_options ropt;
    if (opt_.compress_arena) {
      ropt.spill.budget_bytes = opt_.spill_budget_bytes;
      ropt.spill.dir = opt_.spill_dir;
    }
    rows_.configure(stride(), opt_.compress_arena, ropt);
    prev_span_ = 0;
    parents_.clear();
    vias_.clear();
    elems_.clear();
    workers_.clear();
    csr_offsets_.clear();
    csr_sources_.clear();
    mrow_.assign(stride(), 0);
    ctind_.reset(1024);
    phases_ = explore_phase_stats{};
    pt_encode_ = 0;
    cal_timer_.reset();
    cal_tick0_ = cycle_clock::now();
    pend_cap_ = 0;
    pend_count_.store(0, std::memory_order_relaxed);
  }

  /// Between-level capacity management: every structure a worker bumps or
  /// CASes during the fork is sized here for the worst case (span * nprocs
  /// discoveries), so the fork itself never reallocates anything shared.
  void prepare_level(std::uint64_t span) {
    // Single-threaded between levels: the only place the packed kernel's
    // rank snapshots rebuild, so workers never observe a snapshot mid-swap.
    if (!group_.is_trivial()) pk_.maybe_refresh_ranks();
    const std::uint64_t nprocs =
        static_cast<std::uint64_t>(initial_machines_.size());
    const std::uint64_t upper = span * nprocs;
    ANONCOORD_REQUIRE(num_merged() + upper < kMaxPayload,
                      "state index space exhausted");
    const std::uint64_t need = num_merged() + upper + 1;
    if (need * 10 >= ctind_.capacity() * 7) {
      // Reserve-hint sizing: `span` is exactly the previous level's insert
      // count, and BFS levels grow by a roughly constant branching ratio, so
      // one rehash is sized to also cover the extrapolated next level. The
      // old scheme grew only to this level's worst case by doubling from the
      // old capacity, which re-placed every cell again at the very next
      // level of a fast-growing space.
      const std::uint64_t ratio16 =
          prev_span_ > 0
              ? std::max<std::uint64_t>(span * 16 / prev_span_, 16)
              : 16;  // flat until we have two levels to extrapolate from
      const std::uint64_t next_span_est =
          std::min(span * std::min(ratio16, 16 * nprocs) / 16, upper);
      std::size_t cap = ctind_.capacity();
      while ((need + next_span_est * nprocs) * 10 >= cap * 7) cap *= 2;
      ctind_.grow(cap);
    }
    prev_span_ = span;
    if (upper > pend_cap_) {
      pend_cap_ = static_cast<std::size_t>(upper);
      pend_ = std::make_unique<pending_entry[]>(pend_cap_);
      pend_words_.resize(pend_cap_ * stride());
    }
    pend_count_.store(0, std::memory_order_relaxed);
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

  /// Decode merged state `global` into `out` (single-threaded callers; the
  /// workers decode into their own buffers in expand()).
  void load_state(std::uint64_t global, state_type& out) const {
    rows_.load(global, mrow_.data());
    fill_state(mrow_.data(), out);
  }

  void intern_initial(const state_type& init, int elem) {
    std::vector<std::uint32_t> wbuf;
    for (const auto& r : init.regs) wbuf.push_back(pool_.intern_value(r));
    for (const auto& p : init.procs) wbuf.push_back(pool_.intern_machine(p));
    const std::size_t h = hash_words(wbuf.data(), stride());
    ctind_.place_initial(flat_index::fragment(h), 0);
    rows_.append(wbuf.data());
    parents_.push_back(-1);
    vias_.push_back(-1);
    elems_.push_back(elem);
  }

  /// Expand one state as a staged mini-batch: step each enabled process on
  /// a scratch copy and pack its successor into a flat staging buffer
  /// (canonicalizing each row as it is staged, via the class-sharing batched
  /// kernel), hash the whole batch, warm every candidate's probe group, then
  /// find-or-publish each in the CAS table. The safety predicate runs on
  /// published entries only, and the deterministic merge is indifferent to
  /// table placement and probe order.
  void expand(std::uint64_t g, worker_data& wd,
              const state_predicate& is_bad) {
    const std::size_t m = static_cast<std::size_t>(registers_);
    const std::size_t st = stride();
    const bool reduce = !group_.is_trivial();
    const std::uint64_t t0 = cycle_clock::now();
    state_type& scratch = wd.scratch;
    rows_.load(g, wd.prow.data());
    fill_state(wd.prow.data(), scratch);
    if (wd.saved.size() != scratch.procs.size()) wd.saved = scratch.procs;
    const int nprocs = static_cast<int>(scratch.procs.size());
    wd.srows.resize(static_cast<std::size_t>(nprocs) * st);
    wd.svia.clear();
    wd.selem.clear();
    std::size_t cnt = 0;
    for (int p = 0; p < nprocs; ++p) {
      Machine& machine = scratch.procs[static_cast<std::size_t>(p)];
      const op_desc op = machine.peek();
      if (op.kind == op_kind::none) continue;
      const permutation& perm = naming_.of(p);
      wd.saved[static_cast<std::size_t>(p)] = machine;
      int written = -1;
      value_type old_value{};
      if (op.kind == op_kind::write) {
        written = perm[static_cast<std::size_t>(op.index)];
        old_value = scratch.regs[static_cast<std::size_t>(written)];
      }
      permuted_vector_memory<value_type> view(scratch.regs, perm);
      machine.step(view);

      // Patch the parent row in the word domain: the stepped machine and
      // at most one written register.
      std::uint32_t* row = wd.srows.data() + cnt * st;
      std::memcpy(row, wd.prow.data(), st * sizeof(std::uint32_t));
      row[m + static_cast<std::size_t>(p)] = pool_.intern_machine(machine);
      if (written >= 0)
        row[static_cast<std::size_t>(written)] = pool_.intern_value(
            scratch.regs[static_cast<std::size_t>(written)]);
      int elem = 0;
      if (reduce) {
        const std::uint64_t c0 = cycle_clock::now();
        elem = pk_.canonicalize_row_batched(row, wd.pks, wd.cstats);
        wd.pt_canon += cycle_clock::now() - c0;
      }
      wd.svia.push_back(static_cast<std::uint32_t>(p));
      wd.selem.push_back(elem);
      ++cnt;

      machine = wd.saved[static_cast<std::size_t>(p)];
      if (written >= 0)
        scratch.regs[static_cast<std::size_t>(written)] = std::move(old_value);
    }
    const std::uint64_t t1 = cycle_clock::now();
    wd.pt_expand += t1 - t0;
    // Hash the batch back to back, then warm every probe group before the
    // first probe: the mini-batch is small (≤ nprocs), so all of its
    // tag/cell lines fit in flight at once.
    wd.shash.resize(cnt);
    for (std::size_t i = 0; i < cnt; ++i)
      wd.shash[i] = hash_words(wd.srows.data() + i * st, st);
    for (std::size_t i = 0; i < cnt; ++i)
      ctind_.prefetch(flat_index::fragment(wd.shash[i]));
    for (std::size_t i = 0; i < cnt; ++i) {
      const std::uint32_t* row = wd.srows.data() + i * st;
      bool inserted = false;
      const std::uint32_t tagged = find_or_publish(
          wd, g, static_cast<int>(wd.svia[i]), wd.selem[i], row, wd.shash[i],
          inserted);
      if (opt_.record_edges)
        wd.edges.push_back(edge_rec{static_cast<std::uint32_t>(g), tagged});
      if (inserted && is_bad) {
        // The staged row IS the (canonical) successor; published entries
        // only.
        fill_state(row, wd.canon);
        if (is_bad(wd.canon)) wd.bad.push_back(tagged & ~kPendingBit);
      }
    }
    wd.pt_probe += cycle_clock::now() - t1;
  }

  /// Find `row` in the seen table or publish it as a pending entry; returns
  /// the tagged payload (merged global, or kPendingBit | entry). The table
  /// owns the probe walk and the publish protocol, this wrapper owns the
  /// payload semantics — staging rows + provenance before the claim, and
  /// the CAS-min provenance fold on same-level duplicates.
  std::uint32_t find_or_publish(worker_data& wd, std::uint64_t g, int p,
                                 int elem, const std::uint32_t* row,
                                 std::size_t h, bool& inserted) {
    const std::uint32_t frag = flat_index::fragment(h);
    const std::uint64_t pve = pack_pve(g, p, elem);
    const std::size_t st = stride();
    std::uint32_t cell_out = 0;
    const std::uint32_t tagged = ctind_.probe_or_insert(
        frag, inserted, cell_out,
        [&](std::uint32_t t) {
          if (!(t & kPendingBit)) return rows_.equals(t, row);
          return std::memcmp(pend_words_.data() +
                                 std::size_t{t & ~kPendingBit} * st,
                             row, st * sizeof(std::uint32_t)) == 0;
        },
        [&] {
          const std::uint32_t staged =
              pend_count_.fetch_add(1, std::memory_order_relaxed);
          ANONCOORD_REQUIRE(staged < pend_cap_, "pending arena overrun");
          std::memcpy(pend_words_.data() + std::size_t{staged} * st, row,
                      st * sizeof(std::uint32_t));
          pend_[staged].pve.store(pve, std::memory_order_relaxed);
          return kPendingBit | staged;
        },
        &wd.pstats);
    if (inserted) {
      pend_[tagged & ~kPendingBit].cell = cell_out;
      wd.fresh.push_back(tagged & ~kPendingBit);
      return tagged;
    }
    ++wd.dedup_hits;
    if (tagged & kPendingBit) {
      // Same-level duplicate: fold provenance to the lexicographically
      // smallest (parent, via) — sequential BFS's first discoverer.
      std::atomic<std::uint64_t>& slot = pend_[tagged & ~kPendingBit].pve;
      std::uint64_t cur = slot.load(std::memory_order_relaxed);
      while (pve < cur &&
             !slot.compare_exchange_weak(cur, pve, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
      }
    }
    return tagged;
  }

  /// Sort this level's pending states into sequential discovery order,
  /// append their rows to the store, rewrite their cells to merged payloads,
  /// resolve edge targets, and surface the first bad state in that order.
  /// Returns true iff a violation was found.
  bool merge_level(result& res) {
    struct fresh_ref {
      std::uint64_t pve;
      std::uint32_t eidx;
    };
    std::vector<fresh_ref> fresh;
    for (auto& wd : workers_)
      for (const std::uint32_t eidx : wd.value.fresh)
        fresh.push_back(fresh_ref{
            pend_[eidx].pve.load(std::memory_order_relaxed), eidx});
    // (parent, via) pairs are unique — each parent/process combination has
    // exactly one successor — so packed-provenance order is total and
    // deterministic, independent of which worker published the entry.
    std::sort(fresh.begin(), fresh.end(),
              [](const fresh_ref& a, const fresh_ref& b) {
                return a.pve < b.pve;
              });
    const std::uint64_t e0 = cycle_clock::now();
    // Size the packed columns from the pools' id bounds, not from this
    // level's ids, which depend on thread timing (see the file comment).
    std::vector<std::uint32_t> bounds(stride(), pool_.machine_id_bound());
    std::fill_n(bounds.begin(), registers_, pool_.value_id_bound());
    rows_.reserve(bounds.data());
    for (const fresh_ref& f : fresh) {
      const auto global = static_cast<std::uint32_t>(num_merged());
      const auto parent = static_cast<std::int64_t>(
          f.pve >> (kViaBits + kElemBits));
      const auto via = static_cast<std::int32_t>(
          (f.pve >> kElemBits) & ((1u << kViaBits) - 1));
      const auto elem = static_cast<std::int32_t>(
          f.pve & ((1u << kElemBits) - 1));
      rows_.append(pend_words_.data() + std::size_t{f.eidx} * stride());
      parents_.push_back(parent);
      vias_.push_back(via);
      elems_.push_back(elem);
      pend_[f.eidx].global = global;
      ctind_.rewrite(pend_[f.eidx].cell, global);
    }
    pt_encode_ += cycle_clock::now() - e0;
    // Resolve this level's new edges from pending entries to globals.
    std::int64_t first_bad = -1;
    for (auto& wd : workers_) {
      if (opt_.record_edges) {
        auto& edges = wd.value.edges;
        for (std::size_t k = wd.value.edges_resolved; k < edges.size(); ++k)
          if (edges[k].to & kPendingBit)
            edges[k].to = pend_[edges[k].to & ~kPendingBit].global;
        wd.value.edges_resolved = edges.size();
      }
      for (const std::uint32_t eidx : wd.value.bad) {
        const auto g = static_cast<std::int64_t>(pend_[eidx].global);
        if (first_bad < 0 || g < first_bad) first_bad = g;
      }
      wd.value.bad.clear();
      wd.value.fresh.clear();
    }
    // Level boundary = append path: safe point to enforce the resident
    // budget before the workers fork again (no reader holds arena pointers).
    rows_.spill_over_budget();
    if (first_bad < 0) return false;
    res.bad_state = concrete_state(first_bad);
    res.bad_schedule = concrete_schedule(first_bad);
    return true;
  }

  /// Concrete schedule/state reconstruction — same sigma-inverse folding as
  /// explorer<Machine>::concrete_schedule (see the derivation there).
  std::vector<int> concrete_schedule(std::int64_t idx) const {
    std::vector<std::int64_t> path;
    for (std::int64_t i = idx; i >= 0;
         i = parents_[static_cast<std::size_t>(i)])
      path.push_back(i);
    std::reverse(path.begin(), path.end());
    std::vector<int> sched;
    sched.reserve(path.size() - 1);
    if (group_.is_trivial()) {
      for (std::size_t k = 1; k < path.size(); ++k)
        sched.push_back(vias_[static_cast<std::size_t>(path[k])]);
      return sched;
    }
    std::vector<int> sinv =
        group_.at(elems_[static_cast<std::size_t>(path[0])]).sigma_inv;
    std::vector<int> next(sinv.size());
    for (std::size_t k = 1; k < path.size(); ++k) {
      const auto st = static_cast<std::size_t>(path[k]);
      sched.push_back(sinv[static_cast<std::size_t>(vias_[st])]);
      const std::vector<int>& g_sinv = group_.at(elems_[st]).sigma_inv;
      for (std::size_t x = 0; x < sinv.size(); ++x)
        next[x] = sinv[static_cast<std::size_t>(g_sinv[x])];
      sinv.swap(next);
    }
    return sched;
  }

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

  void finish(result& res, const stopwatch& timer) {
    res.num_states = num_merged();
    for (const auto& wd : workers_) {
      res.num_edges += wd.value.edges.size();
      res.dedup_hits += wd.value.dedup_hits;
    }
    res.wall_seconds = timer.elapsed_seconds();
    // Phase breakdown: worker tick totals summed before one end-of-run
    // calibration against the main thread's stopwatch (constant-rate rdtsc
    // is core-invariant, so one ratio serves all workers). Summed ticks
    // read as aggregate CPU time — they can exceed wall time.
    const std::uint64_t dt = cycle_clock::now() - cal_tick0_;
    const double ratio =
        dt > 0 ? (cal_timer_.elapsed_seconds() * 1e9) / static_cast<double>(dt)
               : 0.0;
    const auto to_ns = [ratio](std::uint64_t ticks) {
      return static_cast<std::uint64_t>(static_cast<double>(ticks) * ratio);
    };
    std::uint64_t expand = 0, canon = 0, probe = 0;
    probe_stats ps;
    for (const auto& wd : workers_) {
      expand += wd.value.pt_expand;
      canon += wd.value.pt_canon;
      probe += wd.value.pt_probe;
      ps.merge(wd.value.pstats);
    }
    phases_.canonicalize_ns = to_ns(canon);
    phases_.expand_ns = to_ns(expand > canon ? expand - canon : 0);
    phases_.probe_ns = to_ns(probe);
    phases_.encode_ns = to_ns(pt_encode_);
    phases_.probe_groups_scanned = ps.groups_scanned;
    phases_.probe_max_group_chain = ps.max_group_chain;
  }

  int registers_;
  naming_assignment naming_;
  std::vector<Machine> initial_machines_;
  options opt_;
  symmetry_group<Machine> group_;

  state_pool<Machine> pool_;
  /// Packed canonicalization kernel (shared across workers; scratch and
  /// counters live per-worker). cstats_ covers single-threaded calls only.
  packed_canonicalizer<Machine> pk_;
  canonicalize_stats cstats_;
  /// Merged states: row g in rows_; parents_/vias_/elems_ record the BFS
  /// tree and the per-state canonicalizing element.
  row_store rows_;
  std::vector<std::int64_t> parents_;
  std::vector<std::int32_t> vias_;
  std::vector<std::int32_t> elems_;

  /// The lock-free seen table (see the payload layout above) and the
  /// per-level staging arenas its pending payloads point into.
  concurrent_tag_index ctind_;
  std::uint64_t prev_span_ = 0;  ///< previous level's frontier (rehash hint)
  std::unique_ptr<pending_entry[]> pend_;
  std::size_t pend_cap_ = 0;
  std::atomic<std::uint32_t> pend_count_{0};
  std::vector<std::uint32_t> pend_words_;

  std::vector<padded<worker_data>> workers_;
  std::unique_ptr<padded<ws_deque>[]> deques_;

  // Phase-breakdown accounting (see explorer.hpp's explore_phase_stats):
  // tick accumulators calibrated against cal_timer_ in finish().
  explore_phase_stats phases_;
  std::uint64_t pt_encode_ = 0;  ///< merge-loop row-append ticks
  stopwatch cal_timer_;
  std::uint64_t cal_tick0_ = 0;

  // Reverse-CSR progress structure, built lazily by check_progress and
  // reused by subsequent calls on the same run.
  mutable std::vector<std::uint32_t> csr_offsets_;
  mutable std::vector<std::uint32_t> csr_sources_;
  // Single-threaded decode scratch (load_state, check_progress).
  mutable std::vector<std::uint32_t> mrow_;
};

}  // namespace anoncoord
