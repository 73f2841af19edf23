// Hash-consed component storage for the explicit-state explorers.
//
// Exploring millions of global states, the engines used to keep a full
// (register vector, machine vector) copy per seen state. But the *distinct
// components* are far fewer than the distinct states: a register holds one of
// a handful of values (for Fig. 1, the n + 1 process ids), and a machine's
// local state ranges over thousands while the state space ranges over
// millions. state_pool interns each component once and hands out a dense
// 32-bit id; a global state becomes a packed row of (m + n) ids ("words").
// Interning is injective, so two states are equal iff their word rows are
// equal — seen tables compare rows column by column and hash with
// hash_words instead of walking full state content, and the per-state memory
// footprint drops from sizeof(state) (machines own heap vectors) to one
// row_store row: each column bit-packed into its ids' width.
//
// Thread-safety (the explorer's generation workers intern concurrently):
//
//   * intern() routes by hash to one of kShards shards, each guarded by its
//     own mutex around a flat_index probe + append;
//   * id -> component reads (value()/machine()) are LOCK-FREE against
//     concurrent interning: storage is segmented, segments are fixed-size
//     arrays published once with a release store and never moved, so a
//     reader never observes a reallocation. A thread only dereferences ids
//     it obtained through a happens-before chain (a shard mutex, a memo
//     table's release/acquire slot, or the fork-join barrier), which also
//     carries the component's construction.
//
// A shard mutex is the only lock an intern takes, and nothing is locked
// while it is held, so there is no lock ordering to respect.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/flat_index.hpp"
#include "util/hash.hpp"

namespace anoncoord {

namespace detail {

/// One append-only interned pool of T. Hash-sharded; see file comment.
template <class T, class Hasher>
class component_pool {
 public:
  static constexpr int kShardBits = 3;
  static constexpr int kShards = 1 << kShardBits;
  static constexpr int kSegBits = 12;  // 4096 components per segment
  static constexpr std::size_t kSegSize = std::size_t{1} << kSegBits;
  static constexpr std::size_t kMaxSegments = std::size_t{1} << 12;

  // The shard directory is sizeable (kMaxSegments pointers per shard), so it
  // lives on the heap: explorers hold pools by value and are stack-allocated.
  component_pool() : shards_(new shard[kShards]) {}
  component_pool(const component_pool&) = delete;
  component_pool& operator=(const component_pool&) = delete;
  ~component_pool() { clear(); }

  /// Dedup-insert; returns the id of the pooled component equal to `v`.
  std::uint32_t intern(const T& v) {
    const std::size_t h = Hasher{}(v);
    const auto s = static_cast<std::uint32_t>(h & (kShards - 1));
    shard& sh = shards_[s];
    std::lock_guard lk(sh.mu);
    const flat_index::probe pr = sh.index.lookup(
        h, [&](std::uint32_t local) { return shard_get(sh, local) == v; });
    if (pr.hit()) return encode(pr.found, s);
    // The miss's slot is claimed only once the component is constructed: a
    // throwing copy leaves the shard as it was (a segment it allocated is
    // kept for the retry and freed by clear()).
    const std::uint32_t local = sh.count;
    const std::uint32_t id = encode(local, s);
    const std::size_t seg = local >> kSegBits;
    const std::size_t off = local & (kSegSize - 1);
    if (off == 0) {
      ANONCOORD_REQUIRE(seg < kMaxSegments, "component pool exhausted");
      if (sh.segs[seg].load(std::memory_order_relaxed) == nullptr) {
        T* mem = static_cast<T*>(::operator new(kSegSize * sizeof(T)));
        sh.segs[seg].store(mem, std::memory_order_release);
      }
    }
    new (sh.segs[seg].load(std::memory_order_relaxed) + off) T(v);
    sh.index.claim(pr, local);
    ++sh.count;
    return id;
  }

  /// Lock-free id -> component. `id` must come from intern() on this pool.
  const T& at(std::uint32_t id) const {
    const shard& sh = shards_[id & (kShards - 1)];
    const std::uint32_t local = id >> kShardBits;
    return shard_get(sh, local);
  }

  std::uint64_t size() const {
    std::uint64_t total = 0;
    for (int s = 0; s < kShards; ++s) total += shards_[s].count;
    return total;
  }

  /// Enumerate every interned id (insertion order within each shard).
  /// QUIESCENT CALLERS ONLY: no intern() may be in flight — the callers are
  /// the rank-snapshot rebuilds, which run on the explorer's calling thread
  /// between windows (the fork-join barrier orders them after every worker
  /// intern).
  template <class Fn>
  void for_each_id(Fn&& fn) const {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const std::uint32_t cnt = shards_[s].count;
      for (std::uint32_t local = 0; local < cnt; ++local)
        fn((local << kShardBits) | s);
    }
  }

  /// Upper bound on every id handed out so far (0 when empty). It depends
  /// only on how many components each shard holds, not on the order they
  /// were interned in. Quiescent callers only, like for_each_id().
  std::uint32_t id_bound() const {
    std::uint32_t bound = 0;
    for (std::uint32_t s = 0; s < kShards; ++s)
      if (shards_[s].count > 0)
        bound = std::max(bound, ((shards_[s].count - 1) << kShardBits) | s);
    return bound;
  }

  /// Heap bytes of pooled component storage (segments only, not indexes).
  std::uint64_t storage_bytes() const {
    std::uint64_t segs = 0;
    for (int s = 0; s < kShards; ++s)
      segs += (shards_[s].count + kSegSize - 1) >> kSegBits;
    return segs * kSegSize * sizeof(T);
  }

  void clear() {
    for (int si = 0; si < kShards; ++si) {
      shard& sh = shards_[si];
      std::lock_guard lk(sh.mu);
      for (std::uint32_t local = 0; local < sh.count; ++local) {
        const std::size_t seg = local >> kSegBits;
        sh.segs[seg].load(std::memory_order_relaxed)[local & (kSegSize - 1)]
            .~T();
      }
      for (std::size_t seg = 0; seg < kMaxSegments; ++seg) {
        T* mem = sh.segs[seg].load(std::memory_order_relaxed);
        if (mem == nullptr) break;  // segments fill in order
        ::operator delete(static_cast<void*>(mem));
        sh.segs[seg].store(nullptr, std::memory_order_relaxed);
      }
      sh.count = 0;
      sh.index.clear();
    }
  }

 private:
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned components need aligned segment allocation");

  struct shard {
    std::mutex mu;
    flat_index index;
    std::uint32_t count = 0;
    /// Fixed-slot segment directory: never resized, so at() needs no lock.
    std::atomic<T*> segs[kMaxSegments] = {};
  };

  static std::uint32_t encode(std::uint32_t local, std::uint32_t s) {
    ANONCOORD_REQUIRE(local < (std::uint32_t{1} << (32 - kShardBits)),
                      "component pool id space exhausted");
    return (local << kShardBits) | s;
  }

  static const T& shard_get(const shard& sh, std::uint32_t local) {
    return sh.segs[local >> kSegBits].load(std::memory_order_acquire)
        [local & (kSegSize - 1)];
  }

  std::unique_ptr<shard[]> shards_;
};

}  // namespace detail

/// Append-only concurrent u32 -> u32 memo, indexed by pool id. The packed
/// canonicalization kernel keeps one per (group element x component domain):
/// entry `id` caches the interned id of that element's rename/reindex image
/// of component `id`, so after warm-up a group element's action on a packed
/// row is a pure u32 gather with no Machine construction.
///
/// Concurrency contract (the explorer's generation workers read and fill
/// these during a window): lookups are lock-free (acquire loads on the segment
/// pointer and the slot); a miss recomputes the image through the pools —
/// interning is deterministic, so racing fillers store the SAME value and
/// the double store is benign. Segments are fixed-size, allocated under a
/// mutex, published once with a release store and never moved — the same
/// publish-before-read discipline as component_pool's segments.
class id_memo_table {
 public:
  static constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
  static constexpr int kSegBits = 12;  // 4096 entries per segment
  static constexpr std::size_t kSegSize = std::size_t{1} << kSegBits;
  static constexpr std::size_t kMaxSegments = std::size_t{1} << 12;

  id_memo_table()
      : segs_(new std::atomic<std::atomic<std::uint32_t>*>[kMaxSegments]()) {}
  id_memo_table(const id_memo_table&) = delete;
  id_memo_table& operator=(const id_memo_table&) = delete;
  ~id_memo_table() {
    for (std::size_t s = 0; s < kMaxSegments; ++s)
      delete[] segs_[s].load(std::memory_order_relaxed);
  }

  /// kUnset when `id` has no cached image yet, including ids past the
  /// directory (store() rejects those).
  std::uint32_t lookup(std::uint32_t id) const {
    if ((id >> kSegBits) >= kMaxSegments) return kUnset;
    const std::atomic<std::uint32_t>* seg =
        segs_[id >> kSegBits].load(std::memory_order_acquire);
    if (seg == nullptr) return kUnset;
    return seg[id & (kSegSize - 1)].load(std::memory_order_acquire);
  }

  void store(std::uint32_t id, std::uint32_t v) {
    const std::size_t si = id >> kSegBits;
    ANONCOORD_REQUIRE(si < kMaxSegments, "id memo table exhausted");
    std::atomic<std::uint32_t>* seg = segs_[si].load(std::memory_order_acquire);
    if (seg == nullptr) seg = alloc_segment(si);
    seg[id & (kSegSize - 1)].store(v, std::memory_order_release);
  }

 private:
  std::atomic<std::uint32_t>* alloc_segment(std::size_t si) {
    std::lock_guard lk(mu_);
    std::atomic<std::uint32_t>* seg = segs_[si].load(std::memory_order_relaxed);
    if (seg != nullptr) return seg;  // lost the allocation race
    seg = new std::atomic<std::uint32_t>[kSegSize];
    for (std::size_t i = 0; i < kSegSize; ++i)
      seg[i].store(kUnset, std::memory_order_relaxed);
    segs_[si].store(seg, std::memory_order_release);
    return seg;
  }

  std::mutex mu_;  ///< segment allocation only; lookups never take it
  /// Heap directory (32 KiB): fixed slots so lookups never race a resize.
  std::unique_ptr<std::atomic<std::atomic<std::uint32_t>*>[]> segs_;
};

/// Monotone id -> value-order rank snapshot over one component pool. Ids are
/// handed out in insertion order, not value order, so a lexicographic compare
/// over raw id words would NOT be order-isomorphic to comparing the
/// components themselves. This snapshot fixes that: rebuild() sorts every id
/// interned so far by the caller's object-domain order and records each id's
/// position. Distinct ids always intern distinct components, so ranks are a
/// strict total order and `rank(a) < rank(b)` iff component a < component b —
/// for every id the snapshot covers. Ids interned AFTER the snapshot report
/// kUnranked and the kernel falls back to the object-domain compare for those
/// words, so a stale snapshot only costs speed, never soundness.
///
/// rebuild() is quiescent-only (it enumerates the pool); rank() is read-only
/// and safe to share across workers between rebuilds.
class id_rank_snapshot {
 public:
  static constexpr std::uint32_t kUnranked = 0xFFFFFFFFu;

  std::uint32_t rank(std::uint32_t id) const {
    return id < ranks_.size() ? ranks_[id] : kUnranked;
  }

  /// Interned components covered by the last rebuild (staleness metric).
  std::uint64_t covered() const { return covered_; }

  void reset() {
    ranks_.clear();
    covered_ = 0;
  }

  /// `enumerate` invokes its callback once per interned id (one of
  /// state_pool's for_each_*_id); `less` is a strict total order over ids
  /// via their pooled components.
  template <class Enumerate, class Less>
  void rebuild(Enumerate&& enumerate, Less&& less) {
    ids_.clear();
    std::uint32_t max_id = 0;
    enumerate([&](std::uint32_t id) {
      ids_.push_back(id);
      max_id = std::max(max_id, id);
    });
    std::sort(ids_.begin(), ids_.end(), less);
    ranks_.assign(ids_.empty() ? 0 : static_cast<std::size_t>(max_id) + 1,
                  kUnranked);
    for (std::size_t i = 0; i < ids_.size(); ++i)
      ranks_[ids_[i]] = static_cast<std::uint32_t>(i);
    covered_ = ids_.size();
  }

 private:
  std::vector<std::uint32_t> ranks_;  ///< indexed by id; kUnranked = gap
  std::vector<std::uint32_t> ids_;    ///< rebuild scratch
  std::uint64_t covered_ = 0;
};

/// The two pools a packed explorer needs: register values and machine local
/// states. A global state's packed row is m value ids followed by n machine
/// ids; the explorers own the row layout, this class owns the components.
template <class Machine>
class state_pool {
 public:
  using value_type = typename Machine::value_type;

  std::uint32_t intern_value(const value_type& v) { return values_.intern(v); }
  std::uint32_t intern_machine(const Machine& p) { return machines_.intern(p); }

  const value_type& value(std::uint32_t id) const { return values_.at(id); }
  const Machine& machine(std::uint32_t id) const { return machines_.at(id); }

  std::uint64_t num_values() const { return values_.size(); }
  std::uint64_t num_machines() const { return machines_.size(); }

  /// Quiescent-only id enumeration (see component_pool::for_each_id) — the
  /// packed kernel's rank-snapshot rebuilds.
  template <class Fn>
  void for_each_value_id(Fn&& fn) const {
    values_.for_each_id(fn);
  }
  template <class Fn>
  void for_each_machine_id(Fn&& fn) const {
    machines_.for_each_id(fn);
  }
  /// Quiescent-only id bounds (see component_pool::id_bound).
  std::uint32_t value_id_bound() const { return values_.id_bound(); }
  std::uint32_t machine_id_bound() const { return machines_.id_bound(); }

  std::uint64_t storage_bytes() const {
    return values_.storage_bytes() + machines_.storage_bytes();
  }

  void clear() {
    values_.clear();
    machines_.clear();
  }

 private:
  struct value_hasher {
    std::size_t operator()(const value_type& v) const {
      return static_cast<std::size_t>(hash_value(v));
    }
  };
  struct machine_hasher {
    std::size_t operator()(const Machine& p) const { return p.hash(); }
  };

  detail::component_pool<value_type, value_hasher> values_;
  detail::component_pool<Machine, machine_hasher> machines_;
};

/// Tuning for a row_store's backing arena. Defaults reproduce the in-memory
/// behaviour; a nonzero spill budget turns on out-of-core paging. page_bits
/// is exposed so tests can drive the spill machinery with tiny pages.
struct row_store_options {
  arena_spill_options spill;
  int page_bits = byte_arena::kPageBits;
};

/// Append-only store of packed state rows (stride = m + n words each), the
/// seen-set payload of the explorer. Column c (m register-value ids, then n
/// machine ids) is stored in bit_width(largest id appended to column c so
/// far) bits, the fields concatenated LSB-first into ceil(bits / 8) bytes
/// per row and written and read as a stream of little-endian 32-bit chunks.
/// Widths only grow, so rows are appended in WIDTH EPOCHS: a new epoch opens
/// only when an appended id outgrows its column (at most 32 times per
/// column) or reserve() widens the columns ahead of a batch. Within an epoch
/// every row has the same byte size and rows fill arena pages back to back
/// (byte_arena never splits a row across pages), so a row's offset follows
/// from its epoch's base offset by arithmetic alone: no per-row offset,
/// depth or parent data. Each page keeps kReadSlack bytes after its last
/// row, so a row's final chunk never reaches past its page.
///
/// load() and equals() are O(1). Single-threaded, like byte_arena: the
/// explorer appends and reads on its calling thread. Every row byte lives
/// in the arena, so a spill budget (row_store_options) bounds all of them;
/// only the epoch table stays resident. Scans fault spilled pages back in
/// window by window (prefetch_rows); duplicate checks read single rows from
/// the spill file without faulting (equals).
class row_store {
 public:
  /// Bytes a packed row's final 32-bit chunk may run past the row's end;
  /// every page keeps them free after its last row.
  static constexpr std::uint32_t kReadSlack = 3;

  void configure(std::size_t stride, const row_store_options& opt = {}) {
    ANONCOORD_REQUIRE(stride > 0 && stride < (std::size_t{1} << 13),
                      "row stride out of range");
    clear();
    arena_.configure(opt.page_bits, opt.spill);
    stride_ = stride;
  }

  std::uint64_t size() const { return count_; }

  /// Append one row (stride words); returns its index == the previous size().
  std::uint64_t append(const std::uint32_t* row) {
    ANONCOORD_REQUIRE(count_ < 0xFFFFFFFFull, "row store index space exhausted");
    if (outgrows(row)) open_epoch(row);
    epoch& e = epochs_.back();
    const std::uint8_t* w = widths_.data() + e.widths;
    std::uint8_t* dst = arena_.reserve(e.row_bytes + kReadSlack);
    std::uint64_t acc = 0;
    std::uint32_t bits = 0;  // pending bits in acc, always < 32 here
    for (std::size_t c = 0; c < stride_; ++c) {
      acc |= std::uint64_t{row[c]} << bits;
      bits += w[c];
      if (bits >= 32) {
        store_chunk(dst, acc);
        dst += 4;
        acc >>= 32;
        bits -= 32;
      }
    }
    if (bits > 0) store_chunk(dst, acc);
    const std::uint64_t off = arena_.commit(e.row_bytes);
    if (count_ == e.first) {  // the epoch's first row fixes its base
      e.base = off;
      e.head_rows = static_cast<std::uint32_t>(
          (arena_.page_size() - (off & (arena_.page_size() - 1)) -
           kReadSlack) /
          e.row_bytes);
    }
    return count_++;
  }

  /// Widen the columns, if needed, so that rows whose column-c ids are at
  /// most max_ids[c] append without opening another epoch. The explorer
  /// reserves its pools' id bounds before each window's appends: ids are
  /// handed out in thread-timing order but the bounds are not, so the
  /// packed layout is the same at every worker count.
  void reserve(const std::uint32_t* max_ids) {
    if (outgrows(max_ids)) open_epoch(max_ids);
  }

  /// Decode row `idx` into `out` (stride words). A spilled row faults its
  /// page back in: loads come from scans, which read the neighbours next.
  void load(std::uint64_t idx, std::uint32_t* out) const {
    const epoch& e = epoch_of(idx);
    unpack(e, arena_.at(offset_of(e, idx)),
           [&](std::size_t c, std::uint32_t v) {
             out[c] = v;
             return true;
           });
  }

  /// Whether row `idx` equals `row` (stride words): the seen tables'
  /// duplicate check, decoding and comparing column by column. Matched rows
  /// are scattered over the whole store, so a spilled row is copied out of
  /// the spill file without faulting its page in (byte_arena::read).
  bool equals(std::uint64_t idx, const std::uint32_t* row) const {
    const epoch& e = epoch_of(idx);
    std::vector<std::uint8_t> cold;
    return unpack(e,
                  arena_.read(offset_of(e, idx), e.row_bytes + kReadSlack, cold),
                  [&](std::size_t c, std::uint32_t v) { return v == row[c]; });
  }

  /// Fault in the pages holding rows [lo, hi) — the next window of a scan
  /// in index order (a BFS frontier, a progress pass). Row indices are
  /// arena-append order, so the window is one contiguous page range; under
  /// a spill budget other pages are evicted to make room, so a whole scan
  /// stays within the budget. No-op when fully resident.
  void prefetch_rows(std::uint64_t lo, std::uint64_t hi) const {
    if (!arena_.spill_enabled()) return;
    hi = std::min(hi, count_);
    if (lo >= hi) return;
    const epoch& last = epoch_of(hi - 1);
    arena_.prefetch_range(offset_of(epoch_of(lo), lo),
                          offset_of(last, hi - 1) + last.row_bytes);
  }

  /// Bytes of row storage actually committed: arena bytes (page tails
  /// included) plus the epoch table.
  std::uint64_t stored_bytes() const {
    return arena_.used() + epochs_.size() * sizeof(epoch) + widths_.size();
  }

  /// Width epochs opened so far.
  std::uint64_t keyframes() const { return epochs_.size(); }

  bool spill_enabled() const { return arena_.spill_enabled(); }
  arena_spill_stats spill_stats() const { return arena_.spill_stats(); }

  /// Enforce the arena's resident budget now.
  void spill_over_budget() { arena_.spill_over_budget(); }

  /// Test hook: pad the arena so subsequent rows land at or past
  /// `target_offset` (exercising offsets beyond 2^32 without writing
  /// gigabytes). The next row starts a fresh epoch, based past the hole.
  void pad_arena_for_test(std::uint64_t target_offset) {
    arena_.pad_to(target_offset);
    if (epochs_.empty()) return;
    epochs_.push_back(epochs_.back());
    epochs_.back().first = count_;
  }

  void clear() {
    count_ = 0;
    arena_.clear();
    epochs_.clear();
    widths_.clear();
  }

 private:
  static_assert(std::endian::native == std::endian::little,
                "packed rows assume little-endian chunk loads");

  static void store_chunk(std::uint8_t* at, std::uint64_t acc) {
    const auto chunk = static_cast<std::uint32_t>(acc);
    std::memcpy(at, &chunk, sizeof chunk);
  }

  /// A run of rows sharing one set of column widths. An epoch's base and
  /// head_rows are fixed by its first row, so an epoch opened by reserve()
  /// or pad_arena_for_test() stays unplaced until a row arrives.
  struct epoch {
    std::uint64_t first = 0;      ///< index of the epoch's first row
    std::uint64_t base = 0;       ///< arena offset of that row
    std::uint32_t row_bytes = 0;
    std::uint32_t head_rows = 0;  ///< rows that fit in base's page
    std::uint32_t per_page = 0;   ///< rows per later page
    std::uint32_t widths = 0;     ///< index of its stride widths in widths_
  };

  /// Whether some id of `row` needs more bits than its column has.
  bool outgrows(const std::uint32_t* row) const {
    if (epochs_.empty()) return true;
    const std::uint8_t* w = widths_.data() + epochs_.back().widths;
    bool out = false;
    for (std::size_t c = 0; c < stride_; ++c)
      out |= (std::uint64_t{row[c]} >> w[c]) != 0;
    return out;
  }

  /// Widen every column `row` outgrows and start a new epoch. Validates
  /// before mutating, so a row too wide for a page leaves the store intact.
  void open_epoch(const std::uint32_t* row) {
    const std::size_t prev = epochs_.empty() ? 0 : epochs_.back().widths;
    const auto width = [&](std::size_t c) {
      const int old = epochs_.empty() ? 0 : widths_[prev + c];
      return static_cast<std::uint8_t>(std::max<int>(old, std::bit_width(row[c])));
    };
    std::uint32_t bits = 0;
    for (std::size_t c = 0; c < stride_; ++c) bits += width(c);
    const std::uint32_t row_bytes = std::max<std::uint32_t>(1, (bits + 7) / 8);
    ANONCOORD_REQUIRE(row_bytes + kReadSlack <= arena_.page_size(),
                      "packed row larger than an arena page");
    epoch e;
    e.first = count_;
    e.row_bytes = row_bytes;
    e.per_page = static_cast<std::uint32_t>(
        (arena_.page_size() - kReadSlack) / row_bytes);
    e.widths = static_cast<std::uint32_t>(widths_.size());
    for (std::size_t c = 0; c < stride_; ++c) widths_.push_back(width(c));
    epochs_.push_back(e);
  }

  /// The epoch holding row `idx`: the last one starting at or before it
  /// (epochs_[0].first == 0).
  const epoch& epoch_of(std::uint64_t idx) const {
    const auto it = std::upper_bound(
        epochs_.begin(), epochs_.end(), idx,
        [](std::uint64_t i, const epoch& e) { return i < e.first; });
    return *(it - 1);
  }

  std::uint64_t offset_of(const epoch& e, std::uint64_t idx) const {
    std::uint64_t k = idx - e.first;
    if (k < e.head_rows) return e.base + k * e.row_bytes;
    k -= e.head_rows;
    const std::uint64_t page = k / e.per_page;
    const std::uint64_t slot = k % e.per_page;
    const int pb = arena_.page_bits();
    return (((e.base >> pb) + 1 + page) << pb) + slot * e.row_bytes;
  }

  /// Decode the packed row at `in` (epoch e) column by column into
  /// sink(c, id), stopping at the first call that returns false; returns
  /// whether none did.
  template <class Sink>
  bool unpack(const epoch& e, const std::uint8_t* in, const Sink& sink) const {
    const std::uint8_t* w = widths_.data() + e.widths;
    std::uint64_t acc = 0;
    std::uint32_t bits = 0;  // unread bits in acc
    for (std::size_t c = 0; c < stride_; ++c) {
      if (bits < w[c]) {
        std::uint32_t chunk;
        std::memcpy(&chunk, in, sizeof chunk);
        in += 4;
        acc |= std::uint64_t{chunk} << bits;
        bits += 32;
      }
      if (!sink(c, static_cast<std::uint32_t>(
                       acc & ((std::uint64_t{1} << w[c]) - 1))))
        return false;
      acc >>= w[c];
      bits -= w[c];
    }
    return true;
  }

  std::size_t stride_ = 0;
  std::uint64_t count_ = 0;
  byte_arena arena_;                  // row bytes…
  std::vector<epoch> epochs_;         // …their width epochs…
  std::vector<std::uint8_t> widths_;  // …and stride column widths per epoch
};

/// Cursor for a single-threaded scan in index order that may skip rows (the
/// explorers' progress passes): faults rows in kRows at a time, so under a
/// spill budget the scan evicts behind itself.
class scan_window {
 public:
  static constexpr std::uint64_t kRows = 4096;

  explicit scan_window(const row_store& rows)
      : rows_(&rows), end_(rows.spill_enabled() ? 0 : ~std::uint64_t{0}) {}

  void prefetch(std::uint64_t idx) {
    if (idx < end_) return;
    end_ = idx + kRows;
    rows_->prefetch_rows(idx, end_);
  }

 private:
  const row_store* rows_;
  std::uint64_t end_;  ///< rows before this are already faulted in
};

}  // namespace anoncoord
