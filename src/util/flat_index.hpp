// Open-addressed group-probing indexes from a precomputed hash to a
// caller-side record index — the seen tables of both explorers, the
// hash-consing state pool and the systematic tester's state cache.
//
// Layout (both tables): 8-byte cells packing a 32-bit hash fragment with the
// entry index, plus one 1-byte tag per cell (util/probe_group.hpp). A probe
// walks 16-slot groups: one 16-byte tag compare yields the candidate slots
// (tag match or empty), so cell memory is touched only for candidates and a
// probe usually costs one tag group + one payload line. The index stores no
// keys and no values — equality is always confirmed by the caller's `eq`
// callback, so tag/fragment collisions only cost an extra compare.
//
// Placement discipline: an entry lands in the first empty slot of the first
// group (in probe order) containing one, and a lookup stops at the first
// group with an empty slot — the group-granular analogue of linear probing's
// "stop at the first empty cell". The probe start is a pure function of the
// fragment, so grow() re-places cells without the original hashes.
//
// flat_index is the single-threaded table. concurrent_tag_index is its
// lock-free CAS-insert analogue (grown from parallel_explorer's seen table):
// cells are atomic and publish with a release CAS; tags are atomic hints
// stored after the CAS, so a probe that sees a stale 0 tag verifies against
// the cell (the authority) and either claims it or examines the occupant.
// A nonzero tag is never wrong — tags transition 0 -> probe_tag(frag) once
// and fragments never change — so skipping a nonzero non-matching tag can
// never skip the probed state.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/hash.hpp"
#include "util/probe_group.hpp"

#if !defined(ANONCOORD_TSAN)
#if defined(__SANITIZE_THREAD__)
#define ANONCOORD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ANONCOORD_TSAN 1
#endif
#endif
#endif

namespace anoncoord {

struct flat_index {
  static constexpr std::uint32_t npos = 0xffffffffu;

  /// cell = fragment << 32 | (local + 1); 0 means empty.
  std::vector<std::uint64_t> cells;
  /// One probe tag per cell (0 = empty); cells.size() bytes.
  std::vector<std::uint8_t> tags;
  std::size_t mask = 0;        ///< slot mask (cells.size() - 1)
  std::size_t group_mask = 0;  ///< group mask (cells.size()/16 - 1)
  std::size_t used = 0;
  /// Optional probe-cost sink (seen-table owners attach one; the component
  /// pools leave it null).
  probe_stats* stats = nullptr;

  flat_index() { grow(64); }

  static std::uint32_t fragment(std::size_t h) {
    return static_cast<std::uint32_t>(mix64(h) >> 32);
  }
  /// Probe start as a pure function of the fragment, so grow() can
  /// re-place cells without the original hash.
  std::size_t start_group(std::uint32_t frag) const {
    return static_cast<std::size_t>(
               (frag * std::uint64_t{0x9e3779b97f4a7c15}) >> 32) &
           group_mask;
  }

  /// Warm the probe group for hash `h` (tag line + cell line); used by the
  /// batched pipeline to issue lookups one batch ahead of the probes.
  void prefetch(std::size_t h) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t base = start_group(fragment(h)) * kProbeGroupSlots;
    __builtin_prefetch(tags.data() + base);
    __builtin_prefetch(cells.data() + base);
#else
    (void)h;
#endif
  }

  /// Find the entry for hash `h` that satisfies `eq`, or npos.
  template <class Eq>
  std::uint32_t find(std::size_t h, const Eq& eq) const {
    const std::uint32_t frag = fragment(h);
    const std::uint8_t tag = probe_tag(frag);
    std::uint64_t chain = 0;
    std::uint32_t out = npos;
    for (std::size_t g = start_group(frag);; g = (g + 1) & group_mask) {
      ++chain;
      const std::uint8_t* t = tags.data() + g * kProbeGroupSlots;
      for (std::uint32_t m = probe_match_mask(t, tag); m != 0; m &= m - 1) {
        const std::size_t i =
            g * kProbeGroupSlots + static_cast<std::size_t>(std::countr_zero(m));
        const std::uint64_t cell = cells[i];
        if (static_cast<std::uint32_t>(cell >> 32) == frag) {
          const auto local = static_cast<std::uint32_t>(cell) - 1;
          if (eq(local)) {
            out = local;
            break;
          }
        }
      }
      if (out != npos || probe_match_mask(t, 0) != 0) break;
    }
    if (stats) stats->note_chain(chain);
    return out;
  }

  void insert(std::size_t h, std::uint32_t local) {
    if ((used + 1) * 10 >= cells.size() * 7) grow(cells.size() * 2);
    const std::uint64_t chain = place(fragment(h), local);
    if (stats) stats->note_chain(chain);
    ++used;
  }

  void clear() {
    cells.assign(cells.size(), 0);
    tags.assign(tags.size(), 0);
    used = 0;
  }

 private:
  void grow(std::size_t capacity) {  // capacity: power of two, >= 64
    std::vector<std::uint64_t> old = std::move(cells);
    cells.assign(capacity, 0);
    tags.assign(capacity, 0);
    mask = capacity - 1;
    group_mask = capacity / kProbeGroupSlots - 1;
    for (const std::uint64_t cell : old)
      if (cell != 0)
        place(static_cast<std::uint32_t>(cell >> 32),
              static_cast<std::uint32_t>(cell) - 1);
  }

  /// First empty slot of the first group with one; returns the group-chain
  /// length for the stats sink.
  std::uint64_t place(std::uint32_t frag, std::uint32_t local) {
    std::uint64_t chain = 0;
    for (std::size_t g = start_group(frag);; g = (g + 1) & group_mask) {
      ++chain;
      const std::uint32_t empties =
          probe_match_mask(tags.data() + g * kProbeGroupSlots, 0);
      if (empties == 0) continue;
      const std::size_t i =
          g * kProbeGroupSlots +
          static_cast<std::size_t>(std::countr_zero(empties));
      cells[i] = (std::uint64_t{frag} << 32) | (local + 1);
      tags[i] = probe_tag(frag);
      return chain;
    }
  }
};

/// Lock-free CAS-insert analogue of flat_index for the parallel explorer's
/// seen table. The caller owns payload semantics (the explorer packs a
/// pending bit + staging index or a merged global index into `tagged`) and
/// supplies equality; the table owns placement, group probing and the
/// publish protocol:
///
///   * probe_or_insert walks candidate slots in probe order; an empty
///     candidate is verified against the cell (tags lag the CAS), a claim is
///     a release CAS on the empty cell, and a loser re-examines the winner —
///     so a state is never inserted twice (the sequential argument carries
///     over because every slot the probe skips provably holds a different
///     fragment);
///   * stage() runs at most once, before the first claim attempt, and must
///     make the row readable by other probers' eq once the CAS publishes it;
///   * grow()/reset()/place_initial()/rewrite() are single-threaded
///     (between-level operations; the explorer never grows under the fork).
class concurrent_tag_index {
 public:
  static std::uint64_t make_cell(std::uint32_t frag, std::uint32_t tagged) {
    return (std::uint64_t{frag} << 32) | (tagged + 1);
  }
  static std::uint32_t cell_frag(std::uint64_t cell) {
    return static_cast<std::uint32_t>(cell >> 32);
  }
  static std::uint32_t cell_tagged(std::uint64_t cell) {
    return static_cast<std::uint32_t>(cell) - 1;
  }

  std::size_t capacity() const { return count_; }

  /// Drop every entry and (re)size to `capacity` slots (power of two ≥ 64).
  void reset(std::size_t capacity) {
    count_ = capacity;
    group_mask_ = capacity / kProbeGroupSlots - 1;
    cells_ = std::make_unique<std::atomic<std::uint64_t>[]>(capacity);
    tags_ = std::make_unique<std::atomic<std::uint8_t>[]>(capacity);
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].store(0, std::memory_order_relaxed);
      tags_[i].store(0, std::memory_order_relaxed);
    }
  }

  /// Single-threaded rehash: re-places every occupied cell by fragment.
  void grow(std::size_t capacity) {
    auto old_cells = std::move(cells_);
    const std::size_t old_count = count_;
    reset(capacity);
    for (std::size_t i = 0; i < old_count; ++i) {
      const std::uint64_t cell = old_cells[i].load(std::memory_order_relaxed);
      if (cell != 0) place_relaxed(cell);
    }
  }

  /// Single-threaded insert (the explorer's initial state); returns the
  /// claimed cell index.
  std::uint32_t place_initial(std::uint32_t frag, std::uint32_t tagged) {
    return place_relaxed(make_cell(frag, tagged));
  }

  /// Rewrite an occupied cell's payload in place, fragment preserved (the
  /// deterministic merge retargets pending entries to merged indices).
  void rewrite(std::uint32_t cell_index, std::uint32_t tagged) {
    std::atomic<std::uint64_t>& cell = cells_[cell_index];
    cell.store(
        make_cell(cell_frag(cell.load(std::memory_order_relaxed)), tagged),
        std::memory_order_relaxed);
  }

  /// Warm the probe group for `frag` (tag line + cell line).
  void prefetch(std::uint32_t frag) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t base = start_group(frag) * kProbeGroupSlots;
    __builtin_prefetch(tags_.get() + base);
    __builtin_prefetch(cells_.get() + base);
#else
    (void)frag;
#endif
  }

  /// Find the entry whose payload satisfies `eq`, or claim an empty slot
  /// with stage()'s payload. Returns the winning payload; `inserted` tells
  /// which case, `cell_out` the cell index (for later rewrite()).
  template <class Eq, class Stage>
  std::uint32_t probe_or_insert(std::uint32_t frag, bool& inserted,
                                std::uint32_t& cell_out, const Eq& eq,
                                const Stage& stage,
                                probe_stats* ps = nullptr) {
    const std::uint8_t tag = probe_tag(frag);
    bool staged = false;
    std::uint32_t payload = 0;
    std::uint64_t chain = 0;
    for (std::size_t g = start_group(frag);; g = (g + 1) & group_mask_) {
      ++chain;
      std::uint32_t match = 0, empty = 0;
      group_masks(g, tag, match, empty);
      // Candidate slots in ascending order: same-tag occupants (possible
      // hits) and maybe-empty slots (claim targets — or occupants whose tag
      // store hasn't landed yet, which the cell load below disambiguates).
      for (std::uint32_t cand = match | empty; cand != 0; cand &= cand - 1) {
        const std::size_t i =
            g * kProbeGroupSlots +
            static_cast<std::size_t>(std::countr_zero(cand));
        std::uint64_t cell = cells_[i].load(std::memory_order_acquire);
        for (;;) {
          if (cell == 0) {
            if (!staged) {
              payload = stage();
              staged = true;
            }
            if (cells_[i].compare_exchange_strong(
                    cell, make_cell(frag, payload), std::memory_order_release,
                    std::memory_order_acquire)) {
              tags_[i].store(tag, std::memory_order_release);
              inserted = true;
              cell_out = static_cast<std::uint32_t>(i);
              if (ps) ps->note_chain(chain);
              return payload;
            }
            continue;  // lost the race: `cell` now holds the winner
          }
          if (cell_frag(cell) == frag) {
            const std::uint32_t tagged = cell_tagged(cell);
            if (eq(tagged)) {
              inserted = false;
              cell_out = static_cast<std::uint32_t>(i);
              if (ps) ps->note_chain(chain);
              return tagged;
            }
          }
          break;  // a different state: next candidate
        }
      }
      // Every slot of this group is occupied by a different state (verified
      // empties included), so the walk continues — occupancy is monotone,
      // the probed state can never appear behind us.
    }
  }

 private:
  std::size_t start_group(std::uint32_t frag) const {
    return static_cast<std::size_t>(
               (frag * std::uint64_t{0x9e3779b97f4a7c15}) >> 32) &
           group_mask_;
  }

  /// One group's match/empty masks, both from one snapshot of its tags (see
  /// probe_group_masks). SIMD reads the atomic tag bytes through a plain
  /// 16-byte load — safe by the protocol above (stale 0s are verified
  /// against cells, nonzero tags are immutable) — except under TSan, where
  /// the per-byte atomic loop keeps the race detector exact.
  void group_masks(std::size_t g, std::uint8_t tag, std::uint32_t& match,
                   std::uint32_t& empty) const {
#if defined(ANONCOORD_TSAN)
    std::uint8_t local[kProbeGroupSlots];
    for (int i = 0; i < kProbeGroupSlots; ++i)
      local[i] = tags_[g * kProbeGroupSlots + static_cast<std::size_t>(i)]
                     .load(std::memory_order_relaxed);
    probe_group_masks(local, tag, match, empty);
#else
    static_assert(sizeof(std::atomic<std::uint8_t>) == 1,
                  "tag array must be byte-addressable for the group load");
    probe_group_masks(reinterpret_cast<const std::uint8_t*>(tags_.get()) +
                          g * kProbeGroupSlots,
                      tag, match, empty);
#endif
  }

  /// Single-threaded placement (reset/grow/place_initial).
  std::uint32_t place_relaxed(std::uint64_t cell) {
    const std::uint32_t frag = cell_frag(cell);
    for (std::size_t g = start_group(frag);; g = (g + 1) & group_mask_) {
      for (int s = 0; s < kProbeGroupSlots; ++s) {
        const std::size_t i = g * kProbeGroupSlots + static_cast<std::size_t>(s);
        if (cells_[i].load(std::memory_order_relaxed) != 0) continue;
        cells_[i].store(cell, std::memory_order_relaxed);
        tags_[i].store(probe_tag(frag), std::memory_order_relaxed);
        return static_cast<std::uint32_t>(i);
      }
    }
  }

  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> tags_;
  std::size_t count_ = 0;
  std::size_t group_mask_ = 0;
};

}  // namespace anoncoord
