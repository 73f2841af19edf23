// Open-addressed group-probing index from a precomputed hash to a
// caller-side record index — the explorer's seen table and the hash-consing
// state pool.
//
// Layout: 8-byte cells packing a 32-bit hash fragment with the entry index,
// plus one 1-byte tag per cell (util/probe_group.hpp). A probe walks
// 16-slot groups: one 16-byte tag compare yields the candidate slots (tag
// match or empty), so cell memory is touched only for candidates and a
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
// Because a missing lookup stops exactly where placement would land, a
// dedup-insert is one walk: lookup() returns either the matching entry or
// that empty slot, and claim() writes the slot once the caller has stored
// the record it indexes. Nothing may touch the index between the two calls.
//
// The index is single-threaded; concurrent owners (state_pool's shards)
// guard it with their own lock.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.hpp"
#include "util/probe_group.hpp"

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

  /// One probe walk's outcome: the matching entry, or on a miss the slot
  /// an insert lands in — the first empty slot of the first group with one,
  /// where the walk stopped.
  struct probe {
    std::uint32_t found = npos;  ///< matching entry, npos on a miss
    std::uint32_t frag = 0;
    std::size_t slot = 0;  ///< miss only: the empty slot to claim
    bool hit() const { return found != npos; }
  };

  /// Walk the probe chain for hash `h` once: stop at the entry that
  /// satisfies `eq` or at the first group with an empty slot. Notes one
  /// chain length in the stats sink.
  template <class Eq>
  probe lookup(std::size_t h, const Eq& eq) const {
    probe out;
    out.frag = fragment(h);
    const std::uint8_t tag = probe_tag(out.frag);
    std::uint64_t chain = 0;
    for (std::size_t g = start_group(out.frag);; g = (g + 1) & group_mask) {
      ++chain;
      const std::uint8_t* t = tags.data() + g * kProbeGroupSlots;
      for (std::uint32_t m = probe_match_mask(t, tag); m != 0; m &= m - 1) {
        const std::size_t i =
            g * kProbeGroupSlots + static_cast<std::size_t>(std::countr_zero(m));
        const std::uint64_t cell = cells[i];
        if (static_cast<std::uint32_t>(cell >> 32) == out.frag) {
          const auto local = static_cast<std::uint32_t>(cell) - 1;
          if (eq(local)) {
            out.found = local;
            break;
          }
        }
      }
      if (out.found != npos) break;
      const std::uint32_t empties = probe_match_mask(t, 0);
      if (empties != 0) {
        out.slot = g * kProbeGroupSlots +
                   static_cast<std::size_t>(std::countr_zero(empties));
        break;
      }
    }
    if (stats) stats->note_chain(chain);
    return out;
  }

  /// Record `local` for a missed lookup(). If this entry crosses the load
  /// limit the table grows and re-places it with a second walk; otherwise
  /// the miss's slot is written directly. Either way the layout is the one
  /// a find-then-place pair would leave.
  void claim(const probe& miss, std::uint32_t local) {
    if ((used + 1) * 10 >= cells.size() * 7) {
      grow(cells.size() * 2);
      place(miss.frag, local);
    } else {
      cells[miss.slot] = (std::uint64_t{miss.frag} << 32) | (local + 1);
      tags[miss.slot] = probe_tag(miss.frag);
    }
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

  /// First empty slot of the first group with one.
  void place(std::uint32_t frag, std::uint32_t local) {
    for (std::size_t g = start_group(frag);; g = (g + 1) & group_mask) {
      const std::uint32_t empties =
          probe_match_mask(tags.data() + g * kProbeGroupSlots, 0);
      if (empties == 0) continue;
      const std::size_t i =
          g * kProbeGroupSlots +
          static_cast<std::size_t>(std::countr_zero(empties));
      cells[i] = (std::uint64_t{frag} << 32) | (local + 1);
      tags[i] = probe_tag(frag);
      return;
    }
  }
};

}  // namespace anoncoord
