// Torture tests for the group-probing seen table (util/flat_index.hpp).
//
// Pinned here:
//   * collision floods — thousands of entries sharing one hash (one
//     fragment, one tag, one probe start) stay individually findable while
//     the probe chain spills across many 16-slot groups, and a miss still
//     terminates at the first group with an empty slot;
//   * growth across 2^k boundaries — entries survive repeated doublings
//     (placement is a pure function of the stored fragment, not the
//     original hash);
//   * the one-walk dedup-insert (lookup, then claim on a miss) leaves
//     exactly the table, indices and probe counts of a find-then-place
//     pair, checked against an independent reference model over random
//     operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/flat_index.hpp"
#include "util/hash.hpp"
#include "util/probe_group.hpp"
#include "util/rng.hpp"

namespace anoncoord {
namespace {

/// Add a record the caller knows is absent: a lookup that matches nothing,
/// then claim its slot.
void add_absent(flat_index& idx, std::size_t h, std::uint32_t local) {
  idx.claim(idx.lookup(h, [](std::uint32_t) { return false; }), local);
}

TEST(ProbeIndexTest, CollisionFloodStaysFindable) {
  // One hash for every entry: same fragment, same tag, same probe start.
  constexpr std::uint32_t kFlood = 1000;
  const std::size_t h = 0x5eed5eed5eedull;
  flat_index idx;
  probe_stats stats;
  idx.stats = &stats;
  for (std::uint32_t i = 0; i < kFlood; ++i) add_absent(idx, h, i);
  EXPECT_EQ(idx.used, kFlood);
  // The flood packs > kFlood / 16 consecutive groups.
  EXPECT_GE(stats.max_group_chain, kFlood / kProbeGroupSlots);
  for (std::uint32_t i = 0; i < kFlood; ++i) {
    const std::uint32_t got =
        idx.lookup(h, [&](std::uint32_t local) { return local == i; }).found;
    ASSERT_EQ(got, i);
  }
  // A miss on the flooded hash walks the whole chain and still terminates.
  EXPECT_EQ(idx.lookup(h, [](std::uint32_t) { return false; }).found,
            flat_index::npos);
  // A miss on an unrelated hash terminates in its own neighborhood.
  EXPECT_EQ(idx.lookup(h ^ 0xffff, [](std::uint32_t) { return false; }).found,
            flat_index::npos);
}

TEST(ProbeIndexTest, GrowthAcrossPowerOfTwoBoundaries) {
  // 64 -> 200k entries crosses eleven doublings; every entry must survive
  // every re-place (grow() reconstructs probe starts from stored fragments).
  constexpr std::uint32_t kCount = 200'000;
  flat_index idx;
  for (std::uint32_t i = 0; i < kCount; ++i)
    add_absent(idx, static_cast<std::size_t>(i), i);
  EXPECT_EQ(idx.used, kCount);
  for (std::uint32_t i = 0; i < kCount; i += 7) {
    const std::uint32_t got = idx.lookup(
        static_cast<std::size_t>(i),
        [&](std::uint32_t local) { return local == i; }).found;
    ASSERT_EQ(got, i) << "entry lost across growth";
  }
  for (std::uint32_t i = kCount; i < kCount + 1000; ++i)
    EXPECT_EQ(idx.lookup(static_cast<std::size_t>(i),
                       [&](std::uint32_t local) { return local == i; }).found,
              flat_index::npos);
}

// ---------------------------------------------------------------------------
// One walk per probe vs a find-then-place reference model.
// ---------------------------------------------------------------------------

/// The find-then-place pair the one-walk API replaces, written out
/// independently: a scalar tag walk to find, a second walk to place, growth
/// at the same load limit before placing. It pins flat_index's placement
/// discipline (probe start, group order, first empty slot of the first group
/// with one), so any change to it must change both.
struct reference_index {
  std::vector<std::uint64_t> cells;
  std::vector<std::uint8_t> tags;
  std::size_t used = 0;
  std::uint64_t walked = 0;     ///< groups walked by finds
  std::uint64_t max_walk = 0;   ///< longest single find

  reference_index() { rehash(64); }

  std::size_t groups() const { return cells.size() / kProbeGroupSlots; }
  std::size_t start(std::uint32_t frag) const {
    return static_cast<std::size_t>(
               (frag * std::uint64_t{0x9e3779b97f4a7c15}) >> 32) &
           (groups() - 1);
  }

  std::uint32_t find(std::size_t h,
                     const std::function<bool(std::uint32_t)>& eq) {
    const std::uint32_t frag = flat_index::fragment(h);
    const std::uint8_t tag = probe_tag(frag);
    std::uint64_t walk = 0;
    std::uint32_t out = flat_index::npos;
    for (std::size_t g = start(frag);; g = (g + 1) % groups()) {
      ++walk;
      bool has_empty = false;
      for (std::size_t i = g * kProbeGroupSlots;
           i < (g + 1) * kProbeGroupSlots && out == flat_index::npos; ++i) {
        if (tags[i] == 0) has_empty = true;
        if (tags[i] == tag && (cells[i] >> 32) == frag &&
            eq(static_cast<std::uint32_t>(cells[i]) - 1))
          out = static_cast<std::uint32_t>(cells[i]) - 1;
      }
      if (out != flat_index::npos || has_empty) break;
    }
    walked += walk;
    max_walk = std::max(max_walk, walk);
    return out;
  }

  void insert(std::size_t h, std::uint32_t local) {
    if ((used + 1) * 10 >= cells.size() * 7) rehash(cells.size() * 2);
    place(flat_index::fragment(h), local);
    ++used;
  }

  void place(std::uint32_t frag, std::uint32_t local) {
    for (std::size_t g = start(frag);; g = (g + 1) % groups())
      for (std::size_t i = g * kProbeGroupSlots;
           i < (g + 1) * kProbeGroupSlots; ++i)
        if (tags[i] == 0) {
          cells[i] = (std::uint64_t{frag} << 32) | (local + 1);
          tags[i] = probe_tag(frag);
          return;
        }
  }

  void rehash(std::size_t capacity) {
    const std::vector<std::uint64_t> old = std::move(cells);
    cells.assign(capacity, 0);
    tags.assign(capacity, 0);
    for (const std::uint64_t cell : old)
      if (cell != 0)
        place(static_cast<std::uint32_t>(cell >> 32),
              static_cast<std::uint32_t>(cell) - 1);
  }
};

/// Dedup-insert every key of `keys` (hashed by `hash_of`) through both the
/// one-walk API and the reference model, checking each returned index, then
/// the final cells, tags, used count and probe counters.
void run_against_reference(const std::vector<std::uint64_t>& keys,
                           const std::function<std::size_t(std::uint64_t)>&
                               hash_of) {
  flat_index idx;
  probe_stats stats;
  idx.stats = &stats;
  std::vector<std::uint64_t> recs;  // the one-walk side's records
  reference_index ref;
  std::vector<std::uint64_t> ref_recs;
  std::uint64_t hits = 0;
  for (std::size_t op = 0; op < keys.size(); ++op) {
    const std::uint64_t key = keys[op];
    const std::size_t h = hash_of(key);

    const flat_index::probe pr =
        idx.lookup(h, [&](std::uint32_t i) { return recs[i] == key; });
    std::uint32_t got = pr.found;
    if (!pr.hit()) {
      got = static_cast<std::uint32_t>(recs.size());
      recs.push_back(key);
      idx.claim(pr, got);
    } else {
      ++hits;
    }

    std::uint32_t want =
        ref.find(h, [&](std::uint32_t i) { return ref_recs[i] == key; });
    if (want == flat_index::npos) {
      want = static_cast<std::uint32_t>(ref_recs.size());
      ref_recs.push_back(key);
      ref.insert(h, want);
    }
    ASSERT_EQ(got, want) << "op " << op;
  }
  EXPECT_EQ(idx.used, ref.used);
  EXPECT_EQ(idx.cells, ref.cells);
  EXPECT_EQ(idx.tags, ref.tags);
  // One note per operation: the lookup's walk. A claim adds none, so the
  // totals are those of the reference's finds alone.
  EXPECT_EQ(stats.groups_scanned, ref.walked);
  EXPECT_EQ(stats.max_group_chain, ref.max_walk);
  // The sequences are built to mix hits and misses.
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, keys.size());
}

TEST(ProbeIndexTest, OneWalkMatchesFindThenPlaceOnCollisionFloods) {
  // Most keys share one of three hashes, so probe chains run across many
  // groups and claims land deep in them; every fourth op repeats a key.
  xoshiro256 rng(17);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < 3000;) {
    if (k > 0 && rng.below(4) == 0)
      keys.push_back(rng.below(k));
    else
      keys.push_back(k++);
  }
  run_against_reference(keys, [](std::uint64_t key) {
    return key % 8 == 0 ? static_cast<std::size_t>(mix64(key))
                        : static_cast<std::size_t>(0xf100d0 + key % 3);
  });
}

TEST(ProbeIndexTest, OneWalkMatchesFindThenPlaceAcrossGrowth) {
  // Unmixed small-integer hashes (fragment() remixes them), 60k distinct
  // keys crossing eleven doublings, with a repeated key between fresh ones
  // so claims happen right at each growth boundary.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 60'000; ++k) {
    keys.push_back(k);
    if (k % 3 == 0) keys.push_back(k / 2);
  }
  run_against_reference(
      keys, [](std::uint64_t key) { return static_cast<std::size_t>(key); });
}

TEST(ProbeIndexTest, OneWalkMatchesFindThenPlaceOnMixedSequences) {
  // Random keys from a bounded space: early ops mostly miss, late ops mostly
  // hit; a fifth of the keys collide on one hash.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    xoshiro256 rng(seed);
    std::vector<std::uint64_t> keys(20'000);
    for (auto& k : keys) k = rng.below(8000);
    run_against_reference(keys, [](std::uint64_t key) {
      return key % 5 == 0 ? std::size_t{42}
                          : static_cast<std::size_t>(mix64(key + 1));
    });
  }
}

}  // namespace
}  // namespace anoncoord
