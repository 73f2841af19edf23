// Torture tests for the group-probing seen table (util/flat_index.hpp).
//
// Pinned here:
//   * collision floods — thousands of entries sharing one hash (one
//     fragment, one tag, one probe start) stay individually findable while
//     the probe chain spills across many 16-slot groups, and a miss still
//     terminates at the first group with an empty slot;
//   * growth across 2^k boundaries — entries survive repeated doublings
//     (placement is a pure function of the stored fragment, not the
//     original hash).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/flat_index.hpp"
#include "util/probe_group.hpp"

namespace anoncoord {
namespace {

TEST(ProbeIndexTest, CollisionFloodStaysFindable) {
  // One hash for every entry: same fragment, same tag, same probe start.
  constexpr std::uint32_t kFlood = 1000;
  const std::size_t h = 0x5eed5eed5eedull;
  flat_index idx;
  probe_stats stats;
  idx.stats = &stats;
  for (std::uint32_t i = 0; i < kFlood; ++i) idx.insert(h, i);
  EXPECT_EQ(idx.used, kFlood);
  // The flood packs > kFlood / 16 consecutive groups.
  EXPECT_GE(stats.max_group_chain, kFlood / kProbeGroupSlots);
  for (std::uint32_t i = 0; i < kFlood; ++i) {
    const std::uint32_t got =
        idx.find(h, [&](std::uint32_t local) { return local == i; });
    ASSERT_EQ(got, i);
  }
  // A miss on the flooded hash walks the whole chain and still terminates.
  EXPECT_EQ(idx.find(h, [](std::uint32_t) { return false; }),
            flat_index::npos);
  // A miss on an unrelated hash terminates in its own neighborhood.
  EXPECT_EQ(idx.find(h ^ 0xffff, [](std::uint32_t) { return false; }),
            flat_index::npos);
}

TEST(ProbeIndexTest, GrowthAcrossPowerOfTwoBoundaries) {
  // 64 -> 200k entries crosses eleven doublings; every entry must survive
  // every re-place (grow() reconstructs probe starts from stored fragments).
  constexpr std::uint32_t kCount = 200'000;
  flat_index idx;
  for (std::uint32_t i = 0; i < kCount; ++i)
    idx.insert(static_cast<std::size_t>(i), i);
  EXPECT_EQ(idx.used, kCount);
  for (std::uint32_t i = 0; i < kCount; i += 7) {
    const std::uint32_t got = idx.find(
        static_cast<std::size_t>(i),
        [&](std::uint32_t local) { return local == i; });
    ASSERT_EQ(got, i) << "entry lost across growth";
  }
  for (std::uint32_t i = kCount; i < kCount + 1000; ++i)
    EXPECT_EQ(idx.find(static_cast<std::size_t>(i),
                       [&](std::uint32_t local) { return local == i; }),
              flat_index::npos);
}

}  // namespace
}  // namespace anoncoord
