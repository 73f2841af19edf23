// Unit tests for the memory-lean storage layer: the paged byte arena, the
// bit-packed row store, and flat_index edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "modelcheck/state_pool.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/flat_index.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace anoncoord {
namespace {

// ---------------------------------------------------------------------------
// arena.hpp
// ---------------------------------------------------------------------------

TEST(ByteArenaTest, AppendReadRoundTrip) {
  byte_arena a;
  std::vector<std::uint64_t> offs;
  std::vector<std::vector<std::uint8_t>> rows;
  xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::uint8_t> row(1 + rng.below(100));
    for (auto& b : row) b = static_cast<std::uint8_t>(rng());
    offs.push_back(a.append(row.data(), row.size()));
    rows.push_back(std::move(row));
  }
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(0, std::memcmp(a.at(offs[i]), rows[i].data(), rows[i].size()));
}

TEST(ByteArenaTest, RowsNeverStraddlePages) {
  byte_arena a;
  // Fill to just short of a page boundary, then append a row that cannot
  // fit in the tail: it must start on the next page, contiguous.
  const std::size_t fill = byte_arena::kPageSize - 10;
  std::vector<std::uint8_t> pad(fill, 0xAA);
  a.append(pad.data(), pad.size());
  std::vector<std::uint8_t> row(100, 0xBB);
  const std::uint64_t off = a.append(row.data(), row.size());
  EXPECT_EQ(off >> byte_arena::kPageBits, 1u) << "row must skip to page 1";
  EXPECT_EQ(off & (byte_arena::kPageSize - 1), 0u);
  EXPECT_EQ(0, std::memcmp(a.at(off), row.data(), row.size()));
  // The skipped tail still counts as used bytes (charged to footprint).
  EXPECT_EQ(a.used(), off + row.size());
  EXPECT_EQ(a.bytes(), 2 * byte_arena::kPageSize);
}

TEST(ByteArenaTest, ReserveCommitEncodesInPlace) {
  byte_arena a;
  std::uint8_t* dst = a.reserve(16);
  dst[0] = 1;
  dst[1] = 2;
  const std::uint64_t off = a.commit(2);
  EXPECT_EQ(a.at(off)[0], 1);
  EXPECT_EQ(a.at(off)[1], 2);
  EXPECT_EQ(a.used(), 2u);
  a.clear();
  EXPECT_EQ(a.used(), 0u);
}

TEST(ByteArenaTest, OversizedRowRejected) {
  byte_arena a;
  EXPECT_THROW(a.reserve(byte_arena::kPageSize + 1), precondition_error);
}

// ---------------------------------------------------------------------------
// state_pool.hpp: row_store
// ---------------------------------------------------------------------------

// Random rows whose column maxima climb through every power of two: row i
// draws from [0, 2^b) with b = 33 * i / count, often hitting 2^b - 1 so each
// width boundary is crossed mid-stream. Column 0 stays all-zero (width 0)
// and the last row puts 0xFFFFFFFF in column stride - 1 (width 32).
std::vector<std::vector<std::uint32_t>> climbing_rows(std::size_t stride,
                                                      int count,
                                                      std::uint64_t seed) {
  std::vector<std::vector<std::uint32_t>> rows;
  xoshiro256 rng(seed);
  for (int i = 0; i < count; ++i) {
    const int b = static_cast<int>(std::int64_t{33} * i / count);
    const std::uint64_t top = (std::uint64_t{1} << b) - 1;
    std::vector<std::uint32_t> row(stride, 0);
    for (std::size_t c = 1; c < stride; ++c)
      row[c] = static_cast<std::uint32_t>(rng.below(4) == 0 ? top
                                          : rng.below(top + 1));
    rows.push_back(std::move(row));
  }
  rows.back().back() = 0xFFFFFFFFu;
  return rows;
}

// Ceil of the final packed row's bits / 8: the widest row any epoch uses.
std::uint64_t final_row_bytes(const std::vector<std::vector<std::uint32_t>>& rows) {
  std::vector<int> width(rows.front().size(), 0);
  for (const auto& row : rows)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], static_cast<int>(std::bit_width(row[c])));
  std::uint64_t bits = 0;
  for (const int w : width) bits += static_cast<std::uint64_t>(w);
  return (bits + 7) / 8;
}

TEST(RowStoreTest, CompressedRoundTripsAgainstVerbatim) {
  for (const std::size_t stride : {std::size_t{1}, std::size_t{5},
                                   std::size_t{64}, std::size_t{67}}) {
    SCOPED_TRACE("stride=" + std::to_string(stride));
    const auto rows = climbing_rows(stride, 3000, 11 + stride);
    // `rows` holds the verbatim truth every packed row must decode to.
    row_store packed;
    packed.configure(stride);
    for (std::size_t i = 0; i < rows.size(); ++i)
      EXPECT_EQ(packed.append(rows[i].data()), i);
    EXPECT_EQ(packed.size(), rows.size());
    // Every width grows at most 32 times. Stride 1's lone column is zero
    // (width 0) until the last row jumps it straight to width 32.
    EXPECT_GT(packed.keyframes(), 0u);
    EXPECT_LE(packed.keyframes(), 32 * stride + 1);
    if (stride == 1) {
      EXPECT_EQ(packed.keyframes(), 2u);
    }
    EXPECT_LE(packed.stored_bytes(),
              rows.size() * final_row_bytes(rows) +
                  packed.keyframes() * byte_arena::kPageSize);
    std::vector<std::uint32_t> out(stride);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      packed.load(i, out.data());
      ASSERT_EQ(out, rows[i]) << "row " << i;
      ASSERT_TRUE(packed.equals(i, rows[i].data())) << "row " << i;
    }
  }
}

TEST(RowStoreTest, EpochsOpenOnlyWhenAColumnOutgrows) {
  // Appending ids that fit the current widths never opens an epoch; each
  // id that needs one more bit opens exactly one. Decoding any row, in any
  // order, touches only that row.
  const std::size_t stride = 3;
  row_store rs;
  rs.configure(stride);
  std::vector<std::vector<std::uint32_t>> truth;
  const auto add = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c) {
    truth.push_back({a, b, c});
    rs.append(truth.back().data());
  };
  add(1, 0, 0);
  for (int i = 0; i < 100; ++i) add(1, 0, 0);
  EXPECT_EQ(rs.keyframes(), 1u);
  add(3, 0, 0);  // column 0 grows to 2 bits
  add(2, 0, 0);
  EXPECT_EQ(rs.keyframes(), 2u);
  for (std::uint32_t bits = 1; bits <= 32; ++bits) {
    const auto v = static_cast<std::uint32_t>((std::uint64_t{1} << bits) - 1);
    add(0, 0, v);
    add(0, 0, v >> 1);
  }
  EXPECT_EQ(rs.keyframes(), 34u);
  std::vector<std::uint32_t> out(stride);
  for (std::size_t i = truth.size(); i-- > 0;) {
    rs.load(i, out.data());
    ASSERT_EQ(out, truth[i]) << "row " << i;
  }
}

TEST(RowStoreTest, ReserveWidensAheadOfRows) {
  // reserve() opens one epoch sized for the given id bounds; rows within
  // them then append without another, and bounds that already fit are a
  // no-op.
  const std::size_t stride = 3;
  row_store rs;
  rs.configure(stride);
  const std::vector<std::uint32_t> small = {1, 1, 1};
  rs.append(small.data());
  const std::vector<std::uint32_t> bound = {7, 0, 300};
  rs.reserve(bound.data());
  EXPECT_EQ(rs.keyframes(), 2u);
  rs.reserve(small.data());
  EXPECT_EQ(rs.keyframes(), 2u);
  std::vector<std::vector<std::uint32_t>> truth = {small};
  for (std::uint32_t i = 0; i < 200; ++i) {
    truth.push_back({i % 8, 1, 300 - i});
    rs.append(truth.back().data());
  }
  EXPECT_EQ(rs.keyframes(), 2u);
  std::vector<std::uint32_t> out(stride);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    rs.load(i, out.data());
    ASSERT_EQ(out, truth[i]) << "row " << i;
    EXPECT_TRUE(rs.equals(i, truth[i].data())) << "row " << i;
  }
  const std::vector<std::uint32_t> other = {0, 1, 2};
  EXPECT_FALSE(rs.equals(1, other.data()));
}

TEST(RowStoreTest, RowsAtPageTailsRoundTrip) {
  // Tiny pages make rows land at page tails constantly: byte sizes that do
  // not divide the page, epochs that open mid-page, and rows so wide that
  // only one fits a page.
  for (const int page_bits : {6, 8}) {
    for (const std::size_t stride : {std::size_t{2}, std::size_t{7},
                                     std::size_t{13}}) {
      SCOPED_TRACE("page_bits=" + std::to_string(page_bits) +
                   " stride=" + std::to_string(stride));
      const auto rows = climbing_rows(stride, 1500, 5 * stride + page_bits);
      row_store rs;
      row_store_options opt;
      opt.page_bits = page_bits;
      rs.configure(stride, opt);
      for (const auto& row : rows) rs.append(row.data());
      std::vector<std::uint32_t> out(stride);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        rs.load(i, out.data());
        ASSERT_EQ(out, rows[i]) << "row " << i;
      }
    }
  }
}

TEST(RowStoreTest, RowWiderThanAPageRejectedCleanly) {
  // 17 full-width words are 68 bytes, over a 64-byte page: the append must
  // throw without corrupting the store.
  const std::size_t stride = 17;
  row_store rs;
  row_store_options opt;
  opt.page_bits = 6;
  rs.configure(stride, opt);
  const std::vector<std::uint32_t> narrow(stride, 7);
  rs.append(narrow.data());
  const std::vector<std::uint32_t> wide(stride, 0xFFFFFFFFu);
  EXPECT_THROW(rs.append(wide.data()), precondition_error);
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.keyframes(), 1u);
  rs.append(narrow.data());
  std::vector<std::uint32_t> out(stride);
  for (std::uint64_t i = 0; i < 2; ++i) {
    rs.load(i, out.data());
    EXPECT_EQ(out, narrow);
  }
}

TEST(RowStoreTest, StrideBoundsEnforced) {
  row_store rs;
  EXPECT_THROW(rs.configure(0), precondition_error);
  EXPECT_THROW(rs.configure(std::size_t{1} << 13), precondition_error);
  EXPECT_NO_THROW(rs.configure((std::size_t{1} << 13) - 1));
}

TEST(RowStoreConcurrencyTest, FourReadersDecodeWithNoWriter) {
  // The explorers' read phase: the store is frozen and four threads decode
  // and compare overlapping row sets at once, in memory and spilled. Loads
  // fault spilled pages back in under the arena's fault mutex; equals()
  // reads spilled rows straight from the spill file.
  constexpr int kReaders = 4;
  const std::size_t stride = 6;
  const auto rows = climbing_rows(stride, 4000, 31);
  for (const bool spill : {false, true}) {
    SCOPED_TRACE(spill ? "spilled" : "in memory");
    row_store rs;
    row_store_options opt;
    if (spill) {
      opt.page_bits = 8;
      opt.spill.budget_bytes = 1024;
    }
    rs.configure(stride, opt);
    for (const auto& row : rows) rs.append(row.data());
    rs.spill_over_budget();
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        std::vector<std::uint32_t> out(stride);
        // Each reader walks every row from its own start; odd readers
        // compare (the seen-table probe), even readers decode.
        const std::size_t n = rows.size();
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t i = (k + n * static_cast<std::size_t>(t) / kReaders) % n;
          if (t % 2 == 1) {
            if (!rs.equals(i, rows[i].data())) mismatches.fetch_add(1);
          } else {
            rs.load(i, out.data());
            if (out != rows[i]) mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& r : readers) r.join();
    EXPECT_EQ(mismatches.load(), 0);
  }
}

// ---------------------------------------------------------------------------
// out-of-core spill path: byte_arena + row_store
// ---------------------------------------------------------------------------

TEST(ByteArenaSpillTest, SpillRestoreRoundTripTinyPages) {
  // 64-byte pages, 4-page resident budget: appending far more than the
  // budget must spill sealed pages and fault them back byte-identical.
  byte_arena a;
  arena_spill_options spill;
  spill.budget_bytes = 4 * 64;
  a.configure(/*page_bits=*/6, spill);
  ASSERT_TRUE(a.spill_enabled());
  std::vector<std::uint64_t> offs;
  std::vector<std::vector<std::uint8_t>> rows;
  xoshiro256 rng(21);
  for (int i = 0; i < 600; ++i) {
    std::vector<std::uint8_t> row(1 + rng.below(48));
    for (auto& b : row) b = static_cast<std::uint8_t>(rng());
    offs.push_back(a.append(row.data(), row.size()));
    rows.push_back(std::move(row));
  }
  arena_spill_stats st = a.spill_stats();
  EXPECT_GT(st.spilled_pages, 0u);
  EXPECT_EQ(st.spill_bytes, st.spilled_pages * a.page_size());
  // The append path enforces the budget; only the open head page rides over.
  EXPECT_LE(st.resident_bytes, spill.budget_bytes + a.page_size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(0, std::memcmp(a.at(offs[i]), rows[i].data(), rows[i].size()))
        << "row " << i;
  st = a.spill_stats();
  EXPECT_GT(st.faulted_pages, 0u);
  // Faulting only grows the resident set (readers may hold pointers); an
  // explicit append-path sweep re-enforces the budget and unmaps.
  a.spill_over_budget();
  st = a.spill_stats();
  EXPECT_GT(st.evicted_pages, 0u);
  EXPECT_LE(st.resident_bytes, spill.budget_bytes + a.page_size());
  // And the data is still there after eviction of mapped pages.
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(0, std::memcmp(a.at(offs[i]), rows[i].data(), rows[i].size()));
}

TEST(ByteArenaSpillTest, PadHoleReadsRejected) {
  byte_arena a;
  a.configure(6, arena_spill_options{});
  const std::uint8_t b = 0x5A;
  a.append(&b, 1);
  a.pad_to(10 * 64);
  EXPECT_THROW(a.pad_to(0), precondition_error);  // head only moves forward
  const std::uint64_t off = a.append(&b, 1);
  EXPECT_GE(off, 10u * 64u);
  EXPECT_EQ(a.at(off)[0], 0x5A);
  EXPECT_THROW(a.at(5 * 64), precondition_error);  // hole page never written
}

TEST(RowStoreSpillTest, SpilledForestRoundTripsAgainstInMemory) {
  // Climbing rows over 256-byte pages with a 1 KiB budget: every decoded
  // row must match the in-memory truth even though most pages live in the
  // spill file.
  const std::size_t stride = 7;
  const auto rows = climbing_rows(stride, 4000, 11);
  row_store rs;
  row_store_options opt;
  opt.page_bits = 8;
  opt.spill.budget_bytes = 1024;
  rs.configure(stride, opt);
  for (const auto& row : rows) rs.append(row.data());
  EXPECT_GT(rs.spill_stats().spilled_pages, 0u);
  std::vector<std::uint32_t> out(stride);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rs.load(i, out.data());
    ASSERT_EQ(out, rows[i]) << "row " << i;
  }
  EXPECT_GT(rs.spill_stats().faulted_pages, 0u);
}

TEST(RowStoreSpillTest, PrefetchRowsFaultsOnePageRange) {
  // A spilled window of rows is one contiguous page range: prefetch_rows
  // faults exactly those pages, and decoding the window afterwards faults
  // nothing more.
  const std::size_t stride = 4;
  row_store rs;
  row_store_options opt;
  opt.page_bits = 6;
  opt.spill.budget_bytes = 2 * 64;
  rs.configure(stride, opt);
  std::vector<std::uint32_t> row = {1000, 2000, 3000, 4000};  // 6 bytes/row
  for (int i = 0; i < 500; ++i) rs.append(row.data());
  ASSERT_GT(rs.spill_stats().spilled_pages, 0u);
  // 10 rows per 64-byte page: rows [100, 160) span pages 10..15.
  const std::uint64_t before = rs.spill_stats().faulted_pages;
  rs.prefetch_rows(100, 160);
  EXPECT_EQ(rs.spill_stats().faulted_pages - before, 6u);
  std::vector<std::uint32_t> out(stride);
  for (std::uint64_t i = 100; i < 160; ++i) {
    rs.load(i, out.data());
    EXPECT_EQ(out, row) << "row " << i;
  }
  EXPECT_EQ(rs.spill_stats().faulted_pages - before, 6u);
}

TEST(RowStoreSpillTest, EqualsReadsSpilledRowsWithoutFaulting) {
  // Duplicate checks hit rows all over the store. A spilled row is read
  // from the spill file: the answer is exact and no page comes back.
  const std::size_t stride = 7;
  const auto rows = climbing_rows(stride, 4000, 13);
  row_store rs;
  row_store_options opt;
  opt.page_bits = 8;
  opt.spill.budget_bytes = 1024;
  rs.configure(stride, opt);
  for (const auto& row : rows) rs.append(row.data());
  const arena_spill_stats before = rs.spill_stats();
  ASSERT_GT(before.spilled_pages, 0u);
  std::vector<std::uint32_t> other(stride);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rs.equals(i, rows[i].data())) << "row " << i;
    other = rows[i];
    other[i % stride] ^= 1;
    ASSERT_FALSE(rs.equals(i, other.data())) << "row " << i;
  }
  const arena_spill_stats after = rs.spill_stats();
  EXPECT_EQ(after.faulted_pages, before.faulted_pages);
  EXPECT_EQ(after.resident_bytes, before.resident_bytes);
  EXPECT_GT(after.point_reads, 0u);
}

TEST(RowStoreSpillTest, WindowedScanStaysWithinBudget) {
  // A scan that prefetches window by window (the explorers' frontier and
  // progress passes) evicts behind itself: every page faults in at most
  // once and the resident set never exceeds the budget plus the window and
  // the writer's head page.
  const std::size_t stride = 4;
  row_store rs;
  row_store_options opt;
  opt.page_bits = 6;
  opt.spill.budget_bytes = 4 * 64;
  rs.configure(stride, opt);
  const std::vector<std::uint32_t> row = {1000, 2000, 3000, 4000};  // 6 B
  for (int i = 0; i < 2000; ++i) rs.append(row.data());  // 200 pages
  const arena_spill_stats before = rs.spill_stats();
  ASSERT_GT(before.spilled_pages, 150u);
  std::vector<std::uint32_t> out(stride);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    if (i % 20 == 0) rs.prefetch_rows(i, i + 20);  // 2 pages per window
    rs.load(i, out.data());
    ASSERT_EQ(out, row) << "row " << i;
  }
  const arena_spill_stats after = rs.spill_stats();
  EXPECT_LE(after.faulted_pages - before.faulted_pages, 200u);
  EXPECT_LE(after.resident_hw_bytes, opt.spill.budget_bytes + 3 * 64);
}

TEST(RowStoreSpillTest, OffsetsBeyondFourGiB) {
  // Row offsets are 64-bit epoch bases plus arithmetic: pad the arena past
  // 4.5 GiB (sparse — no real gigabytes are written) and verify rows
  // appended there round-trip, with spilling exercising pwrite/mmap at
  // large file offsets.
  const std::size_t stride = 4;
  row_store rs;
  row_store_options opt;
  opt.spill.budget_bytes = 4 * byte_arena::kPageSize;
  rs.configure(stride, opt);
  std::vector<std::vector<std::uint32_t>> truth;
  xoshiro256 rng(77);
  const auto append_random = [&](int count) {
    for (int i = 0; i < count; ++i) {
      std::vector<std::uint32_t> row(stride);
      for (auto& w : row) w = static_cast<std::uint32_t>(rng.below(1 << 20));
      rs.append(row.data());
      truth.push_back(std::move(row));
    }
  };
  append_random(50000);
  EXPECT_THROW(rs.pad_arena_for_test(0), precondition_error);  // can't rewind
  rs.pad_arena_for_test(0x120000000ull);  // 4.5 GiB
  append_random(50000);
  EXPECT_GE(rs.stored_bytes(), 0x120000000ull);
  std::vector<std::uint32_t> out(stride);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    rs.load(i, out.data());
    ASSERT_EQ(out, truth[i]) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// component_pool: interning when a component's copy throws
// ---------------------------------------------------------------------------

/// A pooled component whose next copy can be made to throw. Equality flags
/// any compare against storage that holds no constructed object, which is
/// what a seen-table slot claimed before construction would point at.
struct fragile {
  static constexpr std::uint64_t kLive = 0x11fe11fe11fe11feull;
  static inline bool throw_next_copy = false;
  static inline bool compared_unconstructed = false;

  std::uint64_t live = kLive;
  int key = 0;

  explicit fragile(int k) : key(k) {}
  fragile(const fragile& o) : key(o.key) {
    if (throw_next_copy) {
      throw_next_copy = false;
      throw std::runtime_error("copy failed");
    }
  }
  fragile& operator=(const fragile&) = default;
  ~fragile() { live = 0; }

  friend bool operator==(const fragile& a, const fragile& b) {
    if (a.live != kLive || b.live != kLive) compared_unconstructed = true;
    return a.key == b.key;
  }
};

struct fragile_hash {
  std::size_t operator()(const fragile& f) const {
    return static_cast<std::size_t>(f.key);
  }
};

TEST(ComponentPoolTest, ThrowingCopyClaimsNoSlot) {
  using pool_t = detail::component_pool<fragile, fragile_hash>;
  pool_t pool;
  fragile::compared_unconstructed = false;
  // Keys 5, 13, 21 share shard 5 (the hash is the key). The first throw
  // hits a fresh segment's first slot, the second a slot behind a live one.
  for (const int key : {5, 21}) {
    const std::uint64_t before = pool.size();
    fragile::throw_next_copy = true;
    EXPECT_THROW(pool.intern(fragile(key)), std::runtime_error);
    EXPECT_EQ(pool.size(), before);
    const std::uint32_t id = pool.intern(fragile(key));
    EXPECT_EQ(pool.size(), before + 1);
    EXPECT_EQ(pool.intern(fragile(key)), id);
    EXPECT_EQ(pool.size(), before + 1);
    EXPECT_EQ(pool.at(id).key, key);
    if (key == 5) {
      const std::uint32_t id13 = pool.intern(fragile(13));
      EXPECT_NE(id13, id);
      EXPECT_EQ(pool.at(id13).key, 13);
    }
  }
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_FALSE(fragile::compared_unconstructed);
  pool.clear();
  EXPECT_EQ(pool.size(), 0u);
}

// ---------------------------------------------------------------------------
// flat_index.hpp edge cases
// ---------------------------------------------------------------------------

/// Add a record the caller knows is absent: a lookup that matches nothing,
/// then claim its slot.
void add_absent(flat_index& idx, std::size_t h, std::uint32_t local) {
  idx.claim(idx.lookup(h, [](std::uint32_t) { return false; }), local);
}

TEST(FlatIndexTest, EmptyIndexFindsNothing) {
  flat_index idx;
  const auto never = [](std::uint32_t) { return true; };
  EXPECT_EQ(idx.lookup(0, never).found, flat_index::npos);
  EXPECT_EQ(idx.lookup(hash_words(nullptr, 0), never).found, flat_index::npos);
  EXPECT_EQ(idx.used, 0u);
}

TEST(FlatIndexTest, SingleBucketCollisionsResolveByCallback) {
  // Keys that collide into one probe chain (same hash, distinct records):
  // the fragment matches every time, so only the eq callback separates them.
  flat_index idx;
  const std::size_t h = 12345;
  for (std::uint32_t local = 0; local < 8; ++local) add_absent(idx, h, local);
  for (std::uint32_t want = 0; want < 8; ++want) {
    const auto eq = [&](std::uint32_t local) { return local == want; };
    EXPECT_EQ(idx.lookup(h, eq).found, want);
  }
  const auto none = [](std::uint32_t local) { return local == 99; };
  EXPECT_EQ(idx.lookup(h, none).found, flat_index::npos);
}

TEST(FlatIndexTest, GrowthBoundaryKeepsEveryEntryFindable) {
  // The table grows at used*10 >= cells*7; walk well past several doublings
  // and verify every key before and after each rehash.
  flat_index idx;
  std::vector<std::size_t> hashes;
  std::size_t last_capacity = idx.cells.size();
  int rehashes = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    hashes.push_back(static_cast<std::size_t>(mix64(i)) | 1);
    add_absent(idx, hashes.back(), i);
    if (idx.cells.size() != last_capacity) {
      ++rehashes;
      last_capacity = idx.cells.size();
      for (std::uint32_t j = 0; j <= i; ++j) {
        const auto eq = [&](std::uint32_t local) { return local == j; };
        ASSERT_EQ(idx.lookup(hashes[j], eq).found, j)
            << "entry lost at rehash to " << last_capacity;
      }
    }
  }
  EXPECT_GE(rehashes, 3) << "test never crossed a growth boundary";
  EXPECT_EQ(idx.used, 2000u);
}

TEST(FlatIndexTest, LookupDuringInsertFromConcurrentReaders) {
  // flat_index is single-writer and unsynchronized by design; its users
  // (state pool shards, seen tables) serialize operations with a lock.
  // Model that contract: a writer inserting batches and reader threads
  // doing lookups interleave under a mutex, across several rehashes, and
  // every already-published entry stays findable.
  flat_index idx;
  std::mutex mu;
  std::atomic<std::uint32_t> published{0};
  std::atomic<bool> done{false};
  const auto key = [](std::uint32_t i) { return static_cast<std::size_t>(mix64(std::uint64_t{i} * 2654435761u)); };
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> lookups{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      xoshiro256 rng(99 + static_cast<std::uint64_t>(
                              std::hash<std::thread::id>{}(
                                  std::this_thread::get_id())));
      while (!done.load(std::memory_order_acquire)) {
        const std::uint32_t hi = published.load(std::memory_order_acquire);
        if (hi == 0) continue;
        const auto i = static_cast<std::uint32_t>(rng.below(hi));
        std::lock_guard<std::mutex> lock(mu);
        const auto eq = [&](std::uint32_t local) { return local == i; };
        ASSERT_EQ(idx.lookup(key(i), eq).found, i);
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint32_t i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      add_absent(idx, key(i), i);
    }
    published.store(i + 1, std::memory_order_release);
  }
  // On a single core the writer can finish before any reader is scheduled;
  // keep the table live until every reader has exercised the full index.
  while (lookups.load(std::memory_order_relaxed) < 300)
    std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GE(lookups.load(), 300u);
}

}  // namespace
}  // namespace anoncoord
