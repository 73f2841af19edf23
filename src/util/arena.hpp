// Append-only paged byte arena for the packed state store, with an
// optional out-of-core mode that spills sealed pages to an mmap-backed file.
//
// A byte_arena hands out stable offsets into fixed-size pages. Rows are kept
// contiguous: an append that would straddle a page boundary skips to a fresh
// page, so a decoder sees one flat span per row. The skipped tail bytes are
// bounded by max-row-size per page and are charged to bytes() — the bench's
// bytes-per-state figure includes them.
//
// Out-of-core mode (arena_spill_options::budget_bytes > 0): once resident
// page bytes exceed the budget, sealed pages — never the page the writer is
// appending into — are written to an unlinked temp file and their heap
// buffers freed. at() and prefetch_range() fault a cold page back in as a
// read-only MAP_SHARED mapping, for scans that go on to read its other
// rows; read() copies just the requested bytes out of the file, for
// scattered point reads. Eviction of faulted pages uses a second-chance
// clock (an LRU approximation whose implicit pin set is the most recently
// touched budget's worth of pages). The file is created with mkstemp and
// unlinked immediately, so the kernel reclaims it when the arena (or the
// process) goes away.
//
// Thread-safety contract: appends are single-threaded, and concurrent
// readers are only allowed while no append is in flight (a fork-join
// barrier between append and read phases is enough; the explorer itself
// reads and appends from one thread). Eviction therefore happens only on the
// append path and in prefetch_range(), whose caller must be the only
// reader. at() fault-ins are mutex-serialized and only ever ADD resident
// pages, and read() changes nothing, so a pointer a concurrent reader
// obtained stays valid for the rest of its read phase.
//
// This is deliberately NOT a general allocator: nothing is ever freed short
// of clear(), offsets are 64-bit and strictly increasing, and the only
// mutation after an append completes is further appends.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "util/check.hpp"

namespace anoncoord {

/// Out-of-core policy for a byte_arena. budget_bytes == 0 keeps every page
/// heap-resident (the classic in-memory arena); a nonzero budget bounds
/// resident page bytes, spilling the coldest sealed pages to a temp file
/// under `dir` ("" = $TMPDIR, falling back to /tmp).
struct arena_spill_options {
  std::uint64_t budget_bytes = 0;
  std::string dir;
};

/// Spill counters, all monotone except the resident gauges.
struct arena_spill_stats {
  std::uint64_t spilled_pages = 0;      // heap pages written to the file
  std::uint64_t spill_bytes = 0;        // bytes written to the file
  std::uint64_t faulted_pages = 0;      // cold pages mapped back in
  std::uint64_t evicted_pages = 0;      // mapped pages dropped again
  std::uint64_t point_reads = 0;        // read() calls served by the file
  std::uint64_t resident_bytes = 0;     // current resident page bytes
  std::uint64_t resident_hw_bytes = 0;  // high-water resident page bytes
};

class byte_arena {
 public:
  static constexpr int kPageBits = 16;  // 64 KiB pages by default
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageBits;

  byte_arena() = default;
  byte_arena(const byte_arena&) = delete;
  byte_arena& operator=(const byte_arena&) = delete;
  ~byte_arena() { release_backing(); }

  /// Reset to empty with the given page size and spill policy. Page bits are
  /// runtime-configurable so tests can exercise the spill machinery with tiny
  /// pages; production stays at kPageBits.
  void configure(int page_bits, const arena_spill_options& spill) {
    ANONCOORD_REQUIRE(page_bits >= 4 && page_bits <= 30,
                      "arena page bits out of range");
    clear();
    page_bits_ = page_bits;
    page_size_ = std::size_t{1} << page_bits;
    spill_ = spill;
  }

  int page_bits() const { return page_bits_; }
  std::size_t page_size() const { return page_size_; }
  bool spill_enabled() const { return spill_.budget_bytes != 0; }

  /// Copy `len` bytes in; returns the stable offset of the row. Rows never
  /// straddle pages, so `len` must fit one page.
  std::uint64_t append(const std::uint8_t* data, std::size_t len) {
    std::uint8_t* dst = reserve(len);
    std::memcpy(dst, data, len);
    return commit(len);
  }

  /// Reserve a contiguous span of up to `max_len` bytes for in-place
  /// encoding; pair with commit(actual_len <= max_len). The span stays
  /// private to the writer until commit() returns its offset. Advancing to a
  /// fresh page seals the previous one and may spill cold pages (append path
  /// only — see the thread-safety contract above).
  std::uint8_t* reserve(std::size_t max_len) {
    ANONCOORD_REQUIRE(max_len <= page_size_, "arena row larger than a page");
    std::size_t page = static_cast<std::size_t>(head_ >> page_bits_);
    const std::size_t off = static_cast<std::size_t>(head_) & (page_size_ - 1);
    if (off + max_len > page_size_)
      head_ = static_cast<std::uint64_t>(++page) << page_bits_;
    if (page >= pages_.size() || pages_[page] == nullptr ||
        pages_[page]->heap == nullptr)
      open_page(page);
    return pages_[page]->heap.get() +
           (static_cast<std::size_t>(head_) & (page_size_ - 1));
  }

  /// Finish the row started by reserve(); returns its offset.
  std::uint64_t commit(std::size_t len) {
    const std::uint64_t at = head_;
    head_ += len;
    return at;
  }

  /// Read pointer for a committed offset; faults the page back in if it was
  /// spilled. The pointer stays valid until the next append.
  const std::uint8_t* at(std::uint64_t offset) const {
    const std::size_t page = static_cast<std::size_t>(offset >> page_bits_);
    const page_rec* pr = pages_[page].get();
    ANONCOORD_REQUIRE(pr != nullptr, "arena read inside a pad_to hole");
    const std::uint8_t* p = pr->data.load(std::memory_order_acquire);
    if (p == nullptr) p = fault_in(page);
    return p + (static_cast<std::size_t>(offset) & (page_size_ - 1));
  }

  /// Bytes [offset, offset + len) of one page without changing residency:
  /// a pointer into the page if it is resident, else the bytes are copied
  /// out of the spill file into `cold`. Safe from concurrent readers.
  const std::uint8_t* read(std::uint64_t offset, std::size_t len,
                           std::vector<std::uint8_t>& cold) const {
    const std::size_t page = static_cast<std::size_t>(offset >> page_bits_);
    const page_rec* pr = pages_[page].get();
    ANONCOORD_REQUIRE(pr != nullptr, "arena read inside a pad_to hole");
    const auto in_page = static_cast<std::size_t>(offset) & (page_size_ - 1);
    if (const std::uint8_t* p = pr->data.load(std::memory_order_acquire))
      return p + in_page;
    ANONCOORD_REQUIRE(pr->on_disk && in_page + len <= page_size_,
                      "arena read of a page never written");
    cold.resize(len);
    for (std::size_t done = 0; done < len;) {
      const ::ssize_t r = ::pread(fd_, cold.data() + done, len - done,
                                  static_cast<::off_t>(offset + done));
      ANONCOORD_REQUIRE(r > 0, "arena spill read failed");
      done += static_cast<std::size_t>(r);
    }
    std::lock_guard lk(fault_mu_);
    ++stats_.point_reads;
    return cold.data();
  }

  /// Fault in every page overlapping byte offsets [lo, hi) (a scan's next
  /// window of contiguous rows). Under a spill budget each fault first
  /// evicts other sealed pages down to the budget, so a scan of any length
  /// stays within budget + the window. The caller must be the only reader:
  /// eviction invalidates other pages' pointers. Pad holes are skipped.
  void prefetch_range(std::uint64_t lo, std::uint64_t hi) const {
    if (!spill_enabled() || lo >= hi) return;
    const auto first = static_cast<std::size_t>(lo >> page_bits_);
    const auto last = static_cast<std::size_t>((hi - 1) >> page_bits_);
    for (std::size_t page = first; page <= last; ++page) {
      const page_rec* pr = pages_[page].get();
      if (pr == nullptr || pr->data.load(std::memory_order_acquire) != nullptr)
        continue;
      {
        std::lock_guard lk(fault_mu_);
        const std::uint64_t room = spill_.budget_bytes > page_size_
                                       ? spill_.budget_bytes - page_size_
                                       : 0;
        evict_down_to(room, first, last);
      }
      fault_in(page);
    }
  }

  /// Test hook: move the head past a hole so later appends land at large
  /// offsets without allocating the intervening pages. Hole bytes must never
  /// be read; offsets stay strictly increasing.
  void pad_to(std::uint64_t offset) {
    ANONCOORD_REQUIRE(offset >= head_, "pad_to may only move the head forward");
    head_ = offset;
  }

  /// Total footprint: committed bytes plus page-tail padding (spilled pages
  /// included — this is the arena's size, not its resident set).
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(allocated_pages_) * page_size_;
  }

  /// High-water offset (committed bytes including skipped page tails).
  std::uint64_t used() const { return head_; }

  arena_spill_stats spill_stats() const {
    std::lock_guard lk(fault_mu_);
    return stats_;
  }

  /// Enforce the resident budget now (normally driven by reserve()'s page
  /// advance). Append-path only: callers must guarantee no reader holds an
  /// arena pointer across this call.
  void spill_over_budget() {
    if (!spill_enabled()) return;
    std::lock_guard lk(fault_mu_);
    const std::size_t none = pages_.size();  // keep no page but the head
    evict_down_to(spill_.budget_bytes, none, none);
  }

  /// Empty the arena, dropping heap pages, mappings and the spill file but
  /// keeping the configured page size and spill policy.
  void clear() {
    release_backing();
    pages_.clear();
    head_ = 0;
    allocated_pages_ = 0;
    clock_ = 0;
    stats_ = arena_spill_stats{};
  }

 private:
  struct page_rec {
    // Readable span, null while the page is cold. Release-published by the
    // fault path; readers acquire-load so the mapping's bytes are visible.
    std::atomic<const std::uint8_t*> data{nullptr};
    std::unique_ptr<std::uint8_t[]> heap;  // owning buffer while heap-resident
    const std::uint8_t* map_base = nullptr;  // mmap base (system-page aligned)
    std::size_t map_len = 0;
    bool on_disk = false;  // the page's bytes live in the spill file
    bool ref = false;      // second-chance bit, set on fault
  };

  /// Allocate (or re-open after pad_to) the writable head page, sealing and
  /// possibly spilling everything before it.
  void open_page(std::size_t page) {
    if (page >= pages_.size()) pages_.resize(page + 1);
    ANONCOORD_REQUIRE(pages_[page] == nullptr,
                      "arena head page lost its heap buffer");
    auto pr = std::make_unique<page_rec>();
    pr->heap = std::make_unique<std::uint8_t[]>(page_size_);
    pr->data.store(pr->heap.get(), std::memory_order_release);
    pages_[page] = std::move(pr);
    ++allocated_pages_;
    {
      std::lock_guard lk(fault_mu_);
      stats_.resident_bytes += page_size_;
      if (stats_.resident_bytes > stats_.resident_hw_bytes)
        stats_.resident_hw_bytes = stats_.resident_bytes;
    }
    spill_over_budget();
  }

  /// Walk the clock hand over sealed resident pages until resident bytes
  /// are at most `target`, sparing the head page and pages [keep_lo,
  /// keep_hi]. Recently faulted pages (ref bit set) survive one pass — the
  /// "LRU pin set" keeping the hot working set resident. Caller holds
  /// fault_mu_.
  void evict_down_to(std::uint64_t target, std::size_t keep_lo,
                     std::size_t keep_hi) const {
    const std::size_t npages = pages_.size();
    const auto head_page = static_cast<std::size_t>(head_ >> page_bits_);
    // Two full sweeps suffice: the first clears every ref bit, the second
    // evicts. Bounded so an unmeetable budget (everything pinned) terminates.
    std::size_t examined = 0;
    while (stats_.resident_bytes > target && examined < 2 * npages) {
      if (clock_ >= npages) clock_ = 0;
      page_rec* pr = pages_[clock_].get();
      if (pr != nullptr && clock_ != head_page &&
          (clock_ < keep_lo || clock_ > keep_hi) &&
          pr->data.load(std::memory_order_relaxed) != nullptr) {
        if (pr->ref) {
          pr->ref = false;
        } else {
          evict(*pr, static_cast<std::uint64_t>(clock_) << page_bits_);
        }
      }
      ++clock_;
      ++examined;
    }
  }

  /// Drop one resident page: heap pages are written to the spill file first,
  /// mapped pages are simply unmapped (the file already holds their bytes).
  void evict(page_rec& pr, std::uint64_t file_off) const {
    if (pr.heap != nullptr) {
      ensure_file();
      const std::uint8_t* src = pr.heap.get();
      std::size_t done = 0;
      while (done < page_size_) {
        const ::ssize_t w = ::pwrite(fd_, src + done, page_size_ - done,
                                     static_cast<::off_t>(file_off + done));
        ANONCOORD_REQUIRE(w > 0, "arena spill write failed");
        done += static_cast<std::size_t>(w);
      }
      pr.heap.reset();
      pr.on_disk = true;
      ++stats_.spilled_pages;
      stats_.spill_bytes += page_size_;
    } else if (pr.map_base != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(pr.map_base), pr.map_len);
      pr.map_base = nullptr;
      pr.map_len = 0;
      ++stats_.evicted_pages;
    }
    pr.data.store(nullptr, std::memory_order_relaxed);
    stats_.resident_bytes -= page_size_;
  }

  /// Map a spilled page back in. Serialized by fault_mu_; safe against other
  /// concurrent readers because faulting only adds resident pages.
  const std::uint8_t* fault_in(std::size_t page) const {
    std::lock_guard lk(fault_mu_);
    page_rec& pr = *pages_[page];
    if (const std::uint8_t* p = pr.data.load(std::memory_order_relaxed)) {
      pr.ref = true;  // raced with another faulting reader; just touch it
      return p;
    }
    ANONCOORD_REQUIRE(pr.on_disk, "arena read of a page never written");
    // Arena pages can be smaller than a system page (tests use 64 B pages),
    // and mmap offsets must be system-page aligned: map from the aligned
    // floor and point past the slack.
    const std::uint64_t file_off = static_cast<std::uint64_t>(page)
                                   << page_bits_;
    const auto sys_page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t base = file_off & ~(sys_page - 1);
    const std::size_t len =
        static_cast<std::size_t>(file_off - base) + page_size_;
    void* m = ::mmap(nullptr, len, PROT_READ, MAP_SHARED, fd_,
                     static_cast<::off_t>(base));
    ANONCOORD_REQUIRE(m != MAP_FAILED, "mmap of spilled arena page failed");
    pr.map_base = static_cast<const std::uint8_t*>(m);
    pr.map_len = len;
    pr.ref = true;
    ++stats_.faulted_pages;
    stats_.resident_bytes += page_size_;
    if (stats_.resident_bytes > stats_.resident_hw_bytes)
      stats_.resident_hw_bytes = stats_.resident_bytes;
    const std::uint8_t* p = pr.map_base + (file_off - base);
    pr.data.store(p, std::memory_order_release);
    return p;
  }

  void ensure_file() const {
    if (fd_ >= 0) return;
    std::string dir = spill_.dir;
    if (dir.empty()) {
      const char* t = std::getenv("TMPDIR");
      dir = (t != nullptr && *t != '\0') ? t : "/tmp";
    }
    std::string tmpl = dir + "/anoncoord-arena-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    fd_ = ::mkstemp(buf.data());
    ANONCOORD_REQUIRE(fd_ >= 0, "cannot create arena spill file in " + dir);
    ::unlink(buf.data());  // anonymous: reclaimed when the fd closes
  }

  void release_backing() {
    for (auto& up : pages_) {
      if (up == nullptr) continue;
      if (up->map_base != nullptr)
        ::munmap(const_cast<std::uint8_t*>(up->map_base), up->map_len);
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int page_bits_ = kPageBits;
  std::size_t page_size_ = kPageSize;
  arena_spill_options spill_;
  // Null entries are pad_to holes. The vector only grows on the append path,
  // so readers never race a reallocation (see the thread-safety contract).
  std::vector<std::unique_ptr<page_rec>> pages_;
  std::uint64_t head_ = 0;
  std::size_t allocated_pages_ = 0;
  // prefetch_range() evicts from const readers, so the eviction hand and
  // the lazily created file are mutable like the fault-in state.
  mutable std::size_t clock_ = 0;  // eviction hand
  mutable int fd_ = -1;
  mutable std::mutex fault_mu_;
  mutable arena_spill_stats stats_;
};

}  // namespace anoncoord
