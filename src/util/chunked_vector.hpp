// Append-only sequence stored in fixed chunks of 64 Ki elements — the
// explorer's per-state records (parents, provenance, successor slots).
//
// A std::vector that grows by doubling holds up to twice its elements and
// copies all of them at every doubling; for records that grow with a state
// space of hundreds of thousands of states that slack is most of their
// resident memory. Here nothing is ever moved: an append writes at a cursor
// into the last chunk and bumps it, and a full chunk is followed by a fresh
// one. Allocated bytes are therefore size() * sizeof(T) plus at most one
// partly filled chunk, whose untouched tail is usually not yet resident.
// Reads are either indexed (a shift, a mask and two loads, for scattered
// lookups) or a forward const_iterator whose increment stays inside one
// chunk until it reaches the chunk's end (for scans).
//
// Elements must be trivially copyable: chunks are allocated uninitialized.
// clear() frees every chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace anoncoord {

template <class T>
class chunked_vector {
  static_assert(std::is_trivially_copyable_v<T>,
                "chunks are allocated uninitialized");

 public:
  static constexpr std::size_t kChunkShift = 16;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  /// Forward iteration in index order, chunk by chunk.
  class const_iterator {
   public:
    const T& operator*() const { return *p_; }
    const_iterator& operator++() {
      // Only the last chunk can end at the sequence's end, where p_ then
      // equals end()'s pointer; every other chunk is full.
      if (++p_ == chunk_end_ && next_ != last_) {
        p_ = next_->get();
        chunk_end_ = p_ + kChunkSize;
        ++next_;
      }
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.p_ == b.p_;
    }

   private:
    friend class chunked_vector;
    using chunk_ptr = const std::unique_ptr<T[]>*;
    const_iterator(const T* p, const T* chunk_end, chunk_ptr next,
                   chunk_ptr last)
        : p_(p), chunk_end_(chunk_end), next_(next), last_(last) {}

    const T* p_ = nullptr;
    const T* chunk_end_ = nullptr;
    chunk_ptr next_ = nullptr;  ///< the chunk after p_'s
    chunk_ptr last_ = nullptr;  ///< one past the last chunk
  };

  // Neither copyable nor movable: a defaulted move would leave the
  // source's cursor pointing into the chunks it gave away.
  chunked_vector() = default;
  chunked_vector(const chunked_vector&) = delete;
  chunked_vector& operator=(const chunked_vector&) = delete;

  void push_back(T v) {
    if (cur_ == end_) add_chunk();
    *cur_++ = v;
    ++size_;
  }

  std::size_t size() const { return size_; }

  const T& operator[](std::size_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

  const_iterator begin() const {
    if (chunks_.empty()) return end();
    const T* first = chunks_.front().get();
    return {first, first + kChunkSize, chunks_.data() + 1,
            chunks_.data() + chunks_.size()};
  }
  const_iterator end() const { return {cur_, nullptr, nullptr, nullptr}; }

  /// Frees every chunk.
  void clear() {
    chunks_.clear();
    cur_ = end_ = nullptr;
    size_ = 0;
  }

  /// Element bytes allocated: size() * sizeof(T) rounded up to whole chunks.
  std::uint64_t allocated_bytes() const {
    return static_cast<std::uint64_t>(chunks_.size()) * kChunkSize * sizeof(T);
  }

 private:
  void add_chunk() {
    chunks_.push_back(std::make_unique_for_overwrite<T[]>(kChunkSize));
    cur_ = chunks_.back().get();
    end_ = cur_ + kChunkSize;
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  T* cur_ = nullptr;  ///< next append slot in the last chunk
  T* end_ = nullptr;  ///< end of the last chunk
  std::size_t size_ = 0;
};

}  // namespace anoncoord
