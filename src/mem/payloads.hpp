// Register payload types.
//
// The paper's registers hold, depending on the algorithm:
//   - Fig. 1 (mutex):      a process identifier or 0            -> uint64_t
//   - Fig. 2 (consensus):  a record (id, val)                   -> consensus_record
//   - Fig. 3 (renaming):   a record (id, val, round, history)   -> renaming_record
//
// The paper's remark (§4.1) notes the record fields are "for convenience":
// each record is morally a single value written/read atomically. Payload
// types are regular value types (copyable, equality-comparable, hashable)
// so the same values flow through the threaded register file, the
// deterministic simulator and the model checker.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace anoncoord {

/// Process identifiers are positive integers (paper §2); 0 is the reserved
/// "empty register" initial value.
using process_id = std::uint64_t;
inline constexpr process_id no_process = 0;

// ---------------------------------------------------------------------------
// Fig. 2 payload.
// ---------------------------------------------------------------------------

/// One consensus register: the id of the last writer and its preference.
/// Default-constructed == the paper's initial value (all fields 0).
struct consensus_record {
  process_id id = no_process;
  std::uint64_t val = 0;

  friend bool operator==(const consensus_record&,
                         const consensus_record&) = default;

  friend std::ostream& operator<<(std::ostream& os, const consensus_record& r) {
    return os << "(" << r.id << "," << r.val << ")";
  }
};

// ---------------------------------------------------------------------------
// Fig. 3 payload.
// ---------------------------------------------------------------------------

/// An election outcome recorded in a register's history: process `id` was
/// elected leader of round `round` (and will take `round` as its new name).
struct election_entry {
  process_id id = no_process;
  std::uint32_t round = 0;

  friend bool operator==(const election_entry&, const election_entry&) = default;
  friend auto operator<=>(const election_entry&, const election_entry&) = default;
};

/// The history field: a set of (id, round) pairs kept as a sorted,
/// duplicate-free vector so records compare and hash canonically.
class election_history {
 public:
  election_history() = default;

  void insert(election_entry e);
  bool contains_id(process_id id) const;
  /// Round in which `id` was elected, or 0 if absent.
  std::uint32_t round_of(process_id id) const;
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<election_entry>& entries() const { return entries_; }

  friend bool operator==(const election_history&,
                         const election_history&) = default;

 private:
  std::vector<election_entry> entries_;
};

inline void election_history::insert(election_entry e) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), e);
  if (it != entries_.end() && *it == e) return;
  entries_.insert(it, e);
}

inline bool election_history::contains_id(process_id id) const {
  for (const auto& e : entries_)
    if (e.id == id) return true;
  return false;
}

inline std::uint32_t election_history::round_of(process_id id) const {
  for (const auto& e : entries_)
    if (e.id == id) return e.round;
  return 0;
}

/// One renaming register (Fig. 3): (id, val, round, history).
/// Default-constructed == the paper's initial value (0, 0, 0, ∅).
struct renaming_record {
  process_id id = no_process;
  std::uint64_t val = 0;
  std::uint32_t round = 0;
  election_history history;

  friend bool operator==(const renaming_record&,
                         const renaming_record&) = default;

  friend std::ostream& operator<<(std::ostream& os, const renaming_record& r) {
    os << "(" << r.id << "," << r.val << "," << r.round << ",{";
    bool first = true;
    for (const auto& e : r.history.entries()) {
      if (!first) os << " ";
      os << e.id << ":" << e.round;
      first = false;
    }
    return os << "})";
  }
};

// ---------------------------------------------------------------------------
// Hashing and "empty" predicates.
// ---------------------------------------------------------------------------

inline std::size_t hash_value(const consensus_record& r) {
  std::size_t seed = 0xc0115e1157;
  hash_combine(seed, r.id);
  hash_combine(seed, r.val);
  return seed;
}

inline std::size_t hash_value(const renaming_record& r) {
  std::size_t seed = 0x7e1a111117;
  hash_combine(seed, r.id);
  hash_combine(seed, r.val);
  hash_combine(seed, r.round);
  for (const auto& e : r.history.entries()) {
    hash_combine(seed, e.id);
    hash_combine(seed, e.round);
  }
  return seed;
}

/// True iff the register still holds its initial value.
inline bool is_initial(std::uint64_t v) { return v == 0; }
inline bool is_initial(const consensus_record& r) {
  return r == consensus_record{};
}
inline bool is_initial(const renaming_record& r) {
  return r == renaming_record{};
}

}  // namespace anoncoord
