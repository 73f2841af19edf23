// Naming: the anonymity layer.
//
// "From the point of view of the processes, the registers do not have global
//  names: the first register examined and the subsequent order in which
//  registers are scanned may be different for each process." (§1)
//
// A naming_assignment gives each process a private permutation of the
// physical register indices; naming_view applies one process's permutation so
// the algorithm's logical index j addresses physical register perm[j].
#pragma once

#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/permutation.hpp"
#include "util/rng.hpp"

namespace anoncoord {

/// How an adversary assigns per-process register numberings.
enum class naming_kind {
  identity,   ///< every process uses the same (physical) order — the *named* model
  rotation,   ///< process k's order is the ring rotated by k * stride (Thm 3.4)
  random,     ///< independent uniformly random permutation per process
};

std::string to_string(naming_kind kind);

/// One permutation per process. assignment[p][j] = physical index of process
/// p's j-th register.
class naming_assignment {
 public:
  naming_assignment() = default;
  naming_assignment(std::vector<permutation> perms);

  /// All processes share the identity numbering (the standard named model).
  static naming_assignment identity(int processes, int registers);
  /// Ring rotations at the given stride: process k gets rotation by k*stride.
  /// With stride = registers / l this is exactly the Theorem 3.4 placement.
  static naming_assignment rotations(int processes, int registers, int stride);
  /// Independent random permutations (seeded).
  static naming_assignment random(int processes, int registers,
                                  std::uint64_t seed);

  int processes() const { return static_cast<int>(perms_.size()); }
  int registers() const;
  const permutation& of(int process) const;

  friend bool operator==(const naming_assignment&,
                         const naming_assignment&) = default;

 private:
  std::vector<permutation> perms_;
};

/// Relabel the physical registers by `pi`: process p's logical index j now
/// denotes physical pi(perm_p(j)). Registers are anonymous, so the relabelled
/// assignment induces an isomorphic execution graph — same verdicts, same
/// state and edge counts (the orbit-equivalence test proves this per config).
naming_assignment apply_global_permutation(const naming_assignment& naming,
                                           const permutation& pi);

/// The canonical representative of `naming`'s orbit under the m!-fold global
/// register-permutation action: relabel by inverse(perm_0) so process 0's
/// numbering becomes the identity. Two assignments are in the same orbit iff
/// their canonical forms are equal (the action is free: pi is recovered from
/// any one process's numbering, so each orbit has exactly m! members).
naming_assignment canonical_naming(const naming_assignment& naming);

/// Every naming assignment for (processes, registers): (m!)^n tuples in
/// odometer order (process 0 slowest), each slot in all_permutations order.
/// Exhaustive sweeps only — the count is REQUIREd to stay small.
std::vector<naming_assignment> all_naming_assignments(int processes,
                                                      int registers);

/// One representative per orbit of the global-permutation action: the
/// (m!)^(n-1) assignments whose process-0 numbering is the identity, in the
/// same odometer order over the remaining processes. Sweeping these covers
/// every naming up to register relabelling at 1/m! of the configs.
std::vector<naming_assignment> naming_orbit_representatives(int processes,
                                                            int registers);

/// Orbit size of the free global-permutation action: m!. Fails fast (clear
/// precondition error) for m > 20, where m! overflows the 64-bit counter.
std::uint64_t naming_orbit_size(int registers);

/// Canonical representative of `naming`'s orbit under the COMBINED action of
/// global register relabeling and process permutation: the minimum, over all
/// process reorderings, of the register-canonical form (process 0 relabeled
/// to the identity), compared by the refined cycle-structure order of
/// canonical_cycle_key (minimal rotation per cycle, one-line form as the
/// final tie-break). Polynomial — n! * O(n m) candidates, never m! conjugate
/// scans. Folding namings across process permutations is only sound for
/// process-symmetric machines and predicates; see naming_orbit_classes.
naming_assignment canonical_naming_symmetric(const naming_assignment& naming);

/// An orbit-class representative plus the number of process-0-identity
/// representatives (see naming_orbit_representatives) it stands for.
struct weighted_naming {
  naming_assignment naming;
  std::uint64_t weight = 0;
};

/// One representative per orbit of the combined register-relabeling x
/// process-permutation action, in first-encounter order of the underlying
/// representative enumeration. Weights sum to (m!)^(n-1) — the
/// representative count — so weight * m! counts full naming tuples per
/// class. Sound as a sweep reduction ONLY when machines and predicate are
/// process-symmetric (the verify_options::symmetry contract): permuting
/// which process holds which numbering must not change the verdict.
std::vector<weighted_naming> naming_orbit_classes(int processes,
                                                  int registers);

/// Applies one process's numbering over any register file.
/// Mem must provide read(int)/write(int, V)/size().
template <class Mem>
class naming_view {
 public:
  using value_type = typename Mem::value_type;

  naming_view(Mem& mem, permutation perm)
      : mem_(&mem), perm_(std::move(perm)) {
    ANONCOORD_REQUIRE(static_cast<int>(perm_.size()) == mem.size(),
                      "permutation size must match register file size");
    ANONCOORD_REQUIRE(is_permutation_of_iota(perm_),
                      "naming must be a permutation of register indices");
  }

  int size() const { return static_cast<int>(perm_.size()); }

  value_type read(int logical) const { return mem_->read(physical(logical)); }

  void write(int logical, value_type v) {
    mem_->write(physical(logical), std::move(v));
  }

  /// Forwarded atomic conditional write, present exactly when the
  /// underlying file has one (shared_register_file on word payloads).
  bool cas(int logical, value_type expected, value_type desired)
    requires requires(Mem& m, int j, value_type v) {
      { m.cas(j, v, v) } -> std::convertible_to<bool>;
    }
  {
    return mem_->cas(physical(logical), std::move(expected),
                     std::move(desired));
  }

  /// The physical register this process's logical index j denotes.
  int physical(int logical) const {
    ANONCOORD_REQUIRE(logical >= 0 && logical < size(),
                      "logical register index out of range");
    return perm_[static_cast<std::size_t>(logical)];
  }

  const permutation& perm() const { return perm_; }

 private:
  Mem* mem_;
  permutation perm_;
};

}  // namespace anoncoord
