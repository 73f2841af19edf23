// Symmetry reduction for the explicit-state engines.
//
// Which symmetries are sound here is subtler than "registers are anonymous".
// Within ONE exploration the naming assignment is FIXED: permuting register
// contents alone changes what each process reads next, so the sound state
// symmetries are the automorphisms of the configuration. The group depends
// on how much structure the machine type exposes; there are two regimes.
//
// 1. Process-symmetric machines (the paper's §2 model: identical code,
//    identifiers compared only for equality — anon_mutex, anon_consensus):
//
//      G = { (sigma, pi) :  pi o perm_p = perm_sigma(p)  for every p }
//
//    — a process permutation sigma together with the physical register
//    permutation pi it induces, applied with the consistent identifier
//    renaming rho(id_p) = id_sigma(p):
//
//      phi(regs, procs):  regs'[pi(r)] = rho(regs[r]),
//                         procs'[sigma(p)] = rho(procs[p])
//
//    commutes with every step: phi(step_p(s)) = step_sigma(p)(phi(s)).
//    Proof sketch: process sigma(p)'s logical index j hits physical
//    perm_sigma(p)(j) = pi(perm_p(j)), whose content in phi(s) is rho of
//    what p reads at logical j in s; a renamed machine reading renamed
//    values behaves identically up to the renaming. Since pi is determined
//    by sigma (via process 0's numbering), |G| <= n!: identity naming gives
//    the full n!, the Theorem 3.1 even-m ring at stride m/2 gives a
//    2-element group, and generic namings give the trivial group.
//
// 2. Fully anonymous machines (arXiv 1909.05576: no identifiers at all, no
//    equality-on-self — fa_mutex, fa_agreement). pi no longer needs to
//    REPRODUCE each process's numbering, only to respect it up to a ring
//    rotation, because a fully anonymous machine's index-valued state lives
//    on a ring and can itself be rotated (the reindexed() hook):
//
//      G = { (sigma, pi) :  lambda_p := perm_sigma(p)^-1 o pi o perm_p
//                           is a rotation, for every p }
//
//      phi(regs, procs):  regs'[pi(r)] = regs[r]          (no renaming),
//                         procs'[sigma(p)] = procs[p].reindexed(d_p)
//                                            where lambda_p = rot_{d_p}.
//
//    Commutation: process sigma(p) at cursor lambda_p(c) hits physical
//    perm_sigma(p)(lambda_p(c)) = pi(perm_p(c)) — the pi-image of what p
//    touches at cursor c — and a rotated machine reading the same values
//    behaves identically with its cursor rotated (the machine's contract:
//    pass counters and tallies are rotation-invariant, cursors only ever
//    advance mod m). This is the full product group S_n x C_m when every
//    lambda_p lands in the rotation subgroup — identity and all rotation
//    namings give |G| = n! * m, STRICTLY beyond the n! ceiling of regime 1.
//    The commutation itself is machine-checked exhaustively in
//    tests/fully_anonymous_test.cpp.
//
// Either way, deduplicating states by their orbit representative under G
// preserves reachability, edge structure on the quotient, and every
// G-invariant predicate ("two processes in the CS", "someone decided", ...).
// The remaining m!-fold register anonymity lives at the CONFIG level — see
// naming_orbit_representatives in mem/naming.hpp, which cuts full naming
// sweeps by m!.
//
// Soundness requirements, enforced or opted into:
//   * the machine type models process_symmetric_machine or
//     fully_anonymous_machine (below) — types with neither trait always get
//     the trivial group, so turning symmetry on is a no-op for them rather
//     than a wrong answer;
//   * for process-symmetric machines, initial identifiers are distinct
//     (else: trivial group);
//   * the caller's predicates must be invariant under the group action
//     (process permutation + id renaming, resp. + register permutation).
//     This is an opt-in contract (options.symmetry), not something the
//     engine can check.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/state_pool.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/permutation.hpp"

namespace anoncoord {

/// A no-op identifier renaming, used by the trait below to probe for the
/// `renamed(fn)` API without a lambda in the requires-expression.
struct identity_renaming {
  template <class V>
  V operator()(const V& v) const {
    return v;
  }
};

/// A machine opts into process-permutation symmetry by providing
///   * id()            — the identifier it writes into registers;
///   * renamed(fn)     — a copy with every stored identifier mapped by fn;
///   * canonical_less  — a strict total order consistent with == (ignoring
///                       whatever == ignores, e.g. observational counters),
/// and by honouring the paper's symmetric-algorithm contract: behaviour may
/// depend on identifiers only through equality comparisons, so a consistent
/// renaming commutes with step(). The engines cannot verify the contract;
/// the trait is the opt-in.
template <class M>
concept process_symmetric_machine =
    std::totally_ordered<typename M::value_type> &&
    requires(const M m, identity_renaming fn) {
      { m.id() } -> std::convertible_to<typename M::value_type>;
      { m.renamed(fn) } -> std::same_as<M>;
      { canonical_less(m, m) } -> std::same_as<bool>;
    };

/// A machine opts into the full S_n x C_m product symmetry by carrying NO
/// identifier (there is nothing to rename; register values move unchanged)
/// and providing
///   * reindexed(d)    — a copy with its logical index space rotated by d
///                       mod m (cursors shifted; counts/tallies untouched);
///   * canonical_less  — a strict total order consistent with ==,
/// and by honouring the fully anonymous contract (arXiv 1909.05576): the
/// program must be oblivious to absolute register positions, i.e. step()
/// commutes with a uniform ring rotation of the logical indices. As with
/// process symmetry, the engines cannot verify the contract — but
/// tests/fully_anonymous_test.cpp machine-checks the commutation for the
/// shipped machines at small sizes.
template <class M>
concept fully_anonymous_machine =
    std::totally_ordered<typename M::value_type> &&
    requires(const M m, int d) {
      { m.reindexed(d) } -> std::same_as<M>;
      { canonical_less(m, m) } -> std::same_as<bool>;
    } &&
    !requires(const M m) { m.id(); };

/// Machine types with some non-trivial automorphism group available.
template <class M>
concept symmetry_reducible_machine =
    process_symmetric_machine<M> || fully_anonymous_machine<M>;

/// True iff the initial machine tuple is invariant, up to identifier
/// renaming, under EVERY process permutation — the precondition for folding
/// naming assignments across process permutations (naming_orbit_classes):
/// there, unlike in-run symmetry reduction, the group is all of S_n, so the
/// machines themselves must be copies of one program differing only in id.
/// Transpositions generate S_n, so checking each swapped pair suffices.
/// Always false for machine types with neither symmetry opt-in, and for
/// process-symmetric tuples with duplicate ids (renaming is ill-defined).
/// Fully anonymous machines carry nothing to rename: the tuple is
/// S_n-invariant exactly when the machines are pairwise equal (e.g. mutex
/// processes always; agreement processes only when their inputs coincide).
template <class Machine>
bool process_interchangeable_initial(const std::vector<Machine>& initial) {
  if constexpr (fully_anonymous_machine<Machine>) {
    for (std::size_t i = 1; i < initial.size(); ++i)
      if (canonical_less(initial[0], initial[i]) ||
          canonical_less(initial[i], initial[0]))
        return false;
    return true;
  } else if constexpr (!process_symmetric_machine<Machine>) {
    return false;
  } else {
    using value_type = typename Machine::value_type;
    const int n = static_cast<int>(initial.size());
    std::vector<value_type> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (const Machine& mch : initial) ids.push_back(mch.id());
    const auto eq = [](const Machine& a, const Machine& b) {
      return !canonical_less(a, b) && !canonical_less(b, a);
    };
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const value_type a = ids[static_cast<std::size_t>(i)];
        const value_type b = ids[static_cast<std::size_t>(j)];
        if (a == b) return false;
        const auto swap_ids = [&](const value_type& v) -> value_type {
          if (v == a) return b;
          if (v == b) return a;
          return v;
        };
        if (!eq(initial[static_cast<std::size_t>(i)].renamed(swap_ids),
                initial[static_cast<std::size_t>(j)]) ||
            !eq(initial[static_cast<std::size_t>(j)].renamed(swap_ids),
                initial[static_cast<std::size_t>(i)]))
          return false;
      }
    }
    return true;
  }
}

/// Prune-effectiveness counters for canonicalization. In the packed kernel
/// a candidate can be rejected on its first word (first_word_pruned),
/// rejected after materializing only a longest common prefix of rank words
/// (prefix_pruned), or fully materialized (full_applies: it won or tied).
/// A candidate is one non-identity element, except where the kernel sorts
/// prefix classes (packed_canonicalizer::sorts_classes): there it is one
/// class, pruned on its value prefix or sorted and compared. The
/// object-domain orbit_min prunes nothing: every element is a full apply.
struct canonicalize_stats {
  std::uint64_t full_applies = 0;
  std::uint64_t first_word_pruned = 0;
  std::uint64_t prefix_pruned = 0;

  void merge(const canonicalize_stats& o) {
    full_applies += o.full_applies;
    first_word_pruned += o.first_word_pruned;
    prefix_pruned += o.prefix_pruned;
  }
};

/// The automorphism group of a (naming, initial machines) configuration,
/// with orbit canonicalization over (register vector, machine vector) pairs.
template <class Machine>
class symmetry_group {
 public:
  using value_type = typename Machine::value_type;

  struct element {
    std::vector<int> sigma;      ///< process map: p acts as sigma[p]
    std::vector<int> sigma_inv;  ///< inverse process map
    permutation pi;              ///< induced physical register map
    permutation pi_inv;          ///< inverse register map
    /// Identifier renaming rho as parallel arrays (ids are few; linear scan
    /// beats a map); values outside the id set are fixed points.
    std::vector<value_type> rename_from, rename_to;
    /// Fully anonymous machines only: per ORIGINAL process p, the rotation
    /// amount d_p with perm_sigma(p)^-1 o pi o perm_p = rot_{d_p}; process
    /// p's machine moves to slot sigma[p] reindexed by d_p. Empty for
    /// process-symmetric machines (their pi reproduces numberings exactly).
    std::vector<int> shift;

    value_type rename(const value_type& v) const {
      for (std::size_t i = 0; i < rename_from.size(); ++i)
        if (rename_from[i] == v) return rename_to[i];
      return v;
    }
  };

  /// The identity-only group (the default when symmetry is off, the machine
  /// type is not process-symmetric, or ids collide).
  static symmetry_group trivial(int processes, int registers) {
    symmetry_group g;
    element e;
    e.sigma.resize(static_cast<std::size_t>(processes));
    std::iota(e.sigma.begin(), e.sigma.end(), 0);
    e.sigma_inv = e.sigma;
    e.pi = identity_permutation(registers);
    e.pi_inv = e.pi;
    g.elements_.push_back(std::move(e));
    return g;
  }

  /// Enumerate G for a configuration. Process-symmetric machines: each
  /// candidate sigma forces pi = perm_sigma(0) o perm_0^-1; sigma is in G
  /// iff that pi matches every other process too. Fully anonymous machines:
  /// each (sigma, d0) pair forces pi = perm_sigma(0) o rot_d0 o perm_0^-1;
  /// the pair is in G iff every other process's induced lambda_p is also a
  /// rotation. Identity is always element 0.
  static symmetry_group compute(const naming_assignment& naming,
                                const std::vector<Machine>& initial) {
    const int n = naming.processes();
    const int m = naming.registers();
    if constexpr (fully_anonymous_machine<Machine>) {
      ANONCOORD_REQUIRE(n == static_cast<int>(initial.size()),
                        "naming assignment and machine count disagree");
      ANONCOORD_REQUIRE(n <= 8, "symmetry group enumeration caps at n = 8");
      symmetry_group g;
      std::vector<permutation> inv_perm;
      inv_perm.reserve(static_cast<std::size_t>(n));
      for (int p = 0; p < n; ++p)
        inv_perm.push_back(inverse_permutation(naming.of(p)));
      std::vector<int> sigma(static_cast<std::size_t>(n));
      std::iota(sigma.begin(), sigma.end(), 0);
      do {
        for (int d0 = 0; d0 < m; ++d0) {
          const permutation pi = compose_permutations(
              naming.of(sigma[0]),
              compose_permutations(rotation_permutation(m, d0),
                                   inv_perm[0]));
          element e;
          e.shift.assign(static_cast<std::size_t>(n), 0);
          e.shift[0] = d0;
          bool ok = true;
          for (int p = 1; p < n && ok; ++p) {
            const permutation lambda = compose_permutations(
                inv_perm[static_cast<std::size_t>(
                    sigma[static_cast<std::size_t>(p)])],
                compose_permutations(pi, naming.of(p)));
            const int d = lambda[0];
            ok = lambda == rotation_permutation(m, d);
            e.shift[static_cast<std::size_t>(p)] = d;
          }
          if (!ok) continue;
          e.sigma = sigma;
          e.sigma_inv.assign(static_cast<std::size_t>(n), 0);
          for (int p = 0; p < n; ++p)
            e.sigma_inv[static_cast<std::size_t>(
                sigma[static_cast<std::size_t>(p)])] = p;
          e.pi = pi;
          e.pi_inv = inverse_permutation(pi);
          g.elements_.push_back(std::move(e));
        }
      } while (std::next_permutation(sigma.begin(), sigma.end()));
      // Identity first: sigma iterates from the identity permutation and
      // d0 = 0 makes pi the identity, so element 0 is always (id, id).
      return g;
    } else if constexpr (!process_symmetric_machine<Machine>) {
      (void)initial;
      return trivial(n, m);
    } else {
      ANONCOORD_REQUIRE(n == static_cast<int>(initial.size()),
                        "naming assignment and machine count disagree");
      ANONCOORD_REQUIRE(n <= 8, "symmetry group enumeration caps at n = 8");
      std::vector<value_type> ids;
      ids.reserve(static_cast<std::size_t>(n));
      for (const Machine& p : initial) ids.push_back(p.id());
      for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
          if (ids[static_cast<std::size_t>(i)] ==
              ids[static_cast<std::size_t>(j)])
            return trivial(n, m);  // renaming ill-defined on duplicate ids
      const permutation inv0 = inverse_permutation(naming.of(0));
      symmetry_group g;
      std::vector<int> sigma(static_cast<std::size_t>(n));
      std::iota(sigma.begin(), sigma.end(), 0);
      do {
        const permutation pi =
            compose_permutations(naming.of(sigma[0]), inv0);
        bool ok = true;
        for (int p = 1; p < n && ok; ++p)
          ok = compose_permutations(pi, naming.of(p)) ==
               naming.of(sigma[static_cast<std::size_t>(p)]);
        if (!ok) continue;
        element e;
        e.sigma = sigma;
        e.sigma_inv.assign(static_cast<std::size_t>(n), 0);
        for (int p = 0; p < n; ++p)
          e.sigma_inv[static_cast<std::size_t>(sigma[static_cast<std::size_t>(p)])] = p;
        e.pi = pi;
        e.pi_inv = inverse_permutation(pi);
        for (int p = 0; p < n; ++p) {
          e.rename_from.push_back(ids[static_cast<std::size_t>(p)]);
          e.rename_to.push_back(
              ids[static_cast<std::size_t>(sigma[static_cast<std::size_t>(p)])]);
        }
        g.elements_.push_back(std::move(e));
      } while (std::next_permutation(sigma.begin(), sigma.end()));
      return g;
    }
  }

  int size() const { return static_cast<int>(elements_.size()); }
  bool is_trivial() const { return elements_.size() == 1; }
  const element& at(int i) const {
    return elements_[static_cast<std::size_t>(i)];
  }

  /// phi_e applied to (regs, procs), written into (out_regs, out_procs).
  /// The out buffers are index-assigned once sized (machines are not
  /// default-constructible in general, so sizing falls back to push_back on
  /// the first call only) — steady-state this rebuilds in place with no
  /// clear()+push_back churn and no per-call heap growth.
  void apply(const element& e, const std::vector<value_type>& regs,
             const std::vector<Machine>& procs,
             std::vector<value_type>& out_regs,
             std::vector<Machine>& out_procs) const {
    if constexpr (fully_anonymous_machine<Machine>) {
      out_regs.resize(regs.size());
      for (std::size_t r = 0; r < regs.size(); ++r)
        out_regs[r] = regs[static_cast<std::size_t>(e.pi_inv[r])];
      if (out_procs.size() == procs.size()) {
        for (std::size_t q = 0; q < procs.size(); ++q) {
          const auto p = static_cast<std::size_t>(e.sigma_inv[q]);
          out_procs[q] = procs[p].reindexed(e.shift[p]);
        }
      } else {
        out_procs.clear();
        out_procs.reserve(procs.size());
        for (std::size_t q = 0; q < procs.size(); ++q) {
          const auto p = static_cast<std::size_t>(e.sigma_inv[q]);
          out_procs.push_back(procs[p].reindexed(e.shift[p]));
        }
      }
    } else if constexpr (process_symmetric_machine<Machine>) {
      const renamer rho{&e};
      out_regs.resize(regs.size());
      for (std::size_t r = 0; r < regs.size(); ++r)
        out_regs[r] = e.rename(regs[static_cast<std::size_t>(e.pi_inv[r])]);
      if (out_procs.size() == procs.size()) {
        for (std::size_t q = 0; q < procs.size(); ++q)
          out_procs[q] =
              procs[static_cast<std::size_t>(e.sigma_inv[q])].renamed(rho);
      } else {
        out_procs.clear();
        out_procs.reserve(procs.size());
        for (std::size_t q = 0; q < procs.size(); ++q)
          out_procs.push_back(
              procs[static_cast<std::size_t>(e.sigma_inv[q])].renamed(rho));
      }
    } else {
      out_regs = regs;
      out_procs = procs;
    }
  }

  /// The orbit minimum by brute force: replace (regs, procs) with the
  /// lexicographically least image over every group element (registers by
  /// `<`, then machines by canonical_less), ties going to the lowest element
  /// index. Returns that index (0 when the state was already minimal) — the
  /// explorers fold these into the sigma-chain that maps quotient schedules
  /// back to concrete ones. Every non-identity element is applied, so it
  /// counts |G| - 1 full_applies. This is the one object-domain orbit
  /// minimum: the explorer's initial state, the reference oracle and the
  /// packed kernel's differential tests all call it.
  int orbit_min(std::vector<value_type>& regs, std::vector<Machine>& procs,
                canonicalize_stats* stats = nullptr) const {
    if (elements_.size() <= 1) return 0;
    const std::vector<value_type> orig_regs = regs;
    const std::vector<Machine> orig_procs = procs;
    std::vector<value_type> img_regs;
    std::vector<Machine> img_procs;
    int best = 0;
    for (int ei = 1; ei < size(); ++ei) {
      apply(elements_[static_cast<std::size_t>(ei)], orig_regs, orig_procs,
            img_regs, img_procs);
      if (stats != nullptr) ++stats->full_applies;
      if (state_less(img_regs, img_procs, regs, procs)) {
        regs.swap(img_regs);
        procs.swap(img_procs);
        best = ei;
      }
    }
    return best;
  }

 private:
  struct renamer {
    const element* e;
    value_type operator()(const value_type& v) const { return e->rename(v); }
  };

  static bool state_less(const std::vector<value_type>& ar,
                         const std::vector<Machine>& ap,
                         const std::vector<value_type>& br,
                         const std::vector<Machine>& bp) {
    if constexpr (symmetry_reducible_machine<Machine>) {
      for (std::size_t i = 0; i < ar.size(); ++i) {
        if (ar[i] < br[i]) return true;
        if (br[i] < ar[i]) return false;
      }
      for (std::size_t i = 0; i < ap.size(); ++i) {
        if (canonical_less(ap[i], bp[i])) return true;
        if (canonical_less(bp[i], ap[i])) return false;
      }
    }
    return false;
  }

  std::vector<element> elements_;
};

/// Per-caller scratch rows for packed_canonicalizer::canonicalize_row — one
/// per worker, so the shared kernel itself stays stateless on the hot path.
struct packed_canonical_scratch {
  std::vector<std::uint32_t> orig;  ///< the pre-canonical row (images read it)
  std::vector<std::uint32_t> tmp;   ///< candidate image assembly buffer
};

/// The packed-word canonicalization kernel: symmetry_group::orbit_min
/// rebuilt to run on interned-id rows instead of reconstructed states.
///
/// Interning is injective and each group element's action on a component is
/// a pure function of that component, so every element induces a memoizable
/// id -> id map per domain: value ids through element::rename (identity for
/// fully anonymous machines, whose register values move unrenamed) and
/// machine ids through renamed(rho) — or, fully anonymous, reindexed(d),
/// where the memo is keyed by the shift amount d and shared by every element
/// rotating by d. With the maps warm, applying an element to a packed row is
/// a u32 gather `out[r] = memo_e[row[pi_inv[r]]]` — no Machine construction,
/// no rename scans, no heap traffic.
///
/// Soundness of the row compare: pool ids are insertion-ordered, not
/// value-ordered, so the kernel compares words through id_rank_snapshot
/// (state_pool.hpp) rank tables, which are order-isomorphic to the object
/// orders (`<` on values, canonical_less on machines) for every covered id.
/// Equal ids are equal components (injective interning); ids the snapshot
/// does not cover yet (interned since the last rebuild) fall back to the
/// object-domain compare, which is the ground truth — snapshots only ever
/// buy speed. The element scan is ascending with a strict-less swap, exactly
/// orbit_min's discipline, so the returned element index (the tie-break the
/// sigma-chain counterexample fold-back depends on) is IDENTICAL to
/// orbit_min's: the packed-vs-object differential tests pin both the image
/// row and the index.
///
/// Unlike orbit_min, the scan prunes: a candidate is abandoned at its first
/// losing rank word, having materialized only the tied prefix.
///
/// Fully anonymous groups mostly skip the element scan. Values move
/// unrenamed, so the elements sharing one register map pi_inv and one shift
/// vector (a prefix class) share one value-word image, and their machine
/// words are the same n per-process images memo[shift[p]][row[m + p]] in
/// sigma's order. When every class holds all n! sigmas (identity namings,
/// also under a global register relabeling), the class minimum is those n
/// images sorted: the kernel compares each class's value prefix once,
/// sorts the survivors' images and compares the sorted row — O(m·n log n)
/// per row instead of O(n!·m). Other groups (rotation namings, the
/// process-symmetric regime) scan elements.
///
/// Sharing: one kernel per engine, attached to the engine's group and pool.
/// Memo fills race benignly (deterministic interning), rank rebuilds are
/// quiescent-only (between the explorer's windows, before a fork), and
/// canonicalize_row is safe from any number of workers given per-worker
/// scratch.
template <class Machine>
class packed_canonicalizer {
 public:
  using value_type = typename Machine::value_type;
  using element = typename symmetry_group<Machine>::element;

  /// Bind to an engine's group and pools; resets every memo and snapshot
  /// (the pools' id spaces restart when the engine resets).
  void attach(const symmetry_group<Machine>* group, state_pool<Machine>* pool,
              int registers, int processes) {
    group_ = group;
    pool_ = pool;
    m_ = static_cast<std::size_t>(registers);
    n_ = static_cast<std::size_t>(processes);
    value_ranks_.reset();
    machine_ranks_.reset();
    classes_.clear();
    class_elems_.clear();
    if constexpr (fully_anonymous_machine<Machine>) {
      // Machine memos keyed by rotation amount, shared across elements.
      memo_count_ = static_cast<std::size_t>(registers);
      value_memos_.reset();
      machine_memos_ = std::make_unique<id_memo_table[]>(memo_count_);
      build_classes();
    } else if constexpr (process_symmetric_machine<Machine>) {
      memo_count_ = static_cast<std::size_t>(group_->size());
      value_memos_ = std::make_unique<id_memo_table[]>(memo_count_);
      machine_memos_ = std::make_unique<id_memo_table[]>(memo_count_);
    }
  }

  /// True when the rank snapshots cover less than 7/8 of either pool —
  /// the engines rebuild at their next quiescent point. Uncovered ids stay
  /// correct through the object-domain fallback; this only bounds how much
  /// of the compare runs at rank speed.
  bool ranks_stale() const {
    return value_ranks_.covered() * 8 < pool_->num_values() * 7 ||
           machine_ranks_.covered() * 8 < pool_->num_machines() * 7;
  }

  /// Rebuild both rank snapshots. QUIESCENT ONLY: the explorer calls it on
  /// its calling thread between windows (after the join, before the next
  /// fork).
  void refresh_ranks() {
    if constexpr (symmetry_reducible_machine<Machine>) {
      value_ranks_.rebuild(
          [this](auto&& fn) { pool_->for_each_value_id(fn); },
          [this](std::uint32_t a, std::uint32_t b) {
            return pool_->value(a) < pool_->value(b);
          });
      machine_ranks_.rebuild(
          [this](auto&& fn) { pool_->for_each_machine_id(fn); },
          [this](std::uint32_t a, std::uint32_t b) {
            return canonical_less(pool_->machine(a), pool_->machine(b));
          });
    }
  }
  void maybe_refresh_ranks() {
    if (ranks_stale()) refresh_ranks();
  }

  /// Replace `row` (m value words then n machine words) with the
  /// lexicographically least image in its orbit; returns the canonicalizing
  /// element index — bit-identical to symmetry_group::orbit_min on the
  /// reconstructed state. Full-class fully anonymous groups sort
  /// (sort_classes); every other group scans its elements here, one stat
  /// per element.
  int canonicalize_row(std::uint32_t* row, packed_canonical_scratch& scratch,
                       canonicalize_stats& stats) {
    if constexpr (symmetry_reducible_machine<Machine>) {
      const int gsize = group_->size();
      if (gsize <= 1) return 0;
      const std::size_t stride = m_ + n_;
      scratch.orig.assign(row, row + stride);
      if constexpr (fully_anonymous_machine<Machine>) {
        if (sorts_classes())
          return sort_classes(row, scratch.orig.data(), stats);
      }
      scratch.tmp.resize(stride);
      const std::uint32_t* orig = scratch.orig.data();
      std::uint32_t* tmp = scratch.tmp.data();
      int best = 0;
      for (int ei = 1; ei < gsize; ++ei) {
        const element& e = group_->at(ei);
        std::size_t r = 0;
        for (; r < stride; ++r) {
          const std::uint32_t a = image_word(e, ei, orig, r);
          const std::uint32_t b = row[r];
          if (a == b) {  // equal ids are equal components: tied word
            tmp[r] = a;
            continue;
          }
          if (word_less(a, b, r)) {
            // Strictly smaller at the first differing word: this element
            // wins; materialize its remaining words and swap it in.
            tmp[r] = a;
            for (std::size_t r2 = r + 1; r2 < stride; ++r2)
              tmp[r2] = image_word(e, ei, orig, r2);
            std::memcpy(row, tmp, stride * sizeof(std::uint32_t));
            best = ei;
            ++stats.full_applies;
          } else if (r == 0) {
            ++stats.first_word_pruned;
          } else {
            ++stats.prefix_pruned;
          }
          break;
        }
        // r == stride: the image ties the incumbent on every word — a full
        // materialization that does not displace it (strict-less contract).
        if (r == stride) ++stats.full_applies;
      }
      return best;
    } else {
      (void)row;
      (void)scratch;
      (void)stats;
      return 0;
    }
  }

  /// Whether canonicalize_row sorts prefix classes, and how many there are.
  /// The stats count classes when it sorts, elements when it scans.
  bool sorts_classes() const { return !classes_.empty(); }
  std::size_t num_classes() const { return classes_.size(); }

  /// Accumulated prune counters live with the engines (per worker), not
  /// here: the kernel itself holds no hot-path mutable state.

 private:
  /// symmetry_group::compute caps n at 8, so sorts use fixed arrays.
  static constexpr std::size_t kMaxSortedProcs = 8;

  /// The full-class kernel, per prefix class: compare the value prefix
  /// against the incumbent and drop the class if it loses; otherwise gather
  /// the n machine images, stably sort them by rank and compare the sorted
  /// row. The stable sort yields the lexicographically least sigma reaching
  /// the class minimum, which is the class's least element index
  /// (build_classes checks this), and ties across classes keep the smaller
  /// index — so the answer is the least index reaching the orbit minimum,
  /// the scan's strict-less tie-break. Counts one stat per class.
  int sort_classes(std::uint32_t* row, const std::uint32_t* orig,
                   canonicalize_stats& stats) {
    std::array<std::uint32_t, kMaxSortedProcs> img;
    std::array<std::size_t, kMaxSortedProcs> order;  // process in slot q
    int best = 0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const element& e = *classes_[c];
      std::size_t r = 0;
      while (r < m_ && orig[static_cast<std::size_t>(e.pi_inv[r])] == row[r])
        ++r;
      const bool prefix_wins =
          r < m_ &&
          word_less(orig[static_cast<std::size_t>(e.pi_inv[r])], row[r], r);
      if (r < m_ && !prefix_wins) {
        ++(r == 0 ? stats.first_word_pruned : stats.prefix_pruned);
        continue;
      }
      ++stats.full_applies;
      // Gather and insertion-sort together; strict less keeps it stable.
      for (std::size_t p = 0; p < n_; ++p) {
        img[p] = map_machine_shift(static_cast<std::size_t>(e.shift[p]),
                                   orig[m_ + p]);
        std::size_t q = p;
        for (; q > 0 && machine_less(img[p], img[order[q - 1]]); --q)
          order[q] = order[q - 1];
        order[q] = p;
      }
      int cmp = prefix_wins ? -1 : 0;
      for (std::size_t q = 0; q < n_ && cmp == 0; ++q) {
        const std::uint32_t a = img[order[q]];
        if (a != row[m_ + q]) cmp = word_less(a, row[m_ + q], m_ + q) ? -1 : 1;
      }
      if (cmp > 0) continue;
      const int ei = class_elems_[c * nfact_ + inverse_lex_rank(order.data())];
      if (cmp == 0) {
        best = std::min(best, ei);
        continue;
      }
      for (r = 0; r < m_; ++r)
        row[r] = orig[static_cast<std::size_t>(e.pi_inv[r])];
      for (std::size_t q = 0; q < n_; ++q) row[m_ + q] = img[order[q]];
      best = ei;
    }
    return best;
  }

  /// Fully anonymous only: group the elements into prefix classes (same
  /// pi_inv, same shift vector) and, when every class holds all n! sigmas,
  /// fill class_elems_[class * n! + lex rank of sigma] with element indices.
  /// Otherwise classes_ stays empty and canonicalize_row scans.
  void build_classes() {
    const int gsize = group_->size();
    if (gsize <= 1 || n_ > kMaxSortedProcs) return;
    nfact_ = static_cast<std::size_t>(factorial(static_cast<int>(n_)));
    std::vector<int> elems;
    std::vector<std::size_t> inv(n_);
    for (int ei = 0; ei < gsize; ++ei) {
      const element& e = group_->at(ei);
      std::size_t c = 0;
      while (c < classes_.size() && !(classes_[c]->pi_inv == e.pi_inv &&
                                      classes_[c]->shift == e.shift))
        ++c;
      if (c == classes_.size()) {
        classes_.push_back(&e);
        elems.resize(elems.size() + nfact_, -1);
      }
      for (std::size_t p = 0; p < n_; ++p)
        inv[p] = static_cast<std::size_t>(e.sigma_inv[p]);
      // Elements are distinct, so each (class, sigma) slot fills once.
      elems[c * nfact_ + inverse_lex_rank(inv.data())] = ei;
    }
    // Every slot filled, and indices ascending in sigma's lex order within
    // each class (compute() enumerates sigma outermost).
    for (std::size_t i = 0; i < elems.size(); ++i)
      if (elems[i] < 0 || (i % nfact_ != 0 && elems[i] < elems[i - 1])) {
        classes_.clear();
        return;
      }
    class_elems_ = std::move(elems);
  }

  /// Lexicographic rank among the n! permutations of sigma, given its
  /// inverse (inv[q] = the process sigma sends to slot q).
  std::size_t inverse_lex_rank(const std::size_t* inv) const {
    std::array<std::size_t, kMaxSortedProcs> sigma;
    for (std::size_t q = 0; q < n_; ++q) sigma[inv[q]] = q;
    std::size_t rank = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      std::size_t smaller = 0;
      for (std::size_t j = i + 1; j < n_; ++j) smaller += sigma[j] < sigma[i];
      rank = rank * (n_ - i) + smaller;
    }
    return rank;
  }

  /// Word r of element e's image of `orig` — a memo gather.
  std::uint32_t image_word(const element& e, int ei, const std::uint32_t* orig,
                           std::size_t r) {
    if (r < m_) {
      const std::uint32_t src =
          orig[static_cast<std::size_t>(e.pi_inv[r])];
      if constexpr (fully_anonymous_machine<Machine>) {
        return src;  // values move unrenamed
      } else {
        return map_value(ei, e, src);
      }
    }
    const auto p = static_cast<std::size_t>(e.sigma_inv[r - m_]);
    const std::uint32_t src = orig[m_ + p];
    if constexpr (fully_anonymous_machine<Machine>) {
      return map_machine_shift(static_cast<std::size_t>(e.shift[p]), src);
    } else {
      return map_machine(ei, e, src);
    }
  }

  std::uint32_t map_value(int ei, const element& e, std::uint32_t id) {
    id_memo_table& memo = value_memos_[static_cast<std::size_t>(ei)];
    std::uint32_t v = memo.lookup(id);
    if (v == id_memo_table::kUnset) {
      v = pool_->intern_value(e.rename(pool_->value(id)));
      memo.store(id, v);
    }
    return v;
  }

  std::uint32_t map_machine(int ei, const element& e, std::uint32_t id) {
    if constexpr (process_symmetric_machine<Machine>) {
      id_memo_table& memo = machine_memos_[static_cast<std::size_t>(ei)];
      std::uint32_t v = memo.lookup(id);
      if (v == id_memo_table::kUnset) {
        const auto rho = [&e](const value_type& x) { return e.rename(x); };
        v = pool_->intern_machine(pool_->machine(id).renamed(rho));
        memo.store(id, v);
      }
      return v;
    } else {
      return id;
    }
  }

  std::uint32_t map_machine_shift(std::size_t d, std::uint32_t id) {
    if constexpr (fully_anonymous_machine<Machine>) {
      id_memo_table& memo = machine_memos_[d];
      std::uint32_t v = memo.lookup(id);
      if (v == id_memo_table::kUnset) {
        v = pool_->intern_machine(
            pool_->machine(id).reindexed(static_cast<int>(d)));
        memo.store(id, v);
      }
      return v;
    } else {
      return id;
    }
  }

  /// word_less on machine ids; equal ids are equal machines.
  bool machine_less(std::uint32_t a, std::uint32_t b) const {
    return a != b && word_less(a, b, m_);
  }

  /// Order-isomorphic word compare: ranks when both covered, object order
  /// otherwise. `r` selects the domain (value words before m_, machine after).
  bool word_less(std::uint32_t a, std::uint32_t b, std::size_t r) const {
    if constexpr (symmetry_reducible_machine<Machine>) {
      if (r < m_) {
        const std::uint32_t ra = value_ranks_.rank(a);
        const std::uint32_t rb = value_ranks_.rank(b);
        if (ra != id_rank_snapshot::kUnranked &&
            rb != id_rank_snapshot::kUnranked)
          return ra < rb;
        return pool_->value(a) < pool_->value(b);
      }
      const std::uint32_t ra = machine_ranks_.rank(a);
      const std::uint32_t rb = machine_ranks_.rank(b);
      if (ra != id_rank_snapshot::kUnranked &&
          rb != id_rank_snapshot::kUnranked)
        return ra < rb;
      return canonical_less(pool_->machine(a), pool_->machine(b));
    } else {
      return false;
    }
  }

  const symmetry_group<Machine>* group_ = nullptr;
  state_pool<Machine>* pool_ = nullptr;
  std::size_t m_ = 0, n_ = 0;
  std::size_t memo_count_ = 0;
  /// Process-symmetric: one (value, machine) memo pair per element (index 0
  /// allocated but unused — identity never scans). Fully anonymous: no value
  /// memos; machine memos indexed by rotation amount d in [0, m).
  std::unique_ptr<id_memo_table[]> value_memos_;
  std::unique_ptr<id_memo_table[]> machine_memos_;
  id_rank_snapshot value_ranks_;
  id_rank_snapshot machine_ranks_;
  /// Fully anonymous, full classes only (see build_classes): one
  /// representative element per prefix class, and the element index of
  /// (class c, sigma of lex rank k) at class_elems_[c * nfact_ + k].
  std::vector<const element*> classes_;
  std::vector<int> class_elems_;
  std::size_t nfact_ = 0;
};

}  // namespace anoncoord
