// Model-checking spec for the Fig. 1 mutual-exclusion algorithm (and, as a
// template over the machine, for the fully anonymous mutex of fa_check.hpp).
//
// Verifies, for a concrete (m, naming assignment) configuration:
//   * mutual exclusion  — no reachable state has two processes in the CS
//                         (verdict ME-VIOLATION);
//   * progress          — from every reachable state with a process in its
//                         entry code, a state with a process in the CS is
//                         reachable. A "stuck" state (goal unreachable) is a
//                         genuine deadlock-freedom violation: every
//                         continuation from it avoids the CS forever
//                         (verdict DEADLOCK).
//
// Theorem 3.1 predicts: with two processes, every naming assignment passes
// iff m is odd; for even m the ring assignment at offset m/2 gets stuck.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/anon_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/verify.hpp"

namespace anoncoord {

/// How many of `procs` are inside the critical section.
template <class Mutex>
int processes_in_cs(const std::vector<Mutex>& procs) {
  return static_cast<int>(std::count_if(
      procs.begin(), procs.end(),
      [](const Mutex& p) { return p.in_critical_section(); }));
}

/// Some of `procs` is inside its entry code (the progress premise).
template <class Mutex>
bool someone_in_entry(const std::vector<Mutex>& procs) {
  return std::any_of(procs.begin(), procs.end(),
                     [](const Mutex& p) { return p.in_entry(); });
}

/// Mutual exclusion's bad state in config_predicate form: two processes in
/// the CS.
template <class Mutex>
bool mutex_two_in_cs(const std::vector<typename Mutex::value_type>&,
                     const std::vector<Mutex>& procs) {
  return processes_in_cs(procs) >= 2;
}

/// How many processes are inside the critical section.
inline int mutex_cs_count(const global_state<anon_mutex>& s) {
  return processes_in_cs(s.procs);
}

/// Some process is inside its entry code (the progress premise).
inline bool mutex_someone_trying(const global_state<anon_mutex>& s) {
  return someone_in_entry(s.procs);
}

/// Mutual exclusion, then deadlock-freedom. Both predicates are invariant
/// under process permutation, id renaming and register relabeling, so the
/// spec is sound under either machine kind's symmetry group.
template <class Mutex>
check_spec<Mutex> mutex_spec() {
  using state = global_state<Mutex>;
  check_spec<Mutex> spec;
  spec.safety.push_back({"ME-VIOLATION", [](const state& s) {
                           return mutex_two_in_cs(s.regs, s.procs);
                         }});
  spec.progress = {"DEADLOCK",
                   [](const state& s) { return someone_in_entry(s.procs); },
                   [](const state& s) { return processes_in_cs(s.procs) >= 1; }};
  return spec;
}

namespace detail {

inline std::vector<anon_mutex> mutex_machines(
    int m, const naming_assignment& naming,
    const std::vector<process_id>& ids) {
  ANONCOORD_REQUIRE(static_cast<int>(ids.size()) == naming.processes(),
                    "one id per process required");
  std::vector<anon_mutex> machines;
  machines.reserve(ids.size());
  for (process_id id : ids) machines.emplace_back(id, m);
  return machines;
}

}  // namespace detail

/// Model-check Fig. 1 with the given per-process numberings. `ids` supplies
/// the (distinct, positive) process identifiers. With `symmetry` the
/// exploration dedups states to orbit representatives under the
/// configuration's automorphism group — sound here because the spec's
/// predicates are invariant under process permutation and id renaming, and
/// anon_mutex models process_symmetric_machine. `workers` parallelises the
/// explorer's generation stage; the result is identical for every worker
/// count.
inline verify_report check_anon_mutex(int m, const naming_assignment& naming,
                                      std::vector<process_id> ids,
                                      std::uint64_t max_states = 2'000'000,
                                      bool symmetry = false, int workers = 1) {
  verify_options opt;
  opt.workers = workers;
  opt.max_states = max_states;
  opt.symmetry = symmetry;
  return verify_config<anon_mutex>(
      {m, naming, detail::mutex_machines(m, naming, ids)},
      mutex_spec<anon_mutex>(), opt);
}

/// Check one two-process configuration where process 0 numbers the registers
/// in physical order and process 1 uses `second` as its numbering. By the
/// anonymity of the model this is fully general up to relabeling.
inline verify_report check_anon_mutex_pair(
    int m, const permutation& second, std::uint64_t max_states = 2'000'000) {
  naming_assignment naming({identity_permutation(m), second});
  return check_anon_mutex(m, naming, {1, 2}, max_states);
}

}  // namespace anoncoord
