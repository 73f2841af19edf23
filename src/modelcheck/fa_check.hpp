// Model-checking specs for the fully anonymous algorithms (arXiv
// 1909.05576): fa_mutex and fa_agreement configurations over a concrete
// (m, naming assignment).
//
// For the mutex it checks mutex_check.hpp's mutex_spec —
//   * mutual exclusion — no reachable state has two processes in the CS
//     (unconditional for fa_mutex: the token-count invariant holds for
//     every n, m and naming);
//   * progress — from every reachable state with a process in its entry
//     code, a CS state is reachable. The paper's boundary set
//     M(n) = { m : gcd(l, m) = 1 for all l in (1, n] } governs the verdict:
//     n = 2 deadlocks exactly at even m (both processes tie at m/2 tokens
//     and retry forever), matching Theorem 3.1's shape one level down the
//     anonymity hierarchy.
//
// For the agreement it verifies agreement (AGREEMENT-VIOLATION) and then
// validity (VALIDITY-VIOLATION) as two safety properties over the full
// interleaving space (liveness is only obstruction-freedom, which is a
// solo-run property pinned separately in tests).
//
// Every predicate is invariant under the full S_n x C_m product group
// (they quantify over processes and never mention register positions), so
// reduced and raw runs must produce — and are tested to produce —
// identical verdicts.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "core/fa_agreement.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/agreement_check.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/verify.hpp"

namespace anoncoord {

/// How many processes are inside the critical section.
inline int fa_mutex_cs_count(const global_state<fa_mutex>& s) {
  return processes_in_cs(s.procs);
}

/// Some process is inside its entry code (the progress premise).
inline bool fa_mutex_someone_trying(const global_state<fa_mutex>& s) {
  return someone_in_entry(s.procs);
}

/// Model-check the fully anonymous mutex: n identical identifier-less
/// machines over m registers with the given naming. With `symmetry` the
/// exploration dedups to orbit representatives under the full S_n x C_m
/// product group (modelcheck/symmetry.hpp). `workers` parallelises the
/// explorer's generation stage; the result is identical for every worker
/// count.
inline verify_report check_fa_mutex(int m, const naming_assignment& naming,
                                    std::uint64_t max_states = 2'000'000,
                                    bool symmetry = false, int workers = 1) {
  verify_options opt;
  opt.workers = workers;
  opt.max_states = max_states;
  opt.symmetry = symmetry;
  return verify_config<fa_mutex>(
      {m, naming,
       std::vector<fa_mutex>(static_cast<std::size_t>(naming.processes()),
                             fa_mutex(m))},
      mutex_spec<fa_mutex>(), opt);
}

/// Fully anonymous agreement's safety for processes proposing `inputs`:
/// no two processes decided different values (AGREEMENT-VIOLATION), then
/// every decided value is some process's input (VALIDITY-VIOLATION).
inline check_spec<fa_agreement> fa_agreement_spec(
    const std::vector<std::uint64_t>& inputs) {
  using state = global_state<fa_agreement>;
  check_spec<fa_agreement> spec;
  spec.safety.push_back({"AGREEMENT-VIOLATION", [](const state& s) {
                           return decisions_disagree(s.procs);
                         }});
  spec.safety.push_back(
      {"VALIDITY-VIOLATION",
       [in = std::set(inputs.begin(), inputs.end())](const state& s) {
         return decision_outside(s.procs, in);
       }});
  return spec;
}

/// Model-check fully anonymous agreement safety over the complete
/// interleaving space. Both properties are S_n x C_m invariant, so
/// `symmetry` is sound even with distinct inputs (the group moves whole
/// machines, inputs included).
inline verify_report check_fa_agreement(
    int m, const naming_assignment& naming,
    const std::vector<std::uint64_t>& inputs,
    std::uint64_t max_states = 2'000'000, bool symmetry = false) {
  ANONCOORD_REQUIRE(static_cast<int>(inputs.size()) == naming.processes(),
                    "one input per process required");
  std::vector<fa_agreement> machines;
  machines.reserve(inputs.size());
  for (std::uint64_t in : inputs) machines.emplace_back(in, m);
  verify_options opt;
  opt.max_states = max_states;
  opt.symmetry = symmetry;
  return verify_config<fa_agreement>({m, naming, std::move(machines)},
                                     fa_agreement_spec(inputs), opt);
}

}  // namespace anoncoord
