// Model-checking harness for the fully anonymous algorithms (arXiv
// 1909.05576): fa_mutex and fa_agreement configurations over a concrete
// (m, naming assignment).
//
// For the mutex it verifies the same two properties as mutex_check.hpp —
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
// For the agreement it verifies agreement + validity as safety over the
// full interleaving space (liveness is only obstruction-freedom, which is
// a solo-run property pinned separately in tests).
//
// Both predicates are invariant under the full S_n x C_m product group
// (they quantify over processes and never mention register positions), so
// reduced and raw runs must produce — and are tested to produce —
// identical verdicts.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/fa_agreement.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/mutex_check.hpp"

namespace anoncoord {

/// How many processes are inside the critical section.
inline int fa_mutex_cs_count(const global_state<fa_mutex>& s) {
  int c = 0;
  for (const auto& p : s.procs)
    if (p.in_critical_section()) ++c;
  return c;
}

/// Some process is inside its entry code (the progress premise).
inline bool fa_mutex_someone_trying(const global_state<fa_mutex>& s) {
  for (const auto& p : s.procs)
    if (p.in_entry()) return true;
  return false;
}

namespace detail {

/// Shared harness: safety, then progress on a complete safe run.
inline mutex_check_result run_fa_mutex_check(explorer<fa_mutex>& e) {
  auto res = e.explore(
      [](const global_state<fa_mutex>& s) { return fa_mutex_cs_count(s) >= 2; });

  mutex_check_result out;
  out.complete = res.complete;
  out.num_states = res.num_states;
  out.mutual_exclusion = !res.safety_violated();
  if (res.safety_violated()) {
    out.counterexample = res.bad_schedule;
    out.progress = false;  // not evaluated
    return out;
  }
  if (!res.complete) return out;

  e.check_progress(
      res, fa_mutex_someone_trying,
      [](const global_state<fa_mutex>& s) { return fa_mutex_cs_count(s) >= 1; });
  out.stuck_states = res.stuck_states;
  out.progress = !res.progress_violated();
  if (res.progress_violated()) out.counterexample = res.stuck_schedule;
  return out;
}

}  // namespace detail

/// Model-check the fully anonymous mutex: n identical identifier-less
/// machines over m registers with the given naming. With `symmetry` the
/// exploration dedups to orbit representatives under the full S_n x C_m
/// product group (modelcheck/symmetry.hpp). `workers` parallelises the
/// explorer's generation stage; the result is identical for every worker
/// count.
inline mutex_check_result check_fa_mutex(int m,
                                         const naming_assignment& naming,
                                         std::uint64_t max_states = 2'000'000,
                                         bool symmetry = false,
                                         int workers = 1) {
  using ex = explorer<fa_mutex>;
  typename ex::options opt;
  opt.workers = workers;
  opt.max_states = max_states;
  opt.symmetry = symmetry;
  std::vector<fa_mutex> machines(
      static_cast<std::size_t>(naming.processes()), fa_mutex(m));
  ex e(m, naming, std::move(machines), opt);
  return detail::run_fa_mutex_check(e);
}

struct fa_agreement_check_result {
  bool complete = false;   ///< state space fully explored
  bool agreement = false;  ///< no two processes decided different values
  bool validity = false;   ///< every decided value is some process's input
  std::uint64_t num_states = 0;
  std::vector<int> counterexample;  ///< schedule to the first violation

  bool ok() const { return complete && agreement && validity; }
  std::string verdict() const {
    if (!complete) return "INCOMPLETE";
    if (!agreement) return "AGREEMENT-VIOLATION";
    if (!validity) return "VALIDITY-VIOLATION";
    return "OK";
  }
};

/// Two processes decided on different values.
inline bool fa_agreement_disagreement(const global_state<fa_agreement>& s) {
  std::optional<std::uint64_t> seen;
  for (const auto& p : s.procs) {
    const auto d = p.decision();
    if (!d) continue;
    if (seen && *seen != *d) return true;
    seen = d;
  }
  return false;
}

/// Some process decided a value nobody proposed.
inline bool fa_agreement_invalid(const global_state<fa_agreement>& s) {
  std::set<std::uint64_t> inputs;
  for (const auto& p : s.procs) inputs.insert(p.input());
  for (const auto& p : s.procs) {
    const auto d = p.decision();
    if (d && inputs.count(*d) == 0) return true;
  }
  return false;
}

/// Model-check fully anonymous agreement safety (agreement + validity as
/// one safety predicate) over the complete interleaving space. Both
/// sub-predicates are S_n x C_m invariant, so `symmetry` is sound even
/// with distinct inputs (the group moves whole machines, inputs included).
inline fa_agreement_check_result check_fa_agreement(
    int m, const naming_assignment& naming,
    const std::vector<std::uint64_t>& inputs,
    std::uint64_t max_states = 2'000'000, bool symmetry = false) {
  using ex = explorer<fa_agreement>;
  ANONCOORD_REQUIRE(static_cast<int>(inputs.size()) == naming.processes(),
                    "one input per process required");
  typename ex::options opt;
  opt.max_states = max_states;
  opt.symmetry = symmetry;
  std::vector<fa_agreement> machines;
  machines.reserve(inputs.size());
  for (std::uint64_t in : inputs) machines.emplace_back(in, m);
  ex e(m, naming, std::move(machines), opt);

  fa_agreement_check_result out;
  auto res = e.explore([](const global_state<fa_agreement>& s) {
    return fa_agreement_disagreement(s) || fa_agreement_invalid(s);
  });
  out.complete = res.complete;
  out.num_states = res.num_states;
  const bool violated = res.safety_violated();
  out.agreement = !(violated && fa_agreement_disagreement(*res.bad_state));
  out.validity = !(violated && fa_agreement_invalid(*res.bad_state));
  if (violated) out.counterexample = res.bad_schedule;
  return out;
}

}  // namespace anoncoord
