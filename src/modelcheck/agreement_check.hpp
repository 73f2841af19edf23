// Model-checking specs for the Fig. 2 consensus and Fig. 3 renaming
// algorithms: exhaustive verification of their safety properties over every
// interleaving of a small configuration, plus the obstruction-freedom-shaped
// progress property "from every reachable state, a state where all processes
// have terminated is reachable" (some continuation — e.g. running each
// process alone in turn — finishes the job).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/anon_consensus.hpp"
#include "core/anon_renaming.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/verify.hpp"

namespace anoncoord {

/// Two of `procs` decided different values.
template <class Machine>
bool decisions_disagree(const std::vector<Machine>& procs) {
  std::optional<std::uint64_t> seen;
  for (const auto& p : procs) {
    const auto d = p.decision();
    if (!d) continue;
    if (seen && *seen != *d) return true;
    seen = d;
  }
  return false;
}

/// Some of `procs` decided a value outside `inputs`. A spec builds the
/// input set once: the input multiset is invariant under every symmetry
/// group the explorer uses, so no state needs its own.
template <class Machine>
bool decision_outside(const std::vector<Machine>& procs,
                      const std::set<std::uint64_t>& inputs) {
  for (const auto& p : procs) {
    const auto d = p.decision();
    if (d && inputs.count(*d) == 0) return true;
  }
  return false;
}

/// From every reachable state, a state where every process is done is
/// reachable (verdict STUCK).
template <class Machine>
typename check_spec<Machine>::progress_property termination_possible() {
  return {"STUCK", [](const global_state<Machine>&) { return true; },
          [](const global_state<Machine>& s) {
            return std::all_of(s.procs.begin(), s.procs.end(),
                               [](const Machine& p) { return p.done(); });
          }};
}

/// Fig. 2's claims for processes proposing `inputs`: agreement (all
/// decisions equal) and validity (decisions come from the inputs) as one
/// safety property (SAFETY-VIOLATION), then termination_possible. Any
/// machine with decision() and done() fits; a caller whose runs cannot
/// terminate (e.g. the commit-adopt baseline's unbounded rounds) resets
/// the progress part.
template <class Machine = anon_consensus>
check_spec<Machine> consensus_spec(const std::vector<std::uint64_t>& inputs) {
  check_spec<Machine> spec;
  spec.safety.push_back(
      {"SAFETY-VIOLATION",
       [in = std::set(inputs.begin(), inputs.end())](
           const global_state<Machine>& s) {
         return decisions_disagree(s.procs) || decision_outside(s.procs, in);
       }});
  spec.progress = termination_possible<Machine>();
  return spec;
}

/// Fig. 3's claims for n processes: names are unique and drawn from
/// {1, .., n} (perfectness; adaptivity is checked by the simulator-based
/// tests, which control the participant set) as one safety property
/// (SAFETY-VIOLATION), then termination_possible.
inline check_spec<anon_renaming> renaming_spec(int n) {
  check_spec<anon_renaming> spec;
  spec.safety.push_back(
      {"SAFETY-VIOLATION", [n](const global_state<anon_renaming>& s) {
         for (std::size_t i = 0; i < s.procs.size(); ++i) {
           const auto name = s.procs[i].name();
           if (!name) continue;
           if (*name < 1 || *name > static_cast<std::uint32_t>(n)) return true;
           for (std::size_t j = 0; j < i; ++j)
             if (s.procs[j].name() == name) return true;  // duplicate name
         }
         return false;
       }});
  spec.progress = termination_possible<anon_renaming>();
  return spec;
}

/// Exhaustively check Fig. 2 for the given naming and inputs.
inline verify_report check_anon_consensus(
    int n, const naming_assignment& naming,
    const std::vector<std::pair<process_id, std::uint64_t>>& id_and_input,
    std::uint64_t max_states = 2'000'000) {
  std::vector<anon_consensus> machines;
  std::vector<std::uint64_t> inputs;
  for (auto [id, in] : id_and_input) {
    machines.emplace_back(id, in, n);
    inputs.push_back(in);
  }
  verify_options opt;
  opt.max_states = max_states;
  return verify_config<anon_consensus>({2 * n - 1, naming, std::move(machines)},
                                       consensus_spec(inputs), opt);
}

/// Exhaustively check Fig. 3 for the given naming and ids.
inline verify_report check_anon_renaming(int n,
                                         const naming_assignment& naming,
                                         const std::vector<process_id>& ids,
                                         std::uint64_t max_states = 2'000'000) {
  std::vector<anon_renaming> machines;
  for (auto id : ids) machines.emplace_back(id, n);
  verify_options opt;
  opt.max_states = max_states;
  return verify_config<anon_renaming>({2 * n - 1, naming, std::move(machines)},
                                      renaming_spec(n), opt);
}

}  // namespace anoncoord
