// E1 — Theorem 3.1: a memory-anonymous symmetric deadlock-free mutex for two
// processes with m >= 2 registers exists iff m is odd.
//
// For each m this harness model-checks Fig. 1 exhaustively over a family of
// numbering pairs (all 2nd-process permutations for small m, all rotations
// beyond) and reports whether every configuration is correct (odd m) or some
// configuration is provably stuck (even m), together with the witness.
//
//   ./bench_mutex_parity [--max-m=6] [--full-perms-up-to=4]
#include <cstdio>
#include <iostream>
#include <string>

#include "modelcheck/mutex_check.hpp"
#include "util/cli.hpp"
#include "util/permutation.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

#include "bench_json.hpp"

using namespace anoncoord;

int main(int argc, char** argv) {
  cli_args args;
  args.define("max-m", "6", "largest register count to model-check");
  args.define("full-perms-up-to", "4",
              "use all (m!) numberings up to this m, rotations beyond");
  if (!args.parse(argc, argv)) {
    std::cout << args.help("bench_mutex_parity");
    return 0;
  }
  const int max_m = static_cast<int>(args.get_int("max-m"));
  const int full_up_to = static_cast<int>(args.get_int("full-perms-up-to"));
  benchjson::bench_reporter report("bench_mutex_parity");
  report.config("max-m", max_m);
  report.config("full-perms-up-to", full_up_to);

  std::cout << "E1 / Theorem 3.1 — two-process Fig. 1, exhaustive model "
               "check per numbering pair\n"
            << "(process 0 numbers registers in physical order; process 1's "
               "numbering varies)\n\n";

  ascii_table table({"m", "parity", "theorem", "numberings", "states(max)",
                     "deadlocked-configs", "verdict", "sec"});

  bool all_match = true;
  for (int m = 2; m <= max_m; ++m) {
    stopwatch timer;
    const auto perms =
        m <= full_up_to ? all_permutations(m) : all_rotations(m);
    std::uint64_t worst_states = 0;
    int stuck_configs = 0;
    bool me_ok = true;
    bool complete = true;
    for (const auto& perm : perms) {
      const auto res = check_anon_mutex_pair(m, perm, 8'000'000);
      complete = complete && res.complete;
      me_ok = me_ok && !res.violated;
      if (res.verdict() == "DEADLOCK") ++stuck_configs;
      if (res.states > worst_states) worst_states = res.states;
    }
    const bool theorem_says_possible = (m % 2 == 1);
    const bool observed_possible = (stuck_configs == 0);
    const bool match = complete && me_ok &&
                       observed_possible == theorem_says_possible;
    all_match = all_match && match;
    const double sec = timer.elapsed_seconds();
    report.sample("check_seconds", sec, "s");
    report.sample("states_max", static_cast<double>(worst_states));
    table.add(m, m % 2 ? "odd" : "even",
              theorem_says_possible ? "algorithm exists" : "impossible",
              static_cast<int>(perms.size()), worst_states, stuck_configs,
              match ? (theorem_says_possible ? "OK (all correct)"
                                             : "OK (deadlock found)")
                    : "MISMATCH",
              sec);
  }

  std::cout << table.render() << "\n";
  std::cout << "paper: Fig.1 correct for odd m (Thm 3.2/3.3); no algorithm "
               "for even m (Thm 3.1)\n"
            << "reproduction: " << (all_match ? "MATCHES" : "DOES NOT MATCH")
            << " the theorem for every m checked\n";
  report.metric("all_match", all_match ? 1 : 0);
  report.write();
  return all_match ? 0 : 1;
}
