// Interactive tour of the paper's negative results: pick a theorem and a
// configuration, watch the violation (or the verification) happen.
//
//   ./impossibility_explorer --theorem=3.1 --m=4        (model check Fig. 1)
//   ./impossibility_explorer --theorem=3.4 --m=9 --l=3  (lock-step ring)
//   ./impossibility_explorer --theorem=6.2 --m=5        (covering vs mutex)
//   ./impossibility_explorer --theorem=6.3 --n=3        (covering vs consensus)
//   ./impossibility_explorer --theorem=6.5 --n=3        (covering vs renaming)
//
// With no flags it runs a small showcase of all five.
#include <iostream>
#include <string>

#include "lowerbound/covering.hpp"
#include "lowerbound/lockstep.hpp"
#include "modelcheck/mutex_check.hpp"
#include "util/cli.hpp"
#include "util/permutation.hpp"

using namespace anoncoord;

namespace {

void explore_31(int m) {
  std::cout << "== Theorem 3.1 with m = " << m << " ==\n"
            << "model-checking Fig. 1 for two processes over all rotation "
               "pairs...\n";
  bool any_stuck = false;
  for (int s = 0; s < m; ++s) {
    const auto res = check_anon_mutex_pair(m, rotation_permutation(m, s),
                                           8'000'000);
    std::cout << "  offset " << s << ": " << res.verdict() << " ("
              << res.states << " states";
    if (res.verdict() == "DEADLOCK") {
      std::cout << ", " << res.stuck_states << " stuck";
      any_stuck = true;
    }
    std::cout << ")\n";
  }
  std::cout << (m % 2 == 1
                    ? "m is odd: Theorem 3.1 says the algorithm works — and "
                      "every configuration verified.\n"
                    : "m is even: Theorem 3.1 says no algorithm exists — and "
                      "indeed a deadlocked configuration was found.\n");
  if (m % 2 == 0 && !any_stuck)
    std::cout << "(unexpected: no stuck configuration?)\n";
}

void explore_34(int m, int l) {
  std::cout << "== Theorem 3.4 with m = " << m << ", l = " << l << " ==\n";
  if (m % l != 0) {
    std::cout << "l does not divide m: the equidistant ring placement does "
                 "not exist, so the symmetry argument cannot run. (That is "
                 "the theorem's point: m relatively prime to all l <= n "
                 "escapes it.)\n";
    return;
  }
  const auto res = run_lockstep_mutex(m, l);
  std::cout << "placed " << l << " processes at stride " << res.stride
            << " and ran them in lock steps:\n"
            << "  outcome: " << to_string(res.outcome) << " after "
            << res.rounds << " rounds (state cycle from round "
            << res.cycle_start << ")\n"
            << "  rotational symmetry verified at every round: "
            << (res.symmetry_held ? "yes" : "NO") << "\n"
            << "symmetry cannot break, so no process can ever win alone — "
               "deadlock-freedom fails.\n";
}

void explore_62(int m) {
  std::cout << "== Theorem 6.2 (unknown number of processes) with m = " << m
            << " ==\n";
  const auto res = run_covering_mutex(m);
  for (const auto& line : res.narrative) std::cout << "  " << line << "\n";
  std::cout << (res.violation ? "mutual exclusion violated as predicted.\n"
                              : "(unexpected: no violation?)\n");
}

void explore_63(int n) {
  std::cout << "== Theorem 6.3(2) (n-1 registers) against Fig. 2 configured "
               "for n = "
            << n << " ==\n";
  const auto res = run_covering_consensus(n, 1, 2);
  for (const auto& line : res.narrative) std::cout << "  " << line << "\n";
  std::cout << (res.violation ? "agreement violated as predicted.\n"
                              : "(unexpected: no violation?)\n");
}

void explore_65(int n) {
  std::cout << "== Theorem 6.5(2) (n-1 registers) against Fig. 3 configured "
               "for n = "
            << n << " ==\n";
  const auto res = run_covering_renaming(n);
  for (const auto& line : res.narrative) std::cout << "  " << line << "\n";
  std::cout << (res.violation ? "uniqueness violated as predicted.\n"
                              : "(unexpected: no violation?)\n");
}

}  // namespace

int main(int argc, char** argv) {
  cli_args args;
  args.define("theorem", "all", "one of: 3.1, 3.4, 6.2, 6.3, 6.5, all");
  args.define("m", "4", "registers (theorems 3.1, 3.4, 6.2)");
  args.define("l", "2", "processes on the ring (theorem 3.4)");
  args.define("n", "2", "configured process count (theorems 6.3, 6.5)");
  if (!args.parse(argc, argv)) {
    std::cout << args.help("impossibility_explorer");
    return 0;
  }
  const std::string theorem = args.get("theorem");
  const int m = static_cast<int>(args.get_int("m"));
  const int l = static_cast<int>(args.get_int("l"));
  const int n = static_cast<int>(args.get_int("n"));

  if (theorem == "3.1") {
    explore_31(m);
  } else if (theorem == "3.4") {
    explore_34(m, l);
  } else if (theorem == "6.2") {
    explore_62(m);
  } else if (theorem == "6.3") {
    explore_63(n);
  } else if (theorem == "6.5") {
    explore_65(n);
  } else if (theorem == "all") {
    explore_31(4);
    std::cout << "\n";
    explore_34(6, 3);
    std::cout << "\n";
    explore_62(3);
    std::cout << "\n";
    explore_63(2);
    std::cout << "\n";
    explore_65(2);
  } else {
    std::cout << "unknown theorem; " << args.help("impossibility_explorer");
    return 1;
  }
  return 0;
}
