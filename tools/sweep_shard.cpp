// sweep_shard — run one shard of the weighted naming sweep as its own OS
// process, or fork a whole fleet of single-shard workers.
//
// The sweep under test is the paper's Fig. 1 question at scale: for which
// of the (m!)^n naming assignments does the anonymous mutex stay safe? The
// polynomial orbit-class quotient reduces that to a deterministic list of
// weighted classes (naming_orbit_classes); this driver claims the
// contiguous class slice [classes*i/C, classes*(i+1)/C) for shard i of C
// and appends each verdict to an anoncoord-sweep-ckpt-v1 journal. Shards
// share nothing at runtime — each process has its own worker pool, arena
// spill budget and journal file — so a host with C cores runs C
// single-worker processes with bounded per-process RSS, any of which can
// be killed and rerun. sweep_merge combines the journals afterwards.
//
//   # count classes only (sizing a future sweep):
//   sweep_shard --m=8 --count-only
//   # one shard by hand:
//   sweep_shard --m=7 --shard-index=3 --shard-count=4 --journal=m7.s3
//   # fork C single-shard children (journals <base>.shard<k>-of-<C>):
//   sweep_shard --m=7 --launch=4 --journal=m7
//   # cost-balanced slices sized by a prior run's per-class state counts
//   # (ROADMAP: class state sizes vary ~50x within one m, so count-balanced
//   # slices leave the unlucky shard doing most of the work):
//   sweep_shard --m=7 --launch=4 --journal=m7b --balance=cost --cost-journal=m7.merged
//
// Exit status: 0 when every class this invocation owned is decided (or,
// with --launch, when every child succeeded), 1 otherwise.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/anon_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/verify.hpp"
#include "util/cli.hpp"

using namespace anoncoord;

namespace {

/// The Fig. 1 safety question every sweep in this repo asks: can two
/// processes sit in the critical section at once?
const config_predicate<anon_mutex> two_in_cs = mutex_two_in_cs<anon_mutex>;

struct shard_params {
  int m = 0;
  int n = 2;
  int shard_index = 0;
  int shard_count = 1;
  int workers = 1;
  std::string journal;
  std::uint64_t max_states = 0;
  std::uint64_t max_classes = 0;
  std::uint64_t spill_budget_bytes = 0;
  std::string spill_dir;
  /// One estimated cost per class (empty = count-balanced slices). Built
  /// once in the parent, inherited by forked children, so every process
  /// derives identical slice boundaries from the identical vector.
  std::vector<std::uint64_t> class_costs;
};

/// Per-class costs for --balance=cost: journal-recorded state counts from a
/// prior (possibly partial) run of the SAME sweep shape where available,
/// the class weight as the fallback heuristic everywhere else. Weight
/// correlates with orbit size — heavier classes stand for more raw tuples
/// and tend to carry larger reachable spaces — which is a usable stand-in
/// until a real run has recorded the truth. Classes a partial journal
/// decided keep their measured cost; undecided ones fall back per class.
std::vector<std::uint64_t> build_class_costs(
    const std::vector<weighted_naming>& classes, int m, int n,
    const std::string& cost_journal) {
  std::vector<std::uint64_t> costs(classes.size());
  for (std::size_t i = 0; i < classes.size(); ++i)
    costs[i] = classes[i].weight;
  if (cost_journal.empty()) return costs;
  sweep_journal_header expected;
  expected.registers = m;
  expected.processes = n;
  expected.classes = classes.size();
  expected.orbit = true;
  expected.quotient = true;
  std::vector<sweep_class_record> recs(classes.size());
  load_sweep_journal(cost_journal, expected, recs);
  for (std::size_t i = 0; i < classes.size(); ++i)
    if (recs[i].done) costs[i] = recs[i].states;
  return costs;
}

/// Run one shard in this process; returns the exit status.
int run_shard(const shard_params& p) {
  std::vector<anon_mutex> procs;
  for (int i = 1; i <= p.n; ++i) procs.emplace_back(i, p.m);
  verify_options opt;
  opt.max_states = p.max_states;
  opt.spill_budget_bytes = p.spill_budget_bytes;
  opt.spill_dir = p.spill_dir;
  sweep_schedule_options sched;
  sched.workers = p.workers;
  sched.checkpoint_path = p.journal;
  sched.max_classes = p.max_classes;
  sched.shard_index = p.shard_index;
  sched.shard_count = p.shard_count;
  sched.class_costs = p.class_costs;
  const naming_sweep_report rep = verify_naming_sweep(
      p.m, procs, two_in_cs, /*orbit_representatives_only=*/true, opt,
      /*process_quotient=*/true, sched);
  std::cout << "shard " << p.shard_index << "/" << p.shard_count << " m="
            << p.m << " n=" << p.n << ": " << rep.shard_classes
            << " classes owned, " << rep.configs << " decided ("
            << rep.resumed_classes << " resumed), violated=" << rep.violated
            << " (" << rep.full_violated << " weighted), incomplete="
            << rep.incomplete << ", states=" << rep.total_states << ", "
            << rep.wall_seconds << " s, " << rep.shard_pending
            << " of the owned classes pending" << std::endl;
  // Success = every class this shard owns is decided; classes owned by
  // other shards are someone else's job and do not count against us.
  return rep.shard_pending == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cli_args args;
  args.define("m", "0", "registers to sweep (required, >= 2)");
  args.define("n", "2", "processes in the Fig. 1 configuration");
  args.define("shard-index", "0", "this shard's index in [0, shard-count)");
  args.define("shard-count", "1", "total shards partitioning the class list");
  args.define("workers", "1", "worker threads inside this shard process");
  args.define("journal", "",
              "checkpoint journal path (anoncoord-sweep-ckpt-v1); with "
              "--launch it is the base name, children append .shard<k>-of-<C>");
  args.define("max-states", "8000000", "per-class explored-state cap");
  args.define("max-classes", "0",
              "verify at most this many classes this invocation (0 = all "
              "owned; the deterministic kill used by tests)");
  args.define("spill-budget-mb", "0",
              "per-class arena resident budget in MiB (0 = in-memory)");
  args.define("spill-dir", "", "directory for arena spill files");
  args.define("balance", "count",
              "shard-slice sizing: 'count' (equal class counts) or 'cost' "
              "(equal estimated cost via balanced_shard_bounds; cost = "
              "per-class states from --cost-journal where recorded, class "
              "weight otherwise)");
  args.define("cost-journal", "",
              "prior run's journal (same sweep shape) supplying measured "
              "per-class state counts for --balance=cost; partial journals "
              "are fine — undecided classes use the weight heuristic");
  args.define("count-only", "false",
              "print the orbit-class count and weighted total for --m, then "
              "exit (sizes a sweep without running it)");
  args.define("launch", "0",
              "fork this many single-shard child processes covering all "
              "shards, then wait; requires --journal");
  if (!args.parse(argc, argv)) {
    std::cout << args.help("sweep_shard");
    return 0;
  }

  shard_params p;
  p.m = static_cast<int>(args.get_int("m"));
  p.n = static_cast<int>(args.get_int("n"));
  if (p.m < 2 || p.n < 2) {
    std::cerr << "sweep_shard: need --m >= 2 and --n >= 2 (got m=" << p.m
              << " n=" << p.n << "); see --help\n";
    return 2;
  }

  if (args.get_bool("count-only")) {
    const auto classes = naming_orbit_classes(p.n, p.m);
    std::uint64_t weight = 0;
    for (const auto& c : classes) weight += c.weight;
    std::cout << "m=" << p.m << " n=" << p.n << ": " << classes.size()
              << " quotient classes, weight sum " << weight << " = (m!)^(n-1)"
              << ", deciding " << weight * naming_orbit_size(p.m)
              << " full naming tuples" << std::endl;
    return 0;
  }

  p.shard_index = static_cast<int>(args.get_int("shard-index"));
  p.shard_count = static_cast<int>(args.get_int("shard-count"));
  p.workers = std::max(1, static_cast<int>(args.get_int("workers")));
  p.journal = args.get("journal");
  p.max_states = static_cast<std::uint64_t>(args.get_int("max-states"));
  p.max_classes = static_cast<std::uint64_t>(args.get_int("max-classes"));
  p.spill_budget_bytes =
      static_cast<std::uint64_t>(args.get_int("spill-budget-mb")) << 20;
  p.spill_dir = args.get("spill-dir");

  const std::string balance = args.get("balance");
  if (balance != "count" && balance != "cost") {
    std::cerr << "sweep_shard: --balance must be 'count' or 'cost' (got '"
              << balance << "')\n";
    return 2;
  }
  if (balance == "cost") {
    // Every shard process MUST compute the identical cost vector or the
    // slices will not tile; that is why the costs come from the class list
    // (deterministic) plus one shared journal file, not from local state.
    p.class_costs = build_class_costs(naming_orbit_classes(p.n, p.m), p.m,
                                      p.n, args.get("cost-journal"));
  } else if (!args.get("cost-journal").empty()) {
    std::cerr << "sweep_shard: --cost-journal requires --balance=cost\n";
    return 2;
  }

  const int launch = static_cast<int>(args.get_int("launch"));
  if (launch <= 0) return run_shard(p);

  // Launcher mode: fork() BEFORE any threads exist (each child builds its
  // own worker pool), one single-shard process per slice. Children inherit
  // the parsed params, overriding shard spec and journal path.
  if (p.journal.empty()) {
    std::cerr << "sweep_shard: --launch needs --journal as the base name\n";
    return 2;
  }
  std::vector<pid_t> kids;
  for (int k = 0; k < launch; ++k) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("sweep_shard: fork");
      return 2;
    }
    if (pid == 0) {
      shard_params cp = p;
      cp.shard_index = k;
      cp.shard_count = launch;
      cp.journal = p.journal + ".shard" + std::to_string(k) + "-of-" +
                   std::to_string(launch);
      _exit(run_shard(cp));
    }
    kids.push_back(pid);
  }
  int status = 0, rc = 0;
  for (const pid_t pid : kids) {
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
      rc = 1;
  }
  if (rc == 0)
    std::cout << "launcher: all " << launch << " shards completed; merge "
              << "with: sweep_merge --inputs=" << p.journal << ".shard0-of-"
              << launch << ",..." << std::endl;
  return rc;
}
