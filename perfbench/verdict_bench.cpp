// verdict_bench: time to a verdict, end to end, with per-layer attribution
// taken from outside the library.
//
// Each workload is a closed loop driven from this one process with at most
// two threads: a call starts only after the previous one returned. One cold
// set-up probe, one untimed warm-up call and several warm set-up probes come
// first (see closed_loop), then timed calls run until --seconds have passed.
// Every call's output is checked against the pinned answers below; a
// mismatch counts as a failed operation and makes the exit code nonzero.
//
// The library is driven only through its public entry points: the explorer /
// parallel_explorer constructors, explore() and check_progress();
// symmetry_group::compute, naming_orbit_classes and verify_naming_sweep; and
// run_mutex_stress. Layer times are spans around those calls; layer counts
// are the counters those calls already return.
//
//   verdict_bench --workload ref-fig1 --seed 1 --seconds 10 --trace 0 --out DIR
//   verdict_bench --list           workload names, one a line
//   verdict_bench --list-metrics   "name unit kind" for every metric
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates traced and
// untraced calls, records spans (name, start, end, parent, counters) in
// memory, and writes them with the attribution table to
// DIR/<workload>-seed<seed>-trace.json when the run ends. The last line on
// stdout is a JSON object with the verdict counts and every metric.
#include <alloca.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/anon_mutex.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/fa_check.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/parallel_explorer.hpp"
#include "modelcheck/symmetry.hpp"
#include "modelcheck/verify.hpp"
#include "obs/obs.hpp"
#include "runtime/threaded.hpp"
#include "util/permutation.hpp"
#include "util/probe_group.hpp"

using namespace anoncoord;

namespace {

// ---------------------------------------------------------------------------
// Pinned configurations and their answers (the output oracle). Every seed
// relabels ids and registers only, which are isomorphisms, so the answers
// hold for every seed.
// ---------------------------------------------------------------------------

constexpr int kFig1Registers = 5;
constexpr int kFig1Stride = 2;
constexpr std::uint64_t kFig1States = 342'886;

constexpr int kFaProcesses = 4;
constexpr int kFaRegisters = 3;
constexpr int kFaGroupSize = 72;  // S_4 x C_3
constexpr std::uint64_t kFaStates = 115'415;

constexpr int kSweepRegisters = 4;
constexpr std::uint64_t kSweepClasses = 17;
constexpr std::uint64_t kSweepStates = 1'080'319;
constexpr std::uint64_t kSweepTuples = 576;  // (4!)^2
constexpr std::uint64_t kSweepBudgetBytes = std::uint64_t{1} << 18;

constexpr std::uint64_t kMutexEntriesPerThread = 20'000;

constexpr int kWorkers = 2;
constexpr std::uint64_t kMaxStates = 8'000'000;
constexpr int kSetupReps = 15;

// ---------------------------------------------------------------------------
// Metric table: every name this program can emit, with its unit.
//   e2e   — end-to-end, every workload, untraced runs;
//   extra — end-to-end, only on the workloads it applies to;
//   layer — per-layer, every workload (0 where a layer is not exercised),
//           traced runs.
// ---------------------------------------------------------------------------

enum class kind { e2e, extra, layer };

struct metric_def {
  const char* name;
  const char* unit;
  kind when;
};

constexpr metric_def kMetrics[] = {
    {"setup_s", "s", kind::e2e},
    {"verify_s.p50", "s", kind::e2e},
    {"verify_cpu_s.p50", "s", kind::e2e},
    {"peak_rss_mb", "MB", kind::e2e},
    {"setup_cold_s", "s", kind::extra},
    {"verify_s.p75", "s", kind::extra},
    {"verify_s.p90", "s", kind::extra},
    {"verify_s.samples", "count", kind::extra},
    {"states_per_s", "1/s", kind::extra},
    {"bytes_per_state", "B", kind::extra},
    {"sweep_classes_per_hour", "1/h", kind::extra},
    {"mutex_entries_per_s", "1/s", kind::extra},
    {"failed_frac", "1", kind::extra},
    {"explorer.construct_s", "s", kind::layer},
    {"explorer.explore_s", "s", kind::layer},
    {"explorer.check_progress_s", "s", kind::layer},
    {"explorer.states", "count", kind::layer},
    {"explorer.edges", "count", kind::layer},
    {"explorer.dedup_hits", "count", kind::layer},
    {"explorer.dedup_ratio", "1", kind::layer},
    {"explore.expand_ns", "ns", kind::layer},
    {"explore.canonicalize_ns", "ns", kind::layer},
    {"explore.probe_ns", "ns", kind::layer},
    {"explore.encode_ns", "ns", kind::layer},
    {"explore.unattributed_ns", "ns", kind::layer},
    {"probe.groups_per_lookup", "1", kind::layer},
    {"probe.max_group_chain", "count", kind::layer},
    {"symmetry.group_size", "count", kind::layer},
    {"symmetry.compute_s", "s", kind::layer},
    {"canonicalize.full_applies_per_state", "1", kind::layer},
    {"canonicalize.prune_ratio", "1", kind::layer},
    {"state_pool.values", "count", kind::layer},
    {"state_pool.machines", "count", kind::layer},
    {"state_pool.bytes", "B", kind::layer},
    {"arena.row_bytes", "B", kind::layer},
    {"arena.keyframe_frac", "1", kind::layer},
    {"arena.spill_pages", "count", kind::layer},
    {"arena.spill_bytes", "B", kind::layer},
    {"parallel.cpu_per_wall", "1", kind::layer},
    {"parallel.excess_states", "count", kind::layer},
    {"sweep.enumerate_s", "s", kind::layer},
    {"sweep.class_s.p50", "s", kind::layer},
    {"sweep.class_s.max", "s", kind::layer},
    {"sweep.overhead_s", "s", kind::layer},
    {"journal.records", "count", kind::layer},
    {"mutex.register_ops_per_entry", "1", kind::layer},
    {"futex.parks_per_entry", "1", kind::layer},
    {"futex.wakes_per_entry", "1", kind::layer},
    {"futex.spin_wins_per_entry", "1", kind::layer},
    {"futex.timeouts", "count", kind::layer},
    {"trace.overhead_frac", "1", kind::layer},
    {"trace.explained_frac", "1", kind::layer},
};

// ---------------------------------------------------------------------------
// Clocks, statistics, seeded inputs.
// ---------------------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// splitmix64: a fixed, portable stream, so one seed means one input set on
/// every platform.
class seed_stream {
 public:
  explicit seed_stream(std::uint64_t seed) : x_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t x_;
};

/// A global register relabeling: conjugating every numbering by it is an
/// isomorphism of the transition system.
permutation seeded_relabeling(int registers, seed_stream& rng) {
  permutation p = identity_permutation(registers);
  for (std::size_t i = p.size(); i > 1; --i)
    std::swap(p[i - 1], p[static_cast<std::size_t>(rng.below(i))]);
  return p;
}

/// Two distinct positive process identifiers.
std::vector<process_id> seeded_ids(seed_stream& rng) {
  const process_id a = 1 + rng.below(1'000'000);
  process_id b = a;
  while (b == a) b = 1 + rng.below(1'000'000);
  return {a, b};
}

std::vector<anon_mutex> fig1_machines(const std::vector<process_id>& ids,
                                      int registers = kFig1Registers) {
  std::vector<anon_mutex> out;
  for (const process_id id : ids) out.emplace_back(id, registers);
  return out;
}

/// Fig. 1 at n = 2, m = 5: process 1's numbering rotated by the stride,
/// then both numberings conjugated by the seed's relabeling.
naming_assignment fig1_naming(seed_stream& rng) {
  const naming_assignment base(
      {identity_permutation(kFig1Registers),
       rotation_permutation(kFig1Registers, kFig1Stride)});
  return apply_global_permutation(base,
                                  seeded_relabeling(kFig1Registers, rng));
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out when the run ends.
// ---------------------------------------------------------------------------

struct span_record {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::vector<std::pair<std::string, double>> counters;
};

class span_log {
 public:
  explicit span_log(bool on) : on_(on) {}

  bool on() const { return on_; }

  int open(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, wall_now(), 0.0, current_, {}});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    if (id < 0) return;
    span_record& s = spans_[static_cast<std::size_t>(id)];
    s.end = wall_now();
    current_ = s.parent;
  }

  void note(int id, const char* key, double value) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].counters.emplace_back(key, value);
  }

  const std::vector<span_record>& spans() const { return spans_; }

  /// Self time per span name, summed: a span's duration minus the part its
  /// direct children cover.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const span_record& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    return out;
  }

  /// Total duration per span name.
  std::map<std::string, double> total_seconds() const {
    std::map<std::string, double> out;
    for (const span_record& s : spans_) out[s.name] += s.end - s.start;
    return out;
  }

 private:
  bool on_;
  int current_ = -1;
  std::vector<span_record> spans_;
};

// ---------------------------------------------------------------------------
// Run state shared by every workload.
// ---------------------------------------------------------------------------

struct attribution_row {
  std::string layer;
  double seconds = 0;  // summed over the traced calls
};

struct run_state {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // oracle mismatches, first few kept
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;  // raw per-call values
  std::vector<attribution_row> attribution;
  double attribution_total = 0;  // the end-to-end span the rows divide
  std::string attribution_basis;
  span_log log{false};
  span_log off{false};

  void problem(const std::string& what) {
    if (problems.size() < 8) problems.push_back(what);
  }
};

/// Set-up probe seconds, and wall and CPU seconds per call. In traced runs
/// the calls alternate between untraced (these feed the end-to-end numbers)
/// and traced.
struct loop_samples {
  double cold_setup = 0;
  std::vector<double> setup, wall, cpu, traced_wall;
};

/// Runs `f` with the stack shifted by `bytes`. The threaded harness keeps its
/// shared atomics (park event, occupancy counter, canary) in one stack frame,
/// and which of them share a cache line depends on the stack address, which
/// ASLR fixes once per process. Shifting the stack per call makes every run
/// sample many layouts instead of being stuck with one.
template <class F>
[[gnu::noinline]] std::uint64_t at_stack_offset(std::size_t bytes, F&& f) {
  void* pad = alloca(bytes);
  asm volatile("" : : "r"(pad) : "memory");
  return f();
}

/// The closed loop: one cold set-up probe, one untimed warm-up call, the
/// warm set-up probes, then calls until the run's seconds have passed. Cold
/// set-up is dominated by first-touch page faults, whose cost in this kind of
/// VM settles at one of several levels per process (105, 182 or 280 us for
/// ref-fig1), so it is printed but the reported set-up is the warm median.
/// `setup()` returns one probe's seconds; `call(log)` returns how many of its
/// `ops` operations failed the oracle. A traced run makes at least one call
/// of each kind.
template <class Setup, class Call>
loop_samples closed_loop(run_state& rs, std::uint64_t ops, Setup&& setup,
                         Call&& call) {
  loop_samples out;
  out.cold_setup = setup();
  seed_stream layout(rs.seed ^ 0x5eedULL);
  const auto shifted = [&](span_log& log) {
    return at_stack_offset(16 * (1 + layout.below(256)),
                           [&] { return call(log); });
  };
  rs.attempted += ops;
  rs.failed += shifted(rs.off);
  for (int r = 0; r < kSetupReps; ++r) out.setup.push_back(setup());
  const double stop = wall_now() + rs.seconds;
  bool traced_turn = false;
  while (wall_now() < stop ||
         (rs.trace && (out.wall.empty() || out.traced_wall.empty()))) {
    const bool traced = rs.trace && traced_turn;
    traced_turn = !traced_turn;
    const double w0 = wall_now();
    const double c0 = cpu_now();
    rs.failed += shifted(traced ? rs.log : rs.off);
    const double c = cpu_now() - c0;
    const double w = wall_now() - w0;
    rs.attempted += ops;
    if (traced) {
      out.traced_wall.push_back(w);
    } else {
      out.wall.push_back(w);
      out.cpu.push_back(c);
    }
  }
  return out;
}

double median_of_reps(int reps, const std::function<double()>& once) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) v.push_back(once());
  return median(v);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// End-to-end timing metrics common to every workload.
void report_loop(run_state& rs, const loop_samples& s) {
  rs.samples["setup_s"] = s.setup;
  rs.samples["verify_s"] = s.wall;
  rs.samples["verify_cpu_s"] = s.cpu;
  rs.samples["traced_verify_s"] = s.traced_wall;
  rs.metrics["setup_s"] = median(s.setup);
  rs.metrics["setup_cold_s"] = s.cold_setup;
  rs.metrics["verify_s.p50"] = median(s.wall);
  rs.metrics["verify_s.p75"] = percentile(s.wall, 75.0);
  rs.metrics["verify_s.p90"] = percentile(s.wall, 90.0);
  rs.metrics["verify_cpu_s.p50"] = median(s.cpu);
  rs.metrics["verify_s.samples"] = static_cast<double>(s.wall.size());
  rs.metrics["peak_rss_mb"] = peak_rss_mb();
  if (rs.trace)
    rs.metrics["trace.overhead_frac"] =
        ratio(median(s.traced_wall), median(s.wall)) - 1.0;
}

// ---------------------------------------------------------------------------
// ref-fig1 and fa-sym: full verification (explore, then check_progress).
// ---------------------------------------------------------------------------

/// What one verification call returns, read from the engine afterwards.
struct explore_counts {
  double construct_s = 0, explore_s = 0, progress_s = 0, explore_cpu_s = 0;
  std::uint64_t states = 0, edges = 0, dedup_hits = 0;
  explore_phase_stats phases;
  canonicalize_stats canon;
  std::uint64_t pool_values = 0, pool_machines = 0, pool_bytes = 0;
  std::uint64_t row_bytes = 0, keyframes = 0;
  arena_spill_stats spill;

  std::uint64_t phase_ns() const {
    return phases.expand_ns + phases.canonicalize_ns + phases.probe_ns +
           phases.encode_ns;
  }
};

template <class Engine, class Machine>
struct verification {
  using state = global_state<Machine>;
  int registers = 0;
  naming_assignment naming;
  std::vector<Machine> machines;
  typename Engine::options opt;
  int workers = 1;
  std::uint64_t pinned_states = 0;
  std::function<bool(const state&)> bad, trying, goal;

  /// One closed-loop call; returns 1 if the verdict or count is wrong.
  std::uint64_t verify(run_state& rs, span_log& log, explore_counts& c) const {
    const int root = log.open("verify");
    bool ok = false;
    {
      double t = wall_now();
      const int sc = log.open("explorer.construct");
      Engine e(registers, naming, machines, opt);
      log.close(sc);
      c.construct_s = wall_now() - t;

      const int sx = log.open("explorer.explore");
      t = wall_now();
      const double cpu0 = cpu_now();
      auto res = e.explore(bad);
      c.explore_cpu_s = cpu_now() - cpu0;
      c.explore_s = wall_now() - t;
      c.states = res.num_states;
      c.edges = res.num_edges;
      c.dedup_hits = res.dedup_hits;
      c.phases = e.phase_counters();
      c.canon = e.canonicalize_counters();
      c.pool_values = e.pool().num_values();
      c.pool_machines = e.pool().num_machines();
      c.pool_bytes = e.pool().storage_bytes();
      c.row_bytes = e.stored_row_bytes();
      c.keyframes = e.keyframe_rows();
      c.spill = e.spill_stats();
      log.note(sx, "states", static_cast<double>(c.states));
      log.note(sx, "expand_ns", static_cast<double>(c.phases.expand_ns));
      log.note(sx, "canonicalize_ns",
               static_cast<double>(c.phases.canonicalize_ns));
      log.note(sx, "probe_ns", static_cast<double>(c.phases.probe_ns));
      log.note(sx, "encode_ns", static_cast<double>(c.phases.encode_ns));
      log.note(sx, "cpu_s", c.explore_cpu_s);
      log.close(sx);

      ok = res.complete && !res.safety_violated();
      if (ok) {
        const int sp = log.open("explorer.check_progress");
        t = wall_now();
        e.check_progress(res, trying, goal);
        c.progress_s = wall_now() - t;
        log.note(sp, "stuck_states", static_cast<double>(res.stuck_states));
        log.close(sp);
        ok = !res.progress_violated();
      }
    }  // engine teardown counts toward the root span's self time
    log.close(root);

    if (!ok) {
      rs.problem("verdict is not OK (complete, no violation, no stuck state)");
      return 1;
    }
    // The parallel engine may store duplicates (a known determinism bug);
    // those are recorded as parallel.excess_states, never as failures.
    // Missing states are always a failure.
    const bool count_ok = workers > 1 ? c.states >= pinned_states
                                      : c.states == pinned_states;
    if (!count_ok) {
      rs.problem("stored " + std::to_string(c.states) + " states, expected " +
                 std::to_string(pinned_states));
      return 1;
    }
    return 0;
  }

  /// Set-up: engine construction (group computation included) up to the
  /// first explored state, which the safety predicate sees first. Returning
  /// true there stops the exploration.
  double setup_probe() const {
    double first = 0;
    const double t0 = wall_now();
    Engine e(registers, naming, machines, opt);
    e.explore([&first](const state&) {
      if (first == 0) first = wall_now();
      return true;
    });
    return first - t0;
  }

  void run(run_state& rs) const {
    std::vector<explore_counts> traced;
    explore_counts last;
    std::uint64_t max_excess = 0;
    const auto setup = [&] { return setup_probe(); };
    const loop_samples s = closed_loop(rs, 1, setup, [&](span_log& log) {
      explore_counts c;
      const std::uint64_t failed = verify(rs, log, c);
      if (c.states > pinned_states)
        max_excess = std::max(max_excess, c.states - pinned_states);
      if (log.on()) traced.push_back(c);
      last = c;
      return failed;
    });
    report_loop(rs, s);
    rs.metrics["states_per_s"] = ratio(static_cast<double>(pinned_states),
                                       median(s.wall));
    rs.metrics["bytes_per_state"] =
        ratio(static_cast<double>(last.row_bytes),
              static_cast<double>(last.states));
    if (max_excess > 0)
      std::cout << "parallel engine stored up to " << max_excess
                << " excess states (known determinism bug; not a failure)\n";
    if (rs.trace) report_layers(rs, traced, max_excess);
  }

  void report_layers(run_state& rs, const std::vector<explore_counts>& traced,
                     std::uint64_t max_excess) const {
    using ec = explore_counts;
    const auto med = [&](auto field) {
      std::vector<double> v;
      for (const ec& c : traced) v.push_back(field(c));
      return median(v);
    };
    const auto ns = [](std::uint64_t v) { return static_cast<double>(v); };
    auto& m = rs.metrics;
    m["explorer.construct_s"] = med([](const ec& c) { return c.construct_s; });
    m["explorer.explore_s"] = med([](const ec& c) { return c.explore_s; });
    m["explorer.check_progress_s"] =
        med([](const ec& c) { return c.progress_s; });
    m["explore.expand_ns"] =
        med([&](const ec& c) { return ns(c.phases.expand_ns); });
    m["explore.canonicalize_ns"] =
        med([&](const ec& c) { return ns(c.phases.canonicalize_ns); });
    m["explore.probe_ns"] =
        med([&](const ec& c) { return ns(c.phases.probe_ns); });
    m["explore.encode_ns"] =
        med([&](const ec& c) { return ns(c.phases.encode_ns); });
    // Parallel phase counters sum per-worker ticks; dividing by the worker
    // count puts them on the explore span's wall-clock basis.
    const double w = static_cast<double>(workers);
    m["explore.unattributed_ns"] = med([&](const ec& c) {
      return c.explore_s * 1e9 - ns(c.phase_ns()) / w;
    });
    m["parallel.cpu_per_wall"] =
        med([](const ec& c) { return ratio(c.explore_cpu_s, c.explore_s); });
    m["parallel.excess_states"] = static_cast<double>(max_excess);

    const ec& c = traced.back();
    const double states = static_cast<double>(c.states);
    m["explorer.states"] = states;
    m["explorer.edges"] = static_cast<double>(c.edges);
    m["explorer.dedup_hits"] = static_cast<double>(c.dedup_hits);
    m["explorer.dedup_ratio"] = ratio(static_cast<double>(c.dedup_hits),
                                      static_cast<double>(c.edges));
    m["probe.groups_per_lookup"] =
        ratio(static_cast<double>(c.phases.probe_groups_scanned),
              static_cast<double>(c.edges));
    m["probe.max_group_chain"] =
        static_cast<double>(c.phases.probe_max_group_chain);
    const double pruned =
        static_cast<double>(c.canon.first_word_pruned + c.canon.prefix_pruned);
    m["canonicalize.full_applies_per_state"] =
        ratio(static_cast<double>(c.canon.full_applies), states);
    m["canonicalize.prune_ratio"] =
        ratio(pruned, pruned + static_cast<double>(c.canon.full_applies));
    m["state_pool.values"] = static_cast<double>(c.pool_values);
    m["state_pool.machines"] = static_cast<double>(c.pool_machines);
    m["state_pool.bytes"] = static_cast<double>(c.pool_bytes);
    m["arena.row_bytes"] = static_cast<double>(c.row_bytes);
    m["arena.keyframe_frac"] = ratio(static_cast<double>(c.keyframes), states);
    m["arena.spill_pages"] = static_cast<double>(c.spill.spilled_pages);
    m["arena.spill_bytes"] = static_cast<double>(c.spill.spill_bytes);

    // symmetry_group::compute called directly, as the engine calls it.
    int group_size = 0;
    m["symmetry.compute_s"] = median_of_reps(kSetupReps, [&] {
      const int sg = rs.log.open("symmetry.compute");
      const double t0 = wall_now();
      const auto g = symmetry_group<Machine>::compute(naming, machines);
      const double dt = wall_now() - t0;
      rs.log.close(sg);
      group_size = g.size();
      return dt;
    });
    m["symmetry.group_size"] = group_size;

    // Attribution over every traced call: self time of each span, with the
    // explore span split by the program's own phase counters.
    const auto self = rs.log.self_seconds();
    const auto total = rs.log.total_seconds();
    double phase[4] = {0, 0, 0, 0};
    for (const ec& t : traced) {
      phase[0] += ns(t.phases.expand_ns) / w * 1e-9;
      phase[1] += ns(t.phases.canonicalize_ns) / w * 1e-9;
      phase[2] += ns(t.phases.probe_ns) / w * 1e-9;
      phase[3] += ns(t.phases.encode_ns) / w * 1e-9;
    }
    const double explore = total.at("explorer.explore");
    const double progress = total.count("explorer.check_progress")
                                ? total.at("explorer.check_progress")
                                : 0.0;
    const double phases = phase[0] + phase[1] + phase[2] + phase[3];
    rs.attribution = {
        {"explorer.construct", self.at("explorer.construct")},
        {"explore.expand", phase[0]},
        {"explore.canonicalize", phase[1]},
        {"explore.probe", phase[2]},
        {"explore.encode", phase[3]},
        {"explore.unattributed", explore - phases},
        {"explorer.check_progress", progress},
        {"verify.unattributed", self.at("verify")},
    };
    rs.attribution_total = total.at("verify");
    rs.attribution_basis =
        workers > 1 ? "explore phases are summed worker CPU / workers"
                    : "explore phases are the engine's wall-time split";
    m["trace.explained_frac"] = ratio(phases + progress, explore + progress);
  }
};

void run_ref_fig1(run_state& rs) {
  seed_stream rng(rs.seed);
  verification<explorer<anon_mutex>, anon_mutex> v;
  v.registers = kFig1Registers;
  v.machines = fig1_machines(seeded_ids(rng));
  v.naming = fig1_naming(rng);
  v.opt.max_states = kMaxStates;
  v.pinned_states = kFig1States;
  v.bad = [](const global_state<anon_mutex>& s) {
    return mutex_cs_count(s) >= 2;
  };
  v.trying = mutex_someone_trying;
  v.goal = [](const global_state<anon_mutex>& s) {
    return mutex_cs_count(s) >= 1;
  };
  v.run(rs);
}

void run_fa_sym(run_state& rs) {
  seed_stream rng(rs.seed);
  verification<parallel_explorer<fa_mutex>, fa_mutex> v;
  v.registers = kFaRegisters;
  v.machines.assign(kFaProcesses, fa_mutex(kFaRegisters));
  v.naming = apply_global_permutation(
      naming_assignment::identity(kFaProcesses, kFaRegisters),
      seeded_relabeling(kFaRegisters, rng));
  v.opt.workers = kWorkers;
  v.opt.max_states = kMaxStates;
  v.opt.symmetry = true;
  v.workers = kWorkers;
  v.pinned_states = kFaStates;
  v.bad = [](const global_state<fa_mutex>& s) {
    return fa_mutex_cs_count(s) >= 2;
  };
  v.trying = fa_mutex_someone_trying;
  v.goal = [](const global_state<fa_mutex>& s) {
    return fa_mutex_cs_count(s) >= 1;
  };
  v.run(rs);
  if (rs.trace && rs.metrics["symmetry.group_size"] != kFaGroupSize) {
    rs.problem("symmetry group size is not 72");
    ++rs.failed;
  }
}

// ---------------------------------------------------------------------------
// sweep-m4: the Fig. 1 n = 2 quotient naming sweep at m = 4. Safety holds at
// every even m too (only progress fails), so every class is OK. The m = 5
// sweep (73 classes, 18.9M states) was dropped: its classes' tables outgrow
// the caches, and under outside load its time per call doubled where
// ref-fig1's rose by a third, so its runs spread past any usable bound.
// ---------------------------------------------------------------------------

std::uint64_t journal_records(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::uint64_t n = 0;
  if (!std::getline(in, line)) return 0;  // header
  while (std::getline(in, line)) {
    std::uint64_t idx = 0;
    sweep_class_record rec;
    if (parse_sweep_record(line, idx, rec)) ++n;
  }
  return n;
}

void run_sweep_m4(run_state& rs) {
  seed_stream rng(rs.seed);
  const std::vector<anon_mutex> machines =
      fig1_machines(seeded_ids(rng), kSweepRegisters);
  const config_predicate<anon_mutex> two_in_cs =
      [](const std::vector<process_id>&, const std::vector<anon_mutex>& ps) {
        int c = 0;
        for (const auto& p : ps)
          if (p.in_critical_section()) ++c;
        return c >= 2;
      };
  const std::string stem = rs.out_dir + "/sweep-" + std::to_string(::getpid());
  const std::string journal = stem + ".journal";
  const std::string spill_dir = stem + ".spill";
  std::filesystem::create_directories(spill_dir);
  verify_options vo;
  vo.max_states = kMaxStates;
  vo.spill_budget_bytes = kSweepBudgetBytes;
  vo.spill_dir = spill_dir;
  sweep_schedule_options so;
  so.workers = kWorkers;
  so.checkpoint_path = journal;

  // Set-up: class enumeration, journal open, pool start and the first
  // class's engine, up to the first explored state.
  const auto setup = [&] {
    std::filesystem::remove(journal);
    std::once_flag once;
    double first = 0;
    const config_predicate<anon_mutex> stop_at_first =
        [&](const std::vector<process_id>&, const std::vector<anon_mutex>&) {
          std::call_once(once, [&] { first = wall_now(); });
          return true;
        };
    const double t0 = wall_now();
    verify_naming_sweep<anon_mutex>(kSweepRegisters, machines, stop_at_first,
                                    true, vo, true, so);
    return first - t0;
  };

  std::uint64_t records = 0;
  const auto sweep = [&](span_log& log) -> std::uint64_t {
    std::filesystem::remove(journal);
    const int sp = log.open("verify_naming_sweep");
    const naming_sweep_report r = verify_naming_sweep<anon_mutex>(
        kSweepRegisters, machines, two_in_cs, true, vo, true, so);
    log.note(sp, "states", static_cast<double>(r.total_states));
    log.close(sp);
    records = journal_records(journal);
    if (r.configs != kSweepClasses || r.total_states != kSweepStates ||
        r.full_configs != kSweepTuples || r.pending_classes != 0 ||
        records != kSweepClasses) {
      rs.problem("sweep totals: classes " + std::to_string(r.configs) +
                 ", states " + std::to_string(r.total_states) + ", tuples " +
                 std::to_string(r.full_configs) + ", journal records " +
                 std::to_string(records));
      return kSweepClasses;
    }
    if (r.violated + r.incomplete != 0)
      rs.problem("sweep: " + std::to_string(r.violated) + " violated, " +
                 std::to_string(r.incomplete) + " incomplete");
    return r.violated + r.incomplete;
  };
  const loop_samples s = closed_loop(rs, kSweepClasses, setup, sweep);
  report_loop(rs, s);
  rs.metrics["sweep_classes_per_hour"] =
      ratio(static_cast<double>(kSweepClasses) * 3600.0, median(s.wall));
  rs.metrics["states_per_s"] =
      ratio(static_cast<double>(kSweepStates), median(s.wall));

  if (rs.trace) {
    auto& m = rs.metrics;
    m["journal.records"] = static_cast<double>(records);
    std::vector<weighted_naming> classes;
    m["sweep.enumerate_s"] = median_of_reps(kSetupReps, [&] {
      const int se = rs.log.open("naming_orbit_classes");
      const double t0 = wall_now();
      classes = naming_orbit_classes(2, kSweepRegisters);
      const double dt = wall_now() - t0;
      rs.log.close(se);
      return dt;
    });
    // Replay the class list one verify_config call at a time: per-class
    // spans, spill traffic and the program's phase split per class.
    const int sr = rs.log.open("sweep.replay");
    std::vector<double> class_s;
    verify_report sum;
    for (const weighted_naming& c : classes) {
      const int sc = rs.log.open("sweep.class");
      const double t0 = wall_now();
      const verify_report rep = verify_config<anon_mutex>(
          {kSweepRegisters, c.naming, machines}, two_in_cs, vo);
      class_s.push_back(wall_now() - t0);
      rs.log.note(sc, "states", static_cast<double>(rep.states));
      rs.log.note(sc, "spill_pages", static_cast<double>(rep.spill_pages));
      rs.log.close(sc);
      ++rs.attempted;
      if (!rep.ok()) {
        rs.problem("replayed class is not OK");
        ++rs.failed;
      }
      sum.states += rep.states;
      sum.edges += rep.edges;
      sum.dedup_hits += rep.dedup_hits;
      sum.spill_pages += rep.spill_pages;
      sum.spill_bytes += rep.spill_bytes;
      sum.expand_ns += rep.expand_ns;
      sum.canonicalize_ns += rep.canonicalize_ns;
      sum.probe_ns += rep.probe_ns;
      sum.encode_ns += rep.encode_ns;
      sum.probe_groups_scanned += rep.probe_groups_scanned;
      sum.probe_max_group_chain =
          std::max(sum.probe_max_group_chain, rep.probe_max_group_chain);
    }
    rs.log.close(sr);
    if (classes.size() != kSweepClasses || sum.states != kSweepStates) {
      rs.problem("replay: " + std::to_string(classes.size()) + " classes, " +
                 std::to_string(sum.states) + " states");
      ++rs.failed;
    }
    double class_total = 0;
    for (const double t : class_s) class_total += t;
    const double sweep_wall = median(s.traced_wall);
    m["sweep.class_s.p50"] = median(class_s);
    m["sweep.class_s.max"] = percentile(class_s, 100.0);
    m["sweep.overhead_s"] = kWorkers * sweep_wall - class_total;
    m["explorer.states"] = static_cast<double>(sum.states);
    m["explorer.edges"] = static_cast<double>(sum.edges);
    m["explorer.dedup_hits"] = static_cast<double>(sum.dedup_hits);
    m["explorer.dedup_ratio"] = ratio(static_cast<double>(sum.dedup_hits),
                                      static_cast<double>(sum.edges));
    m["arena.spill_pages"] = static_cast<double>(sum.spill_pages);
    m["arena.spill_bytes"] = static_cast<double>(sum.spill_bytes);
    m["explore.expand_ns"] = static_cast<double>(sum.expand_ns);
    m["explore.canonicalize_ns"] = static_cast<double>(sum.canonicalize_ns);
    m["explore.probe_ns"] = static_cast<double>(sum.probe_ns);
    m["explore.encode_ns"] = static_cast<double>(sum.encode_ns);
    m["probe.groups_per_lookup"] =
        ratio(static_cast<double>(sum.probe_groups_scanned),
              static_cast<double>(sum.edges));
    m["probe.max_group_chain"] = static_cast<double>(sum.probe_max_group_chain);
    const double phases =
        static_cast<double>(sum.expand_ns + sum.canonicalize_ns +
                            sum.probe_ns + sum.encode_ns) * 1e-9;
    m["explore.unattributed_ns"] = (class_total - phases) * 1e9;
    m["trace.explained_frac"] = ratio(phases, class_total);

    // Attribution of one traced sweep: enumeration, the classes' engine
    // phases spread over the workers, and the scheduler remainder.
    const double enumerate = m["sweep.enumerate_s"];
    const double w = kWorkers;
    const auto per_worker_s = [w](std::uint64_t ns) {
      return static_cast<double>(ns) * 1e-9 / w;
    };
    rs.attribution = {
        {"sweep.enumerate", enumerate},
        {"class.expand", per_worker_s(sum.expand_ns)},
        {"class.canonicalize", per_worker_s(sum.canonicalize_ns)},
        {"class.probe", per_worker_s(sum.probe_ns)},
        {"class.encode", per_worker_s(sum.encode_ns)},
        {"class.unattributed", (class_total - phases) / w},
        {"sweep.overhead", sweep_wall - class_total / w - enumerate},
    };
    rs.attribution_total = sweep_wall;
    rs.attribution_basis =
        "class rows are replayed class times / workers; overhead is the rest";
  }
  std::filesystem::remove(journal);
  std::filesystem::remove_all(spill_dir);
}

// ---------------------------------------------------------------------------
// mutex-threads: Fig. 1 on real threads over the shared register file.
// ---------------------------------------------------------------------------

void run_mutex_threads(run_state& rs) {
  seed_stream rng(rs.seed);
  const std::vector<anon_mutex> machines = fig1_machines(seeded_ids(rng));
  const naming_assignment naming = fig1_naming(rng);
  threaded_options to;
  to.wait = wait_mode::futex;
  const auto stress = [&](std::uint64_t entries) {
    return run_mutex_stress<memory_discipline::seq_cst>(
        machines, kFig1Registers, naming, entries, to);
  };

  // Set-up: register file, park event and thread start-up, measured as a
  // call that makes one entry per thread.
  const auto setup = [&] {
    const double t0 = wall_now();
    stress(1);
    return wall_now() - t0;
  };

  const std::uint64_t entries = kMutexEntriesPerThread * machines.size();
  std::vector<mutex_stress_result> traced;
  const loop_samples s = closed_loop(rs, entries, setup, [&](span_log& log) {
    const int sp = log.open("run_mutex_stress");
    const mutex_stress_result r = stress(kMutexEntriesPerThread);
    log.note(sp, "register_ops", static_cast<double>(r.total_steps));
    log.note(sp, "parks", static_cast<double>(r.parking.parks));
    log.close(sp);
    if (log.on()) traced.push_back(r);
    if (r.total_entries != entries) {
      rs.problem("stress made " + std::to_string(r.total_entries) + " entries");
      return entries;
    }
    const std::uint64_t diff =
        r.canary > r.total_entries ? r.canary - r.total_entries
                                   : r.total_entries - r.canary;
    if (r.violations + diff != 0)
      rs.problem("stress: " + std::to_string(r.violations) +
                 " violations, canary off by " + std::to_string(diff));
    return std::min(entries, std::max(r.violations, diff));
  });
  report_loop(rs, s);
  rs.metrics["mutex_entries_per_s"] =
      ratio(static_cast<double>(entries), median(s.wall));

  if (rs.trace) {
    auto& m = rs.metrics;
    const auto per_entry = [&](auto field) {
      std::vector<double> v;
      for (const mutex_stress_result& r : traced)
        v.push_back(ratio(static_cast<double>(field(r)),
                          static_cast<double>(r.total_entries)));
      return median(v);
    };
    m["mutex.register_ops_per_entry"] =
        per_entry([](const mutex_stress_result& r) { return r.total_steps; });
    m["futex.parks_per_entry"] =
        per_entry([](const mutex_stress_result& r) { return r.parking.parks; });
    m["futex.wakes_per_entry"] =
        per_entry([](const mutex_stress_result& r) { return r.parking.wakes; });
    m["futex.spin_wins_per_entry"] =
        per_entry([](const mutex_stress_result& r) {
          return r.parking.spin_wins;
        });
    std::uint64_t timeouts = 0;
    for (const mutex_stress_result& r : traced)
      timeouts += r.parking.park_timeouts;
    m["futex.timeouts"] = static_cast<double>(timeouts);
    // No span exists inside run_mutex_stress, so the whole call is one
    // layer; the per-entry counters above carry the split.
    const double total = rs.log.total_seconds().at("run_mutex_stress");
    rs.attribution = {{"run_mutex_stress", total}};
    rs.attribution_total = total;
    rs.attribution_basis = "one span; see the per-entry counters";
  }
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::ostringstream os;
  os << "{\"nproc\": " << nproc << ", \"hardware_concurrency\": "
     << std::thread::hardware_concurrency()
     << ", \"probe_backend\": " << json_string(probe_backend())
     << ", \"compiler\": " << json_string(
#if defined(__clang__)
            "clang " __clang_version__
#elif defined(__GNUC__)
            "gcc " __VERSION__
#else
            "unknown"
#endif
            )
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}";
  return os.str();
}

bool emits(const run_state& rs, const metric_def& d) {
  if (d.when == kind::layer) return rs.trace;
  if (d.when == kind::e2e) return !rs.trace;
  return !rs.trace && rs.metrics.count(d.name) != 0;
}

std::string metrics_json(const run_state& rs) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const metric_def& d : kMetrics) {
    if (!emits(rs, d)) continue;
    const auto it = rs.metrics.find(d.name);
    const double v = it == rs.metrics.end() ? 0.0 : it->second;
    os << (first ? "" : ", ") << json_string(d.name) << ": {\"value\": "
       << json_number(v) << ", \"unit\": " << json_string(d.unit) << "}";
    first = false;
  }
  return os.str() + "}";
}

std::string samples_json(const run_state& rs) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, values] : rs.samples) {
    os << (first ? "" : ", ") << json_string(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i)
      os << (i ? ", " : "") << json_number(values[i]);
    os << "]";
    first = false;
  }
  return os.str() + "}";
}

void print_attribution(const run_state& rs, std::ostream& os) {
  os << "attribution (" << rs.workload << ", " << rs.attribution_basis << ")\n";
  char line[160];
  const auto row = [&](const char* layer, double seconds) {
    std::snprintf(line, sizeof line, "  %-28s %12.3f %7.1f%%\n", layer,
                  seconds * 1e3, 100.0 * ratio(seconds, rs.attribution_total));
    os << line;
  };
  std::snprintf(line, sizeof line, "  %-28s %12s %8s\n", "layer", "self ms",
                "share");
  os << line;
  for (const attribution_row& r : rs.attribution)
    row(r.layer.c_str(), r.seconds);
  row("end-to-end span", rs.attribution_total);
}

void write_trace_file(const run_state& rs, const std::string& path) {
  std::ofstream out(path);
  out << "{\"workload\": " << json_string(rs.workload)
      << ", \"seed\": " << rs.seed << ", \"host\": " << host_json()
      << ", \"metrics\": " << metrics_json(rs)
      << ",\n \"attribution\": {\"basis\": "
      << json_string(rs.attribution_basis)
      << ", \"end_to_end_s\": " << json_number(rs.attribution_total)
      << ", \"rows\": [";
  for (std::size_t i = 0; i < rs.attribution.size(); ++i)
    out << (i ? ", " : "")
        << "{\"layer\": " << json_string(rs.attribution[i].layer)
        << ", \"self_s\": " << json_number(rs.attribution[i].seconds) << "}";
  out << "]},\n \"spans\": [\n";
  const auto& spans = rs.log.spans();
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span_record& s = spans[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start_s\": " << json_number(s.start - t0)
        << ", \"end_s\": " << json_number(s.end - t0)
        << ", \"parent\": " << s.parent
        << ", \"counters\": {";
    for (std::size_t k = 0; k < s.counters.size(); ++k)
      out << (k ? ", " : "") << json_string(s.counters[k].first) << ": "
          << json_number(s.counters[k].second);
    out << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
}

struct workload {
  const char* name;
  void (*run)(run_state&);
};

const workload kWorkloads[] = {
    {"ref-fig1", run_ref_fig1},
    {"fa-sym", run_fa_sym},
    {"sweep-m4", run_sweep_m4},
    {"mutex-threads", run_mutex_threads},
};

int usage() {
  std::cerr << "usage: verdict_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n"
               "       verdict_bench --list | --list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      for (const workload& w : kWorkloads) std::cout << w.name << "\n";
      return 0;
    }
    if (a == "--list-metrics") {
      for (const metric_def& d : kMetrics)
        std::cout << d.name << " " << d.unit << " "
                  << (d.when == kind::layer ? "layer"
                      : d.when == kind::e2e ? "e2e"
                                            : "extra")
                  << "\n";
      return 0;
    }
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) return usage();
    args[a.substr(2)] = argv[++i];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "out"})
    if (args.count(key) == 0) return usage();

  // Library instrumentation follows ANONCOORD_OBS unless overridden; the
  // benchmark measures the uninstrumented library whatever the environment.
  obs::override_enabled(false);

  // Keep freed memory in the process. By default glibc maps every large
  // table afresh and unmaps it on free, so each call page-faults its
  // engines' tables in again (about 325,000 minor faults per call on the
  // m = 5 sweep, 21,000 in a whole run with these settings), and the cost of
  // a fault in this kind of VM varies from process to process and with the
  // host's load.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest allowed threshold
  mallopt(M_TRIM_THRESHOLD, INT_MAX);

  run_state rs;
  rs.workload = args["workload"];
  rs.seed = std::stoull(args["seed"]);
  rs.seconds = std::stod(args["seconds"]);
  rs.trace = args["trace"] == "1";
  rs.out_dir = args["out"];
  rs.log = span_log(rs.trace);
  std::filesystem::create_directories(rs.out_dir);

  const auto runner =
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const workload& w) { return rs.workload == w.name; });
  if (runner == std::end(kWorkloads)) {
    std::cerr << "unknown workload " << rs.workload << "\n";
    return usage();
  }
  try {
    runner->run(rs);
  } catch (const std::exception& e) {
    std::cerr << "workload " << rs.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  rs.metrics["failed_frac"] =
      ratio(static_cast<double>(rs.failed), static_cast<double>(rs.attempted));

  for (const std::string& p : rs.problems)
    std::cout << "ORACLE MISMATCH: " << p << "\n";
  if (rs.trace) {
    print_attribution(rs, std::cout);
    write_trace_file(rs, rs.out_dir + "/" + rs.workload + "-seed" +
                             std::to_string(rs.seed) + "-trace.json");
  }
  const bool correct = rs.failed == 0;
  std::cout << "{\"workload\": " << json_string(rs.workload)
            << ", \"seed\": " << rs.seed
            << ", \"trace\": " << (rs.trace ? 1 : 0)
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << rs.attempted
            << ", \"failed\": " << rs.failed << ", \"host\": " << host_json()
            << ", \"metrics\": " << metrics_json(rs)
            << ", \"samples\": " << samples_json(rs) << "}" << std::endl;
  return correct ? 0 : 1;
}
