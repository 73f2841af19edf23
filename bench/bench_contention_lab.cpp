// Contention lab: the paper's algorithms on real contended hardware, under
// every register memory-order policy, with parked instead of spun waiting.
//
// Three parts:
//
// Part 1 — litmus verdict matrix (deterministic): the axiomatic oracle's
// "forbidden outcome reachable?" bit for SB/MP/LB/IRIW under seq_cst /
// acq_rel / relaxed, plus the operational-TSO column and the Fig. 1 /
// Peterson store-buffering double-entry witnesses. These are 0/1 result
// series with no unit, so compare_bench_json's --fail-deterministic-pct=0
// gate pins them bit-for-bit against the committed baseline.
//
// Part 2 — hardware litmus containment: each shape runs on real threads
// under each policy; every observed outcome must lie in the oracle's
// allowed set (exit 1 otherwise). Weak-outcome observation counts go to the
// metrics counters — they are hardware- and load-dependent, never gated.
//
// Part 3 — sustained mutex throughput: Fig. 1 (and the Peterson baseline)
// for a wall-clock budget per {policy} x {spin, futex} cell, reporting
// ops/sec series, the contention.acquire_ns latency histogram via the obs
// registry, and the futex park/wake/timeout counters. Safety (violations,
// canary) is gated under seq_cst only; weak-mode counts are recorded.
//
// The explorer's worker scaling is timed by bench_modelcheck_scaling.
//
//   ./bench_contention_lab [--seconds=0.3] [--m=3] [--litmus-iters=2000]
//                          [--timed-reps=3]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/peterson_mutex.hpp"
#include "bench_json.hpp"
#include "core/anon_mutex.hpp"
#include "mem/litmus.hpp"
#include "mem/naming.hpp"
#include "obs/obs.hpp"
#include "runtime/threaded.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace anoncoord;

constexpr memory_discipline kPolicies[] = {memory_discipline::seq_cst,
                                           memory_discipline::acq_rel,
                                           memory_discipline::relaxed};

/// Invoke f with each policy as a compile-time constant.
template <class F>
void for_each_policy(F&& f) {
  f(std::integral_constant<memory_discipline, memory_discipline::seq_cst>{});
  f(std::integral_constant<memory_discipline, memory_discipline::acq_rel>{});
  f(std::integral_constant<memory_discipline, memory_discipline::relaxed>{});
}

struct throughput_cell {
  memory_discipline policy;
  wait_mode wait;
  mutex_stress_result res;
  double seconds = 0;
};

}  // namespace

int main(int argc, char** argv) {
  cli_args args;
  args.define("seconds", "0.3", "wall budget per throughput cell");
  args.define("m", "3", "Fig. 1 register count (odd)");
  args.define("litmus-iters", "2000", "hardware litmus rounds per cell");
  args.define("timed-reps", "3", "repetitions per throughput cell");
  if (!args.parse(argc, argv)) {
    std::cout << args.help("bench_contention_lab");
    return 0;
  }
  const double seconds = args.get_double("seconds");
  const int m = static_cast<int>(args.get_int("m"));
  const auto litmus_iters =
      static_cast<std::uint64_t>(args.get_int("litmus-iters"));
  const int timed_reps =
      std::max(1, static_cast<int>(args.get_int("timed-reps")));
  const unsigned hw_cores = std::max(1u, std::thread::hardware_concurrency());

  // The acquire-latency histogram and the futex counters flow through the
  // obs registry; turn it on for the whole run.
  obs::override_enabled(true);
  obs::metrics_registry::global().reset();

  benchjson::bench_reporter report("bench_contention_lab");
  report.config("seconds", seconds);
  report.config("m", m);
  report.config("litmus_iters", static_cast<std::int64_t>(litmus_iters));
  report.config("timed_reps", timed_reps);
  report.config("hardware_concurrency", static_cast<int>(hw_cores));

  bool ok = true;

  // -------------------------------------------------------------------------
  // Part 1: the deterministic verdict matrix.
  // -------------------------------------------------------------------------
  ascii_table matrix({"shape", "seq_cst", "acq_rel", "relaxed", "tso",
                      "forbidden outcome"});
  for (const auto& shape : litmus_all_shapes()) {
    std::vector<bool> reach;
    for (const auto policy : kPolicies) {
      const bool r = litmus_forbidden_reachable(shape, policy);
      reach.push_back(r);
      report.sample("litmus_forbidden/" + shape.name + "/" +
                        to_string(policy),
                    r ? 1.0 : 0.0);
    }
    const bool tso = litmus_forbidden_reachable_tso(shape);
    report.sample("litmus_forbidden/" + shape.name + "/tso", tso ? 1.0 : 0.0);
    matrix.add(shape.name, reach[0], reach[1], reach[2], tso,
               shape.forbidden_desc);
    // Sanity anchors the suite also pins: SC forbids every shape's outcome,
    // relaxed readmits it.
    if (reach[0] || !reach[2]) ok = false;
  }
  std::cout << "litmus verdict matrix (forbidden outcome reachable?)\n"
            << matrix.render() << "\n";

  {
    std::vector<anon_mutex> fig1;
    fig1.emplace_back(11, m);
    fig1.emplace_back(22, m);
    const bool fig1_breaks = tso_solo_entry_witness(m, std::move(fig1));
    std::vector<peterson_mutex> pet{peterson_mutex(0), peterson_mutex(1)};
    const bool pet_breaks = tso_solo_entry_witness(3, std::move(pet));
    report.sample("tso_double_entry/fig1", fig1_breaks ? 1.0 : 0.0);
    report.sample("tso_double_entry/peterson", pet_breaks ? 1.0 : 0.0);
    std::cout << "store-buffering double-entry witness: fig1="
              << (fig1_breaks ? "breaks" : "holds")
              << " peterson=" << (pet_breaks ? "breaks" : "holds") << "\n\n";
    if (!fig1_breaks || !pet_breaks) ok = false;
  }

  // -------------------------------------------------------------------------
  // Part 2: hardware containment.
  // -------------------------------------------------------------------------
  ascii_table hw({"shape", "policy", "rounds", "distinct", "weak-hits",
                  "contained"});
  std::uint64_t containment_failures = 0;
  for (const auto& shape : litmus_all_shapes()) {
    for_each_policy([&](auto tag) {
      constexpr memory_discipline P = decltype(tag)::value;
      const auto allowed = litmus_allowed_outcomes(shape, P);
      const auto sc = litmus_sc_outcomes(shape);
      const auto observed = run_litmus_hw<P>(shape, litmus_iters);
      std::uint64_t weak_hits = 0;
      bool contained = true;
      for (const auto& [outcome, count] : observed) {
        if (!allowed.count(outcome)) contained = false;
        if (!sc.count(outcome)) weak_hits += count;
      }
      if (!contained) ++containment_failures;
      hw.add(shape.name, to_string(P), litmus_iters, observed.size(),
             weak_hits, contained);
      // Weak-outcome sightings are hardware luck — counters, never series.
      report.metric("litmus.weak_hits." + shape.name + "." + to_string(P),
                    weak_hits);
    });
  }
  std::cout << "hardware litmus runs (observed must be within oracle)\n"
            << hw.render() << "\n";
  if (containment_failures > 0) ok = false;

  // -------------------------------------------------------------------------
  // Part 3: sustained throughput.
  // -------------------------------------------------------------------------
  const auto budget = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(seconds));
  std::vector<throughput_cell> cells;
  park_stats parks_total;
  std::uint64_t violations_gated = 0, canary_gap_gated = 0;

  for_each_policy([&](auto tag) {
    constexpr memory_discipline P = decltype(tag)::value;
    for (const wait_mode wait : {wait_mode::spin, wait_mode::futex}) {
      throughput_cell best{P, wait, {}, 0};
      for (int rep = 0; rep < timed_reps; ++rep) {
        std::vector<anon_mutex> machines;
        machines.emplace_back(11, m);
        machines.emplace_back(22, m);
        threaded_options opt;
        opt.wait = wait;
        const auto t0 = std::chrono::steady_clock::now();
        auto res = run_mutex_stress_timed<P>(
            std::move(machines), m, naming_assignment::random(2, m, 7),
            budget, opt);
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        if (res.total_entries > best.res.total_entries) {
          best.res = res;
          best.seconds = elapsed;
        }
        if (P == memory_discipline::seq_cst) {
          violations_gated += res.violations;
          canary_gap_gated += res.total_entries - res.canary;
        }
        parks_total.parks += res.parking.parks;
        parks_total.wakes += res.parking.wakes;
        parks_total.park_timeouts += res.parking.park_timeouts;
        parks_total.spin_wins += res.parking.spin_wins;
      }
      cells.push_back(best);
      const std::string key =
          std::string(to_string(P)) + "/" + to_string(wait);
      report.sample("mutex_ops_per_s/" + key,
                    static_cast<double>(best.res.total_entries) /
                        std::max(best.seconds, 1e-9),
                    "ops/s");
    }
  });

  // Peterson baseline, model-faithful policy, both wait modes.
  for (const wait_mode wait : {wait_mode::spin, wait_mode::futex}) {
    threaded_options opt;
    opt.wait = wait;
    std::vector<peterson_mutex> machines{peterson_mutex(0),
                                         peterson_mutex(1)};
    const auto t0 = std::chrono::steady_clock::now();
    auto res = run_mutex_stress_timed(std::move(machines), 3,
                                      naming_assignment::identity(2, 3),
                                      budget, opt);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    violations_gated += res.violations;
    canary_gap_gated += res.total_entries - res.canary;
    parks_total.parks += res.parking.parks;
    parks_total.wakes += res.parking.wakes;
    parks_total.park_timeouts += res.parking.park_timeouts;
    parks_total.spin_wins += res.parking.spin_wins;
    report.sample(std::string("peterson_ops_per_s/") + to_string(wait),
                  static_cast<double>(res.total_entries) /
                      std::max(elapsed, 1e-9),
                  "ops/s");
  }

  ascii_table thr({"policy", "wait", "entries", "ops/s", "violations",
                   "canary-gap", "parks", "wakes", "timeouts"});
  for (const auto& c : cells) {
    thr.add(to_string(c.policy), to_string(c.wait), c.res.total_entries,
            static_cast<double>(c.res.total_entries) /
                std::max(c.seconds, 1e-9),
            c.res.violations, c.res.total_entries - c.res.canary,
            c.res.parking.parks, c.res.parking.wakes,
            c.res.parking.park_timeouts);
  }
  std::cout << "sustained Fig. 1 throughput, 2 threads, " << seconds
            << "s per cell (safety gated under seq_cst only)\n"
            << thr.render() << "\n";
  if (violations_gated > 0 || canary_gap_gated > 0) ok = false;

  report.metric("contention.parks", parks_total.parks);
  report.metric("contention.wakes", parks_total.wakes);
  report.metric("contention.spin_wins", parks_total.spin_wins);
  report.metric("contention.lost_wakeups", parks_total.park_timeouts);
  report.metric("contention.safety_violations_gated",
                violations_gated + canary_gap_gated);

  report.metric("verdicts_ok", ok ? 1 : 0);
  report.write();
  std::cout << (ok ? "contention lab: all gates passed\n"
                   : "contention lab: GATE FAILURE\n");
  return ok ? 0 : 1;
}
