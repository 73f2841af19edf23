// Systematic concurrency testing: exhaustive schedule enumeration with a
// preemption bound (the CHESS discipline).
//
// The BFS explorer memoizes global states, which needs the state space to be
// finite — true for Figs. 1-3 (no unbounded counters) but NOT for the
// commit-adopt baseline, whose round numbers grow forever under adversarial
// alternation. This tester takes the orthogonal cut: enumerate every
// schedule of at most `max_steps` steps that uses at most `max_preemptions`
// context switches (a context switch = scheduling a different process while
// the previous one could still move). Empirically most concurrency bugs
// need very few preemptions, and the bounded guarantee is exact: "no
// invariant violation in ANY run with <= P preemptions and <= D steps".
//
// Machines are value types, so branching is plain state copying; no replay
// machinery is needed.
//
// With options.sleep_sets the enumeration additionally applies sleep-set
// partial-order reduction (modelcheck/sleep_set.hpp): once a branch for
// process p has been fully explored at a node, sibling branches carry p in
// their sleep set until a DEPENDENT step (one touching the same physical
// register, with a write involved) is executed — scheduling a sleeping
// process would only re-interleave commuting steps into an already-covered
// run. The reduction preserves the set of states reachable within the depth
// bound, hence every safety verdict; it composes with the preemption bound
// only heuristically (a pruned run's representative may spend more
// preemptions), so exhaustive-equivalence claims should use
// max_preemptions >= max_steps. See docs/modelcheck.md.
//
// With options.state_cache the tester memoizes explored search nodes: a
// node is keyed by its global state (canonicalized to its orbit
// representative when options.symmetry is also on — modelcheck/symmetry.hpp)
// packed through state_pool, and a small per-state list of DOMINANCE
// summaries (remaining depth, preemption budget, previously-running process,
// sleep set) is kept. A node is pruned when some fully explored earlier
// node at the same state dominates it:
//
//     cached.remaining >= remaining
//     cached.sleep     is a subset of sleep     (cached had more freedom)
//     cached.budget    >= budget      if cached.last == last
//     cached.budget    >= budget + 1  otherwise (re-charging the first
//                                     switch costs at most one preemption)
//
// Every schedule feasible from the pruned node is then feasible from the
// cached one, so no reachable-within-bounds state (hence no verdict) is
// lost. Under symmetry the budget/last/sleep comparison happens in the
// canonical frame (last and the sleep set are permuted by the canonicalizing
// element), and the safety predicate must be invariant under the
// configuration's automorphisms — the same opt-in contract as
// explorer::options::symmetry.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"  // permuted_vector_memory
#include "modelcheck/sleep_set.hpp"
#include "modelcheck/state_pool.hpp"
#include "modelcheck/symmetry.hpp"
#include "runtime/step_machine.hpp"
#include "util/check.hpp"
#include "util/flat_index.hpp"
#include "util/hash.hpp"

namespace anoncoord {

template <class Machine>
class systematic_tester {
 public:
  using value_type = typename Machine::value_type;

  struct options {
    int max_steps = 40;          ///< schedule-depth bound
    int max_preemptions = 2;     ///< context-switch bound
    std::uint64_t max_runs = 50'000'000;  ///< hard cap on explored schedules
    bool sleep_sets = false;     ///< sleep-set partial-order reduction
    bool state_cache = false;    ///< dominance-cache pruning (see file comment)
    /// Canonicalize cache keys to orbit representatives. Only meaningful
    /// with state_cache; requires a symmetry-invariant predicate.
    bool symmetry = false;
  };

  /// Invariant over a global state; return true if the state is BAD.
  using state_predicate =
      std::function<bool(const std::vector<value_type>& regs,
                         const std::vector<Machine>& procs)>;

  struct result {
    std::uint64_t runs = 0;           ///< maximal schedules explored
    std::uint64_t states_visited = 0; ///< total steps taken across all runs
    std::uint64_t sleep_pruned = 0;   ///< scheduling choices cut by sleep sets
    std::uint64_t cache_pruned = 0;   ///< nodes cut by the dominance cache
    bool complete = false;            ///< finished within max_runs
    bool violated = false;
    std::vector<int> violating_schedule;  ///< process indices, replayable
  };

  systematic_tester(int registers, naming_assignment naming,
                    std::vector<Machine> initial)
      : registers_(registers), naming_(std::move(naming)),
        initial_(std::move(initial)) {
    ANONCOORD_REQUIRE(
        naming_.processes() == static_cast<int>(initial_.size()),
        "naming assignment and machine count disagree");
    ANONCOORD_REQUIRE(naming_.registers() == registers,
                      "naming assignment built for a different register file");
    // Validated once here so the per-step memory view can index unchecked.
    for (int p = 0; p < naming_.processes(); ++p)
      ANONCOORD_REQUIRE(is_permutation_of_iota(naming_.of(p)),
                        "naming must be a permutation of register indices");
  }

  result run(const state_predicate& is_bad, options opt = {}) {
    ANONCOORD_REQUIRE(opt.max_steps > 0, "need a positive depth bound");
    ANONCOORD_REQUIRE(!opt.sleep_sets ||
                          static_cast<int>(initial_.size()) <=
                              max_sleep_processes,
                      "sleep sets support at most 32 processes");
    ANONCOORD_REQUIRE(!opt.state_cache ||
                          static_cast<int>(initial_.size()) <=
                              max_sleep_processes,
                      "the dominance cache stores 32-bit sleep masks");
    result res;
    search ctx{*this, opt, is_bad, res};
    if (opt.state_cache)
      ctx.group = opt.symmetry
                      ? symmetry_group<Machine>::compute(naming_, initial_)
                      : symmetry_group<Machine>::trivial(naming_.processes(),
                                                         registers_);
    std::vector<value_type> regs(static_cast<std::size_t>(registers_));
    std::vector<Machine> procs = initial_;
    std::vector<int> schedule;
    if (is_bad(regs, procs)) {
      res.violated = true;
      res.complete = true;
      return res;
    }
    explore(ctx, regs, procs, schedule, /*last=*/-1, /*preemptions_left=*/
            opt.max_preemptions, /*sleep=*/0);
    res.complete = !res.violated && res.runs < opt.max_runs;
    if (res.violated) res.complete = false;
    return res;
  }

 private:
  /// One fully-explored search node: everything reachable from `state` with
  /// this much depth/budget/freedom has been covered violation-free.
  struct cache_entry {
    std::int32_t remaining;
    std::int32_t budget;
    std::int32_t last;  ///< canonical frame; -1 = no process was running
    sleep_mask sleep;   ///< canonical frame
  };

  /// Per-run search context: options, predicate, result sink, and (when
  /// enabled) the dominance cache keyed by packed canonical states.
  struct search {
    systematic_tester& self;
    const options& opt;
    const state_predicate& is_bad;
    result& res;

    symmetry_group<Machine> group =
        symmetry_group<Machine>::trivial(1, 1);  // placeholder until run()
    state_pool<Machine> pool{};
    std::vector<std::uint32_t> words{};  ///< packed rows, stride() apart
    flat_index index{};
    /// entries[i] = dominance summaries for packed state i. Capped: a few
    /// summaries catch nearly all domination; unbounded lists only burn
    /// memory scanning near-duplicates.
    std::vector<std::vector<cache_entry>> entries{};
    static constexpr std::size_t kMaxEntriesPerState = 8;

    // Reused buffers for canonicalize + pack (transient: safe to share
    // across recursion levels because each use completes before recursing).
    canonical_scratch<Machine> cs{};
    std::vector<value_type> canon_regs{};
    std::vector<Machine> canon_procs{};
    std::vector<std::uint32_t> wbuf{};

    std::size_t stride() const {
      return static_cast<std::size_t>(self.registers_) +
             self.initial_.size();
    }

    /// Intern the (canonicalized) state; returns (state id, canonicalizing
    /// element index).
    std::pair<std::uint32_t, int> intern(
        const std::vector<value_type>& regs,
        const std::vector<Machine>& procs) {
      canon_regs = regs;
      canon_procs = procs;
      const int elem = group.canonicalize(canon_regs, canon_procs, cs);
      wbuf.clear();
      for (const auto& r : canon_regs) wbuf.push_back(pool.intern_value(r));
      for (const auto& q : canon_procs)
        wbuf.push_back(pool.intern_machine(q));
      const std::size_t h = hash_words(wbuf.data(), stride());
      const flat_index::probe pr = index.lookup(h, [&](std::uint32_t i) {
        return std::memcmp(words.data() + i * stride(), wbuf.data(),
                           stride() * sizeof(std::uint32_t)) == 0;
      });
      if (pr.hit()) return {pr.found, elem};
      const auto id = static_cast<std::uint32_t>(entries.size());
      words.insert(words.end(), wbuf.begin(), wbuf.end());
      entries.emplace_back();
      index.claim(pr, id);
      return {id, elem};
    }
  };

  static bool dominates(const cache_entry& c, const cache_entry& node) {
    if (c.remaining < node.remaining) return false;
    if ((c.sleep & ~node.sleep) != 0) return false;
    const std::int32_t need =
        c.last == node.last ? node.budget : node.budget + 1;
    return c.budget >= need;
  }

  // Returns true to abort the search (violation found or run cap hit).
  bool explore(search& ctx, std::vector<value_type>& regs,
               std::vector<Machine>& procs, std::vector<int>& schedule,
               int last, int preemptions_left, sleep_mask sleep) {
    const options& opt = ctx.opt;
    result& res = ctx.res;
    const int remaining = opt.max_steps - static_cast<int>(schedule.size());
    if (remaining <= 0) {
      ++res.runs;
      return res.runs >= opt.max_runs;
    }
    // Dominance-cache probe. The node's (last, sleep) are permuted into the
    // canonical frame so symmetric nodes compare meaningfully.
    std::uint32_t cache_id = 0;
    cache_entry node{};
    if (opt.state_cache) {
      int elem;
      std::tie(cache_id, elem) = ctx.intern(regs, procs);
      const auto& sigma = ctx.group.at(elem).sigma;
      node.remaining = remaining;
      node.budget = preemptions_left;
      node.last = last < 0 ? -1 : sigma[static_cast<std::size_t>(last)];
      node.sleep = 0;
      if (sleep != 0)
        for (std::size_t p = 0; p < sigma.size(); ++p)
          if ((sleep >> p) & 1u)
            node.sleep |= sleep_mask{1}
                          << sigma[static_cast<std::size_t>(p)];
      for (const cache_entry& c : ctx.entries[cache_id])
        if (dominates(c, node)) {
          ++res.cache_pruned;
          return false;
        }
    }
    bool any_enabled = false;
    sleep_mask explored = 0;  // processes whose branch is fully covered here
    const int n = static_cast<int>(procs.size());
    for (int p = 0; p < n; ++p) {
      const op_desc op_p = procs[static_cast<std::size_t>(p)].peek();
      if (op_p.kind == op_kind::none) continue;
      any_enabled = true;
      if (opt.sleep_sets && (sleep >> p) & 1u) {
        // Every run through p here is a commuting permutation of a run some
        // sibling branch explores; skipping it loses no reachable state.
        ++res.sleep_pruned;
        continue;
      }
      // Preemption accounting: continuing `last` is free; switching away
      // while `last` is still enabled costs one preemption.
      int next_budget = preemptions_left;
      if (last >= 0 && p != last &&
          procs[static_cast<std::size_t>(last)].peek().kind !=
              op_kind::none) {
        if (preemptions_left == 0) continue;
        next_budget = preemptions_left - 1;
      }
      // The child inherits the sleepers (and the already-explored siblings)
      // whose pending steps commute with p's; a dependent step wakes them.
      sleep_mask child_sleep = 0;
      if (opt.sleep_sets) {
        const sleep_mask carry = (sleep | explored) & ~(1u << p);
        for (int q = 0; q < n; ++q) {
          if (!((carry >> q) & 1u)) continue;
          const op_desc op_q = procs[static_cast<std::size_t>(q)].peek();
          if (steps_independent(op_q, naming_.of(q), op_p, naming_.of(p)))
            child_sleep |= 1u << q;
        }
      }
      // Branch: copy, step, recurse. The naming permutation was validated
      // at construction, so the view indexes unchecked.
      std::vector<value_type> regs_copy = regs;
      std::vector<Machine> procs_copy = procs;
      {
        permuted_vector_memory<value_type> view(regs_copy, naming_.of(p));
        procs_copy[static_cast<std::size_t>(p)].step(view);
      }
      ++res.states_visited;
      schedule.push_back(p);
      if (ctx.is_bad(regs_copy, procs_copy)) {
        res.violated = true;
        res.violating_schedule = schedule;
        return true;
      }
      const bool abort_search = explore(ctx, regs_copy, procs_copy, schedule,
                                        p, next_budget, child_sleep);
      schedule.pop_back();
      if (abort_search) return true;
      explored |= 1u << p;
    }
    if (!any_enabled) {
      ++res.runs;  // all processes finished: a complete maximal schedule
      return res.runs >= opt.max_runs;
    }
    // The subtree is fully covered (no abort): record the summary so later
    // dominated arrivals at this state can be pruned. Dominated existing
    // summaries are replaced rather than accumulated.
    if (opt.state_cache) {
      auto& list = ctx.entries[cache_id];
      std::erase_if(list,
                    [&](const cache_entry& c) { return dominates(node, c); });
      if (list.size() < search::kMaxEntriesPerState) list.push_back(node);
    }
    return false;
  }

  int registers_;
  naming_assignment naming_;
  std::vector<Machine> initial_;
};

}  // namespace anoncoord
