// Reference oracle for the model checker: a deliberately plain BFS that the
// explorer (explorer.hpp) is diffed against at every worker count.
//
// Global states are objects deduplicated in a std::unordered_map; a parent's
// successors are made by stepping a copy of it, process by process in order
// 0..n-1. Under symmetry a stored state is its orbit minimum by brute force
// (symmetry_group::orbit_min: every group element is applied and the
// lexicographically smallest image wins, ties going to the lowest element
// index). No interning, row packing, batching, probe tables, SIMD, threads
// or canonicalization kernels. Counterexamples are re-validated by replay:
// after every step the concrete state must lie in the orbit of the stored
// quotient state on the path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"  // global_state, result, memory view
#include "modelcheck/symmetry.hpp"
#include "runtime/step_machine.hpp"
#include "util/check.hpp"

namespace anoncoord {

template <class Machine>
class reference_explorer {
 public:
  using state_type = global_state<Machine>;
  using state_predicate = std::function<bool(const state_type&)>;
  using value_type = typename Machine::value_type;
  using result = typename explorer<Machine>::result;

  struct options {
    std::uint64_t max_states = 2'000'000;
    bool symmetry = false;
  };

  reference_explorer(int registers, naming_assignment naming,
                     std::vector<Machine> initial_machines, options opt = {})
      : registers_(registers), naming_(std::move(naming)),
        initial_(std::move(initial_machines)), opt_(opt),
        group_(opt_.symmetry
                   ? symmetry_group<Machine>::compute(naming_, initial_)
                   : symmetry_group<Machine>::trivial(naming_.processes(),
                                                      registers)) {
    ANONCOORD_REQUIRE(
        naming_.processes() == static_cast<int>(initial_.size()),
        "naming assignment and machine count disagree");
    for (int p = 0; p < naming_.processes(); ++p)
      ANONCOORD_REQUIRE(is_permutation_of_iota(naming_.of(p)),
                        "naming must be a permutation of register indices");
  }

  /// BFS from the initial state, checking `is_bad` on every newly stored
  /// state; stops at the first violation or before expanding a state once
  /// max_states are stored (both leave complete = false).
  result explore(const state_predicate& is_bad = {}) {
    index_.clear();
    nodes_.clear();
    result res;
    state_type init;
    init.regs.assign(static_cast<std::size_t>(registers_), value_type{});
    init.procs = initial_;
    const int elem = group_.orbit_min(init.regs, init.procs);
    nodes_.push_back(
        {&index_.emplace(std::move(init), 0).first->first, -1, -1, elem, {}});
    if (is_bad && is_bad(*nodes_[0].state)) return violation(res, 0);
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
      if (nodes_.size() >= opt_.max_states) return finish(res);
      for (int p = 0; p < static_cast<int>(initial_.size()); ++p) {
        state_type next = *nodes_[s].state;
        Machine& mach = next.procs[static_cast<std::size_t>(p)];
        if (mach.peek().kind == op_kind::none) continue;
        permuted_vector_memory<value_type> view(next.regs, naming_.of(p));
        mach.step(view);
        const int g = group_.orbit_min(next.regs, next.procs);
        const auto idx = static_cast<std::uint32_t>(nodes_.size());
        const auto [it, fresh] = index_.try_emplace(std::move(next), idx);
        nodes_[s].succ.push_back(it->second);
        if (!fresh) {
          ++res.dedup_hits;
          continue;
        }
        nodes_.push_back({&it->first, static_cast<std::int64_t>(s), p, g, {}});
        if (is_bad && is_bad(it->first)) return violation(res, idx);
      }
    }
    res.complete = true;
    return finish(res);
  }

  /// After a complete explore(): count the stored states satisfying
  /// `premise` from which no `goal` state is reachable, and report the
  /// first of them (lowest index) with its concrete schedule. Overwrites
  /// the progress fields of `res`.
  void check_progress(result& res, const state_predicate& premise,
                      const state_predicate& goal) const {
    ANONCOORD_REQUIRE(res.complete,
                      "progress analysis needs a complete state space");
    res.stuck_states = 0;
    res.stuck_state.reset();
    res.stuck_schedule.clear();
    const std::size_t n = nodes_.size();
    std::vector<std::vector<std::uint32_t>> preds(n);
    for (std::size_t s = 0; s < n; ++s)
      for (const std::uint32_t t : nodes_[s].succ)
        preds[t].push_back(static_cast<std::uint32_t>(s));
    std::vector<char> reaches(n, 0);
    std::vector<std::uint32_t> queue;
    for (std::size_t s = 0; s < n; ++s)
      if (goal(*nodes_[s].state)) {
        reaches[s] = 1;
        queue.push_back(static_cast<std::uint32_t>(s));
      }
    for (std::size_t head = 0; head < queue.size(); ++head)
      for (const std::uint32_t u : preds[queue[head]])
        if (!reaches[u]) {
          reaches[u] = 1;
          queue.push_back(u);
        }
    for (std::size_t s = 0; s < n; ++s) {
      if (reaches[s] || !premise(*nodes_[s].state)) continue;
      if (res.stuck_states++ == 0)
        res.stuck_state = concrete(s, res.stuck_schedule);
    }
  }

 private:
  struct state_hash {
    std::size_t operator()(const state_type& s) const { return s.hash(); }
  };

  /// A stored state: its key in index_, BFS-tree provenance, the group
  /// element that canonicalized it, and its successor indices.
  struct node {
    const state_type* state;
    std::int64_t parent;
    int via;
    int elem;
    std::vector<std::uint32_t> succ;
  };

  result& violation(result& res, std::size_t idx) {
    res.bad_state = concrete(idx, res.bad_schedule);
    return finish(res);
  }

  result& finish(result& res) const {
    res.num_states = nodes_.size();
    res.num_edges = 0;
    for (const node& v : nodes_) res.num_edges += v.succ.size();
    return res;
  }

  /// The concrete schedule to stored state `idx` (into `sched`) and the
  /// state it reaches. Stored state k was canonicalized by element g_k, so
  /// its recorded via acts in the frame h_{k-1} = g_{k-1} o ... o g_0 and the
  /// concrete process is sigma_{h_{k-1}}^-1(via_k). The replay requires,
  /// after every step, that the concrete state lies in the orbit of the
  /// stored state on the path.
  state_type concrete(std::size_t idx, std::vector<int>& sched) const {
    std::vector<std::size_t> path;
    for (auto i = static_cast<std::int64_t>(idx); i >= 0;
         i = nodes_[static_cast<std::size_t>(i)].parent)
      path.push_back(static_cast<std::size_t>(i));
    std::reverse(path.begin(), path.end());
    state_type s;
    s.regs.assign(static_cast<std::size_t>(registers_), value_type{});
    s.procs = initial_;
    std::vector<int> sinv = group_.at(nodes_[path[0]].elem).sigma_inv;
    sched.clear();
    for (std::size_t k = 0;; ++k) {
      state_type canon = s;
      group_.orbit_min(canon.regs, canon.procs);
      ANONCOORD_REQUIRE(canon == *nodes_[path[k]].state,
                        "replayed schedule left the stored quotient path");
      if (k + 1 == path.size()) return s;
      const node& v = nodes_[path[k + 1]];
      const int p = sinv[static_cast<std::size_t>(v.via)];
      sched.push_back(p);
      permuted_vector_memory<value_type> view(s.regs, naming_.of(p));
      s.procs[static_cast<std::size_t>(p)].step(view);
      const std::vector<int>& g_inv = group_.at(v.elem).sigma_inv;
      std::vector<int> next(sinv.size());
      for (std::size_t x = 0; x < sinv.size(); ++x)
        next[x] = sinv[static_cast<std::size_t>(g_inv[x])];
      sinv = std::move(next);
    }
  }

  int registers_;
  naming_assignment naming_;
  std::vector<Machine> initial_;
  options opt_;
  symmetry_group<Machine> group_;
  std::unordered_map<state_type, std::uint32_t, state_hash> index_;
  std::vector<node> nodes_;  ///< stored states in discovery (index) order
};

}  // namespace anoncoord
