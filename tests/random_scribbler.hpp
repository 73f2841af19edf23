// Randomized terminating configurations for the engine differential tests.
// A scribbler runs a fixed random program of register ops; written values
// depend on the last value read, so outcomes genuinely vary with the
// interleaving. make_case(seed) draws 2-3 processes over 2-3 registers under
// a random naming, and case_bad is its safety predicate: every program done
// and a target register's low bits equal to a drawn value.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mem/naming.hpp"
#include "runtime/step_machine.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace anoncoord::test_support {

struct scribble_op {
  bool is_write = false;
  int reg = 0;
  std::uint64_t value = 0;

  friend bool operator==(const scribble_op&, const scribble_op&) = default;
};

struct scribbler {
  using value_type = std::uint64_t;

  std::vector<scribble_op> program;
  int pc = 0;
  std::uint64_t last_read = 0;

  op_desc peek() const {
    if (pc >= static_cast<int>(program.size())) return {op_kind::none, -1};
    const auto& op = program[static_cast<std::size_t>(pc)];
    return {op.is_write ? op_kind::write : op_kind::read, op.reg};
  }
  template <class Mem>
  void step(Mem& mem) {
    if (pc >= static_cast<int>(program.size())) return;
    const auto& op = program[static_cast<std::size_t>(pc)];
    if (op.is_write) {
      mem.write(op.reg, op.value + (last_read & 3));
    } else {
      last_read = mem.read(op.reg);
    }
    ++pc;
  }
  bool done() const { return pc >= static_cast<int>(program.size()); }
  friend bool operator==(const scribbler&, const scribbler&) = default;
  std::size_t hash() const {
    std::size_t seed = program.size();
    hash_combine(seed, pc);
    hash_combine(seed, last_read);
    return seed;
  }
};

struct random_case {
  int registers = 0;
  naming_assignment naming;
  std::vector<scribbler> machines;
  int total_ops = 0;
  int target_reg = 0;
  std::uint64_t target_low_bits = 0;
};

inline random_case make_case(std::uint64_t seed) {
  xoshiro256 rng(seed);
  random_case c;
  const int n = 2 + static_cast<int>(rng.below(2));       // 2-3 processes
  c.registers = 2 + static_cast<int>(rng.below(2));       // 2-3 registers
  c.naming = naming_assignment::random(n, c.registers, seed ^ 0xabcdef);
  for (int p = 0; p < n; ++p) {
    scribbler m;
    const int len = 3 + static_cast<int>(rng.below(2));   // 3-4 ops
    for (int k = 0; k < len; ++k) {
      scribble_op op;
      op.is_write = rng.below(2) == 0;
      op.reg = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.registers)));
      op.value = (static_cast<std::uint64_t>(p + 1) << 4) + rng.below(8);
      m.program.push_back(op);
    }
    c.total_ops += len;
    c.machines.push_back(std::move(m));
  }
  c.target_reg = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.registers)));
  c.target_low_bits = rng.below(4);
  return c;
}

inline bool case_bad(const random_case& c,
                     const std::vector<std::uint64_t>& regs,
                     const std::vector<scribbler>& procs) {
  for (const auto& p : procs)
    if (!p.done()) return false;
  return (regs[static_cast<std::size_t>(c.target_reg)] & 3) ==
         c.target_low_bits;
}

}  // namespace anoncoord::test_support
