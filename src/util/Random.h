//===- Random.h - Deterministic PRNG ----------------------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small deterministic SplitMix64 generator. The synthetic benchmark
/// generator and the property tests need reproducible streams that do not
/// depend on the standard library's unspecified distributions.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_UTIL_RANDOM_H
#define JEDDPP_UTIL_RANDOM_H

#include <cassert>
#include <cstdint>

namespace jedd {

/// SplitMix64: tiny, fast, and identical on every platform.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Uniform value in [0, Bound). \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow() requires a nonzero bound");
    // Modulo bias is irrelevant for the bounds used here (< 2^32).
    return next() % Bound;
  }

  /// Uniform value in [Lo, Hi] inclusive.
  uint64_t nextInRange(uint64_t Lo, uint64_t Hi) {
    assert(Lo <= Hi && "nextInRange() requires Lo <= Hi");
    return Lo + nextBelow(Hi - Lo + 1);
  }

  /// Bernoulli draw: true with probability Num/Den.
  bool nextChance(uint64_t Num, uint64_t Den) { return nextBelow(Den) < Num; }

private:
  uint64_t State;
};

} // namespace jedd

#endif // JEDDPP_UTIL_RANDOM_H
