//===- BitSet.h - Dynamic bit set -------------------------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity dynamic bit set with the word-parallel union the
/// reference analyses live on. This is what the paper's "pure Java"
/// analysis implementations spend their 803 lines building; here it also
/// keeps the test oracles fast enough to cross-check benchmark-sized
/// programs. bitsForSize gives the width of a domain's encoding.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_UTIL_BITSET_H
#define JEDDPP_UTIL_BITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace jedd {

class BitSet {
public:
  BitSet() = default;
  explicit BitSet(size_t NumBits)
      : NumBits(NumBits), Words((NumBits + 63) / 64, 0) {}

  size_t size() const { return NumBits; }

  bool test(size_t Bit) const {
    assert(Bit < NumBits && "bit index out of range");
    return (Words[Bit >> 6] >> (Bit & 63)) & 1;
  }

  /// Sets a bit; returns true if it was previously clear.
  bool set(size_t Bit) {
    assert(Bit < NumBits && "bit index out of range");
    uint64_t Mask = 1ULL << (Bit & 63);
    uint64_t &Word = Words[Bit >> 6];
    if (Word & Mask)
      return false;
    Word |= Mask;
    return true;
  }

  void reset(size_t Bit) {
    assert(Bit < NumBits && "bit index out of range");
    Words[Bit >> 6] &= ~(1ULL << (Bit & 63));
  }

  /// Word-parallel union; returns true if this set grew.
  bool unionWith(const BitSet &Other) {
    assert(NumBits == Other.NumBits && "union of differently sized sets");
    bool Changed = false;
    for (size_t I = 0; I != Words.size(); ++I) {
      uint64_t Old = Words[I];
      Words[I] = Old | Other.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  size_t count() const {
    size_t N = 0;
    for (uint64_t Word : Words)
      N += static_cast<size_t>(__builtin_popcountll(Word));
    return N;
  }

  bool empty() const {
    for (uint64_t Word : Words)
      if (Word)
        return false;
    return true;
  }

  /// Calls \p Fn for every set bit, ascending.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t I = 0; I != Words.size(); ++I) {
      uint64_t Word = Words[I];
      while (Word) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Word));
        Fn(I * 64 + Bit);
        Word &= Word - 1;
      }
    }
  }

  friend bool operator==(const BitSet &A, const BitSet &B) {
    return A.NumBits == B.NumBits && A.Words == B.Words;
  }

private:
  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

/// Returns the number of bits needed to represent values in [0, Size-1];
/// at least 1 even for singleton domains so every attribute occupies at
/// least one BDD variable (matching BuDDy's fdd behaviour).
inline unsigned bitsForSize(uint64_t Size) {
  assert(Size >= 1 && "domain must be able to hold at least one object");
  unsigned Bits = 1;
  while ((1ULL << Bits) < Size)
    ++Bits;
  return Bits;
}

} // namespace jedd

#endif // JEDDPP_UTIL_BITSET_H
