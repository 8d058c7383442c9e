//===- DomainPack.h - Physical domains as BDD variable blocks ---*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Physical domains (Section 2.1 / 3.2.1): named blocks of BDD variables
/// that attribute values are encoded into. This plays the role of BuDDy's
/// finite domain blocks ("fdd"). A DomainPack owns the BDD manager and
/// decides the global bit order from an order spec in bddbddb's syntax
/// (Whaley & Lam, PLDI 2004), since the paper notes the ordering choice
/// strongly affects BDD sizes (Section 3.3.1):
///
///   * `_` separates groups, which are laid out one after another;
///   * `x` interleaves the domains of one group, MSB-aligned round-robin
///     (bit k of every domain of the group adjacent);
///   * every declared domain is named exactly once, except that the
///     empty spec means declaration order, one domain per group.
///
/// So "A_B_C" is the sequential order, "AxBxC" the fully interleaved one
/// and "A_BxC" places A's bits above the interleaved bits of B and C.
///
/// Values are encoded MSB-first down the variable order; unused high bits
/// of a wide physical domain holding a small attribute are constrained to
/// zero, while *unused physical domains* of a relation are left as
/// wildcards exactly as Section 3.2.1 describes.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_BDD_DOMAINPACK_H
#define JEDDPP_BDD_DOMAINPACK_H

#include "bdd/Bdd.h"

#include <memory>
#include <string>
#include <vector>

namespace jedd {
namespace bdd {

/// Identifier of a physical domain within a pack.
using PhysDomId = uint32_t;

/// A set of physical domains sharing one BDD manager and variable order.
/// Usage: declare all domains with addDomain(), call finalize(), then use
/// the encoding helpers. The pack must outlive every Bdd produced from it.
class DomainPack {
public:
  /// \p OrderSpec is parsed by finalize(); "" is declaration order.
  explicit DomainPack(std::string OrderSpec = "")
      : Spec(std::move(OrderSpec)) {}

  /// Declares a physical domain with \p Bits bits. Must precede
  /// finalize(). Returns the domain's id.
  PhysDomId addDomain(std::string Name, unsigned Bits);

  /// Parses the order spec, assigns variable positions and creates the
  /// manager, whose order stays fixed from then on. A spec naming an
  /// undeclared domain, naming one twice or leaving one out throws
  /// UsageError and leaves the pack unfinalized.
  void finalize(size_t InitialNodes = 1 << 14, size_t CacheSize = 1 << 16);
  bool isFinalized() const { return Mgr != nullptr; }

  Manager &manager() {
    assert(Mgr && "finalize() must be called first");
    return *Mgr;
  }

  /// The parsed groups in level order, each listing its domains in
  /// interleave order. Valid after finalize().
  const std::vector<std::vector<PhysDomId>> &orderGroups() const {
    return Groups;
  }
  unsigned numDomains() const { return static_cast<unsigned>(Doms.size()); }
  const std::string &name(PhysDomId Dom) const { return Doms[Dom].Name; }
  unsigned bits(PhysDomId Dom) const { return Doms[Dom].Bits; }
  /// Largest encodable value + 1.
  uint64_t size(PhysDomId Dom) const { return 1ULL << Doms[Dom].Bits; }
  /// BDD variable of bit \p Bit (0 = most significant) of \p Dom.
  unsigned varOfBit(PhysDomId Dom, unsigned Bit) const {
    assert(Bit < Doms[Dom].Bits && "bit index out of range");
    return Doms[Dom].Vars[Bit];
  }
  /// All variables of \p Dom, MSB first, which is also level order.
  const std::vector<unsigned> &vars(PhysDomId Dom) const {
    return Doms[Dom].Vars;
  }

  /// The BDD encoding value == \p Value in domain \p Dom (all bits of the
  /// domain constrained).
  Bdd encode(PhysDomId Dom, uint64_t Value);

  /// The BDD encoding value < \p Bound in domain \p Dom. Used to restrict
  /// full relations (1B) to the actual domain sizes.
  Bdd encodeLess(PhysDomId Dom, uint64_t Bound);

  /// Quantification cube over all bits of the given domains.
  Bdd cubeOf(const std::vector<PhysDomId> &DomList);

  /// Equality BDD between two domains of equal width — the implementation
  /// of attribute copying (Section 3.2.2). For unequal widths the extra
  /// high bits of the wider domain are constrained to zero.
  Bdd equal(PhysDomId A, PhysDomId B);

  /// Moves attribute contents between physical domains: for each (Src,
  /// Dst) pair, bits of Src are renamed onto Dst. Pairs may form swaps.
  /// When Dst is wider than Src the new high bits are constrained to
  /// zero; when narrower, F must not use the dropped high bits (checked).
  /// This is BuDDy's "replace" / CUDD's "SwapVariables" as used by Jedd.
  Bdd replaceDomains(const Bdd &F,
                     const std::vector<std::pair<PhysDomId, PhysDomId>> &Moves);

  /// Variables of all listed domains, sorted by level, for enumeration.
  std::vector<unsigned> sortedVars(const std::vector<PhysDomId> &DomList);

  /// Decodes the value of \p Dom from an enumeration bit vector produced
  /// with sortedVars(\p DomList) ordering.
  uint64_t decodeValue(PhysDomId Dom, const std::vector<PhysDomId> &DomList,
                       const std::vector<bool> &Bits);

private:
  struct DomInfo {
    std::string Name;
    unsigned Bits;
    std::vector<unsigned> Vars; ///< MSB first.
  };

  /// Splits Spec into groups of domain ids; throws UsageError.
  std::vector<std::vector<PhysDomId>> parseSpec() const;

  std::string Spec;
  std::vector<std::vector<PhysDomId>> Groups;
  std::vector<DomInfo> Doms;
  std::unique_ptr<Manager> Mgr;
};

} // namespace bdd
} // namespace jedd

#endif // JEDDPP_BDD_DOMAINPACK_H
