//===- Universe.h - Domains, attributes, physical domains ------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The registry behind the relational runtime. It mirrors the three user
/// declarations of Section 2.1:
///
///  * a *domain* (jedd.Domain) is a finite set of objects with a mapping
///    between objects and the integers used to encode them — here, a name
///    plus a size and optional labels;
///  * an *attribute* (jedd.Attribute) is a named column drawing its
///    values from one domain;
///  * a *physical domain* (jedd.PhysicalDomain) is a named block of BDD
///    variables that an attribute is stored in.
///
/// A Universe owns all three plus the shared BDD manager, and is the
/// factory for relations. Every Relation keeps a pointer to its Universe,
/// so the Universe must outlive the relations it creates.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_REL_UNIVERSE_H
#define JEDDPP_REL_UNIVERSE_H

#include "bdd/DomainPack.h"

#include <string>
#include <vector>

namespace jedd {
namespace rel {

using bdd::PhysDomId;
using DomainId = uint32_t;
using AttributeId = uint32_t;

constexpr PhysDomId NoPhysDom = 0xFFFFFFFFu;

/// One column of a relation: an attribute together with the physical
/// domain currently storing it.
struct AttrBinding {
  AttributeId Attr;
  PhysDomId Phys;

  friend bool operator==(const AttrBinding &A, const AttrBinding &B) {
    return A.Attr == B.Attr && A.Phys == B.Phys;
  }
};

class Relation;

/// Declaration registry and relation factory.
class Universe {
public:
  Universe() = default;
  Universe(const Universe &) = delete;
  Universe &operator=(const Universe &) = delete;

  //===--------------------------------------------------------------===//
  // Declarations (before finalize())
  //===--------------------------------------------------------------===//

  /// Declares a domain of \p Size objects.
  DomainId addDomain(std::string Name, uint64_t Size);
  /// Optional human-readable label for one object of a domain; used by
  /// toString(), mirroring the object-to-string mapping of jedd.Domain.
  void setLabel(DomainId Dom, uint64_t Value, std::string Label);

  /// Declares an attribute over \p Dom.
  AttributeId addAttribute(std::string Name, DomainId Dom);

  /// Declares a physical domain \p Bits wide. With Bits == 0 the width
  /// defaults (at finalize time) to the widest declared domain, which is
  /// always safe.
  PhysDomId addPhysicalDomain(std::string Name, unsigned Bits = 0);

  /// Freezes declarations, lays out BDD variables, creates the manager.
  /// \p OrderSpec names the physical domains in bddbddb syntax (see
  /// bdd/DomainPack.h; "" = declaration order, each domain's bits
  /// adjacent); a malformed spec throws UsageError and leaves the
  /// universe unfinalized.
  void finalize(const std::string &OrderSpec = "",
                size_t InitialNodes = 1 << 16);
  bool isFinalized() const { return PackPtr != nullptr; }

  //===--------------------------------------------------------------===//
  // Lookup
  //===--------------------------------------------------------------===//

  unsigned numDomains() const { return static_cast<unsigned>(Doms.size()); }
  unsigned numAttributes() const {
    return static_cast<unsigned>(Attrs.size());
  }
  unsigned numPhysDoms() const {
    return static_cast<unsigned>(PhysNames.size());
  }

  const std::string &domainName(DomainId Dom) const {
    return Doms[Dom].Name;
  }
  uint64_t domainSize(DomainId Dom) const { return Doms[Dom].Size; }
  /// The label of one object, or its index rendered as a number.
  std::string label(DomainId Dom, uint64_t Value) const;

  const std::string &attributeName(AttributeId Attr) const {
    return Attrs[Attr].Name;
  }
  DomainId attributeDomain(AttributeId Attr) const {
    return Attrs[Attr].Dom;
  }

  const std::string &physName(PhysDomId Phys) const {
    return PhysNames[Phys];
  }
  unsigned physBits(PhysDomId Phys) const;

  /// Name-based lookups; fatal error when absent (they back the Jedd
  /// language front end, which has already resolved names).
  DomainId domain(const std::string &Name) const;
  AttributeId attribute(const std::string &Name) const;
  PhysDomId physical(const std::string &Name) const;

  bdd::DomainPack &pack() {
    assert(PackPtr && "finalize() must be called first");
    return *PackPtr;
  }
  bdd::Manager &manager() { return pack().manager(); }

  /// Installs resource ceilings and a cancellation token on the shared
  /// BDD manager (docs/robustness.md). Only after finalize().
  void setResourceLimits(const bdd::ResourceLimits &Limits) {
    manager().setResourceLimits(Limits);
  }

  /// Checks that \p Phys is wide enough for \p Attr's domain.
  bool fits(AttributeId Attr, PhysDomId Phys) const;

  //===--------------------------------------------------------------===//
  // Relation factories
  //===--------------------------------------------------------------===//

  /// The empty relation 0B with the given schema.
  Relation empty(std::vector<AttrBinding> Schema);

  /// The full relation 1B: all tuples over the attributes' domains.
  Relation full(std::vector<AttrBinding> Schema);

  /// A single-tuple relation — the `new { o1=>a1, ... }` literal of
  /// Section 2.1. \p Values are indexed like \p Schema.
  Relation tuple(std::vector<AttrBinding> Schema,
                 const std::vector<uint64_t> &Values);

  /// Wraps an already-built BDD body in a relation over \p Schema (which
  /// is normalized and checked like every factory's). The body must be a
  /// function of the schema's physical-domain variables only — this is
  /// the entry point the persistence layer (src/io) rebuilds loaded
  /// relations through.
  Relation fromBody(std::vector<AttrBinding> Schema, bdd::Bdd Body);

  /// Picks a physical domain for \p Attr that is wide enough and not in
  /// \p Used; fatal error if none exists. Deterministic (first declared
  /// wins) so runs are reproducible.
  PhysDomId pickFreePhysDom(AttributeId Attr,
                            const std::vector<PhysDomId> &Used) const;

private:
  struct DomInfo {
    std::string Name;
    uint64_t Size;
    std::vector<std::string> Labels; ///< Sparse; empty = numeric.
  };
  struct AttrInfo {
    std::string Name;
    DomainId Dom;
  };

  std::vector<DomInfo> Doms;
  std::vector<AttrInfo> Attrs;
  std::vector<std::string> PhysNames;
  std::vector<unsigned> PhysRequestedBits;
  std::unique_ptr<bdd::DomainPack> PackPtr;

  friend class Relation;
};

/// Validates a schema and returns it in the order given: every attribute
/// and physical domain is declared, each attribute fits its physical
/// domain, and no attribute or physical domain occurs twice (the
/// [conflict] constraint of Section 3.3.2, enforced dynamically here).
std::vector<AttrBinding> normalizeSchema(const Universe &U,
                                         std::vector<AttrBinding> Schema);

} // namespace rel
} // namespace jedd

#endif // JEDDPP_REL_UNIVERSE_H
