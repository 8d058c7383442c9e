//===- Universe.cpp - Domains, attributes, physical domains ---------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "rel/Universe.h"
#include "rel/Relation.h"
#include "util/Fatal.h"
#include "util/StringUtils.h"

#include <algorithm>

using namespace jedd;
using namespace jedd::rel;

DomainId Universe::addDomain(std::string Name, uint64_t Size) {
  JEDD_CHECK(!isFinalized(), "cannot declare domains after finalize()");
  JEDD_CHECK(Size >= 1, "domain '" + Name + "' must be nonempty");
  Doms.push_back({std::move(Name), Size, {}});
  return static_cast<DomainId>(Doms.size() - 1);
}

void Universe::setLabel(DomainId Dom, uint64_t Value, std::string Label) {
  JEDD_CHECK(Value < Doms[Dom].Size, "label index out of domain range");
  auto &Labels = Doms[Dom].Labels;
  if (Labels.size() <= Value)
    Labels.resize(Value + 1);
  Labels[Value] = std::move(Label);
}

AttributeId Universe::addAttribute(std::string Name, DomainId Dom) {
  JEDD_CHECK(!isFinalized(), "cannot declare attributes after finalize()");
  JEDD_CHECK(Dom < Doms.size(), "attribute over undeclared domain");
  Attrs.push_back({std::move(Name), Dom});
  return static_cast<AttributeId>(Attrs.size() - 1);
}

PhysDomId Universe::addPhysicalDomain(std::string Name, unsigned Bits) {
  JEDD_CHECK(!isFinalized(),
             "cannot declare physical domains after finalize()");
  PhysNames.push_back(std::move(Name));
  PhysRequestedBits.push_back(Bits);
  return static_cast<PhysDomId>(PhysNames.size() - 1);
}

void Universe::finalize(const std::string &OrderSpec, size_t InitialNodes,
                        size_t CacheSize) {
  JEDD_CHECK(!isFinalized(), "finalize() may only run once");
  JEDD_CHECK(!PhysNames.empty(), "at least one physical domain is required");

  // Default width: wide enough for the widest declared domain, which is
  // the paper's rule that "each physical domain consists of enough bits
  // to store the maximum number of objects ... assigned to it".
  unsigned WidestDomain = 1;
  for (const DomInfo &D : Doms)
    WidestDomain = std::max(WidestDomain, bitsForSize(D.Size));

  auto Pack = std::make_unique<bdd::DomainPack>(OrderSpec);
  for (size_t I = 0; I != PhysNames.size(); ++I) {
    unsigned Bits =
        PhysRequestedBits[I] == 0 ? WidestDomain : PhysRequestedBits[I];
    PhysDomId Id = Pack->addDomain(PhysNames[I], Bits);
    (void)Id;
    assert(Id == I && "pack ids must mirror universe ids");
  }
  Pack->finalize(InitialNodes, CacheSize);
  PackPtr = std::move(Pack);
}

std::string Universe::label(DomainId Dom, uint64_t Value) const {
  const DomInfo &D = Doms[Dom];
  if (Value < D.Labels.size() && !D.Labels[Value].empty())
    return D.Labels[Value];
  return strFormat("%s#%llu", D.Name.c_str(),
                   static_cast<unsigned long long>(Value));
}

unsigned Universe::physBits(PhysDomId Phys) const {
  JEDD_CHECK(Phys < PhysNames.size(), "undeclared physical domain");
  if (PackPtr)
    return PackPtr->bits(Phys);
  return PhysRequestedBits[Phys];
}

DomainId Universe::domain(const std::string &Name) const {
  for (size_t I = 0; I != Doms.size(); ++I)
    if (Doms[I].Name == Name)
      return static_cast<DomainId>(I);
  checkFailed("unknown domain '" + Name + "'");
}

AttributeId Universe::attribute(const std::string &Name) const {
  for (size_t I = 0; I != Attrs.size(); ++I)
    if (Attrs[I].Name == Name)
      return static_cast<AttributeId>(I);
  checkFailed("unknown attribute '" + Name + "'");
}

PhysDomId Universe::physical(const std::string &Name) const {
  for (size_t I = 0; I != PhysNames.size(); ++I)
    if (PhysNames[I] == Name)
      return static_cast<PhysDomId>(I);
  checkFailed("unknown physical domain '" + Name + "'");
}

bool Universe::fits(AttributeId Attr, PhysDomId Phys) const {
  return bitsForSize(Doms[Attrs[Attr].Dom].Size) <= physBits(Phys);
}

PhysDomId
Universe::pickFreePhysDom(AttributeId Attr,
                          const std::vector<PhysDomId> &Used) const {
  // Prefer the narrowest sufficient physical domain (ties broken by
  // declaration order): moving an attribute into a same-width block of
  // the interleaved layout keeps the replace order-preserving and cheap;
  // parking it in a wider block wastes bits and tends to invert orders.
  PhysDomId Best = NoPhysDom;
  for (PhysDomId P = 0; P != PhysNames.size(); ++P) {
    if (std::find(Used.begin(), Used.end(), P) != Used.end())
      continue;
    if (!fits(Attr, P))
      continue;
    if (Best == NoPhysDom || physBits(P) < physBits(Best))
      Best = P;
  }
  if (Best != NoPhysDom)
    return Best;
  checkFailed("no free physical domain fits attribute '" +
             Attrs[Attr].Name +
             "'; declare another physical domain of at least " +
             strFormat("%u", bitsForSize(Doms[Attrs[Attr].Dom].Size)) +
             " bits");
}

std::vector<AttrBinding>
jedd::rel::normalizeSchema(const Universe &U,
                           std::vector<AttrBinding> Schema) {
  // Declaration order is preserved: tuple values and iteration follow the
  // order the schema was written in, like the paper's <a, b, c> types.
  for (size_t I = 0; I != Schema.size(); ++I) {
    JEDD_CHECK(Schema[I].Attr < U.numAttributes(),
               "schema mentions an undeclared attribute");
    JEDD_CHECK(Schema[I].Phys < U.numPhysDoms(),
               "schema mentions an undeclared physical domain");
    JEDD_CHECK(U.fits(Schema[I].Attr, Schema[I].Phys),
               "attribute '" + U.attributeName(Schema[I].Attr) +
                   "' does not fit physical domain '" +
                   U.physName(Schema[I].Phys) + "'");
    for (size_t K = 0; K != I; ++K) {
      // No relation may have more than one instance of the same attribute
      // (Figure 6), and — dynamically — of the same physical domain.
      JEDD_CHECK(Schema[K].Attr != Schema[I].Attr,
                 "duplicate attribute '" + U.attributeName(Schema[I].Attr) +
                     "' in schema");
      JEDD_CHECK(Schema[K].Phys != Schema[I].Phys,
                 "attributes '" + U.attributeName(Schema[K].Attr) +
                     "' and '" + U.attributeName(Schema[I].Attr) +
                     "' share physical domain '" +
                     U.physName(Schema[I].Phys) + "'");
    }
  }
  return Schema;
}

Relation Universe::empty(std::vector<AttrBinding> Schema) {
  JEDD_CHECK(isFinalized(), "finalize() must precede relation creation");
  return Relation(this, normalizeSchema(*this, std::move(Schema)),
                  manager().falseBdd());
}

Relation Universe::fromBody(std::vector<AttrBinding> Schema, bdd::Bdd Body) {
  JEDD_CHECK(isFinalized(), "finalize() must precede relation creation");
  JEDD_CHECK(Body.isValid() && Body.manager() == &manager(),
             "fromBody: body must belong to this universe's manager");
  return Relation(this, normalizeSchema(*this, std::move(Schema)),
                  std::move(Body));
}

Relation Universe::full(std::vector<AttrBinding> Schema) {
  JEDD_CHECK(isFinalized(), "finalize() must precede relation creation");
  std::vector<AttrBinding> Normal = normalizeSchema(*this, std::move(Schema));
  bdd::Bdd Body = manager().trueBdd();
  for (const AttrBinding &B : Normal)
    Body = Body & pack().encodeLess(B.Phys, domainSize(attributeDomain(B.Attr)));
  return Relation(this, std::move(Normal), std::move(Body));
}

Relation Universe::tuple(std::vector<AttrBinding> Schema,
                         const std::vector<uint64_t> &Values) {
  JEDD_CHECK(Schema.size() == Values.size(),
             "tuple literal: one value per attribute required");
  Relation R = empty(std::move(Schema));
  R.insert(Values);
  return R;
}
