//===- Relation.cpp - Database-style relations over BDDs ------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "rel/Relation.h"
#include "obs/Obs.h"
#include "util/Fatal.h"
#include "util/StringUtils.h"

#include <algorithm>
#include <numeric>

using namespace jedd;
using namespace jedd::rel;

namespace {

/// Scoped observability span for one relational operation
/// (docs/observability.md). With the obs layer inactive this is one
/// relaxed atomic load per operation. An active span records the
/// operation's nodes_created delta; a buffered one also walks the
/// operands and the result for node counts, its shape and tuple count.
class OpSpan {
public:
  OpSpan(Universe *U, const char *Kind, const Site &At, const Relation &Left,
         const Relation *Right = nullptr)
      : U(U), Guard(obs::Cat::Rel, Kind, At.Label, At.File, At.Line) {
    if (Guard.active())
      Created0 = U->manager().stats().NodesCreated;
    if (Guard.detail()) {
      Guard.arg("left_nodes", Left.nodeCount());
      if (Right)
        Guard.arg("right_nodes", Right->nodeCount());
    }
  }

  void finish(const Relation &Result) {
    if (!Guard.active())
      return;
    Guard.arg("nodes_created", U->manager().stats().NodesCreated - Created0);
    if (Guard.detail()) {
      std::vector<size_t> Shape = U->manager().levelShape(Result.body());
      Guard.arg("result_nodes",
                std::accumulate(Shape.begin(), Shape.end(), size_t(0)));
      Guard.tuples(Result.size());
      Guard.shape(std::move(Shape));
    }
    Guard.finish();
  }

private:
  Universe *U;
  obs::SpanGuard Guard;
  size_t Created0 = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Schema helpers
//===----------------------------------------------------------------------===//

PhysDomId Relation::physOf(AttributeId Attr) const {
  for (const AttrBinding &B : Schema)
    if (B.Attr == Attr)
      return B.Phys;
  checkFailed("relation has no attribute '" + U->attributeName(Attr) + "'");
}

bool Relation::hasAttribute(AttributeId Attr) const {
  for (const AttrBinding &B : Schema)
    if (B.Attr == Attr)
      return true;
  return false;
}

std::vector<PhysDomId> Relation::schemaPhysDoms() const {
  std::vector<PhysDomId> Result;
  Result.reserve(Schema.size());
  for (const AttrBinding &B : Schema)
    Result.push_back(B.Phys);
  return Result;
}

//===----------------------------------------------------------------------===//
// Alignment: the automatically inserted replace operations
//===----------------------------------------------------------------------===//

Relation Relation::alignedToThis(const Relation &Other, Site At) const {
  JEDD_CHECK_AT(U && Other.U, "operation on an invalid relation", At);
  JEDD_CHECK_AT(U == Other.U, "relations belong to different universes", At);
  JEDD_CHECK_AT(Schema.size() == Other.Schema.size(),
                "operands have different schemas", At);
  std::vector<std::pair<PhysDomId, PhysDomId>> Moves;
  for (const AttrBinding &B : Schema) {
    // Schemas are unordered sets of attributes; match by attribute.
    JEDD_CHECK_AT(Other.hasAttribute(B.Attr),
                  "operands have different schemas: right operand lacks '" +
                      U->attributeName(B.Attr) + "'",
                  At);
    PhysDomId OtherPhys = Other.physOf(B.Attr);
    if (B.Phys != OtherPhys)
      Moves.push_back({OtherPhys, B.Phys});
  }
  if (Moves.empty())
    return Other;
  OpSpan Span(U, "replace", At, Other);
  Relation Result(U, Schema, U->pack().replaceDomains(Other.Body, Moves));
  Span.finish(Result);
  return Result;
}

Relation Relation::withBindings(const std::vector<AttrBinding> &Target,
                                Site At) const {
  Relation Dummy(U, normalizeSchema(*U, Target), U->manager().falseBdd());
  return Dummy.alignedToThis(*this, At);
}

//===----------------------------------------------------------------------===//
// Set operations and comparison
//===----------------------------------------------------------------------===//

Relation Relation::operator|(const Relation &Other) const {
  Relation Aligned = alignedToThis(Other, Site("union", "", 0));
  OpSpan Span(U, "union", {}, *this, &Aligned);
  Relation Result(U, Schema, Body | Aligned.Body);
  Span.finish(Result);
  return Result;
}

Relation Relation::operator&(const Relation &Other) const {
  Relation Aligned = alignedToThis(Other, Site("intersect", "", 0));
  OpSpan Span(U, "intersect", {}, *this, &Aligned);
  Relation Result(U, Schema, Body & Aligned.Body);
  Span.finish(Result);
  return Result;
}

Relation Relation::operator-(const Relation &Other) const {
  Relation Aligned = alignedToThis(Other, Site("difference", "", 0));
  OpSpan Span(U, "difference", {}, *this, &Aligned);
  Relation Result(U, Schema, Body - Aligned.Body);
  Span.finish(Result);
  return Result;
}

Relation &Relation::operator|=(const Relation &Other) {
  *this = *this | Other;
  return *this;
}
Relation &Relation::operator&=(const Relation &Other) {
  *this = *this & Other;
  return *this;
}
Relation &Relation::operator-=(const Relation &Other) {
  *this = *this - Other;
  return *this;
}

bool Relation::operator==(const Relation &Other) const {
  Relation Aligned = alignedToThis(Other, Site("compare", "", 0));
  return Body == Aligned.Body;
}

//===----------------------------------------------------------------------===//
// Attribute operations
//===----------------------------------------------------------------------===//

Relation Relation::project(const std::vector<AttributeId> &Remove,
                           Site At) const {
  JEDD_CHECK_AT(U, "operation on an invalid relation", At);
  std::vector<PhysDomId> Quantified;
  std::vector<AttrBinding> NewSchema;
  for (const AttrBinding &B : Schema) {
    if (std::find(Remove.begin(), Remove.end(), B.Attr) != Remove.end())
      Quantified.push_back(B.Phys);
    else
      NewSchema.push_back(B);
  }
  JEDD_CHECK_AT(Quantified.size() == Remove.size(),
                "projection of an attribute the relation does not have", At);
  OpSpan Span(U, "project", At, *this);
  Relation Result(U, std::move(NewSchema),
                  U->manager().exists(Body, U->pack().cubeOf(Quantified)));
  Span.finish(Result);
  return Result;
}

Relation Relation::projectTo(const std::vector<AttributeId> &Keep,
                             Site At) const {
  std::vector<AttributeId> Remove;
  for (const AttrBinding &B : Schema)
    if (std::find(Keep.begin(), Keep.end(), B.Attr) == Keep.end())
      Remove.push_back(B.Attr);
  return project(Remove, At);
}

Relation Relation::rename(AttributeId From, AttributeId To, Site At) const {
  JEDD_CHECK_AT(U, "operation on an invalid relation", At);
  JEDD_CHECK_AT(hasAttribute(From),
                "rename source '" + U->attributeName(From) +
                    "' not in the relation",
                At);
  JEDD_CHECK_AT(!hasAttribute(To),
                "rename target '" + U->attributeName(To) +
                    "' already in the relation",
                At);
  JEDD_CHECK_AT(U->attributeDomain(From) == U->attributeDomain(To),
                "rename between attributes of different domains", At);
  // No BDD change: only the attribute-to-physical-domain map is updated
  // (Section 3.2.2).
  std::vector<AttrBinding> NewSchema;
  for (const AttrBinding &B : Schema)
    NewSchema.push_back(B.Attr == From ? AttrBinding{To, B.Phys} : B);
  return Relation(U, std::move(NewSchema), Body);
}

Relation Relation::copy(AttributeId From, AttributeId NewAttr,
                        PhysDomId PhysForNew, Site At) const {
  JEDD_CHECK_AT(U, "operation on an invalid relation", At);
  JEDD_CHECK_AT(hasAttribute(From),
                "copy source '" + U->attributeName(From) +
                    "' not in the relation",
                At);
  JEDD_CHECK_AT(!hasAttribute(NewAttr),
                "copy target '" + U->attributeName(NewAttr) +
                    "' already in the relation",
                At);
  JEDD_CHECK_AT(U->attributeDomain(From) == U->attributeDomain(NewAttr),
                "copy between attributes of different domains", At);
  if (PhysForNew == NoPhysDom)
    PhysForNew = U->pickFreePhysDom(NewAttr, schemaPhysDoms());
  JEDD_CHECK_AT(U->fits(NewAttr, PhysForNew),
                "copy target physical domain too narrow", At);
  for (const AttrBinding &B : Schema)
    JEDD_CHECK_AT(B.Phys != PhysForNew,
                  "copy target physical domain already used by the relation",
                  At);

  OpSpan Span(U, "copy", At, *this);
  bdd::Bdd Equal = U->pack().equal(physOf(From), PhysForNew);
  std::vector<AttrBinding> NewSchema = Schema;
  NewSchema.push_back({NewAttr, PhysForNew});
  Relation Result(U, std::move(NewSchema), Body & Equal);
  Span.finish(Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Join and composition
//===----------------------------------------------------------------------===//

Relation Relation::prepareForMerge(const Relation &Other,
                                   const std::vector<AttributeId> &LeftAttrs,
                                   const std::vector<AttributeId> &RightAttrs,
                                   std::vector<AttrBinding> &OtherKept,
                                   bool DropLeftCompared, Site At) const {
  JEDD_CHECK_AT(U && Other.U, "operation on an invalid relation", At);
  JEDD_CHECK_AT(U == Other.U, "relations belong to different universes", At);
  JEDD_CHECK_AT(LeftAttrs.size() == RightAttrs.size(),
                "join/compose attribute lists differ in length", At);

  // Figure 6 checks, dynamically: compared attributes exist and are
  // pairwise distinct; the result has no duplicate attribute.
  for (size_t I = 0; I != LeftAttrs.size(); ++I) {
    JEDD_CHECK_AT(hasAttribute(LeftAttrs[I]),
                  "left operand lacks compared attribute '" +
                      U->attributeName(LeftAttrs[I]) + "'",
                  At);
    JEDD_CHECK_AT(Other.hasAttribute(RightAttrs[I]),
                  "right operand lacks compared attribute '" +
                      U->attributeName(RightAttrs[I]) + "'",
                  At);
    JEDD_CHECK_AT(U->attributeDomain(LeftAttrs[I]) ==
                      U->attributeDomain(RightAttrs[I]),
                  "compared attributes '" + U->attributeName(LeftAttrs[I]) +
                      "' and '" + U->attributeName(RightAttrs[I]) +
                      "' draw from different domains",
                  At);
    for (size_t K = 0; K != I; ++K) {
      JEDD_CHECK_AT(LeftAttrs[K] != LeftAttrs[I],
                    "attribute compared twice on the left", At);
      JEDD_CHECK_AT(RightAttrs[K] != RightAttrs[I],
                    "attribute compared twice on the right", At);
    }
  }
  for (const AttrBinding &B : Other.Schema) {
    bool Compared = std::find(RightAttrs.begin(), RightAttrs.end(), B.Attr) !=
                    RightAttrs.end();
    // For compositions the left compared attributes leave the result, so
    // a right attribute may reuse their names (Figure 6, [Compose]).
    bool InLeftResult =
        hasAttribute(B.Attr) &&
        !(DropLeftCompared &&
          std::find(LeftAttrs.begin(), LeftAttrs.end(), B.Attr) !=
              LeftAttrs.end());
    JEDD_CHECK_AT(Compared || !InLeftResult,
                  "result would contain attribute '" +
                      U->attributeName(B.Attr) + "' twice",
                  At);
  }

  // Decide the final physical domain of every right-hand attribute.
  // Compared attributes land on the left operand's physical domains so
  // the AND compares them; the rest must avoid every physical domain the
  // left operand uses (Section 3.2.2).
  std::vector<PhysDomId> UsedByLeft = schemaPhysDoms();
  std::vector<PhysDomId> Taken = UsedByLeft;
  std::vector<std::pair<AttributeId, PhysDomId>> Final;

  for (size_t I = 0; I != RightAttrs.size(); ++I)
    Final.push_back({RightAttrs[I], physOf(LeftAttrs[I])});

  // Pass 1: keep attributes already out of the way.
  for (const AttrBinding &B : Other.Schema) {
    if (std::find(RightAttrs.begin(), RightAttrs.end(), B.Attr) !=
        RightAttrs.end())
      continue;
    if (std::find(Taken.begin(), Taken.end(), B.Phys) == Taken.end()) {
      Final.push_back({B.Attr, B.Phys});
      Taken.push_back(B.Phys);
    }
  }
  // Pass 2: relocate the clashing ones to free physical domains.
  for (const AttrBinding &B : Other.Schema) {
    bool Handled = false;
    for (auto &[Attr, Phys] : Final)
      Handled |= (Attr == B.Attr);
    if (Handled)
      continue;
    PhysDomId Fresh = U->pickFreePhysDom(B.Attr, Taken);
    Final.push_back({B.Attr, Fresh});
    Taken.push_back(Fresh);
  }

  // Build the simultaneous move list and the kept-attribute bindings
  // (the latter in the right operand's declaration order).
  std::vector<std::pair<PhysDomId, PhysDomId>> Moves;
  OtherKept.clear();
  for (const AttrBinding &B : Other.Schema) {
    PhysDomId Target = NoPhysDom;
    for (auto &[Attr, Phys] : Final)
      if (Attr == B.Attr)
        Target = Phys;
    if (B.Phys != Target)
      Moves.push_back({B.Phys, Target});
    if (std::find(RightAttrs.begin(), RightAttrs.end(), B.Attr) ==
        RightAttrs.end())
      OtherKept.push_back({B.Attr, Target});
  }
  if (Moves.empty())
    return Other;
  OpSpan Span(U, "replace", At, Other);
  std::vector<AttrBinding> NewSchema;
  for (const AttrBinding &B : Other.Schema) {
    PhysDomId NewPhys = NoPhysDom;
    for (auto &[Attr, Phys] : Final)
      if (Attr == B.Attr)
        NewPhys = Phys;
    NewSchema.push_back({B.Attr, NewPhys});
  }
  Relation Result(U, std::move(NewSchema),
                  U->pack().replaceDomains(Other.Body, Moves));
  Span.finish(Result);
  return Result;
}

Relation Relation::join(const Relation &Other,
                        const std::vector<AttributeId> &LeftAttrs,
                        const std::vector<AttributeId> &RightAttrs,
                        Site At) const {
  std::vector<AttrBinding> OtherKept;
  Relation Aligned = prepareForMerge(Other, LeftAttrs, RightAttrs, OtherKept,
                                     /*DropLeftCompared=*/false, At);

  OpSpan Span(U, "join", At, *this, &Aligned);
  std::vector<AttrBinding> NewSchema = Schema;
  NewSchema.insert(NewSchema.end(), OtherKept.begin(), OtherKept.end());
  Relation Result(U, std::move(NewSchema), Body & Aligned.Body);
  Span.finish(Result);
  return Result;
}

Relation Relation::compose(const Relation &Other,
                           const std::vector<AttributeId> &LeftAttrs,
                           const std::vector<AttributeId> &RightAttrs,
                           Site At) const {
  std::vector<AttrBinding> OtherKept;
  Relation Aligned = prepareForMerge(Other, LeftAttrs, RightAttrs, OtherKept,
                                     /*DropLeftCompared=*/true, At);

  OpSpan Span(U, "compose", At, *this, &Aligned);
  // One relational product: AND + exists over the compared physical
  // domains in a single BDD recursion.
  std::vector<PhysDomId> ComparedPhys;
  std::vector<AttrBinding> NewSchema;
  for (const AttrBinding &B : Schema) {
    if (std::find(LeftAttrs.begin(), LeftAttrs.end(), B.Attr) !=
        LeftAttrs.end())
      ComparedPhys.push_back(B.Phys);
    else
      NewSchema.push_back(B);
  }
  NewSchema.insert(NewSchema.end(), OtherKept.begin(), OtherKept.end());
  Relation Result(U, std::move(NewSchema),
                  U->manager().relProd(Body, Aligned.Body,
                                       U->pack().cubeOf(ComparedPhys)));
  Span.finish(Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Extraction
//===----------------------------------------------------------------------===//

double Relation::size() const {
  JEDD_CHECK(U, "operation on an invalid relation");
  return U->manager().satCount(Body, U->pack().sortedVars(schemaPhysDoms()));
}

bdd::SatCount Relation::sizeExact() const {
  JEDD_CHECK(U, "operation on an invalid relation");
  return U->manager().satCountExact(Body,
                                    U->pack().sortedVars(schemaPhysDoms()));
}

bool Relation::fits(size_t Column, uint64_t Value) const {
  return Value < U->domainSize(U->attributeDomain(Schema[Column].Attr));
}

void Relation::insertTuples(const uint64_t *Values, size_t NumTuples) {
  // The whole batch is checked before anything is built, so a bad value
  // leaves the relation as it was.
  for (size_t T = 0; T != NumTuples; ++T)
    for (size_t I = 0; I != Schema.size(); ++I)
      JEDD_CHECK(fits(I, Values[T * Schema.size() + I]),
                 "value out of domain range for attribute '" +
                     U->attributeName(Schema[I].Attr) + "'");
  if (NumTuples != 0)
    Body = Body | U->pack().encodeTuples(schemaPhysDoms(), Values, NumTuples);
}

void Relation::insert(const std::vector<uint64_t> &Values) {
  JEDD_CHECK(U, "operation on an invalid relation");
  JEDD_CHECK(Values.size() == Schema.size(),
             "tuple arity does not match the schema");
  insertTuples(Values.data(), 1);
}

void Relation::insertAll(const std::vector<uint64_t> &Tuples) {
  JEDD_CHECK(U, "operation on an invalid relation");
  JEDD_CHECK(Schema.empty() ? Tuples.empty()
                            : Tuples.size() % Schema.size() == 0,
             "tuple list length is not a multiple of the arity");
  insertTuples(Tuples.data(),
               Schema.empty() ? 0 : Tuples.size() / Schema.size());
}

bool Relation::contains(const std::vector<uint64_t> &Values) const {
  JEDD_CHECK(U, "operation on an invalid relation");
  JEDD_CHECK(Values.size() == Schema.size(),
             "tuple arity does not match the schema");
  for (size_t I = 0; I != Schema.size(); ++I)
    if (!fits(I, Values[I]))
      return false;
  bdd::Bdd Tuple = U->pack().encodeTuples(schemaPhysDoms(), Values.data(), 1);
  return !(Tuple & Body).isFalse();
}

void Relation::iterate(
    const std::function<bool(const std::vector<uint64_t> &)> &Fn) const {
  JEDD_CHECK(U, "operation on an invalid relation");
  std::vector<PhysDomId> Phys = schemaPhysDoms();
  std::vector<unsigned> Vars = U->pack().sortedVars(Phys);
  // Precompute where each column's bits (MSB first) sit in the
  // enumeration vector, so decoding a tuple takes only bit shifts.
  std::vector<std::vector<size_t>> BitIndex;
  for (PhysDomId Dom : Phys)
    BitIndex.push_back(U->pack().bitIndex(Dom, Vars));
  std::vector<uint64_t> Tuple(Schema.size());
  // Fn may call back into the manager, even to modify this relation:
  // the copy keeps the enumerated BDD referenced until the walk ends.
  bdd::Bdd Root = Body;
  U->manager().enumerate(Root, Vars, [&](const std::vector<bool> &Bits) {
    for (size_t I = 0; I != Schema.size(); ++I)
      Tuple[I] = bdd::DomainPack::decodeBits(BitIndex[I], Bits);
    return Fn(Tuple);
  });
}

std::vector<std::vector<uint64_t>> Relation::tuples() const {
  std::vector<std::vector<uint64_t>> Result;
  iterate([&](const std::vector<uint64_t> &Tuple) {
    Result.push_back(Tuple);
    return true;
  });
  std::sort(Result.begin(), Result.end());
  return Result;
}

std::vector<uint64_t> Relation::values() const {
  JEDD_CHECK(Schema.size() == 1,
             "values() requires a single-attribute relation");
  std::vector<uint64_t> Result;
  iterate([&](const std::vector<uint64_t> &Tuple) {
    Result.push_back(Tuple[0]);
    return true;
  });
  std::sort(Result.begin(), Result.end());
  return Result;
}

std::string Relation::toString() const {
  // Header of attribute names, then one line per tuple, like Figure 3.
  std::vector<std::vector<std::string>> Rows;
  std::vector<std::string> Header;
  for (const AttrBinding &B : Schema)
    Header.push_back(U->attributeName(B.Attr));
  Rows.push_back(Header);
  for (const std::vector<uint64_t> &Tuple : tuples()) {
    std::vector<std::string> Row;
    for (size_t I = 0; I != Schema.size(); ++I)
      Row.push_back(U->label(U->attributeDomain(Schema[I].Attr), Tuple[I]));
    Rows.push_back(std::move(Row));
  }

  std::vector<size_t> Widths(Schema.size(), 0);
  for (const auto &Row : Rows)
    for (size_t I = 0; I != Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());

  std::string Out;
  for (size_t R = 0; R != Rows.size(); ++R) {
    for (size_t I = 0; I != Rows[R].size(); ++I) {
      Out += Rows[R][I];
      if (I + 1 != Rows[R].size())
        Out += std::string(Widths[I] - Rows[R][I].size() + 2, ' ');
    }
    Out += '\n';
    if (R == 0) {
      size_t Total = 0;
      for (size_t I = 0; I != Widths.size(); ++I)
        Total += Widths[I] + (I + 1 != Widths.size() ? 2 : 0);
      Out += std::string(Total, '-');
      Out += '\n';
    }
  }
  if (Rows.size() == 1)
    Out += "(empty)\n";
  return Out;
}

size_t Relation::nodeCount() const {
  return U->manager().nodeCount(Body);
}
