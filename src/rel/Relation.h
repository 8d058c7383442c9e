//===- Relation.h - Database-style relations over BDDs ----------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Relation data type of Section 2 — the paper's central abstraction.
/// A relation is a set of tuples over a schema of attributes, stored as a
/// BDD with each attribute in its own physical domain. All operations of
/// Section 2.2 are provided:
///
///   paper syntax            here
///   ----------------------  -----------------------------------------
///   x | y, x & y, x - y     operator|, operator&, operator-
///   x |= y, &=, -=          operator|=, operator&=, operator-=
///   x == y, x != y          operator==, operator!=
///   (a=>) x                 x.project({a})
///   (a=>b) x                x.rename(a, b)
///   (a=>b c) x              x.copy(a, c) (b keeps a's values)
///   x{a} >< y{b}            x.join(y, {a}, {b})
///   x{a} <> y{b}            x.compose(y, {a}, {b})
///   new {o=>a, ...}         Universe::tuple / Relation::insert, insertAll
///   0B, 1B                  Universe::empty / Universe::full
///   iterator                iterate()
///   size()                  size()
///   toString()              toString()
///
/// Relations have value semantics ("like other primitive Java types,
/// relations are passed by value"). The properties Figure 6 checks
/// statically in jeddc are enforced here as runtime checks, since this is
/// the dynamically-checked runtime the generated code calls into; the
/// translator in src/jedd adds the static layer.
///
/// Physical domain management: operations that need operands aligned
/// (set operations, join, compose) insert the necessary replace
/// operations automatically, mirroring how jeddc-generated code wraps
/// subexpressions in replaces. When an attribute must move to a fresh
/// physical domain, the first declared one that fits is used.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_REL_RELATION_H
#define JEDDPP_REL_RELATION_H

#include "rel/Site.h"
#include "rel/Universe.h"

#include <functional>
#include <string>
#include <vector>

namespace jedd {
namespace rel {

class Relation {
public:
  /// An invalid relation; assign a real one before use.
  Relation() = default;

  const std::vector<AttrBinding> &schema() const { return Schema; }
  Universe *universe() const { return U; }
  bool isValid() const { return U != nullptr; }

  /// Physical domain currently holding \p Attr; fatal if absent.
  PhysDomId physOf(AttributeId Attr) const;
  bool hasAttribute(AttributeId Attr) const;

  //===--------------------------------------------------------------===//
  // Set operations and comparison (same schema required)
  //===--------------------------------------------------------------===//

  Relation operator|(const Relation &Other) const;
  Relation operator&(const Relation &Other) const;
  Relation operator-(const Relation &Other) const;
  Relation &operator|=(const Relation &Other);
  Relation &operator&=(const Relation &Other);
  Relation &operator-=(const Relation &Other);

  /// Constant-time BDD equality (after physical-domain alignment).
  bool operator==(const Relation &Other) const;
  bool operator!=(const Relation &Other) const { return !(*this == Other); }

  //===--------------------------------------------------------------===//
  // Attribute operations
  //===--------------------------------------------------------------===//

  /// (a=>)x — removes the listed attributes (existential projection).
  /// \p At attributes the operation to a program point in the profiler
  /// and trace output; build it with JEDD_SITE("label") (all Site
  /// parameters below work the same way).
  Relation project(const std::vector<AttributeId> &Remove,
                   Site At = {}) const;
  /// Keeps exactly the listed attributes.
  Relation projectTo(const std::vector<AttributeId> &Keep,
                     Site At = {}) const;
  /// (a=>b)x — renames attribute \p From to \p To (same domain); the BDD
  /// is unchanged, only the schema map is updated.
  Relation rename(AttributeId From, AttributeId To, Site At = {}) const;
  /// (a=>a b)x — adds \p NewAttr carrying a copy of \p From's value.
  /// \p PhysForNew selects the physical domain of the new attribute;
  /// NoPhysDom picks the first free one that fits.
  Relation copy(AttributeId From, AttributeId NewAttr,
                PhysDomId PhysForNew = NoPhysDom, Site At = {}) const;

  //===--------------------------------------------------------------===//
  // Join and composition
  //===--------------------------------------------------------------===//

  /// x{L} >< y{R}: tuples agreeing on the compared attribute lists are
  /// merged; the compared attributes are kept once (left names).
  Relation join(const Relation &Other,
                const std::vector<AttributeId> &LeftAttrs,
                const std::vector<AttributeId> &RightAttrs,
                Site At = {}) const;

  /// x{L} <> y{R}: like join but the compared attributes are projected
  /// away — implemented as one relational product, which the paper notes
  /// is cheaper than join-then-project.
  Relation compose(const Relation &Other,
                   const std::vector<AttributeId> &LeftAttrs,
                   const std::vector<AttributeId> &RightAttrs,
                   Site At = {}) const;

  //===--------------------------------------------------------------===//
  // Physical domain control
  //===--------------------------------------------------------------===//

  /// Returns this relation with attributes moved to the physical domains
  /// of \p Target (same attribute set) — an explicit replace operation.
  Relation withBindings(const std::vector<AttrBinding> &Target,
                        Site At = {}) const;

  //===--------------------------------------------------------------===//
  // Extraction (Section 2.3)
  //===--------------------------------------------------------------===//

  /// Number of tuples: the body's satisfying assignments counted over the
  /// schema's physical-domain variables only (Manager::satCount), so the
  /// universe's other physical domains, however wide, never enter it.
  double size() const;
  /// Number of tuples as an exact 128-bit count over the same variables.
  /// Saturates (with the flag set) only beyond 2^128 tuples; below that
  /// the count is exact even where the double returned by size() has
  /// rounded.
  bdd::SatCount sizeExact() const;
  bool isEmpty() const { return Body.isFalse(); }

  /// Adds one tuple (values indexed like schema()): insertAll of one.
  void insert(const std::vector<uint64_t> &Values);
  /// Adds a batch of tuples, \p Tuples holding them back to back, each
  /// indexed like schema(). Every value is checked against its domain
  /// before anything is built: an out-of-range value throws UsageError
  /// and leaves the relation unchanged. The batch becomes one BDD
  /// (DomainPack::encodeTuples), united with the body once.
  void insertAll(const std::vector<uint64_t> &Tuples);
  /// Membership test for one tuple; false for values outside their
  /// domains.
  bool contains(const std::vector<uint64_t> &Values) const;

  /// Calls \p Fn for every tuple with the values indexed like schema().
  /// Returning false stops the iteration. Deterministic order. \p Fn
  /// may call back into the universe's manager, even to insert into this
  /// or another relation; collecting the tuples and inserting them with
  /// one insertAll afterwards is cheaper.
  void iterate(
      const std::function<bool(const std::vector<uint64_t> &)> &Fn) const;

  /// All tuples, sorted; convenient for tests.
  std::vector<std::vector<uint64_t>> tuples() const;

  /// For single-attribute relations: the attribute's values, sorted.
  /// This is the paper's specialized single-attribute iterator
  /// (Section 2.3). Fatal on relations of other arities.
  std::vector<uint64_t> values() const;

  /// Renders the relation as the paper's figures do: a header of
  /// attribute names and one row per tuple (using domain labels).
  std::string toString() const;

  /// The underlying BDD (for the profiler, tests, and the hand-coded
  /// baseline comparisons).
  const bdd::Bdd &body() const { return Body; }
  size_t nodeCount() const;

private:
  friend class Universe;
  Relation(Universe *U, std::vector<AttrBinding> Schema, bdd::Bdd Body)
      : U(U), Schema(std::move(Schema)), Body(std::move(Body)) {}

  Universe *U = nullptr;
  /// In construction order, not sorted: normalizeSchema only validates
  /// it. |, & and - keep the left operand's order; join and compose list
  /// the left operand's remaining columns, then the right's; copy
  /// appends the new column. tuples(), contains(), iterate() and
  /// insertAll() index values by it.
  std::vector<AttrBinding> Schema;
  bdd::Bdd Body;

  /// Checks same universe + same attribute set; returns Other aligned to
  /// this relation's physical domains.
  Relation alignedToThis(const Relation &Other, Site At) const;

  /// Shared plumbing of join and compose: aligns Other's compared
  /// attributes onto this one's physical domains and relocates Other's
  /// remaining attributes away from any physical domain this relation
  /// uses. Fills \p OtherKept with Other's non-compared bindings (after
  /// relocation).
  /// \p DropLeftCompared is true for compositions, whose result drops
  /// the left compared attributes (so their names may be reused by the
  /// right operand).
  Relation prepareForMerge(const Relation &Other,
                           const std::vector<AttributeId> &LeftAttrs,
                           const std::vector<AttributeId> &RightAttrs,
                           std::vector<AttrBinding> &OtherKept,
                           bool DropLeftCompared, Site At) const;

  /// Shared core of insert and insertAll over \p NumTuples tuples.
  void insertTuples(const uint64_t *Values, size_t NumTuples);
  /// True if \p Value lies in the domain of column \p Column.
  bool fits(size_t Column, uint64_t Value) const;

  std::vector<PhysDomId> schemaPhysDoms() const;
};

} // namespace rel
} // namespace jedd

#endif // JEDDPP_REL_RELATION_H
