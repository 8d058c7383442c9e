//===- ProgramModel.h - Mini whole-program model ----------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A miniature Soot: the whole-program facts the paper's five analyses
/// consume. A Program is a set of classes in a single-inheritance
/// hierarchy, methods declared under signatures, and method bodies
/// reduced to the pointer-relevant statements (allocations, copies,
/// field loads/stores, virtual calls) — exactly the relations the
/// points-to paper [5] extracts from Jimple. Real Java bytecode is out
/// of scope; the synthetic generator (Generator.h) produces programs at
/// benchmark scale instead.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_SOOT_PROGRAMMODEL_H
#define JEDDPP_SOOT_PROGRAMMODEL_H

#include <cstdint>
#include <string>
#include <vector>

namespace jedd {
namespace soot {

using Id = uint32_t;
constexpr Id NoId = 0xFFFFFFFFu;

/// A class. Klasses[0] is the root ("Object"); every other class has a
/// valid Super.
struct Klass {
  std::string Name;
  Id Super = NoId;
};

/// A method signature (name + descriptor, abstracted to a name).
struct Signature {
  std::string Name;
};

/// A concrete method: an implementation of Sig declared in Klass.
struct Method {
  Id Klass = NoId;
  Id Sig = NoId;
  Id ThisVar = NoId;
  std::vector<Id> ParamVars;
  Id RetVar = NoId; ///< NoId for void methods.
};

/// A virtual call site inside Caller.
struct CallSite {
  Id Caller = NoId;  ///< Enclosing method.
  Id Sig = NoId;     ///< Invoked signature.
  Id RecvVar = NoId; ///< Receiver variable.
  std::vector<Id> ArgVars;
  Id RetDstVar = NoId; ///< Variable receiving the result, or NoId.
};

/// Pointer-relevant statements, stored as flat fact lists (the shape the
/// relational analyses consume).
struct AllocStmt {
  Id Var, Site;
};
struct AssignStmt {
  Id Dst, Src;
};
struct LoadStmt {
  Id Dst, Base, Field;
};
struct StoreStmt {
  Id Base, Field, Src;
};

/// The statement facts of a set of methods as flat tuple batches, each
/// in the column order of its fact relation (the C++ analyses' and the
/// prelude.jedd globals').
struct MethodFacts {
  std::vector<uint64_t> Alloc;       ///< (var, site).
  std::vector<uint64_t> Assign;      ///< (src, dst).
  std::vector<uint64_t> Load;        ///< (base, field, dst).
  std::vector<uint64_t> Store;       ///< (src, base, field).
  std::vector<uint64_t> CallRecvSig; ///< (call, recv, sig).
  std::vector<uint64_t> CallerOf;    ///< (call, caller).
};

/// A whole program.
struct Program {
  std::vector<Klass> Klasses;
  std::vector<Signature> Sigs;
  std::vector<Method> Methods;
  std::vector<std::string> Fields;

  size_t NumVars = 0;  ///< Variables are 0..NumVars-1.
  size_t NumSites = 0; ///< Allocation sites are 0..NumSites-1.

  /// Which method declares each variable (for side-effect attribution).
  std::vector<Id> VarMethod;
  /// The class instantiated at each allocation site.
  std::vector<Id> SiteType;

  std::vector<AllocStmt> Allocs;
  std::vector<AssignStmt> Assigns;
  std::vector<LoadStmt> Loads;
  std::vector<StoreStmt> Stores;
  std::vector<CallSite> Calls;

  Id EntryMethod = 0;

  /// Looks up the method implementing \p Sig in \p Klass itself (not in
  /// supertypes); NoId if absent. Reference implementation used by the
  /// analysis tests as an oracle.
  Id declaredMethod(Id KlassId, Id SigId) const;
  /// Walks up the hierarchy from \p KlassId, the oracle counterpart of
  /// the paper's Figure 4 algorithm.
  Id resolveVirtual(Id KlassId, Id SigId) const;

  /// The statements owned by \p MethodIds: allocs, copies and loads
  /// belong to the method of their destination variable, stores to that
  /// of their base variable, call sites to their caller. Each batch
  /// keeps the order of its statement list.
  MethodFacts factsOf(const std::vector<Id> &MethodIds) const;
  /// Appends to \p Out the (src, dst) copy edges that the call edge
  /// from call site \p CallId to method \p CalleeId induces: receiver
  /// to `this`, arguments to parameters up to the shorter list, and
  /// return variable to result variable when both exist.
  void callCopies(Id CallId, Id CalleeId, std::vector<uint64_t> &Out) const;

  /// Basic well-formedness: index ranges, an acyclic hierarchy, and a
  /// variable in every statement slot except a method's this and ret and
  /// a call's ret, which may be NoId.
  bool validate(std::string &Error) const;
};

} // namespace soot
} // namespace jedd

#endif // JEDDPP_SOOT_PROGRAMMODEL_H
