//===- ProgramModel.cpp - Mini whole-program model -------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "soot/ProgramModel.h"
#include "util/StringUtils.h"

#include <algorithm>

using namespace jedd;
using namespace jedd::soot;

Id Program::declaredMethod(Id KlassId, Id SigId) const {
  for (size_t M = 0; M != Methods.size(); ++M)
    if (Methods[M].Klass == KlassId && Methods[M].Sig == SigId)
      return static_cast<Id>(M);
  return NoId;
}

Id Program::resolveVirtual(Id KlassId, Id SigId) const {
  for (Id K = KlassId; K != NoId; K = Klasses[K].Super) {
    Id M = declaredMethod(K, SigId);
    if (M != NoId)
      return M;
  }
  return NoId;
}

MethodFacts Program::factsOf(const std::vector<Id> &MethodIds) const {
  std::vector<bool> In(Methods.size(), false);
  for (Id M : MethodIds)
    In[M] = true;
  auto Owns = [&](Id M) { return M < In.size() && In[M]; };
  MethodFacts F;
  for (const AllocStmt &S : Allocs)
    if (Owns(VarMethod[S.Var]))
      F.Alloc.insert(F.Alloc.end(), {S.Var, S.Site});
  for (const AssignStmt &S : Assigns)
    if (Owns(VarMethod[S.Dst]))
      F.Assign.insert(F.Assign.end(), {S.Src, S.Dst});
  for (const LoadStmt &S : Loads)
    if (Owns(VarMethod[S.Dst]))
      F.Load.insert(F.Load.end(), {S.Base, S.Field, S.Dst});
  for (const StoreStmt &S : Stores)
    if (Owns(VarMethod[S.Base]))
      F.Store.insert(F.Store.end(), {S.Src, S.Base, S.Field});
  for (size_t C = 0; C != Calls.size(); ++C)
    if (Owns(Calls[C].Caller)) {
      F.CallRecvSig.insert(F.CallRecvSig.end(),
                           {C, Calls[C].RecvVar, Calls[C].Sig});
      F.CallerOf.insert(F.CallerOf.end(), {C, Calls[C].Caller});
    }
  return F;
}

void Program::callCopies(Id CallId, Id CalleeId,
                         std::vector<uint64_t> &Out) const {
  const CallSite &Site = Calls[CallId];
  const Method &Callee = Methods[CalleeId];
  Out.insert(Out.end(), {Site.RecvVar, Callee.ThisVar});
  for (size_t A = 0;
       A != std::min(Site.ArgVars.size(), Callee.ParamVars.size()); ++A)
    Out.insert(Out.end(), {Site.ArgVars[A], Callee.ParamVars[A]});
  if (Site.RetDstVar != NoId && Callee.RetVar != NoId)
    Out.insert(Out.end(), {Callee.RetVar, Site.RetDstVar});
}

bool Program::validate(std::string &Error) const {
  auto Fail = [&](std::string Message) {
    Error = std::move(Message);
    return false;
  };

  if (Klasses.empty())
    return Fail("program has no classes");
  if (Klasses[0].Super != NoId)
    return Fail("root class must have no superclass");
  for (size_t K = 1; K != Klasses.size(); ++K) {
    if (Klasses[K].Super == NoId)
      return Fail("non-root class without a superclass: " + Klasses[K].Name);
    if (Klasses[K].Super >= K)
      return Fail("superclass must precede the class (acyclicity): " +
                  Klasses[K].Name);
  }

  // Only a method's this and ret and a call's ret may be absent (NoId).
  auto IsVar = [&](Id Var) { return Var < NumVars; };
  auto IsVarOrNone = [&](Id Var) { return Var == NoId || IsVar(Var); };
  for (const Method &M : Methods) {
    if (M.Klass >= Klasses.size() || M.Sig >= Sigs.size())
      return Fail("method with out-of-range class or signature");
    if (!IsVarOrNone(M.ThisVar) || !IsVarOrNone(M.RetVar))
      return Fail("method with out-of-range variables");
    for (Id P : M.ParamVars)
      if (!IsVar(P))
        return Fail("method with out-of-range parameter variable");
  }
  if (VarMethod.size() != NumVars)
    return Fail("VarMethod must cover every variable");
  for (size_t V = 0; V != NumVars; ++V)
    if (VarMethod[V] >= Methods.size())
      return Fail(strFormat("variable %zu belongs to method %u, but the "
                            "program has %zu methods",
                            V, VarMethod[V], Methods.size()));
  if (SiteType.size() != NumSites)
    return Fail("SiteType must cover every allocation site");
  for (Id T : SiteType)
    if (T >= Klasses.size())
      return Fail("allocation site of unknown class");

  for (const AllocStmt &S : Allocs)
    if (!IsVar(S.Var) || S.Site >= NumSites)
      return Fail("malformed allocation");
  for (const AssignStmt &S : Assigns)
    if (!IsVar(S.Dst) || !IsVar(S.Src))
      return Fail("malformed assignment");
  for (const LoadStmt &S : Loads)
    if (!IsVar(S.Dst) || !IsVar(S.Base) || S.Field >= Fields.size())
      return Fail("malformed load");
  for (const StoreStmt &S : Stores)
    if (!IsVar(S.Base) || !IsVar(S.Src) || S.Field >= Fields.size())
      return Fail("malformed store");
  for (const CallSite &C : Calls) {
    if (C.Caller >= Methods.size() || C.Sig >= Sigs.size() ||
        !IsVar(C.RecvVar) || !IsVarOrNone(C.RetDstVar))
      return Fail("malformed call site");
    for (Id A : C.ArgVars)
      if (!IsVar(A))
        return Fail("malformed call argument");
  }
  if (EntryMethod >= Methods.size())
    return Fail("entry method out of range");
  return true;
}
