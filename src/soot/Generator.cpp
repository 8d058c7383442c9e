//===- Generator.cpp - Synthetic whole-program generator -------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "soot/Generator.h"
#include "util/Fatal.h"
#include "util/Random.h"
#include "util/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace jedd;
using namespace jedd::soot;

Program jedd::soot::generateProgram(const GeneratorParams &Params) {
  JEDD_CHECK(Params.NumClasses >= 1 && Params.NumSignatures >= 1,
             "generator needs at least one class and signature");
  SplitMix64 Rng(Params.Seed);
  Program P;

  // Classes: 0 is the root; every other class extends an earlier one,
  // biased toward recent classes so the hierarchy gets some depth.
  P.Klasses.push_back({"Object", NoId});
  for (unsigned K = 1; K != Params.NumClasses; ++K) {
    Id Super = 0;
    if (K > 1 && Rng.nextChance(3, 4))
      Super = static_cast<Id>(Rng.nextInRange(K > 8 ? K - 8 : 0, K - 1));
    P.Klasses.push_back({strFormat("C%u", K), Super});
  }

  for (unsigned S = 0; S != Params.NumSignatures; ++S)
    P.Sigs.push_back({strFormat("m%u()", S)});
  for (unsigned F = 0; F != Params.NumFields; ++F)
    P.Fields.push_back(strFormat("f%u", F));

  // Methods. The root implements every signature, so virtual resolution
  // always finds a target; other classes override a random subset.
  auto AddMethod = [&](Id Klass, Id Sig) {
    Method M;
    M.Klass = Klass;
    M.Sig = Sig;
    P.Methods.push_back(M);
    return static_cast<Id>(P.Methods.size() - 1);
  };
  for (unsigned S = 0; S != Params.NumSignatures; ++S)
    AddMethod(0, S);
  for (unsigned K = 1; K != Params.NumClasses; ++K)
    for (unsigned I = 0; I != Params.MethodsPerClass; ++I) {
      Id Sig = static_cast<Id>(Rng.nextBelow(Params.NumSignatures));
      if (P.declaredMethod(K, Sig) == NoId)
        AddMethod(K, Sig);
    }

  // Variables and bodies.
  constexpr unsigned NumParams = 2;
  auto NewVar = [&](Id Method) {
    P.VarMethod.push_back(Method);
    return static_cast<Id>(P.NumVars++);
  };
  std::vector<std::vector<Id>> MethodVars(P.Methods.size());

  for (size_t M = 0; M != P.Methods.size(); ++M) {
    Method &Meth = P.Methods[M];
    Meth.ThisVar = NewVar(static_cast<Id>(M));
    for (unsigned I = 0; I != NumParams; ++I)
      Meth.ParamVars.push_back(NewVar(static_cast<Id>(M)));
    Meth.RetVar = NewVar(static_cast<Id>(M));
    std::vector<Id> &Vars = MethodVars[M];
    Vars.push_back(Meth.ThisVar);
    Vars.insert(Vars.end(), Meth.ParamVars.begin(), Meth.ParamVars.end());
    Vars.push_back(Meth.RetVar);
    for (unsigned I = 0; I != Params.VarsPerMethod; ++I)
      Vars.push_back(NewVar(static_cast<Id>(M)));
  }

  for (size_t M = 0; M != P.Methods.size(); ++M) {
    const std::vector<Id> &Vars = MethodVars[M];
    auto RandomVar = [&]() {
      return Vars[Rng.nextBelow(Vars.size())];
    };
    // Variables guaranteed to point somewhere: allocation targets, the
    // incoming this/parameters, and call results. Receivers are drawn
    // from this pool so the on-the-fly call graph actually grows.
    std::vector<Id> PointerVars = {P.Methods[M].ThisVar};
    PointerVars.insert(PointerVars.end(), P.Methods[M].ParamVars.begin(),
                       P.Methods[M].ParamVars.end());
    auto PointerVar = [&]() {
      return PointerVars[Rng.nextBelow(PointerVars.size())];
    };

    // Allocations: fresh sites; the first one feeds the return variable
    // so callers always observe something.
    for (unsigned I = 0; I != Params.AllocsPerMethod; ++I) {
      Id Site = static_cast<Id>(P.NumSites++);
      P.SiteType.push_back(
          static_cast<Id>(Rng.nextBelow(P.Klasses.size())));
      Id Var = I == 0 ? P.Methods[M].RetVar : RandomVar();
      P.Allocs.push_back({Var, Site});
      PointerVars.push_back(Var);
    }
    for (unsigned I = 0; I != Params.AssignsPerMethod; ++I) {
      // A third of the copies spread pointers to fresh variables.
      Id Src = Rng.nextChance(1, 3) ? PointerVar() : RandomVar();
      Id Dst = RandomVar();
      P.Assigns.push_back({Dst, Src});
      if (std::find(PointerVars.begin(), PointerVars.end(), Src) !=
          PointerVars.end())
        PointerVars.push_back(Dst);
    }
    for (unsigned I = 0; I != Params.LoadsPerMethod; ++I)
      P.Loads.push_back({RandomVar(), PointerVar(),
                         static_cast<Id>(Rng.nextBelow(P.Fields.size()))});
    for (unsigned I = 0; I != Params.StoresPerMethod; ++I)
      P.Stores.push_back({PointerVar(),
                          static_cast<Id>(Rng.nextBelow(P.Fields.size())),
                          PointerVar()});
    // Receivers are usually freshly allocated locally (their dynamic
    // type is then a single class), occasionally an incoming pointer —
    // keeping the points-to sets of receivers realistic rather than
    // letting every call fan out to every class.
    std::vector<Id> LocalAllocVars;
    for (unsigned I = 0; I != Params.AllocsPerMethod; ++I)
      LocalAllocVars.push_back(
          P.Allocs[P.Allocs.size() - Params.AllocsPerMethod + I].Var);
    for (unsigned I = 0; I != Params.CallsPerMethod; ++I) {
      CallSite C;
      C.Caller = static_cast<Id>(M);
      C.Sig = static_cast<Id>(Rng.nextBelow(P.Sigs.size()));
      C.RecvVar = Rng.nextChance(3, 4)
                      ? LocalAllocVars[Rng.nextBelow(LocalAllocVars.size())]
                      : PointerVar();
      for (unsigned A = 0; A != NumParams; ++A)
        C.ArgVars.push_back(Rng.nextChance(1, 3) ? PointerVar()
                                                 : RandomVar());
      C.RetDstVar = RandomVar();
      P.Calls.push_back(std::move(C));
    }
  }

  P.EntryMethod = 0;
  std::string Error;
  bool Valid = P.validate(Error);
  JEDD_CHECK(Valid, "generated program invalid: " + Error);
  return P;
}

GeneratorParams jedd::soot::benchmarkPreset(const std::string &Name) {
  // Scales chosen to mirror the relative sizes of the paper's Table 2
  // benchmarks (javac_s smallest, jedit largest); absolute numbers are
  // bounded so the whole suite runs in seconds.
  GeneratorParams Params;
  Params.Seed = 0x6a656464; // "jedd", same workload for both versions.
  Params.NumFields = 24;
  if (Name == "javac_s") {
    Params.NumClasses = 16;
    Params.NumSignatures = 14;
  } else if (Name == "compress") {
    Params.NumClasses = 20;
    Params.NumSignatures = 16;
  } else if (Name == "javac") {
    Params.NumClasses = 24;
    Params.NumSignatures = 18;
  } else if (Name == "sablecc") {
    Params.NumClasses = 27;
    Params.NumSignatures = 20;
  } else if (Name == "jedit") {
    Params.NumClasses = 30;
    Params.NumSignatures = 22;
  } else if (Name == "jedit_x4") {
    // Scale presets, outside Table 2: their runs take seconds, the range
    // of the paper's rows.
    Params.NumClasses = 120;
    Params.NumSignatures = 90;
  } else if (Name == "jedit_x8") {
    Params.NumClasses = 240;
    Params.NumSignatures = 180;
  } else {
    checkFailed("unknown benchmark preset '" + Name + "'");
  }
  return Params;
}

const std::vector<std::string> &jedd::soot::table2Benchmarks() {
  static const std::vector<std::string> Names = {
      "javac_s", "compress", "javac", "sablecc", "jedit"};
  return Names;
}
