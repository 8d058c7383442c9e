//===- DomainPack.cpp - Physical domains as BDD variable blocks -----------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "bdd/DomainPack.h"
#include "util/Error.h"

#include <algorithm>

using namespace jedd;
using namespace jedd::bdd;

PhysDomId DomainPack::addDomain(std::string Name, unsigned Bits) {
  assert(!Mgr && "domains must be declared before finalize()");
  assert(Bits >= 1 && Bits <= 62 && "unsupported physical domain width");
  Doms.push_back({std::move(Name), Bits, {}});
  return static_cast<PhysDomId>(Doms.size() - 1);
}

std::vector<std::vector<PhysDomId>> DomainPack::parseSpec() const {
  std::vector<std::vector<PhysDomId>> Result;
  if (Spec.empty()) {
    for (PhysDomId Dom = 0; Dom != Doms.size(); ++Dom)
      Result.push_back({Dom});
    return Result;
  }
  auto Fail = [&](const std::string &Why) {
    throw UsageError("order spec '" + Spec + "' " + Why);
  };
  std::vector<bool> Named(Doms.size(), false);
  Result.emplace_back();
  size_t Pos = 0;
  while (true) {
    // The longest declared name at Pos followed by a separator or the
    // end, so names may themselves contain 'x' or '_'.
    PhysDomId Match = 0;
    size_t Len = 0;
    for (PhysDomId Dom = 0; Dom != Doms.size(); ++Dom) {
      const std::string &Name = Doms[Dom].Name;
      size_t End = Pos + Name.size();
      if (Name.size() > Len && Spec.compare(Pos, Name.size(), Name) == 0 &&
          (End == Spec.size() || Spec[End] == 'x' || Spec[End] == '_')) {
        Match = Dom;
        Len = Name.size();
      }
    }
    if (Len == 0)
      Fail("names an unknown domain '" +
           Spec.substr(Pos, Spec.find_first_of("x_", Pos) - Pos) + "'");
    if (Named[Match])
      Fail("names domain '" + Doms[Match].Name + "' twice");
    Named[Match] = true;
    Result.back().push_back(Match);
    Pos += Len;
    if (Pos == Spec.size())
      break;
    if (Spec[Pos++] == '_')
      Result.emplace_back();
  }
  for (PhysDomId Dom = 0; Dom != Doms.size(); ++Dom)
    if (!Named[Dom])
      Fail("leaves out domain '" + Doms[Dom].Name + "'");
  return Result;
}

void DomainPack::finalize(size_t InitialNodes, size_t CacheSize) {
  assert(!Mgr && "finalize() may only run once");
  assert(!Doms.empty() && "a pack needs at least one domain");
  std::vector<std::vector<PhysDomId>> Parsed = parseSpec();

  unsigned NextVar = 0;
  for (const std::vector<PhysDomId> &Group : Parsed) {
    // MSB-aligned interleave: round k hands one variable to every domain
    // of the group that still has bits left, most significant bits
    // first. Wide domains therefore start contributing earlier; all
    // domains finish at the bottom together, which aligns the low-order
    // bits — the layout BuDDy's interleaved fdd blocks produce. A
    // single-domain group is simply the domain's bits in sequence.
    unsigned MaxBits = 0;
    for (PhysDomId Dom : Group) {
      MaxBits = std::max(MaxBits, Doms[Dom].Bits);
      Doms[Dom].Vars.resize(Doms[Dom].Bits);
    }
    for (unsigned Round = 0; Round != MaxBits; ++Round) {
      for (PhysDomId Dom : Group) {
        // Domain D participates in the last D.Bits rounds.
        DomInfo &D = Doms[Dom];
        unsigned Offset = MaxBits - D.Bits;
        if (Round >= Offset)
          D.Vars[Round - Offset] = NextVar++;
      }
    }
  }
  Groups = std::move(Parsed);
  Mgr = std::make_unique<Manager>(NextVar, InitialNodes, CacheSize);
}

Bdd DomainPack::encode(PhysDomId Dom, uint64_t Value) {
  const DomInfo &D = Doms[Dom];
  assert(Value < (1ULL << D.Bits) && "value does not fit the domain");
  // Build the conjunction bottom-up with raw nodes for efficiency; the
  // literals of one domain form a chain.
  std::vector<std::pair<unsigned, bool>> Literals; // (var, bit value)
  for (unsigned B = 0; B != D.Bits; ++B) {
    bool BitSet = (Value >> (D.Bits - 1 - B)) & 1; // Vars[0] is the MSB.
    Literals.push_back({D.Vars[B], BitSet});
  }
  std::sort(Literals.begin(), Literals.end());
  Bdd Result = Mgr->trueBdd();
  for (size_t I = Literals.size(); I-- > 0;) {
    Bdd Lit = Literals[I].second ? Mgr->var(Literals[I].first)
                                 : Mgr->nvar(Literals[I].first);
    Result = Mgr->bddAnd(Lit, Result);
  }
  return Result;
}

Bdd DomainPack::encodeLess(PhysDomId Dom, uint64_t Bound) {
  const DomInfo &D = Doms[Dom];
  if (Bound >= (1ULL << D.Bits))
    return Mgr->trueBdd();
  if (Bound == 0)
    return Mgr->falseBdd();
  // value < Bound, MSB-first comparison: a value is smaller iff at some
  // bit position it has 0 where Bound has 1, and matches Bound above.
  Bdd Result = Mgr->falseBdd();
  Bdd PrefixEqual = Mgr->trueBdd();
  for (unsigned B = 0; B != D.Bits; ++B) {
    bool BoundBit = (Bound >> (D.Bits - 1 - B)) & 1;
    Bdd Var = Mgr->var(D.Vars[B]);
    if (BoundBit)
      Result = Mgr->bddOr(Result, Mgr->bddAnd(PrefixEqual, Mgr->bddNot(Var)));
    PrefixEqual = Mgr->bddAnd(
        PrefixEqual, BoundBit ? Var : Mgr->bddNot(Var));
  }
  return Result;
}

Bdd DomainPack::cubeOf(const std::vector<PhysDomId> &DomList) {
  std::vector<unsigned> Vars;
  for (PhysDomId Dom : DomList)
    Vars.insert(Vars.end(), Doms[Dom].Vars.begin(), Doms[Dom].Vars.end());
  return Mgr->cube(Vars);
}

Bdd DomainPack::equal(PhysDomId A, PhysDomId B) {
  const DomInfo &DA = Doms[A];
  const DomInfo &DB = Doms[B];
  // Align at the least significant bit; surplus high bits of the wider
  // domain must be zero for the values to be equal.
  Bdd Result = Mgr->trueBdd();
  unsigned Common = std::min(DA.Bits, DB.Bits);
  for (unsigned I = 0; I != Common; ++I) {
    unsigned VarA = DA.Vars[DA.Bits - 1 - I];
    unsigned VarB = DB.Vars[DB.Bits - 1 - I];
    Result = Mgr->bddAnd(
        Result, Mgr->apply(Op::Biimp, Mgr->var(VarA), Mgr->var(VarB)));
  }
  const DomInfo &Wide = DA.Bits >= DB.Bits ? DA : DB;
  for (unsigned I = 0, E = Wide.Bits - Common; I != E; ++I)
    Result = Mgr->bddAnd(Result, Mgr->nvar(Wide.Vars[I]));
  return Result;
}

Bdd DomainPack::replaceDomains(
    const Bdd &F, const std::vector<std::pair<PhysDomId, PhysDomId>> &Moves) {
  if (Moves.empty())
    return F;
  std::vector<int> Map(Mgr->numVars(), -1);
  Bdd ZeroHighBits = Mgr->trueBdd();
  Bdd Result = F;
  for (auto &[Src, Dst] : Moves) {
    const DomInfo &DS = Doms[Src];
    const DomInfo &DD = Doms[Dst];
    unsigned Common = std::min(DS.Bits, DD.Bits);
    // LSB-aligned bitwise rename.
    for (unsigned I = 0; I != Common; ++I)
      Map[DS.Vars[DS.Bits - 1 - I]] =
          static_cast<int>(DD.Vars[DD.Bits - 1 - I]);
    if (DS.Bits > DD.Bits) {
      // Narrowing: the dropped high source bits must be zero in F.
      for (unsigned I = 0, E = DS.Bits - Common; I != E; ++I) {
        unsigned HighVar = DS.Vars[I];
        assert(Mgr->restrict(Result, HighVar, true).isFalse() &&
               "narrowing replace would lose high bits");
        // The bits are constantly zero; cofactor them away so the rename
        // map need not cover them.
        Result = Mgr->restrict(Result, HighVar, false);
      }
    } else {
      // Widening: new high destination bits are zero.
      for (unsigned I = 0, E = DD.Bits - Common; I != E; ++I)
        ZeroHighBits = Mgr->bddAnd(ZeroHighBits, Mgr->nvar(DD.Vars[I]));
    }
  }
  Result = Mgr->replace(Result, Map);
  if (!ZeroHighBits.isTrue())
    Result = Mgr->bddAnd(Result, ZeroHighBits);
  return Result;
}

std::vector<unsigned>
DomainPack::sortedVars(const std::vector<PhysDomId> &DomList) {
  std::vector<unsigned> Vars;
  for (PhysDomId Dom : DomList)
    Vars.insert(Vars.end(), Doms[Dom].Vars.begin(), Doms[Dom].Vars.end());
  std::sort(Vars.begin(), Vars.end());
  return Vars;
}

uint64_t DomainPack::decodeValue(PhysDomId Dom,
                                 const std::vector<PhysDomId> &DomList,
                                 const std::vector<bool> &Bits) {
  std::vector<unsigned> Vars = sortedVars(DomList);
  assert(Vars.size() == Bits.size() && "bit vector does not match domains");
  const DomInfo &D = Doms[Dom];
  uint64_t Value = 0;
  for (unsigned B = 0; B != D.Bits; ++B) {
    auto It = std::lower_bound(Vars.begin(), Vars.end(), D.Vars[B]);
    assert(It != Vars.end() && *It == D.Vars[B] &&
           "domain not part of the enumerated set");
    size_t Index = static_cast<size_t>(It - Vars.begin());
    Value = (Value << 1) | (Bits[Index] ? 1 : 0);
  }
  return Value;
}
