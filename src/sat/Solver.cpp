//===- Solver.cpp - CDCL SAT solver with unsat cores ----------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"
#include "obs/Obs.h"
#include "util/Fatal.h"

#include <algorithm>

using namespace jedd;
using namespace jedd::sat;

//===----------------------------------------------------------------------===//
// Variables and clauses
//===----------------------------------------------------------------------===//

Var Solver::newVar() {
  Var V = static_cast<Var>(VarCount++);
  Values.push_back(0);
  Levels.push_back(0);
  Reasons.push_back(NoReason);
  Activity.push_back(0.0);
  SavedPhase.push_back(0);
  HeapPos.push_back(NotInHeap);
  Seen.push_back(0);
  Watches.emplace_back();
  Watches.emplace_back();
  // Activity 0: pickable from ZeroCursor on, which is at most V.
  return V;
}

void Solver::addClause(std::span<const Lit> Lits) {
  if (storeOriginal(Lits))
    attachClause(static_cast<uint32_t>(Clauses.size() - 1));
}

void Solver::addFormula(const CnfFormula &F) {
  while (VarCount < F.NumVars)
    newVar();
  Arena.reserve(Arena.size() + F.numLiterals());
  Clauses.reserve(Clauses.size() + F.numClauses());
  // Store every clause first, then size each watch list once and attach
  // in clause order, so the lists come out as addClause builds them.
  std::vector<uint32_t> Watched;
  Watched.reserve(F.numClauses());
  std::vector<uint32_t> Watchers(Watches.size(), 0);
  for (size_t I = 0; I != F.numClauses(); ++I) {
    if (!storeOriginal(F.clause(I)))
      continue;
    uint32_t Id = static_cast<uint32_t>(Clauses.size() - 1);
    Watched.push_back(Id);
    std::span<const Lit> Lits = litsOf(Id);
    ++Watchers[Lits[0]];
    ++Watchers[Lits[1]];
  }
  for (size_t L = 0; L != Watches.size(); ++L)
    Watches[L].reserve(Watches[L].size() + Watchers[L]);
  for (uint32_t Id : Watched)
    attachClause(Id);
}

bool Solver::storeOriginal(std::span<const Lit> Lits) {
  assert(!Solved && "clauses must be added before solve()");
  for (Lit L : Lits)
    JEDD_CHECK(varOf(L) < VarCount,
               "sat::Solver::addClause: literal " + litToString(L) +
                   " over an undeclared variable");
  uint32_t Id = static_cast<uint32_t>(Clauses.size());
  uint32_t Begin = static_cast<uint32_t>(Arena.size());
  Arena.insert(Arena.end(), Lits.begin(), Lits.end());
  NumOriginal = Id + 1;
  // Normalize the arena's copy for solving; the id still identifies the
  // original.
  auto First = Arena.begin() + Begin;
  std::sort(First, Arena.end());
  Arena.erase(std::unique(First, Arena.end()), Arena.end());
  uint32_t Size = static_cast<uint32_t>(Arena.size()) - Begin;
  Clauses.push_back({Begin, Size, NoReason});
  for (uint32_t I = Begin; I + 1 < Begin + Size; ++I)
    if (Arena[I + 1] == negate(Arena[I]))
      return false; // Never attach; the clause is always satisfied.
  if (Size == 0 && !FoundEmptyClause) {
    FoundEmptyClause = true;
    EmptyClauseId = Id;
  }
  return Size >= 2;
}

uint32_t Solver::addLearned(std::span<const Lit> Lits,
                            std::vector<uint32_t> Sources) {
  assert(!Lits.empty() && "a learned clause has an asserting literal");
  uint32_t Id = static_cast<uint32_t>(Clauses.size());
  uint32_t Begin = static_cast<uint32_t>(Arena.size());
  Arena.insert(Arena.end(), Lits.begin(), Lits.end());
  Clauses.push_back({Begin, static_cast<uint32_t>(Lits.size()),
                     static_cast<uint32_t>(Derivations.size())});
  Derivations.push_back(std::move(Sources));
  if (Lits.size() >= 2)
    attachClause(Id);
  return Id;
}

void Solver::attachClause(uint32_t Id) {
  std::span<const Lit> Lits = litsOf(Id);
  assert(Lits.size() >= 2 && "cannot watch a unit clause");
  bool Binary = Lits.size() == 2;
  Watches[Lits[0]].push_back({Id, Binary ? Lits[1] : NoLit});
  Watches[Lits[1]].push_back({Id, Binary ? Lits[0] : NoLit});
}

//===----------------------------------------------------------------------===//
// Assignment trail
//===----------------------------------------------------------------------===//

void Solver::enqueue(Lit L, uint32_t Reason) {
  assert(litIsUnassigned(L) && "literal already assigned");
  Var V = varOf(L);
  Values[V] = isNegated(L) ? 2 : 1;
  Levels[V] = level();
  Reasons[V] = Reason;
  Trail.push_back(L);
  ++Stats.Propagations;
}

void Solver::backtrack(uint32_t ToLevel) {
  if (level() <= ToLevel)
    return;
  size_t Keep = TrailLimits[ToLevel];
  for (size_t I = Trail.size(); I-- > Keep;) {
    Var V = varOf(Trail[I]);
    SavedPhase[V] = Values[V] == 1;
    Values[V] = 0;
    Reasons[V] = NoReason;
    if (Activity[V] > 0)
      heapInsert(V);
    else if (V < ZeroCursor)
      ZeroCursor = V;
  }
  Trail.resize(Keep);
  TrailLimits.resize(ToLevel);
  PropagateHead = Keep;
}

uint32_t Solver::propagate() {
  while (PropagateHead < Trail.size()) {
    Lit P = Trail[PropagateHead++];
    // P just became true, so literal ~P is false; visit its watchers.
    Lit FalseLit = negate(P);
    std::vector<Watcher> &WList = Watches[FalseLit];
    size_t In = 0, Out = 0;
    uint32_t Conflict = NoReason;
    while (In != WList.size()) {
      Watcher W = WList[In++];
      if (W.Other != NoLit) {
        // Binary clause (W.Other, FalseLit): it keeps its watches.
        WList[Out++] = W;
        if (litIsTrue(W.Other))
          continue;
        if (!litIsFalse(W.Other)) {
          enqueue(W.Other, W.Clause);
          continue;
        }
        // analyze reads the conflicting clause in this order, the one a
        // longer clause is left in.
        std::span<Lit> Lits = litsOf(W.Clause);
        Lits[0] = W.Other;
        Lits[1] = FalseLit;
        Conflict = W.Clause;
        break;
      }

      std::span<Lit> Lits = litsOf(W.Clause);
      // Ensure the false literal sits at position 1.
      if (Lits[0] == FalseLit)
        std::swap(Lits[0], Lits[1]);
      assert(Lits[1] == FalseLit && "watch list out of sync");

      if (litIsTrue(Lits[0])) {
        WList[Out++] = W; // Clause satisfied; keep watching.
        continue;
      }
      // Look for a non-false replacement watch.
      bool Moved = false;
      for (size_t K = 2; K != Lits.size(); ++K) {
        if (!litIsFalse(Lits[K])) {
          std::swap(Lits[1], Lits[K]);
          Watches[Lits[1]].push_back(W);
          Moved = true;
          break;
        }
      }
      if (Moved)
        continue;
      // No replacement: unit or conflicting.
      WList[Out++] = W;
      if (litIsFalse(Lits[0])) {
        Conflict = W.Clause;
        break;
      }
      enqueue(Lits[0], W.Clause);
    }
    // After a conflict, keep the watchers not visited, then report it.
    while (In != WList.size())
      WList[Out++] = WList[In++];
    WList.resize(Out);
    if (Conflict != NoReason)
      return Conflict;
  }
  return NoReason;
}

//===----------------------------------------------------------------------===//
// VSIDS branching
//===----------------------------------------------------------------------===//

void Solver::heapInsert(Var V) {
  if (HeapPos[V] != NotInHeap)
    return;
  HeapPos[V] = static_cast<uint32_t>(Heap.size());
  Heap.push_back(V);
  siftUp(HeapPos[V]);
}

void Solver::siftUp(uint32_t I) {
  Var V = Heap[I];
  while (I != 0) {
    uint32_t Parent = (I - 1) / 2;
    if (!heapBefore(V, Heap[Parent]))
      break;
    Heap[I] = Heap[Parent];
    HeapPos[Heap[I]] = I;
    I = Parent;
  }
  Heap[I] = V;
  HeapPos[V] = I;
}

void Solver::siftDown(uint32_t I) {
  Var V = Heap[I];
  const size_t Size = Heap.size();
  while (2 * static_cast<size_t>(I) + 1 < Size) {
    uint32_t Child = 2 * I + 1;
    if (Child + 1 < Size && heapBefore(Heap[Child + 1], Heap[Child]))
      ++Child;
    if (!heapBefore(Heap[Child], V))
      break;
    Heap[I] = Heap[Child];
    HeapPos[Heap[I]] = I;
    I = Child;
  }
  Heap[I] = V;
  HeapPos[V] = I;
}

void Solver::bumpVar(Var V) {
  // Only analyze bumps, and only assigned variables: backtrack puts V in
  // the heap when it unassigns it.
  assert(Values[V] != 0 && "bumping an unassigned variable");
  Activity[V] += ActivityInc;
  if (Activity[V] > 1e100) {
    for (double &A : Activity)
      A *= 1e-100;
    ActivityInc *= 1e-100;
    // Scaling can underflow an activity to 0, which moves its variable
    // from the heap to ZeroCursor's range, and it can make two activities
    // equal, which the index then decides: rebuild the heap bottom up.
    size_t Kept = 0;
    for (Var W : Heap) {
      if (Activity[W] > 0) {
        HeapPos[W] = static_cast<uint32_t>(Kept);
        Heap[Kept++] = W;
        continue;
      }
      HeapPos[W] = NotInHeap;
      if (Values[W] == 0)
        ZeroCursor = std::min(ZeroCursor, W);
    }
    Heap.resize(Kept);
    for (size_t I = Heap.size() / 2; I-- > 0;)
      siftDown(static_cast<uint32_t>(I));
  } else if (HeapPos[V] != NotInHeap) {
    siftUp(HeapPos[V]);
  }
}

void Solver::decayActivities() { ActivityInc *= (1.0 / 0.95); }

Lit Solver::pickBranchLit() {
  // Pop until the top is unassigned; backtrack re-inserts what it frees.
  // Any positive activity beats 0.
  while (!Heap.empty()) {
    Var Best = Heap.front();
    HeapPos[Best] = NotInHeap;
    Var Last = Heap.back();
    Heap.pop_back();
    if (!Heap.empty()) {
      Heap.front() = Last;
      HeapPos[Last] = 0;
      siftDown(0);
    }
    if (Values[Best] == 0)
      return mkLit(Best, !SavedPhase[Best]);
  }
  // Every unassigned variable has activity 0: the lowest index wins.
  while (Values[ZeroCursor] != 0) {
    ++ZeroCursor;
    assert(ZeroCursor < VarCount && "pickBranchLit with a complete assignment");
  }
  return mkLit(ZeroCursor, !SavedPhase[ZeroCursor]);
}

//===----------------------------------------------------------------------===//
// Conflict analysis
//===----------------------------------------------------------------------===//

void Solver::analyze(uint32_t ConflictId, std::vector<Lit> &Learned,
                     uint32_t &OutLevel, std::vector<uint32_t> &Sources) {
  Learned.clear();
  Learned.push_back(NoLit); // Slot for the asserting literal.
  Sources.clear();

  int Counter = 0;
  Lit P = NoLit;
  uint32_t ClId = ConflictId;
  size_t Index = Trail.size();

  while (true) {
    assert(ClId != NoReason && "resolving on a decision");
    Sources.push_back(ClId);
    for (Lit Q : litsOf(ClId)) {
      if (Q == P)
        continue;
      Var V = varOf(Q);
      if (Seen[V])
        continue;
      if (Levels[V] == 0) {
        Seen[V] = 2;
        Level0Seen.push_back(V);
        continue;
      }
      Seen[V] = 1;
      bumpVar(V);
      if (Levels[V] == level())
        ++Counter;
      else
        Learned.push_back(Q);
    }
    // Select the next literal to resolve on from the trail.
    while (!Seen[varOf(Trail[Index - 1])])
      --Index;
    P = Trail[Index - 1];
    --Index;
    Seen[varOf(P)] = 0;
    --Counter;
    if (Counter <= 0)
      break;
    ClId = Reasons[varOf(P)];
  }
  Learned[0] = negate(P);

  // Level-0 literals were resolved away implicitly. Pull in the
  // derivations of those facts, so the learned clause's resolution sources
  // are complete for core extraction. Their reason clauses hold level-0
  // variables only, which are never marked 1.
  for (size_t I = 0; I != Level0Seen.size(); ++I) {
    uint32_t R = Reasons[Level0Seen[I]];
    assert(R != NoReason && "level-0 literal without a reason");
    Sources.push_back(R);
    for (Lit Q : litsOf(R)) {
      Var W = varOf(Q);
      if (!Seen[W]) {
        Seen[W] = 2;
        Level0Seen.push_back(W);
      }
    }
  }
  // Clear the marks: the resolved variables were cleared as the trail was
  // walked, which leaves the learned clause's and the level-0 ones.
  for (size_t I = 1; I < Learned.size(); ++I)
    Seen[varOf(Learned[I])] = 0;
  for (Var V : Level0Seen)
    Seen[V] = 0;
  Level0Seen.clear();

  // Backtrack level: highest level among the non-asserting literals.
  OutLevel = 0;
  for (size_t I = 1; I < Learned.size(); ++I)
    OutLevel = std::max(OutLevel, Levels[varOf(Learned[I])]);
  // Move a literal of that level into the second watch position so the
  // clause becomes unit exactly when we backtrack to OutLevel.
  for (size_t I = 2; I < Learned.size(); ++I)
    if (Levels[varOf(Learned[I])] == OutLevel) {
      std::swap(Learned[1], Learned[I]);
      break;
    }
}

void Solver::buildCore(uint32_t ConflictId,
                       const std::vector<uint32_t> &Extra) {
  Core.clear();
  std::vector<uint8_t> SeenClause(Clauses.size(), 0);
  std::vector<uint8_t> SeenVar(VarCount, 0);
  std::vector<uint32_t> Work = {ConflictId};
  Work.insert(Work.end(), Extra.begin(), Extra.end());

  while (!Work.empty()) {
    uint32_t Id = Work.back();
    Work.pop_back();
    if (Id == NoReason || SeenClause[Id])
      continue;
    SeenClause[Id] = 1;
    if (uint32_t D = Clauses[Id].Derivation; D != NoReason) {
      const std::vector<uint32_t> &Sources = Derivations[D];
      Work.insert(Work.end(), Sources.begin(), Sources.end());
    } else {
      Core.push_back(Id);
    }
    // The conflict is at level 0, so every literal's falsification is
    // itself derived by a reason clause; follow them.
    for (Lit Q : litsOf(Id)) {
      Var V = varOf(Q);
      if (!SeenVar[V] && Values[V] != 0 && Levels[V] == 0 &&
          Reasons[V] != NoReason) {
        SeenVar[V] = 1;
        Work.push_back(Reasons[V]);
      }
    }
  }
  std::sort(Core.begin(), Core.end());
  Core.erase(std::unique(Core.begin(), Core.end()), Core.end());
}

//===----------------------------------------------------------------------===//
// Main search loop
//===----------------------------------------------------------------------===//

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
/// (the classic MiniSat formulation).
static uint64_t luby(uint64_t X) {
  uint64_t Size = 1, Seq = 0;
  while (Size < X + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != X) {
    Size = (Size - 1) >> 1;
    --Seq;
    X = X % Size;
  }
  return 1ULL << Seq;
}

Result Solver::solve() {
  obs::SpanGuard Span(obs::Cat::Sat, "solve");
  Result R = solveImpl();
  if (Span.active()) {
    Span.arg("vars", VarCount);
    Span.arg("clauses", Clauses.size());
    Span.arg("decisions", Stats.Decisions);
    Span.arg("propagations", Stats.Propagations);
    Span.arg("conflicts", Stats.Conflicts);
    Span.arg("learned_clauses", Stats.LearnedClauses);
    Span.arg("restarts", Stats.Restarts);
    Span.arg("sat", R == Result::Sat ? 1 : 0);
  }
  return R;
}

Result Solver::solveImpl() {
  assert(!Solved && "solve() already ran");
  Solved = true;

  if (FoundEmptyClause) {
    Core = {EmptyClauseId};
    return Result::Unsat;
  }

  // Enqueue the original unit clauses at level 0.
  for (uint32_t Id = 0; Id != NumOriginal; ++Id) {
    if (Clauses[Id].Size != 1)
      continue;
    Lit L = Arena[Clauses[Id].Begin];
    if (litIsTrue(L))
      continue;
    if (litIsFalse(L)) {
      buildCore(Id, {});
      return Result::Unsat;
    }
    enqueue(L, Id);
  }

  uint64_t RestartIndex = 0;
  uint64_t ConflictsUntilRestart = luby(RestartIndex) * 64;

  while (true) {
    uint32_t ConflictId = propagate();
    if (ConflictId != NoReason) {
      ++Stats.Conflicts;
      if (level() == 0) {
        buildCore(ConflictId, {});
        return Result::Unsat;
      }
      std::vector<Lit> Learned;
      uint32_t BackLevel = 0;
      std::vector<uint32_t> Sources;
      analyze(ConflictId, Learned, BackLevel, Sources);
      backtrack(BackLevel);
      uint32_t Id = addLearned(Learned, std::move(Sources));
      ++Stats.LearnedClauses;
      enqueue(Arena[Clauses[Id].Begin], Id);
      decayActivities();

      if (--ConflictsUntilRestart == 0) {
        ++Stats.Restarts;
        ++RestartIndex;
        ConflictsUntilRestart = luby(RestartIndex) * 64;
        backtrack(0);
      }
      continue;
    }

    if (Trail.size() == VarCount)
      return Result::Sat;

    ++Stats.Decisions;
    TrailLimits.push_back(Trail.size());
    enqueue(pickBranchLit(), NoReason);
  }
}

bool Solver::modelValue(Var V) const {
  assert(Values[V] != 0 && "variable unassigned; was the result Sat?");
  return Values[V] == 1;
}

std::vector<bool> Solver::model() const {
  std::vector<bool> M(VarCount);
  for (Var V = 0; V != VarCount; ++V)
    M[V] = modelValue(V);
  return M;
}

//===----------------------------------------------------------------------===//
// DPLL reference solver
//===----------------------------------------------------------------------===//

Result DpllSolver::solve() {
  std::vector<int8_t> Assign(Formula.NumVars, -1);
  if (!solveRec(Assign))
    return Result::Unsat;
  Model.assign(Formula.NumVars, false);
  for (Var V = 0; V != Formula.NumVars; ++V)
    Model[V] = Assign[V] == 1;
  return Result::Sat;
}

bool DpllSolver::solveRec(std::vector<int8_t> &Assign) {
  // Unit propagation to fixpoint.
  std::vector<std::pair<Var, int8_t>> Assigned;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I != Formula.numClauses(); ++I) {
      Lit UnitLit = NoLit;
      bool Satisfied = false;
      unsigned Unassigned = 0;
      for (Lit L : Formula.clause(I)) {
        int8_t Val = Assign[varOf(L)];
        if (Val == -1) {
          ++Unassigned;
          UnitLit = L;
        } else if (Val == (isNegated(L) ? 0 : 1)) {
          Satisfied = true;
          break;
        }
      }
      if (Satisfied)
        continue;
      if (Unassigned == 0) {
        for (auto &[V, Old] : Assigned)
          Assign[V] = Old;
        return false; // Conflict.
      }
      if (Unassigned == 1) {
        Var V = varOf(UnitLit);
        Assigned.push_back({V, Assign[V]});
        Assign[V] = isNegated(UnitLit) ? 0 : 1;
        Changed = true;
      }
    }
  }

  // Find a branching variable among unsatisfied clauses.
  Var BranchVar = 0;
  bool FoundVar = false;
  for (size_t I = 0; I != Formula.numClauses(); ++I) {
    std::span<const Lit> C = Formula.clause(I);
    bool Satisfied = false;
    for (Lit L : C)
      if (Assign[varOf(L)] == (isNegated(L) ? 0 : 1)) {
        Satisfied = true;
        break;
      }
    if (Satisfied)
      continue;
    for (Lit L : C)
      if (Assign[varOf(L)] == -1) {
        BranchVar = varOf(L);
        FoundVar = true;
        break;
      }
    if (FoundVar)
      break;
  }
  if (!FoundVar)
    return true; // Every clause satisfied.

  for (int8_t Value : {1, 0}) {
    Assign[BranchVar] = Value;
    if (solveRec(Assign))
      return true;
  }
  Assign[BranchVar] = -1;
  for (auto &[V, Old] : Assigned)
    Assign[V] = Old;
  return false;
}
