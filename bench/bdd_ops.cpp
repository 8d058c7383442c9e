//===- bdd_ops.cpp - Microbenchmarks of the primitive BDD operations ------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the BDD operations the relational
/// layer lowers to (Section 3.2.2), plus the ablation backing the
/// paper's claim that "a composition is implemented more efficiently
/// than a join followed by a projection".
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "bdd/DomainPack.h"
#include "rel/Relation.h"
#include "util/Random.h"

#include <benchmark/benchmark.h>

using namespace jedd;
using namespace jedd::bdd;

namespace {

/// A reusable random relation fixture over three interleaved domains.
struct PackFixture {
  PackFixture(unsigned Bits, uint64_t Seed, unsigned Tuples) : Rng(Seed) {
    A = Pack.addDomain("A", Bits);
    B = Pack.addDomain("B", Bits);
    C = Pack.addDomain("C", Bits);
    Pack.finalize(1 << 18, 1 << 18);
    Left = randomRelation(A, B, Tuples);
    Right = randomRelation(B, C, Tuples);
  }

  Bdd randomRelation(PhysDomId X, PhysDomId Y, unsigned Tuples) {
    Bdd R = Pack.manager().falseBdd();
    uint64_t Max = Pack.size(A);
    for (unsigned I = 0; I != Tuples; ++I)
      R = R | (Pack.encode(X, Rng.nextBelow(Max)) &
               Pack.encode(Y, Rng.nextBelow(Max)));
    return R;
  }

  DomainPack Pack{"AxBxC"};
  SplitMix64 Rng;
  PhysDomId A, B, C;
  Bdd Left, Right;
};

void BM_Apply_And(benchmark::State &State) {
  PackFixture F(static_cast<unsigned>(State.range(0)), 1, 400);
  for (auto _ : State) {
    Bdd R = F.Left & F.Right;
    benchmark::DoNotOptimize(R.ref());
  }
}
BENCHMARK(BM_Apply_And)->Arg(8)->Arg(12)->Arg(16);

void BM_RelProd(benchmark::State &State) {
  PackFixture F(static_cast<unsigned>(State.range(0)), 2, 400);
  Bdd CubeB = F.Pack.cubeOf({F.B});
  for (auto _ : State) {
    Bdd R = F.Pack.manager().relProd(F.Left, F.Right, CubeB);
    benchmark::DoNotOptimize(R.ref());
  }
}
BENCHMARK(BM_RelProd)->Arg(8)->Arg(12)->Arg(16);

void BM_AndThenExists(benchmark::State &State) {
  // The two-step version of BM_RelProd: quantifies after the full AND.
  PackFixture F(static_cast<unsigned>(State.range(0)), 2, 400);
  Bdd CubeB = F.Pack.cubeOf({F.B});
  for (auto _ : State) {
    Bdd R = F.Pack.manager().exists(F.Left & F.Right, CubeB);
    benchmark::DoNotOptimize(R.ref());
  }
}
BENCHMARK(BM_AndThenExists)->Arg(8)->Arg(12)->Arg(16);

void BM_ReplaceOrderPreserving(benchmark::State &State) {
  PackFixture F(static_cast<unsigned>(State.range(0)), 3, 400);
  for (auto _ : State) {
    Bdd R = F.Pack.replaceDomains(F.Left, {{F.B, F.C}});
    benchmark::DoNotOptimize(R.ref());
  }
}
BENCHMARK(BM_ReplaceOrderPreserving)->Arg(8)->Arg(12)->Arg(16);

void BM_ReplaceSwap(benchmark::State &State) {
  // Order-inverting: exercises the general ITE-rebuild path.
  PackFixture F(static_cast<unsigned>(State.range(0)), 4, 400);
  for (auto _ : State) {
    Bdd R = F.Pack.replaceDomains(F.Left, {{F.A, F.B}, {F.B, F.A}});
    benchmark::DoNotOptimize(R.ref());
  }
}
BENCHMARK(BM_ReplaceSwap)->Arg(8)->Arg(12)->Arg(16);

void BM_SatCount(benchmark::State &State) {
  PackFixture F(static_cast<unsigned>(State.range(0)), 5, 400);
  for (auto _ : State) {
    double N = F.Pack.manager().satCount(F.Left);
    benchmark::DoNotOptimize(N);
  }
}
BENCHMARK(BM_SatCount)->Arg(8)->Arg(12)->Arg(16);

//===--------------------------------------------------------------------===//
// Resource governor: bookkeeping overhead and abort/recovery cost
// (docs/robustness.md)
//===--------------------------------------------------------------------===//
// Arg = node ceiling handed to setResourceLimits (0 = ungoverned
// baseline). Compare a generous ceiling against the /0 row to read the
// governor's per-allocation overhead; the tight ceiling exercises the
// abort + GC-recovery path on every iteration (the "aborts" counter
// confirms which regime a row measured).

void BM_GovernedApplyAnd(benchmark::State &State) {
  PackFixture F(12, 10, 400);
  ResourceLimits Limits;
  Limits.MaxNodes = static_cast<size_t>(State.range(0));
  F.Pack.manager().setResourceLimits(Limits);
  size_t Aborts = 0;
  for (auto _ : State) {
    try {
      Bdd R = F.Left & F.Right;
      benchmark::DoNotOptimize(R.ref());
    } catch (const ResourceExhausted &) {
      ++Aborts;
    }
  }
  State.counters["aborts"] = static_cast<double>(Aborts);
}
BENCHMARK(BM_GovernedApplyAnd)->Arg(0)->Arg(1 << 16)->Arg(1 << 10);

//===--------------------------------------------------------------------===//
// Relational level: compose vs join-then-project (Section 2.2.3)
//===--------------------------------------------------------------------===//

struct RelFixture {
  RelFixture(unsigned Tuples) {
    Dom = U.addDomain("D", 1 << 10);
    X = U.addAttribute("x", Dom);
    Y = U.addAttribute("y", Dom);
    Z = U.addAttribute("z", Dom);
    P0 = U.addPhysicalDomain("P0");
    P1 = U.addPhysicalDomain("P1");
    P2 = U.addPhysicalDomain("P2");
    U.finalize();
    SplitMix64 Rng(6);
    Left = U.empty({{X, P0}, {Y, P1}});
    Right = U.empty({{Y, P1}, {Z, P2}});
    for (unsigned I = 0; I != Tuples; ++I) {
      Left.insert({Rng.nextBelow(1 << 10), Rng.nextBelow(1 << 10)});
      Right.insert({Rng.nextBelow(1 << 10), Rng.nextBelow(1 << 10)});
    }
  }
  rel::Universe U;
  rel::DomainId Dom;
  rel::AttributeId X, Y, Z;
  rel::PhysDomId P0, P1, P2;
  rel::Relation Left, Right;
};

void BM_Compose(benchmark::State &State) {
  RelFixture F(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    rel::Relation R = F.Left.compose(F.Right, {F.Y}, {F.Y});
    benchmark::DoNotOptimize(R.body().ref());
  }
}
BENCHMARK(BM_Compose)->Arg(200)->Arg(1000);

void BM_JoinThenProject(benchmark::State &State) {
  RelFixture F(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    rel::Relation R = F.Left.join(F.Right, {F.Y}, {F.Y}).project({F.Y});
    benchmark::DoNotOptimize(R.body().ref());
  }
}
BENCHMARK(BM_JoinThenProject)->Arg(200)->Arg(1000);

} // namespace

int main(int argc, char **argv) {
  // Strip the shared observability flags first; google-benchmark rejects
  // flags it does not know.
  jedd::benchsupport::ObsSession Obs(argc, argv, "bdd_ops");
  std::vector<char *> Args(argv, argv + argc);
  // The smoke configuration runs one fast case per layer instead of the
  // full argument sweep.
  char SmokeFilter[] =
      "--benchmark_filter=BM_Apply_And/8$|BM_RelProd/8$|BM_Compose/200$|"
      "BM_GovernedApplyAnd/65536$";
  if (Obs.smoke())
    Args.push_back(SmokeFilter);
  int BenchArgc = static_cast<int>(Args.size());
  benchmark::Initialize(&BenchArgc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(BenchArgc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
