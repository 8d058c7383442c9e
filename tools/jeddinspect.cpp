//===- jeddinspect.cpp - Dump a JDD1 persistence image ---------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints the header, domain tables, and per-relation node/tuple counts
/// of one or more JDD1 checkpoint images (docs/persistence.md).
/// Inspection loads each image into a scratch universe rebuilt from its
/// own metadata, so a clean dump also proves the image is well-formed
/// and loadable.
///
///   jeddinspect file.jdd [more.jdd ...]
///
/// Exit codes: 0 success, 1 I/O failure, 2 usage, 3 corrupt or
/// malformed image.
///
//===----------------------------------------------------------------------===//

#include "io/Io.h"
#include "util/File.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace jedd;

namespace {

int inspectOne(const char *Argv0, const std::string &Path, bool Banner) {
  std::string Bytes;
  if (!readFileToString(Path, Bytes)) {
    std::fprintf(stderr, "%s: error: cannot read %s\n", Argv0, Path.c_str());
    return 1;
  }
  io::InspectInfo Info;
  io::Error E = io::inspectImage(Bytes, Info);
  if (!E.ok()) {
    std::fprintf(stderr, "%s: error: %s: %s\n", Argv0, Path.c_str(),
                 E.toString().c_str());
    return 3;
  }

  if (Banner)
    std::printf("== %s ==\n", Path.c_str());
  std::printf("kind:         checkpoint (format version %u)\n", Info.Version);
  std::printf("size:         %zu bytes, %zu shared nodes\n", Info.TotalBytes,
              Info.TotalNodes);
  if (Info.ContextHash != 0)
    std::printf("context hash: %016llx\n",
                (unsigned long long)Info.ContextHash);
  if (!Info.Order.empty())
    std::printf("order:        %s\n", Info.Order.c_str());
  std::printf("variables:    %zu\n", Info.NumVars);

  if (!Info.Domains.empty()) {
    std::printf("domains:\n");
    for (const std::string &D : Info.Domains)
      std::printf("  %s\n", D.c_str());
  }
  if (!Info.PhysDoms.empty()) {
    std::printf("physical domains:\n");
    for (const std::string &P : Info.PhysDoms)
      std::printf("  %s\n", P.c_str());
  }
  if (!Info.Relations.empty()) {
    std::printf("relations:\n");
    for (const io::InspectRelation &R : Info.Relations)
      std::printf("  %s <%s>: %zu nodes, %s tuples\n", R.Name.c_str(),
                  R.Schema.c_str(), R.Nodes, R.Tuples.c_str());
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s file.jdd [more.jdd ...]\n", argv[0]);
    return 2;
  }
  int Status = 0;
  for (int I = 1; I < argc; ++I) {
    if (I > 1)
      std::printf("\n");
    // A corrupt image (3) outranks a plain read failure (1).
    Status = std::max(Status, inspectOne(argv[0], argv[I], argc > 2));
  }
  return Status;
}
