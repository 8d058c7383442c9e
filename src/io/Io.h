//===- Io.h - Versioned checkpoints of relations ---------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent relation store (docs/persistence.md). Its one image
/// kind is the checkpoint: a named set of relations of one rel::Universe
/// sharing a single node DAG, tagged with a caller-supplied context hash
/// for staleness detection — the unit the analysis warm-start pipeline
/// (analysis/Checkpoint.h) and `jeddc --emit-relations` persist. Images
/// use the versioned JDD1 binary format: a magic, then CRC32-protected
/// sections carrying domain and physical-domain metadata, a
/// topologically ordered shared-node DAG with varint node refs, and the
/// relation roots. On load, attributes and physical domains are matched
/// by name and validated, and the node rebuild re-encodes every function
/// into the loading manager's variable order, so images survive
/// order-spec changes (bdd/DomainPack.h) between save and load.
///
/// Loading is safe against hostile input: every malformed header,
/// truncated section, bad checksum, dangling node ref, or domain mismatch
/// is reported as a typed io::Error with a message; no input crashes the
/// process or reads out of bounds (tests/io_fuzz_test.cpp enforces this
/// under ASan/TSan).
///
/// Saves are deterministic: the same relations saved twice produce
/// byte-identical images (the golden-fixture test pins the v1 format).
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_IO_IO_H
#define JEDDPP_IO_IO_H

#include "rel/Relation.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jedd {
namespace io {

/// Everything that can go wrong loading an image. Save-side failures use
/// IoFailure (file system) or ApiMisuse (caller handed inconsistent
/// objects); the rest describe malformed or mismatched images.
enum class ErrorCode {
  None,            ///< Success.
  IoFailure,       ///< File could not be read or written.
  ApiMisuse,       ///< Inconsistent arguments on the save side.
  BadMagic,        ///< Image does not start with "JDD1".
  BadVersion,      ///< Unsupported format version.
  BadKind,         ///< Image kind is not a checkpoint.
  Truncated,       ///< Bytes end inside a section or encoding.
  BadChecksum,     ///< Section payload does not match its CRC32.
  BadSection,      ///< Unknown, duplicated, missing or misordered section.
  BadCount,        ///< A count field exceeds what the payload could hold.
  BadNodeRef,      ///< Node ref points at an undefined (later) node.
  BadVar,          ///< Node variable outside the declared domains.
  DomainMismatch,  ///< Domain/physical-domain metadata does not match the
                   ///< loading universe.
  SchemaMismatch,  ///< Relation schema invalid or unsatisfiable on load.
};

/// Stable short name of an error code ("bad-checksum", ...).
const char *errorCodeName(ErrorCode Code);

/// Result of every io entry point. Default-constructed means success.
struct Error {
  ErrorCode Code = ErrorCode::None;
  std::string Message;

  bool ok() const { return Code == ErrorCode::None; }
  /// "bad-checksum: nodes section CRC mismatch" (empty when ok).
  std::string toString() const;

  static Error success() { return {}; }
  static Error make(ErrorCode Code, std::string Message) {
    return {Code, std::move(Message)};
  }
};

/// One relation of a checkpoint, keyed by a caller-chosen name.
struct NamedRelation {
  std::string Name;
  rel::Relation Rel;
};

/// FNV-1a over a byte string — the convention for checkpoint context
/// hashes (e.g. a hash of the facts file an analysis consumed).
uint64_t hashBytes(const std::string &Bytes);

/// Serializes a named set of relations of \p U into one image sharing a
/// single node DAG. \p ContextHash is stored verbatim (use hashBytes over
/// whatever inputs produced the relations; 0 when unused).
Error saveCheckpoint(rel::Universe &U,
                     const std::vector<NamedRelation> &Relations,
                     std::string &Out, uint64_t ContextHash = 0);

/// Loads a checkpoint into \p U. Attributes, their domains, and the
/// physical-domain assignment of every root are matched by name and
/// validated (sizes and widths must agree); each body is re-encoded
/// variable by variable into \p U's layout, so images load across
/// orders. \p ContextHash, when non-null, receives the stored hash —
/// callers compare it against the hash of their current inputs to decide
/// whether the checkpoint is stale.
Error loadCheckpoint(rel::Universe &U, const std::string &Bytes,
                     std::vector<NamedRelation> &Out,
                     uint64_t *ContextHash = nullptr);

/// saveCheckpoint, then writes the image to \p Path.
Error saveCheckpointFile(rel::Universe &U,
                         const std::vector<NamedRelation> &Relations,
                         const std::string &Path, uint64_t ContextHash = 0);

//===----------------------------------------------------------------------===//
// Inspection (tools/jeddinspect)
//===----------------------------------------------------------------------===//

/// Per-relation statistics of an inspected image.
struct InspectRelation {
  std::string Name;
  std::string Schema;           ///< "src@V1, obj@O1".
  size_t Nodes = 0;             ///< Internal nodes after loading.
  std::string Tuples;           ///< Exact tuple count.
};

/// Header, domain tables, and per-relation stats of one image. Filling
/// the stats loads the image into a scratch universe rebuilt from the
/// embedded metadata, so a successful inspect also proves the image
/// loads.
struct InspectInfo {
  unsigned Version = 0;
  uint64_t ContextHash = 0;
  size_t TotalBytes = 0;
  size_t TotalNodes = 0;        ///< Nodes in the shared DAG section.
  std::string Order;            ///< Saved layout as an order spec.
  size_t NumVars = 0;           ///< Saved manager's client variables.
  std::vector<std::string> Domains;   ///< "Var: 120 objects".
  std::vector<std::string> PhysDoms;  ///< "V1: 7 bits".
  std::vector<InspectRelation> Relations;
};

Error inspectImage(const std::string &Bytes, InspectInfo &Out);

} // namespace io
} // namespace jedd

#endif // JEDDPP_IO_IO_H
