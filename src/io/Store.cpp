//===- Store.cpp - The JDD1 image format: save, load, inspect -------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
//
// Image layout (docs/persistence.md pins this as format v1):
//
//   "JDD1"                                  4-byte magic
//   section*                                in the fixed order below
//
// where every section is
//
//   u8 Tag; varint Len; payload[Len]; u32le CRC32(payload)
//
// and the section order is: Header, Domains, Meta, Nodes, Roots, End.
// Kind and version live inside the Header *payload* so they are covered
// by its CRC. The one kind is the checkpoint (3): a named set of
// relations sharing one node DAG; kinds 1 and 2 are rejected. The Nodes
// payload is the shared-node DAG in a deterministic topological order
// (children strictly before parents; refs are 0 = false, 1 = true,
// otherwise saved-index + 2), which is what makes saving deterministic
// and loading a single bottom-up pass. Loading rebuilds every node with
// ite() in the *target* manager's variable order, mapping saved
// variables onto target variables through (physical domain name, bit
// index) — so images round trip across order specs.
//
//===----------------------------------------------------------------------===//

#include "io/Io.h"

#include "bdd/DomainPack.h"
#include "io/Binary.h"
#include "obs/Obs.h"
#include "util/Error.h"
#include "util/File.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

using namespace jedd;
using namespace jedd::io;
using jedd::rel::PhysDomId;

namespace {

constexpr char Magic[4] = {'J', 'D', 'D', '1'};
constexpr uint8_t FormatVersion = 1;

// The image kind (Header payload).
constexpr uint8_t KindCheckpoint = 3;

// Section tags.
constexpr uint8_t SecHeader = 0x01;
constexpr uint8_t SecDomains = 0x02;
constexpr uint8_t SecMeta = 0x03;
constexpr uint8_t SecNodes = 0x04;
constexpr uint8_t SecRoots = 0x05;
constexpr uint8_t SecEnd = 0x7E;

// Hostile-input ceilings, far above anything a real universe produces.
constexpr uint64_t MaxVars = 1u << 22;
constexpr uint64_t MaxRelations = 1u << 20;
constexpr uint64_t MaxPhysBits = 64;

const char *secName(uint8_t Tag) {
  switch (Tag) {
  case SecHeader:
    return "header";
  case SecDomains:
    return "domains";
  case SecMeta:
    return "meta";
  case SecNodes:
    return "nodes";
  case SecRoots:
    return "roots";
  case SecEnd:
    return "end";
  }
  return "unknown";
}

Error err(ErrorCode Code, std::string Message) {
  return Error::make(Code, std::move(Message));
}

//===----------------------------------------------------------------------===//
// Section framing
//===----------------------------------------------------------------------===//

void writeSection(std::string &Out, uint8_t Tag, const std::string &Payload) {
  ByteWriter W(Out);
  W.u8(Tag);
  W.varint(Payload.size());
  Out.append(Payload);
  W.u32le(crc32(Payload.data(), Payload.size()));
}

/// Reads the next section, verifying the tag and the payload CRC, and
/// hands back a reader positioned over the payload only.
Error readSection(ByteReader &R, uint8_t ExpectedTag, ByteReader &Payload) {
  uint8_t Tag;
  if (!R.u8(Tag))
    return err(ErrorCode::Truncated, "image ends where a section tag "
                                     "was expected");
  if (Tag != ExpectedTag)
    return err(ErrorCode::BadSection,
               std::string("expected ") + secName(ExpectedTag) +
                   " section, found tag " + std::to_string(Tag));
  uint64_t Len;
  if (!R.varint(Len) || Len > R.remaining())
    return err(ErrorCode::Truncated, std::string(secName(ExpectedTag)) +
                                         " section length overruns the "
                                         "image");
  const char *Data;
  R.bytes(Data, static_cast<size_t>(Len));
  uint32_t Stored;
  if (!R.u32le(Stored))
    return err(ErrorCode::Truncated, std::string(secName(ExpectedTag)) +
                                         " section is missing its "
                                         "checksum");
  if (crc32(Data, static_cast<size_t>(Len)) != Stored)
    return err(ErrorCode::BadChecksum,
               std::string(secName(ExpectedTag)) + " section CRC mismatch");
  Payload = ByteReader(Data, static_cast<size_t>(Len));
  return Error::success();
}

Error sectionFullyConsumed(const ByteReader &Payload, uint8_t Tag) {
  if (!Payload.atEnd())
    return err(ErrorCode::BadSection, std::string(secName(Tag)) +
                                          " section has trailing bytes");
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Parsed form
//===----------------------------------------------------------------------===//

constexpr uint32_t NoIndex = 0xFFFFFFFFu;

struct ParsedImage {
  uint8_t Version = 0;
  uint64_t ContextHash = 0;
  uint32_t NumVars = 0;
  uint32_t NumRelations = 0;

  uint8_t OrderByte = 0; ///< 1 = one interleave group, else 0.
  struct Phys {
    std::string Name;
    unsigned Bits = 0;
    std::vector<uint32_t> Vars; ///< MSB first, saved variable ids.
  };
  std::vector<Phys> PhysDoms;
  struct Dom {
    std::string Name;
    uint64_t Size = 0;
  };
  std::vector<Dom> Doms;
  struct Attr {
    std::string Name;
    uint32_t DomIdx = 0;
  };
  std::vector<Attr> Attrs;

  /// (physical domain index, bit index) of every saved variable;
  /// {NoIndex, 0} for variables no physical domain claims.
  std::vector<std::pair<uint32_t, uint32_t>> VarPhysBit;

  struct Node {
    uint32_t Var = 0;
    uint32_t Low = 0;  ///< Encoded ref: 0/1 terminal, else index + 2.
    uint32_t High = 0;
  };
  std::vector<Node> Nodes;

  struct Root {
    std::string Name;
    std::vector<std::pair<uint32_t, uint32_t>> Schema; ///< (attr, phys).
    uint32_t Ref = 0; ///< Encoded like node children.
  };
  std::vector<Root> Roots;
};

Error parseHeader(ByteReader &P, ParsedImage &Out) {
  uint8_t Kind;
  uint64_t Vars, Relations;
  if (!P.u8(Kind) || !P.u8(Out.Version) || !P.u64le(Out.ContextHash) ||
      !P.varint(Vars) || !P.varint(Relations))
    return err(ErrorCode::Truncated, "header section is truncated");
  if (Out.Version != FormatVersion)
    return err(ErrorCode::BadVersion,
               "unsupported format version " + std::to_string(Out.Version));
  if (Kind != KindCheckpoint)
    return err(ErrorCode::BadKind,
               "image kind " + std::to_string(Kind) + " is not a checkpoint");
  if (Vars > MaxVars)
    return err(ErrorCode::BadCount, "unreasonable variable count");
  if (Relations > MaxRelations)
    return err(ErrorCode::BadCount, "unreasonable relation count");
  Out.NumVars = static_cast<uint32_t>(Vars);
  Out.NumRelations = static_cast<uint32_t>(Relations);
  return Error::success();
}

Error parseDomains(ByteReader &P, ParsedImage &Out) {
  uint64_t NumPhys;
  if (!P.u8(Out.OrderByte) || !P.count(NumPhys, 3))
    return err(ErrorCode::Truncated, "domains section is truncated");
  if (Out.OrderByte > 1)
    return err(ErrorCode::BadSection, "unknown bit-order value " +
                                          std::to_string(Out.OrderByte));
  Out.VarPhysBit.assign(Out.NumVars, {NoIndex, 0});
  Out.PhysDoms.resize(static_cast<size_t>(NumPhys));
  for (auto &Phys : Out.PhysDoms) {
    uint64_t Bits;
    if (!P.str(Phys.Name) || !P.varint(Bits))
      return err(ErrorCode::Truncated, "domains section is truncated");
    if (Bits == 0 || Bits > MaxPhysBits)
      return err(ErrorCode::BadCount, "physical domain '" + Phys.Name +
                                          "' has unreasonable width");
    Phys.Bits = static_cast<unsigned>(Bits);
    Phys.Vars.resize(Phys.Bits);
    for (unsigned Bit = 0; Bit != Phys.Bits; ++Bit) {
      uint64_t Var;
      if (!P.varint(Var))
        return err(ErrorCode::Truncated, "domains section is truncated");
      if (Var >= Out.NumVars)
        return err(ErrorCode::BadVar, "physical domain '" + Phys.Name +
                                          "' claims an out-of-range "
                                          "variable");
      if (Out.VarPhysBit[Var].first != NoIndex)
        return err(ErrorCode::BadSection,
                   "variable claimed by two physical domains");
      Out.VarPhysBit[Var] = {
          static_cast<uint32_t>(&Phys - Out.PhysDoms.data()), Bit};
      Phys.Vars[Bit] = static_cast<uint32_t>(Var);
    }
  }
  return Error::success();
}

Error parseMeta(ByteReader &P, ParsedImage &Out) {
  uint64_t NumDoms;
  if (!P.count(NumDoms, 2))
    return err(ErrorCode::Truncated, "meta section is truncated");
  Out.Doms.resize(static_cast<size_t>(NumDoms));
  for (auto &Dom : Out.Doms) {
    if (!P.str(Dom.Name) || !P.varint(Dom.Size))
      return err(ErrorCode::Truncated, "meta section is truncated");
    if (Dom.Size == 0)
      return err(ErrorCode::BadSection,
                 "domain '" + Dom.Name + "' has size zero");
  }
  uint64_t NumAttrs;
  if (!P.count(NumAttrs, 2))
    return err(ErrorCode::Truncated, "meta section is truncated");
  Out.Attrs.resize(static_cast<size_t>(NumAttrs));
  for (auto &Attr : Out.Attrs) {
    uint64_t DomIdx;
    if (!P.str(Attr.Name) || !P.varint(DomIdx))
      return err(ErrorCode::Truncated, "meta section is truncated");
    if (DomIdx >= Out.Doms.size())
      return err(ErrorCode::BadSection, "attribute '" + Attr.Name +
                                            "' references an undeclared "
                                            "domain");
    Attr.DomIdx = static_cast<uint32_t>(DomIdx);
  }
  return Error::success();
}

Error parseNodes(ByteReader &P, ParsedImage &Out) {
  uint64_t NumNodes;
  if (!P.count(NumNodes, 3))
    return err(ErrorCode::Truncated, "nodes section is truncated");
  Out.Nodes.resize(static_cast<size_t>(NumNodes));
  for (size_t I = 0; I != Out.Nodes.size(); ++I) {
    uint64_t Var, Low, High;
    if (!P.varint(Var) || !P.varint(Low) || !P.varint(High))
      return err(ErrorCode::Truncated, "nodes section is truncated");
    if (Var >= Out.NumVars)
      return err(ErrorCode::BadVar,
                 "node " + std::to_string(I) + " has an out-of-range "
                                               "variable");
    if (Out.VarPhysBit[Var].first == NoIndex)
      return err(ErrorCode::BadVar,
                 "node " + std::to_string(I) + " uses a variable no "
                                               "physical domain claims");
    // Children must be terminals or strictly earlier nodes — the
    // topological-order invariant the loader's single pass relies on.
    for (uint64_t Ref : {Low, High})
      if (Ref > 1 && Ref - 2 >= I)
        return err(ErrorCode::BadNodeRef,
                   "node " + std::to_string(I) +
                       " references an undefined node");
    if (Low == High)
      return err(ErrorCode::BadNodeRef,
                 "node " + std::to_string(I) + " has identical children "
                                               "(non-canonical image)");
    Out.Nodes[I] = {static_cast<uint32_t>(Var), static_cast<uint32_t>(Low),
                    static_cast<uint32_t>(High)};
  }
  return Error::success();
}

Error parseRoots(ByteReader &P, ParsedImage &Out) {
  if (Out.NumRelations > P.remaining() / 3 + 1)
    return err(ErrorCode::BadCount,
               "relation count exceeds the roots section");
  Out.Roots.resize(Out.NumRelations);
  for (auto &Root : Out.Roots) {
    uint64_t SchemaLen;
    if (!P.str(Root.Name) || !P.count(SchemaLen, 2))
      return err(ErrorCode::Truncated, "roots section is truncated");
    Root.Schema.resize(static_cast<size_t>(SchemaLen));
    for (auto &Binding : Root.Schema) {
      uint64_t AttrIdx, PhysIdx;
      if (!P.varint(AttrIdx) || !P.varint(PhysIdx))
        return err(ErrorCode::Truncated, "roots section is truncated");
      if (AttrIdx >= Out.Attrs.size())
        return err(ErrorCode::BadSection,
                   "root '" + Root.Name + "' references an undeclared "
                                          "attribute");
      if (PhysIdx >= Out.PhysDoms.size())
        return err(ErrorCode::BadSection,
                   "root '" + Root.Name + "' references an undeclared "
                                          "physical domain");
      Binding = {static_cast<uint32_t>(AttrIdx),
                 static_cast<uint32_t>(PhysIdx)};
    }
    uint64_t Ref;
    if (!P.varint(Ref))
      return err(ErrorCode::Truncated, "roots section is truncated");
    if (Ref > 1 && Ref - 2 >= Out.Nodes.size())
      return err(ErrorCode::BadNodeRef, "root '" + Root.Name +
                                            "' references an undefined "
                                            "node");
    Root.Ref = static_cast<uint32_t>(Ref);
  }
  return Error::success();
}

/// Full structural parse + validation of one image. Everything after a
/// successful parse is internally consistent; loading then only has to
/// match the metadata against the target universe.
Error parseImage(const std::string &Bytes, ParsedImage &Out) {
  ByteReader R(Bytes);
  const char *MagicBytes;
  if (!R.bytes(MagicBytes, sizeof(Magic)) ||
      std::char_traits<char>::compare(MagicBytes, Magic, sizeof(Magic)) != 0)
    return err(ErrorCode::BadMagic, "not a JDD1 image");

  using Parser = Error (*)(ByteReader &, ParsedImage &);
  const std::pair<uint8_t, Parser> Sections[] = {
      {SecHeader, parseHeader},
      {SecDomains, parseDomains},
      {SecMeta, parseMeta},
      {SecNodes, parseNodes},
      {SecRoots, parseRoots},
      {SecEnd, [](ByteReader &, ParsedImage &) { return Error::success(); }},
  };
  for (auto [Tag, Parse] : Sections) {
    ByteReader Payload(nullptr, 0);
    if (Error E = readSection(R, Tag, Payload); !E.ok())
      return E;
    if (Error E = Parse(Payload, Out); !E.ok())
      return E;
    if (Error E = sectionFullyConsumed(Payload, Tag); !E.ok())
      return E;
  }
  if (!R.atEnd())
    return err(ErrorCode::BadSection, "trailing bytes after end section");
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Save
//===----------------------------------------------------------------------===//

/// Appends the shared-node DAG of \p Bodies to \p Payload. \p SavedIndex
/// maps NodeRefs already written (across all bodies) to their saved
/// index; traverse() guarantees children are written before parents and
/// an order that depends only on BDD structure, so the bytes are
/// deterministic.
size_t writeNodeDag(bdd::Manager &M, const std::vector<const bdd::Bdd *> &Bodies,
                    std::string &NodesPayload,
                    std::unordered_map<bdd::NodeRef, uint32_t> &SavedIndex) {
  std::string Body;
  ByteWriter W(Body);
  auto EncodeRef = [&](bdd::NodeRef Ref) -> uint64_t {
    if (Ref <= bdd::TrueRef)
      return Ref;
    return static_cast<uint64_t>(SavedIndex.at(Ref)) + 2;
  };
  for (const bdd::Bdd *F : Bodies)
    M.traverse(*F, [&](bdd::NodeRef Node, unsigned Var, bdd::NodeRef Low,
                       bdd::NodeRef High) {
      if (SavedIndex.count(Node))
        return; // Shared with an earlier body.
      uint64_t LowRef = EncodeRef(Low), HighRef = EncodeRef(High);
      SavedIndex.emplace(Node, static_cast<uint32_t>(SavedIndex.size()));
      W.varint(Var);
      W.varint(LowRef);
      W.varint(HighRef);
    });
  ByteWriter P(NodesPayload);
  P.varint(SavedIndex.size());
  NodesPayload.append(Body);
  return SavedIndex.size();
}

//===----------------------------------------------------------------------===//
// Load
//===----------------------------------------------------------------------===//

/// Rebuilds the saved DAG bottom-up in \p M, one ite() per saved node,
/// with saved variables translated through \p VarMap (NoIndex = the
/// variable's physical domain has no match — an error if any node uses
/// it). Because the target levels play no role in the saved encoding,
/// this is exactly the re-encoding step that makes images portable
/// across variable orders.
Error rebuildNodes(bdd::Manager &M, const ParsedImage &P,
                   const std::vector<uint32_t> &VarMap,
                   std::vector<bdd::Bdd> &Built) {
  Built.clear();
  Built.reserve(P.Nodes.size());
  auto RefBdd = [&](uint32_t Ref) {
    if (Ref == bdd::FalseRef)
      return M.falseBdd();
    if (Ref == bdd::TrueRef)
      return M.trueBdd();
    return Built[Ref - 2];
  };
  for (const ParsedImage::Node &Node : P.Nodes) {
    uint32_t Target = VarMap[Node.Var];
    if (Target == NoIndex)
      return err(ErrorCode::DomainMismatch,
                 "physical domain '" +
                     P.PhysDoms[P.VarPhysBit[Node.Var].first].Name +
                     "' is missing from the loading universe or differs "
                     "in width");
    bdd::Bdd Low = RefBdd(Node.Low), High = RefBdd(Node.High);
    Built.push_back(M.ite(M.var(Target), High, Low));
  }
  return Error::success();
}

/// Matches the saved physical domains against \p U by name and width and
/// produces the saved-variable -> target-variable map. Missing or
/// mismatched physical domains are tolerated here and reported only when
/// a node or schema actually uses them (via the NoIndex sentinel).
void buildVarMap(rel::Universe &U, const ParsedImage &P,
                 std::vector<uint32_t> &VarMap,
                 std::vector<uint32_t> &PhysTarget) {
  bdd::DomainPack &Pack = U.pack();
  VarMap.assign(P.NumVars, NoIndex);
  PhysTarget.assign(P.PhysDoms.size(), NoIndex);
  for (size_t I = 0; I != P.PhysDoms.size(); ++I) {
    const ParsedImage::Phys &Saved = P.PhysDoms[I];
    for (PhysDomId Phys = 0; Phys != U.numPhysDoms(); ++Phys) {
      if (U.physName(Phys) != Saved.Name)
        continue;
      if (Pack.bits(Phys) != Saved.Bits)
        break; // Same name, different width: unusable.
      PhysTarget[I] = Phys;
      for (unsigned Bit = 0; Bit != Saved.Bits; ++Bit)
        VarMap[Saved.Vars[Bit]] = Pack.varOfBit(Phys, Bit);
      break;
    }
  }
}

/// Resolves one saved root's schema against \p U, reproducing every
/// check normalizeSchema() would abort on as a typed error instead.
Error resolveSchema(rel::Universe &U, const ParsedImage &P,
                    const ParsedImage::Root &Root,
                    const std::vector<uint32_t> &PhysTarget,
                    std::vector<rel::AttrBinding> &Out) {
  Out.clear();
  for (const auto &[AttrIdx, PhysIdx] : Root.Schema) {
    const ParsedImage::Attr &SavedAttr = P.Attrs[AttrIdx];
    const ParsedImage::Dom &SavedDom = P.Doms[SavedAttr.DomIdx];
    rel::AttributeId Target = NoIndex;
    for (rel::AttributeId Attr = 0; Attr != U.numAttributes(); ++Attr)
      if (U.attributeName(Attr) == SavedAttr.Name) {
        Target = Attr;
        break;
      }
    if (Target == NoIndex)
      return err(ErrorCode::DomainMismatch,
                 "attribute '" + SavedAttr.Name + "' is not declared in "
                                                  "the loading universe");
    rel::DomainId TargetDom = U.attributeDomain(Target);
    if (U.domainName(TargetDom) != SavedDom.Name ||
        U.domainSize(TargetDom) != SavedDom.Size)
      return err(ErrorCode::DomainMismatch,
                 "attribute '" + SavedAttr.Name +
                     "' was saved over domain '" + SavedDom.Name + "' (" +
                     std::to_string(SavedDom.Size) + " objects), which "
                     "the loading universe does not match");
    if (PhysTarget[PhysIdx] == NoIndex)
      return err(ErrorCode::DomainMismatch,
                 "physical domain '" + P.PhysDoms[PhysIdx].Name +
                     "' is missing from the loading universe or differs "
                     "in width");
    PhysDomId TargetPhys = PhysTarget[PhysIdx];
    if (!U.fits(Target, TargetPhys))
      return err(ErrorCode::SchemaMismatch,
                 "attribute '" + SavedAttr.Name + "' does not fit "
                     "physical domain '" + U.physName(TargetPhys) + "'");
    for (const rel::AttrBinding &Seen : Out) {
      if (Seen.Attr == Target)
        return err(ErrorCode::SchemaMismatch,
                   "duplicate attribute '" + SavedAttr.Name +
                       "' in root '" + Root.Name + "'");
      if (Seen.Phys == TargetPhys)
        return err(ErrorCode::SchemaMismatch,
                   "physical domain '" + U.physName(TargetPhys) +
                       "' bound twice in root '" + Root.Name + "'");
    }
    Out.push_back({Target, TargetPhys});
  }
  return Error::success();
}

/// The order spec (bdd/DomainPack.h) whose layout puts every saved bit on
/// its saved variable, if the image came from a DomainPack. Domains whose
/// variable ranges overlap share an interleave group; within a group the
/// last round holds every domain in spec order, so the domains are listed
/// by the variable of their least significant bit.
std::string orderSpecOf(const ParsedImage &P) {
  std::vector<size_t> Doms(P.PhysDoms.size());
  for (size_t I = 0; I != Doms.size(); ++I)
    Doms[I] = I;
  auto Msb = [&](size_t I) { return P.PhysDoms[I].Vars.front(); };
  auto Lsb = [&](size_t I) { return P.PhysDoms[I].Vars.back(); };
  std::sort(Doms.begin(), Doms.end(),
            [&](size_t A, size_t B) { return Msb(A) < Msb(B); });
  std::string Spec;
  for (size_t Begin = 0, End; Begin != Doms.size(); Begin = End) {
    uint32_t GroupLast = Lsb(Doms[Begin]);
    for (End = Begin + 1; End != Doms.size() && Msb(Doms[End]) < GroupLast;
         ++End)
      GroupLast = std::max(GroupLast, Lsb(Doms[End]));
    std::sort(Doms.begin() + Begin, Doms.begin() + End,
              [&](size_t A, size_t B) { return Lsb(A) < Lsb(B); });
    for (size_t I = Begin; I != End; ++I)
      Spec += (I == 0 ? "" : I == Begin ? "_" : "x") +
              P.PhysDoms[Doms[I]].Name;
  }
  return Spec;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

const char *jedd::io::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::None:
    return "ok";
  case ErrorCode::IoFailure:
    return "io-failure";
  case ErrorCode::ApiMisuse:
    return "api-misuse";
  case ErrorCode::BadMagic:
    return "bad-magic";
  case ErrorCode::BadVersion:
    return "bad-version";
  case ErrorCode::BadKind:
    return "bad-kind";
  case ErrorCode::Truncated:
    return "truncated";
  case ErrorCode::BadChecksum:
    return "bad-checksum";
  case ErrorCode::BadSection:
    return "bad-section";
  case ErrorCode::BadCount:
    return "bad-count";
  case ErrorCode::BadNodeRef:
    return "bad-node-ref";
  case ErrorCode::BadVar:
    return "bad-var";
  case ErrorCode::DomainMismatch:
    return "domain-mismatch";
  case ErrorCode::SchemaMismatch:
    return "schema-mismatch";
  }
  return "?";
}

std::string Error::toString() const {
  if (ok())
    return "";
  return std::string(errorCodeName(Code)) + ": " + Message;
}

uint64_t jedd::io::hashBytes(const std::string &Bytes) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (unsigned char Byte : Bytes) {
    Hash ^= Byte;
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

Error jedd::io::saveCheckpoint(rel::Universe &U,
                               const std::vector<NamedRelation> &Relations,
                               std::string &Out, uint64_t ContextHash) {
  obs::SpanGuard Span(obs::Cat::Io, "save");
  if (!U.isFinalized())
    return err(ErrorCode::ApiMisuse, "universe is not finalized");
  for (const NamedRelation &NR : Relations)
    if (!NR.Rel.isValid() || NR.Rel.universe() != &U)
      return err(ErrorCode::ApiMisuse, "relation '" + NR.Name +
                                           "' does not belong to the "
                                           "universe being saved");
  bdd::DomainPack &Pack = U.pack();
  bdd::Manager &M = U.manager();

  Out.clear();
  Out.append(Magic, sizeof(Magic));
  std::string Payload;
  ByteWriter W(Payload);
  W.u8(KindCheckpoint);
  W.u8(FormatVersion);
  W.u64le(ContextHash);
  W.varint(M.numVars());
  W.varint(Relations.size());
  writeSection(Out, SecHeader, Payload);

  Payload.clear();
  // The v1 order byte: 1 for one interleave group over every domain, 0
  // otherwise. Readers take the layout from the per-bit variables below.
  W.u8(Pack.orderGroups().size() == 1 ? 1 : 0);
  W.varint(U.numPhysDoms());
  for (PhysDomId Phys = 0; Phys != U.numPhysDoms(); ++Phys) {
    W.str(U.physName(Phys));
    W.varint(Pack.bits(Phys));
    for (unsigned Var : Pack.vars(Phys))
      W.varint(Var);
  }
  writeSection(Out, SecDomains, Payload);

  Payload.clear();
  W.varint(U.numDomains());
  for (rel::DomainId Dom = 0; Dom != U.numDomains(); ++Dom) {
    W.str(U.domainName(Dom));
    W.varint(U.domainSize(Dom));
  }
  W.varint(U.numAttributes());
  for (rel::AttributeId Attr = 0; Attr != U.numAttributes(); ++Attr) {
    W.str(U.attributeName(Attr));
    W.varint(U.attributeDomain(Attr));
  }
  writeSection(Out, SecMeta, Payload);

  std::vector<const bdd::Bdd *> Bodies;
  for (const NamedRelation &NR : Relations)
    Bodies.push_back(&NR.Rel.body());
  Payload.clear();
  std::unordered_map<bdd::NodeRef, uint32_t> SavedIndex;
  size_t Nodes = writeNodeDag(M, Bodies, Payload, SavedIndex);
  writeSection(Out, SecNodes, Payload);

  Payload.clear();
  for (const NamedRelation &NR : Relations) {
    W.str(NR.Name);
    W.varint(NR.Rel.schema().size());
    for (const rel::AttrBinding &Binding : NR.Rel.schema()) {
      W.varint(Binding.Attr);
      W.varint(Binding.Phys);
    }
    bdd::NodeRef Ref = NR.Rel.body().ref();
    W.varint(Ref <= bdd::TrueRef ? Ref : SavedIndex.at(Ref) + 2);
  }
  writeSection(Out, SecRoots, Payload);
  writeSection(Out, SecEnd, "");

  obs::Tracer::instance().counterAdd("io.bytes_written", Out.size());
  obs::Tracer::instance().counterAdd("io.nodes_written", Nodes);
  Span.arg("bytes", Out.size());
  Span.arg("nodes", Nodes);
  Span.arg("relations", Relations.size());
  return Error::success();
}

Error jedd::io::loadCheckpoint(rel::Universe &U, const std::string &Bytes,
                               std::vector<NamedRelation> &Out,
                               uint64_t *ContextHash) {
  obs::SpanGuard Span(obs::Cat::Io, "load");
  ParsedImage P;
  if (Error E = parseImage(Bytes, P); !E.ok())
    return E;
  if (!U.isFinalized())
    return err(ErrorCode::ApiMisuse, "universe is not finalized");
  bdd::Manager &M = U.manager();

  std::vector<uint32_t> VarMap, PhysTarget;
  buildVarMap(U, P, VarMap, PhysTarget);

  std::vector<bdd::Bdd> Built;
  if (Error E = rebuildNodes(M, P, VarMap, Built); !E.ok())
    return E;

  Out.clear();
  for (const ParsedImage::Root &Root : P.Roots) {
    std::vector<rel::AttrBinding> Schema;
    if (Error E = resolveSchema(U, P, Root, PhysTarget, Schema); !E.ok())
      return E;
    bdd::Bdd Body = Root.Ref == bdd::FalseRef ? M.falseBdd()
                    : Root.Ref == bdd::TrueRef ? M.trueBdd()
                                               : Built[Root.Ref - 2];
    // Sections spliced from another image can pair a schema with a body
    // over other physical domains; such a relation is not well-formed.
    std::vector<uint8_t> InSchema(M.numVars(), 0);
    for (const rel::AttrBinding &B : Schema)
      for (unsigned Bit = 0; Bit != U.pack().bits(B.Phys); ++Bit)
        InSchema[U.pack().varOfBit(B.Phys, Bit)] = 1;
    for (unsigned Var : M.support(Body))
      if (!InSchema[Var])
        return err(ErrorCode::SchemaMismatch,
                   "relation '" + Root.Name +
                       "' depends on variables outside its schema");
    Out.push_back({Root.Name, U.fromBody(std::move(Schema), std::move(Body))});
  }
  if (ContextHash)
    *ContextHash = P.ContextHash;
  obs::Tracer::instance().counterAdd("io.bytes_read", Bytes.size());
  obs::Tracer::instance().counterAdd("io.nodes_read", P.Nodes.size());
  Span.arg("bytes", Bytes.size());
  Span.arg("nodes", P.Nodes.size());
  Span.arg("relations", Out.size());
  return Error::success();
}

Error jedd::io::saveCheckpointFile(rel::Universe &U,
                                   const std::vector<NamedRelation> &Relations,
                                   const std::string &Path,
                                   uint64_t ContextHash) {
  std::string Bytes;
  if (Error E = saveCheckpoint(U, Relations, Bytes, ContextHash); !E.ok())
    return E;
  if (!writeStringToFile(Path, Bytes))
    return err(ErrorCode::IoFailure, "cannot write '" + Path + "'");
  return Error::success();
}

Error jedd::io::inspectImage(const std::string &Bytes, InspectInfo &Out) {
  ParsedImage P;
  if (Error E = parseImage(Bytes, P); !E.ok())
    return E;
  Out = InspectInfo();
  Out.Version = P.Version;
  Out.ContextHash = P.ContextHash;
  Out.TotalBytes = Bytes.size();
  Out.TotalNodes = P.Nodes.size();
  Out.NumVars = P.NumVars;

  Out.Order = orderSpecOf(P);
  for (const ParsedImage::Dom &Dom : P.Doms)
    Out.Domains.push_back(Dom.Name + ": " + std::to_string(Dom.Size) +
                          " objects");
  for (const ParsedImage::Phys &Phys : P.PhysDoms)
    Out.PhysDoms.push_back(Phys.Name + ": " + std::to_string(Phys.Bits) +
                           " bits");

  // Reconstruct a scratch universe with the saved layout from the
  // embedded metadata and load the image into it — per-relation stats
  // come from the live relations, and a successful inspect doubles as
  // proof the image loads.
  rel::Universe U;
  for (const ParsedImage::Dom &Dom : P.Doms)
    U.addDomain(Dom.Name, Dom.Size);
  for (const ParsedImage::Attr &Attr : P.Attrs)
    U.addAttribute(Attr.Name, Attr.DomIdx);
  for (const ParsedImage::Phys &Phys : P.PhysDoms)
    U.addPhysicalDomain(Phys.Name, Phys.Bits);
  try {
    U.finalize(Out.Order);
  } catch (const UsageError &E) {
    return err(ErrorCode::BadSection, E.what());
  }
  bool SameLayout = U.manager().numVars() == P.NumVars;
  for (PhysDomId Phys = 0; SameLayout && Phys != U.numPhysDoms(); ++Phys)
    SameLayout = std::equal(U.pack().vars(Phys).begin(),
                            U.pack().vars(Phys).end(),
                            P.PhysDoms[Phys].Vars.begin());
  if (!SameLayout)
    return err(ErrorCode::BadSection,
               "the saved variable layout is not an order spec");

  std::vector<NamedRelation> Loaded;
  if (Error E = loadCheckpoint(U, Bytes, Loaded); !E.ok())
    return E;
  for (NamedRelation &NR : Loaded) {
    InspectRelation Rel;
    Rel.Name = NR.Name;
    for (const rel::AttrBinding &Binding : NR.Rel.schema()) {
      if (!Rel.Schema.empty())
        Rel.Schema += ", ";
      Rel.Schema += U.attributeName(Binding.Attr) + "@" +
                    U.physName(Binding.Phys);
    }
    Rel.Nodes = NR.Rel.nodeCount();
    Rel.Tuples = NR.Rel.sizeExact().toString();
    Out.Relations.push_back(std::move(Rel));
  }
  return Error::success();
}
