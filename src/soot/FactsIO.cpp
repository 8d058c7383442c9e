//===- FactsIO.cpp - Text serialization of whole-program facts -------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "soot/FactsIO.h"
#include "util/StringUtils.h"

#include <map>

using namespace jedd;
using namespace jedd::soot;

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

static std::string idList(const std::vector<Id> &Ids) {
  std::vector<std::string> Parts;
  for (Id I : Ids)
    Parts.push_back(strFormat("%u", I));
  return Parts.empty() ? "-" : joinStrings(Parts, ",");
}

static std::string optId(Id I) {
  return I == NoId ? "-" : strFormat("%u", I);
}

std::string jedd::soot::writeFacts(const Program &Prog) {
  std::string Out = "# jeddpp whole-program facts\n";
  for (size_t K = 0; K != Prog.Klasses.size(); ++K) {
    Out += "class " + Prog.Klasses[K].Name;
    if (Prog.Klasses[K].Super != NoId)
      Out += " extends " + Prog.Klasses[Prog.Klasses[K].Super].Name;
    Out += '\n';
  }
  for (const Signature &S : Prog.Sigs)
    Out += "sig " + S.Name + '\n';
  for (const std::string &F : Prog.Fields)
    Out += "field " + F + '\n';
  for (const Method &M : Prog.Methods)
    Out += strFormat("method %u %u this=%s params=%s ret=%s\n", M.Klass,
                     M.Sig, optId(M.ThisVar).c_str(),
                     idList(M.ParamVars).c_str(), optId(M.RetVar).c_str());
  Out += strFormat("entry %u\n", Prog.EntryMethod);
  for (size_t V = 0; V != Prog.NumVars; ++V)
    Out += strFormat("var %zu method=%u\n", V, Prog.VarMethod[V]);
  for (size_t S = 0; S != Prog.NumSites; ++S)
    Out += strFormat("site %zu type=%u\n", S, Prog.SiteType[S]);
  for (const AllocStmt &S : Prog.Allocs)
    Out += strFormat("alloc v=%u site=%u\n", S.Var, S.Site);
  for (const AssignStmt &S : Prog.Assigns)
    Out += strFormat("assign dst=%u src=%u\n", S.Dst, S.Src);
  for (const LoadStmt &S : Prog.Loads)
    Out += strFormat("load dst=%u base=%u field=%u\n", S.Dst, S.Base,
                     S.Field);
  for (const StoreStmt &S : Prog.Stores)
    Out += strFormat("store base=%u field=%u src=%u\n", S.Base, S.Field,
                     S.Src);
  for (const CallSite &C : Prog.Calls)
    Out += strFormat("call caller=%u sig=%u recv=%u args=%s ret=%s\n",
                     C.Caller, C.Sig, C.RecvVar, idList(C.ArgVars).c_str(),
                     optId(C.RetDstVar).c_str());
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

/// Reads an id: "-" is NoId, anything else decimal digits below NoId.
bool parseId(std::string_view Text, Id &Out) {
  if (Text == "-") {
    Out = NoId;
    return true;
  }
  Id Value;
  if (!parseDecimal(Text, Value) || Value == NoId)
    return false;
  Out = Value;
  return true;
}

/// Reads "-" (no ids) or a comma-separated list of ids.
bool parseIdList(std::string_view Text, std::vector<Id> &Out) {
  Out.clear();
  if (Text == "-")
    return true;
  FieldScanner Parts(Text, ',');
  for (std::string_view Part; Parts.next(Part);) {
    Id Value;
    if (!parseId(Part, Value))
      return false;
    Out.push_back(Value);
  }
  return true;
}

/// A forgiving token scanner over one line's tokens.
class LineParser {
public:
  explicit LineParser(const std::vector<std::string_view> &Tokens)
      : Tokens(Tokens) {}

  bool done() const { return Pos >= Tokens.size(); }

  /// Next bare token; empty when exhausted.
  std::string_view next() {
    return done() ? std::string_view() : Tokens[Pos++];
  }

  /// Reads a bare id.
  bool id(Id &Out) { return parseId(next(), Out); }

  /// Reads "Key=id".
  bool id(std::string_view Key, Id &Out) {
    std::string_view Value;
    return keyValue(Key, Value) && parseId(Value, Out);
  }

  /// Reads "Key=id,id,..." or "Key=-".
  bool ids(std::string_view Key, std::vector<Id> &Out) {
    std::string_view Value;
    return keyValue(Key, Value) && parseIdList(Value, Out);
  }

private:
  /// Reads "Key=value"; returns false on mismatch.
  bool keyValue(std::string_view Key, std::string_view &Value) {
    if (done())
      return false;
    std::string_view Tok = Tokens[Pos];
    if (Tok.size() <= Key.size() || Tok[Key.size()] != '=' ||
        !Tok.starts_with(Key))
      return false;
    Value = Tok.substr(Key.size() + 1);
    ++Pos;
    return true;
  }

  const std::vector<std::string_view> &Tokens;
  size_t Pos = 0;
};

} // namespace

bool jedd::soot::parseFacts(const std::string &Text, Program &Prog,
                            std::string &Error) {
  Prog = Program();
  // Class names as views into Text, which outlives the parse.
  std::map<std::string_view, Id> KlassByName;
  std::vector<std::string_view> Tokens;
  size_t LineNo = 0;

  auto Fail = [&](const std::string &Message) {
    Error = strFormat("line %zu: %s", LineNo, Message.c_str());
    return false;
  };

  FieldScanner Lines(Text, '\n');
  for (std::string_view RawLine; Lines.next(RawLine);) {
    ++LineNo;
    std::string_view Line = trimString(RawLine);
    if (Line.empty() || Line[0] == '#')
      continue;
    Tokens.clear();
    FieldScanner Words(Line, ' ');
    for (std::string_view Tok; Words.next(Tok);)
      if (!Tok.empty())
        Tokens.push_back(Tok);
    LineParser P(Tokens);
    std::string_view Kind = P.next();

    if (Kind == "class") {
      std::string_view Name = P.next();
      if (Name.empty())
        return Fail("class without a name");
      Id Super = NoId;
      if (!P.done()) {
        if (P.next() != "extends")
          return Fail("expected 'extends'");
        std::string_view SuperName = P.next();
        auto It = KlassByName.find(SuperName);
        if (It == KlassByName.end())
          return Fail("unknown superclass '" + std::string(SuperName) + "'");
        Super = It->second;
      }
      if (!KlassByName.emplace(Name, static_cast<Id>(Prog.Klasses.size()))
               .second)
        return Fail("duplicate class '" + std::string(Name) + "'");
      Prog.Klasses.push_back({std::string(Name), Super});
    } else if (Kind == "sig") {
      std::string_view Name = P.next();
      if (Name.empty())
        return Fail("sig without a name");
      Prog.Sigs.push_back({std::string(Name)});
    } else if (Kind == "field") {
      std::string_view Name = P.next();
      if (Name.empty())
        return Fail("field without a name");
      Prog.Fields.emplace_back(Name);
    } else if (Kind == "method") {
      Method M;
      if (!P.id(M.Klass) || !P.id(M.Sig))
        return Fail("malformed method header");
      if (!P.id("this", M.ThisVar))
        return Fail("malformed this=");
      if (!P.ids("params", M.ParamVars))
        return Fail("malformed params=");
      if (!P.id("ret", M.RetVar))
        return Fail("malformed ret=");
      Prog.Methods.push_back(std::move(M));
    } else if (Kind == "entry") {
      if (!P.id(Prog.EntryMethod))
        return Fail("malformed entry");
    } else if (Kind == "var") {
      Id Index, Method;
      if (!P.id(Index) || !P.id("method", Method))
        return Fail("malformed var");
      if (Index != Prog.NumVars)
        return Fail("variables must be declared in order");
      ++Prog.NumVars;
      Prog.VarMethod.push_back(Method);
    } else if (Kind == "site") {
      Id Index, Type;
      if (!P.id(Index) || !P.id("type", Type))
        return Fail("malformed site");
      if (Index != Prog.NumSites)
        return Fail("sites must be declared in order");
      ++Prog.NumSites;
      Prog.SiteType.push_back(Type);
    } else if (Kind == "alloc") {
      AllocStmt S;
      if (!P.id("v", S.Var) || !P.id("site", S.Site))
        return Fail("malformed alloc");
      Prog.Allocs.push_back(S);
    } else if (Kind == "assign") {
      AssignStmt S;
      if (!P.id("dst", S.Dst) || !P.id("src", S.Src))
        return Fail("malformed assign");
      Prog.Assigns.push_back(S);
    } else if (Kind == "load") {
      LoadStmt S;
      if (!P.id("dst", S.Dst) || !P.id("base", S.Base) ||
          !P.id("field", S.Field))
        return Fail("malformed load");
      Prog.Loads.push_back(S);
    } else if (Kind == "store") {
      StoreStmt S;
      if (!P.id("base", S.Base) || !P.id("field", S.Field) ||
          !P.id("src", S.Src))
        return Fail("malformed store");
      Prog.Stores.push_back(S);
    } else if (Kind == "call") {
      CallSite C;
      if (!P.id("caller", C.Caller) || !P.id("sig", C.Sig) ||
          !P.id("recv", C.RecvVar) || !P.ids("args", C.ArgVars) ||
          !P.id("ret", C.RetDstVar))
        return Fail("malformed call");
      Prog.Calls.push_back(std::move(C));
    } else {
      return Fail("unknown fact kind '" + std::string(Kind) + "'");
    }
    if (!P.done())
      return Fail("unexpected trailing tokens");
  }

  std::string ValidationError;
  if (!Prog.validate(ValidationError)) {
    Error = "validation failed: " + ValidationError;
    return false;
  }
  return true;
}
