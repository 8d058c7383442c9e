//===- StringUtils.cpp - Small string helpers -----------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "util/StringUtils.h"
#include "util/SourceLocation.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

using namespace jedd;

std::string_view jedd::trimString(std::string_view Text) {
  size_t Begin = 0, End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

std::string jedd::joinStrings(const std::vector<std::string> &Pieces,
                              std::string_view Sep) {
  std::string Result;
  for (size_t I = 0, E = Pieces.size(); I != E; ++I) {
    if (I != 0)
      Result += Sep;
    Result += Pieces[I];
  }
  return Result;
}

std::string jedd::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result(Len > 0 ? static_cast<size_t>(Len) : 0, '\0');
  if (Len > 0)
    std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::string jedd::escapeHtml(std::string_view Text) {
  std::string Result;
  Result.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '&':
      Result += "&amp;";
      break;
    case '<':
      Result += "&lt;";
      break;
    case '>':
      Result += "&gt;";
      break;
    case '"':
      Result += "&quot;";
      break;
    default:
      Result += C;
    }
  }
  return Result;
}

std::string jedd::formatLoc(const std::string &File, SourceLoc Loc) {
  return strFormat("%s:%u,%u", File.c_str(), Loc.Line, Loc.Col);
}
