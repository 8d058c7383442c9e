//===- StringUtils.h - Small string helpers ---------------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared across the project: an allocation-free field
/// scanner, decimal parsing, join/trim and a printf wrapper returning
/// std::string (the project avoids <iostream> in library code, following
/// the LLVM coding standards).
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_UTIL_STRINGUTILS_H
#define JEDDPP_UTIL_STRINGUTILS_H

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace jedd {

/// Reads the fields of a text that one separator character splits, in
/// order and without copying: every field is a view into the text. Empty
/// fields are kept, so "" has one field and "a,,b" has three.
class FieldScanner {
public:
  FieldScanner(std::string_view Text, char Sep) : Rest(Text), Sep(Sep) {}

  /// Stores the next field in \p Field; false once every field was read.
  bool next(std::string_view &Field) {
    if (Done)
      return false;
    size_t Pos = Rest.find(Sep);
    if (Pos == std::string_view::npos) {
      Field = Rest;
      Done = true;
    } else {
      Field = Rest.substr(0, Pos);
      Rest.remove_prefix(Pos + 1);
    }
    return true;
  }

private:
  std::string_view Rest;
  char Sep;
  bool Done = false;
};

/// Reads all of \p Text as a decimal number: digits only, with no sign,
/// space or base prefix. False, leaving \p Out alone, when \p Text is
/// not such a number or its value does not fit \p Out.
template <typename T> bool parseDecimal(std::string_view Text, T &Out) {
  static_assert(std::is_unsigned_v<T>, "a signed type would take a '-'");
  const char *End = Text.data() + Text.size();
  T Value;
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End)
    return false;
  Out = Value;
  return true;
}

/// Removes leading and trailing ASCII whitespace.
std::string_view trimString(std::string_view Text);

/// Joins \p Pieces with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Pieces,
                        std::string_view Sep);

/// printf-style formatting into a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Escapes the characters &, <, > and " for embedding in HTML attribute
/// and text positions (used by the profiler report writer).
std::string escapeHtml(std::string_view Text);

} // namespace jedd

#endif // JEDDPP_UTIL_STRINGUTILS_H
