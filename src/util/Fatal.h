//===- Fatal.h - Runtime check reporting ------------------------*- C++ -*-===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime check mechanism backing Jedd's dynamic type checking:
/// "properties that cannot be checked statically are enforced by runtime
/// checks" (Section 1). A failed check throws jedd::UsageError so
/// embedding applications can catch, report and continue. fatalError
/// remains for genuinely unrecoverable conditions.
///
//===----------------------------------------------------------------------===//

#ifndef JEDDPP_UTIL_FATAL_H
#define JEDDPP_UTIL_FATAL_H

#include <cstdint>
#include <string>

namespace jedd {

/// Prints "jedd fatal error: <message>" to stderr and aborts.
[[noreturn]] void fatalError(const std::string &Message);

/// Reports a failed runtime check: throws jedd::UsageError.
[[noreturn]] void checkFailed(const std::string &Message);

/// As checkFailed, attributing the failure to a relational call site
/// (the fields of a rel::Site).
[[noreturn]] void checkFailed(const std::string &Message,
                              const char *SiteLabel, const char *SiteFile,
                              uint32_t SiteLine);

} // namespace jedd

/// Runtime-enforced invariant; active in all build modes.
#define JEDD_CHECK(Cond, Message)                                             \
  do {                                                                        \
    if (!(Cond))                                                              \
      ::jedd::checkFailed(Message);                                           \
  } while (false)

/// JEDD_CHECK with a rel::Site (or anything with Label/File/Line
/// members) attributing the failure to the relational call site.
#define JEDD_CHECK_AT(Cond, Message, Site)                                    \
  do {                                                                        \
    if (!(Cond))                                                              \
      ::jedd::checkFailed((Message), (Site).Label, (Site).File,               \
                          (Site).Line);                                       \
  } while (false)

#endif // JEDDPP_UTIL_FATAL_H
