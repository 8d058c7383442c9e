//===- Fatal.cpp - Runtime check reporting --------------------------------===//
//
// Part of jeddpp, a C++ reproduction of the PLDI 2004 paper
// "Jedd: A BDD-based Relational Extension of Java".
//
//===----------------------------------------------------------------------===//

#include "util/Fatal.h"
#include "util/Error.h"

#include <cstdio>
#include <cstdlib>

void jedd::fatalError(const std::string &Message) {
  std::fprintf(stderr, "jedd fatal error: %s\n", Message.c_str());
  std::fflush(stderr);
  std::abort();
}

void jedd::checkFailed(const std::string &Message) {
  throw UsageError(Message);
}

void jedd::checkFailed(const std::string &Message, const char *SiteLabel,
                       const char *SiteFile, uint32_t SiteLine) {
  std::string Full = Message;
  if (SiteLabel && SiteLabel[0]) {
    Full += " (at ";
    Full += SiteLabel;
    if (SiteFile && SiteFile[0]) {
      Full += ", ";
      Full += SiteFile;
      Full += ":";
      Full += std::to_string(SiteLine);
    }
    Full += ")";
  }
  throw UsageError(Full, SiteLabel ? SiteLabel : "",
                   SiteFile ? SiteFile : "", SiteLine);
}
