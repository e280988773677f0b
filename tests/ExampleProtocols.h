//===- tests/ExampleProtocols.h - examples/protocols/ for tests -*- C++ -*-===//
//
// Part of sharpie. How a test reads a protocol of examples/protocols/: by
// stem ("ticket_lock"), into the caller's TermManager. A file that does
// not load throws, which fails the calling test with the rendered
// diagnostic.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_TESTS_EXAMPLEPROTOCOLS_H
#define SHARPIE_TESTS_EXAMPLEPROTOCOLS_H

#include "front/Front.h"

#include <stdexcept>
#include <string>

#ifndef SHARPIE_REPO_ROOT
#error "SHARPIE_REPO_ROOT must be defined by the build"
#endif

namespace sharpie {
namespace test {

inline front::FrontBundle loadExample(logic::TermManager &M,
                                      const std::string &Stem) {
  front::LoadResult L = front::loadProtocolFile(
      M, std::string(SHARPIE_REPO_ROOT) + "/examples/protocols/" + Stem +
             ".sharpie");
  if (!L.ok())
    throw std::runtime_error(L.Error->render());
  return std::move(*L.Bundle);
}

} // namespace test
} // namespace sharpie

#endif // SHARPIE_TESTS_EXAMPLEPROTOCOLS_H
