//===- logic/TermIO.h - Textual term serialization --------------*- C++ -*-===//
//
// Part of sharpie. A deterministic, manager-independent text encoding of
// terms, used by two consumers that must agree on it:
//
//   * the canonical content hash of a lowered protocol (front/Canon.h):
//     two structurally equal terms -- same shapes, same variable names --
//     serialize to the same bytes regardless of which TermManager built
//     them or in what order its nodes were interned;
//   * the persistent reduction cache (engine/Reduce.h, serve/Store.h):
//     cached ground formulas round-trip through disk and are re-interned
//     into a fresh manager on load.
//
// The format is a compact s-expression per term, e.g.
//
//   (and (= (rd (v a "pc") (v t "s")) 1) (<= (v i "n") 3))
//
// with sort codes b/i/t/a (Bool/Int/Tid/Array), integer literals bare,
// booleans as #t/#f, and binders carrying their variable list:
// (forall ((v t "q")) body), (card (v t "t") body).
//
// Robustness contract: deserializeTerm never crashes or corrupts the
// manager on malformed input. Every operator application is sort-checked
// before the corresponding TermManager builder runs (the builders only
// assert, and NDEBUG builds must reject corrupt cache files, not build
// broken terms over them), variable sorts are checked against both the
// input's own declarations and the destination manager's live bindings,
// and recursion depth is bounded (256 levels, far past any real term and
// far short of a sanitizer build's stack). Any violation yields a null
// Term and a message -- a corrupt cache entry is a miss, never a crash.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_LOGIC_TERMIO_H
#define SHARPIE_LOGIC_TERMIO_H

#include "logic/Term.h"

#include <string>
#include <string_view>

namespace sharpie {
namespace logic {

/// Serializes \p T as one s-expression (no trailing newline). Null terms
/// serialize as "()" and deserialize back to null -- optional fields like
/// an absent QGuard survive the round trip.
std::string serializeTerm(Term T);

/// Parses one serialized term into \p M. Returns a null Term and sets
/// \p Err (when non-null) on any malformed input; "()" parses to a null
/// Term with no error. Never throws, never calls a builder whose sort
/// preconditions do not hold.
Term deserializeTerm(TermManager &M, std::string_view Text,
                     std::string *Err = nullptr);

} // namespace logic
} // namespace sharpie

#endif // SHARPIE_LOGIC_TERMIO_H
