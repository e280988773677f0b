//===- front/Front.h - Textual protocol frontend ----------------*- C++ -*-===//
//
// Part of sharpie. Public entry points of the `.sharpie` protocol language:
// a textual format for parameterized protocols — globals, thread-local
// arrays, async guarded commands and sync rounds, nondeterministic
// choices, point-wise array writes, cardinality guards #{t | phi}, a shape
// template with quantifier guard, and the explicit-check instance —
// elaborated into a sys::ParamSystem plus
// synth::ShapeTemplate ready for synth::synthesize().
//
// Error handling contract: every frontend failure — lexical, syntactic,
// sort/elaboration, or I/O — is reported through the single Diagnostic
// type carrying file:line:col and the offending source line. The throwing
// API raises FrontError (which wraps a Diagnostic); the load* wrappers
// never throw, so CLI drivers can always exit with code 3 and a message.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_FRONT_FRONT_H
#define SHARPIE_FRONT_FRONT_H

#include "explicit/Explicit.h"
#include "obs/Obs.h"
#include "synth/Grammar.h"
#include "system/System.h"

#include <exception>
#include <memory>
#include <optional>
#include <string>

namespace sharpie {
namespace front {

/// A frontend error: position, message, and the offending source line.
struct Diagnostic {
  std::string File;
  int Line = 0; ///< 1-based; 0 when no position applies (e.g. I/O errors).
  int Col = 0;  ///< 1-based.
  std::string Message;
  std::string SourceLine; ///< Text of line \p Line, when available.

  /// "file:line:col: error: message\n  <source line>\n  ^" (the position
  /// and snippet are omitted when unavailable).
  std::string render() const;
};

/// The one exception type of the frontend. Everything the lexer, parser and
/// lowering pass can reject is thrown as a FrontError; the load* wrappers
/// below convert it (and any foreign exception) into a Diagnostic result.
class FrontError : public std::exception {
public:
  explicit FrontError(Diagnostic D)
      : Diag(std::move(D)), Rendered(Diag.render()) {}
  const Diagnostic &diagnostic() const { return Diag; }
  const char *what() const noexcept override { return Rendered.c_str(); }

private:
  Diagnostic Diag;
  std::string Rendered;
};

/// A protocol ready for #Pi: the system, its shape template, a suggested
/// explicit-check instance and the expected verdict. The frontend
/// elaborates `.sharpie` files into one; the C++ models left in
/// protocols/Protocols.h (where the struct is also called
/// protocols::ProtocolBundle) fill the same fields. synth::optionsFor()
/// turns a bundle into SynthOptions.
struct FrontBundle {
  std::unique_ptr<sys::ParamSystem> Sys;
  synth::ShapeTemplate Shape;
  logic::Term QGuard;               ///< Over synth::makeFormals' formals.
  explct::ExplicitOptions Explicit; ///< Suggested validation instance.
  bool ExpectSafe = true;           ///< `expect unsafe;` flips this.
  bool NeedsVenn = false;           ///< `venn;` (paper Sec. 5.2 examples).
  std::string Property;             ///< `property "...";`, if any.
};

/// Parses and elaborates \p Source into \p M. Throws FrontError.
/// \p Trace, when non-null, receives a "parse" span named after the file.
FrontBundle parseProtocol(logic::TermManager &M, const std::string &Source,
                          const std::string &FileName,
                          obs::TraceBuffer *Trace = nullptr);

/// Result of the non-throwing loaders: exactly one of Bundle/Error is set.
struct LoadResult {
  std::optional<FrontBundle> Bundle;
  std::optional<Diagnostic> Error;
  bool ok() const { return Bundle.has_value(); }
};

/// Reads \p Path and elaborates it. Never throws: I/O failures, frontend
/// errors and any stray exception all land in LoadResult::Error.
LoadResult loadProtocolFile(logic::TermManager &M, const std::string &Path,
                            obs::TraceBuffer *Trace = nullptr);

/// Same, over an in-memory string (used by the tests).
LoadResult loadProtocolString(logic::TermManager &M, const std::string &Source,
                              const std::string &FileName = "<string>",
                              obs::TraceBuffer *Trace = nullptr);

} // namespace front
} // namespace sharpie

#endif // SHARPIE_FRONT_FRONT_H
