//===- front/ExitCodes.h - Deterministic driver exit codes ------*- C++ -*-===//
//
// Part of sharpie. The one definition of the pipeline's scriptable exit
// codes, shared by every surface that reports a verdict: the `sharpie`
// CLI (on a file or a --builtin bundle), the `sharpied` daemon and its
// thin-client mode (`sharpie --server`). The values are a wire contract
// -- scripts and the ctest entries key on them -- so they are pinned by
// tests/exit_codes_test.cpp and must never be renumbered.
//
//   0  verified safe (invariant printed)
//   1  unsafe (explicit counterexample printed)
//   2  unknown: the search space was exhausted without a verdict
//   3  frontend or usage error (parse/elaboration/I-O/protocol, bad flag
//      value, unknown built-in), message on stderr
//   4  inconclusive: no verdict AND some recorded failure (timeout,
//      skipped tuple, injected fault, exhausted budget) may have hidden
//      one
//   5  overloaded: the daemon shed the request (admission queue full or
//      draining) and the client exhausted its retry budget; the request
//      was never attempted, so resubmitting later is always safe
//
// A counterexample always exits 1, also on a protocol declared `expect
// unsafe`: the code reports the verdict, not whether it was expected.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_FRONT_EXITCODES_H
#define SHARPIE_FRONT_EXITCODES_H

namespace sharpie {
namespace front {

enum ExitCode : int {
  ExitVerified = 0,
  ExitUnsafe = 1,
  ExitUnknown = 2,
  ExitError = 3,
  ExitInconclusive = 4,
  ExitOverloaded = 5,
};

/// Short machine-readable verdict names, one per exit code; used by the
/// serving protocol (serve/Proto.h) and the bench scripts.
inline const char *exitCodeName(int Code) {
  switch (Code) {
  case ExitVerified:
    return "verified";
  case ExitUnsafe:
    return "unsafe";
  case ExitUnknown:
    return "unknown";
  case ExitError:
    return "error";
  case ExitInconclusive:
    return "inconclusive";
  case ExitOverloaded:
    return "overloaded";
  default:
    return "invalid";
  }
}

} // namespace front
} // namespace sharpie

#endif // SHARPIE_FRONT_EXITCODES_H
