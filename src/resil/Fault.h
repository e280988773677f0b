//===- resil/Fault.h - Deterministic fault injection ------------*- C++ -*-===//
//
// Part of sharpie. A seeded, replayable fault-injection harness for the
// resilience layer (resil/Resil.h): a FaultPlan names the faults to
// inject (timeouts, Unknowns, exceptions, latency) at the supervised
// sites (`smt_check`, `smt_check_assuming`, `reduce`, `worker_task`,
// `refine`), and a FaultInjector turns the plan into per-invocation
// decisions. The
// serving daemon (serve/Server.h) adds its own sites on top: `accept`,
// `wire_read`, `wire_write` on the connection path and `store_read`,
// `store_write` inside the result store -- same grammar, same
// determinism, scoped per server lifetime rather than per tuple.
//
// Determinism: every decision is a pure function of (plan seed, site
// name, scope, invocation index) hashed through splitmix64 -- no global
// RNG state, no wall clock. Every tuple attempt owns one injector and
// opens one scope (scope = tuple rank + 1), and the per-site invocation
// index resets at each scope, so a tuple draws the same faults no matter
// which worker claims it or in which order tuples complete. The one
// deliberate exception is the `worker=W` trigger, which keys on the
// physical worker rank to model "this machine is bad" scenarios; under a
// racy work cursor the set of tuples it hits varies run to run, and the
// chaos tests only assert verdict-or-inconclusive for such plans.
//
// Ranks: search worker W is fault rank W+1 at every width, the same
// number as its trace rank (obs/Obs.h), so a 1-worker search runs on
// rank 1. Rank 0 is the synthesis driver, which reaches no synthesis
// fault site: only tuple attempts solve.
//
// Plan grammar (--faults):
//
//   plan    := ["seed=" INT] (";" rule)*
//   rule    := site ":" kind ["@" trigger ("," trigger)*]
//   site    := "smt_check" | "smt_check_assuming" | "reduce"
//            | "worker_task" | "refine" | "accept" | "wire_read"
//            | "wire_write" | "store_read" | "store_write"
//                                                       (any name matches)
//   kind    := "timeout" | "unknown" | "throw" | "latency=" MS
//   trigger := "always" | "p=" FLOAT | "every=" N | "worker=" W
//
// A rule with no trigger fires always; multiple triggers on one rule must
// all hold. Example: "seed=7;smt_check:timeout@p=0.3;worker_task:throw@worker=1"
// (worker=1 is the first search worker, the only one at 1 worker).
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_RESIL_FAULT_H
#define SHARPIE_RESIL_FAULT_H

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sharpie {
namespace resil {

enum class FaultKind : uint8_t { None, Timeout, Unknown, Throw, Latency };

const char *faultKindName(FaultKind K);

/// Thrown by the injection sites for FaultKind::Throw; the supervised
/// pipeline must contain it like any worker exception (tuple skipped,
/// search continues).
class InjectedFault : public std::runtime_error {
public:
  explicit InjectedFault(const std::string &Site)
      : std::runtime_error("injected fault at " + Site) {}
};

struct FaultRule {
  std::string Site;
  FaultKind Kind = FaultKind::None;
  unsigned LatencyMs = 0;  ///< For Kind == Latency.
  double Prob = -1;        ///< p=F trigger; < 0 means absent.
  uint64_t Every = 0;      ///< every=N trigger; 0 means absent.
  int Worker = -1;         ///< worker=W trigger; < 0 means absent.
};

/// A parsed fault plan. Plans are value types: workers copy them freely.
struct FaultPlan {
  uint64_t Seed = 0;
  std::vector<FaultRule> Rules;

  bool empty() const { return Rules.empty(); }

  /// Parses the grammar above. Returns nullopt and sets \p Err on a
  /// malformed spec.
  static std::optional<FaultPlan> parse(std::string_view Spec,
                                        std::string *Err = nullptr);
  /// Renders back to the grammar (parse(render()) == *this).
  std::string render() const;
};

/// One injection decision.
struct FaultDecision {
  FaultKind Kind = FaultKind::None;
  unsigned LatencyMs = 0;
};

/// Turns a FaultPlan into per-invocation decisions. One injector per
/// tuple attempt; not thread-safe (each attempt owns its own, like its
/// solvers).
class FaultInjector {
public:
  explicit FaultInjector(FaultPlan Plan) : Plan(std::move(Plan)) {}

  /// The physical worker rank the `worker=W` trigger compares against:
  /// search worker W is rank W+1 at every width; rank 0, the driver,
  /// reaches no synthesis fault site.
  void setWorker(unsigned W) { Worker = W; }
  unsigned worker() const { return Worker; }

  /// Opens a deterministic decision scope (the synthesizer uses tuple
  /// rank + 1). Resets the per-site indices.
  void beginScope(uint64_t S);

  /// Consumes one invocation at \p Site and returns the decision. The
  /// first matching rule wins.
  FaultDecision next(const char *Site);

private:
  FaultPlan Plan;
  unsigned Worker = 0;
  uint64_t Scope = 0;
  /// Per-site invocation counts within the current scope. Sites are a
  /// handful of string literals; linear scan beats a map at this size.
  std::vector<std::pair<std::string, uint64_t>> Index;
};

} // namespace resil
} // namespace sharpie

#endif // SHARPIE_RESIL_FAULT_H
