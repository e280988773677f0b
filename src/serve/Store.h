//===- serve/Store.h - Persistent two-tier result store ---------*- C++ -*-===//
//
// Part of sharpie. The on-disk memory of the serving stack (and of
// `sharpie --store DIR` local runs). Two tiers, both versioned text
// formats, both written atomically (temp file + rename in the same
// directory) and both corruption-tolerant on load: a truncated, garbled
// or wrong-version file reads as a cache miss -- never an error, never a
// wrong result -- and the incident is counted and classified as
// resil::FailureClass::CorruptStore.
//
//   tier 1   <dir>/t1/<hash>.entry
//            Final verdicts keyed by front::CanonicalHash of the lowered
//            problem (see front/Canon.h for what the hash covers and why
//            it is stable across reformatting, re-parsing and cloning).
//            An entry stores the exit code, the rendered verdict block
//            and the stats JSON fragment of the original solve, so a warm
//            verify replays the identical invariant. Only settled
//            verdicts are stored: exit 0 (verified) and exit 1 (unsafe).
//            Unknown/inconclusive outcomes are budget- and
//            machine-dependent, and fault-injected runs are chaos, so
//            neither is ever written -- the cache can serve stale
//            timings, never a stale verdict.
//
//   tier 2   <dir>/t2/reduce.cache
//            The content-keyed engine::ReduceCache, serialized with its own
//            content-keyed format (engine/Reduce.h, "Persistence"): every
//            entry travels with its key terms, so a cache written by one
//            process re-keys and serves hits in any other.
//
// Invalidation is by construction: tier 1 keys include the canon format
// version (front/Canon.h bumps "sharpie-canon-v1" on any semantic
// change), tier-1/2 file formats carry their own version headers, and
// tier-2 keys include the reduce-options fingerprint. Nothing is ever
// rewritten in place, so a crashed writer leaves either the old file or
// a stray temp file, both safe.
//
// Self-protection (PR 9): corruption-tolerant is not the same as
// corruption-resilient. A store on a sick disk can serve an endless
// stream of corrupt reads, each costing a file read plus a failed parse
// on the request path. Two defenses:
//
//   * self-healing: a tier-1 entry that fails to parse is unlinked on
//     the spot (counted T1Healed), so the next lookup of that hash is a
//     clean miss and the slot can be rewritten by the next solve;
//   * circuit breaker: BreakerThreshold *consecutive* CorruptStore
//     incidents trip the breaker open -- lookups and writes bypass the
//     disk entirely (counted Bypassed) and the daemon keeps serving,
//     just cold. After BreakerCooldownSeconds it goes half-open and
//     lets probes through; the first non-corrupt operation closes it,
//     another corrupt one re-trips it. State is visible through the
//     `health` wire op and the breaker gauges.
//
// Deterministic fault injection enters through setFaultHook(): the
// server installs a hook that consults its resil::FaultPlan for the
// `store_read` / `store_write` sites, so chaos tests can script corrupt
// streaks without touching the disk.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_SERVE_STORE_H
#define SHARPIE_SERVE_STORE_H

#include "engine/Reduce.h"
#include "front/Canon.h"

#include <functional>
#include <mutex>
#include <optional>
#include <string>

namespace sharpie {
namespace serve {

/// Store activity counters (cache_stats responses, bench scripts); tier-1
/// hits and misses are the request tracers' serve_t1_* counters instead.
struct StoreStats {
  uint64_t T1Writes = 0;
  uint64_t T1Corrupt = 0; ///< Entry files that failed to parse (each
                          ///< read as a miss).
  uint64_t T2Entries = 0; ///< Entries merged by the last tier-2 load.
  uint64_t T2Corrupt = 0; ///< Tier-2 loads that hit corruption (the
                          ///< parsed prefix was still merged).
  uint64_t T1Healed = 0;  ///< Corrupt tier-1 entry files unlinked.
  uint64_t Bypassed = 0;  ///< Lookups/writes skipped by an open breaker.
  uint64_t BreakerTrips = 0; ///< Closed/half-open -> open transitions.
};

class ResultStore {
public:
  /// A settled verdict, exactly what a warm verify needs to replay.
  struct T1Entry {
    int Exit = 0;              ///< front::ExitVerified or ExitUnsafe.
    std::string Protocol;      ///< System name (diagnostics only).
    std::string StatsJson;     ///< statsJsonFields() of the original solve.
    double SynthSeconds = 0;   ///< Original solve wall time.
    std::string Verdict;       ///< Rendered verdict block, byte-exact.
  };

  /// Opens (creating directories as needed) the store rooted at \p Dir.
  /// An empty \p Dir makes a disabled store: every lookup misses, every
  /// write is a no-op -- callers need no "is there a store?" branching.
  explicit ResultStore(std::string Dir);

  bool enabled() const { return !Dir.empty(); }
  const std::string &dir() const { return Dir; }

  /// Tier-1 lookup. A malformed entry file counts T1Corrupt and reads as
  /// a miss.
  std::optional<T1Entry> lookup(const front::CanonicalHash &H);

  /// Tier-1 write (atomic temp+rename). Returns false on I/O failure
  /// (the store keeps serving; persistence is best-effort by design).
  bool store(const front::CanonicalHash &H, const T1Entry &E);

  /// Tier-2: merges the on-disk reduce cache into \p C. Corruption keeps
  /// the parsed prefix and counts T2Corrupt; \p Note, when non-null,
  /// receives a classified "corrupt_store: ..." description for logging.
  size_t loadReduceCache(engine::ReduceCache &C, std::string *Note = nullptr);

  /// Tier-2: serializes \p C to disk (atomic). Returns entries written,
  /// or 0 on I/O failure or an empty/unshared cache.
  size_t saveReduceCache(const engine::ReduceCache &C);

  StoreStats stats() const;

  /// Circuit-breaker tuning; defaults suit a long-running daemon, tests
  /// shrink the cooldown. Set before serving starts.
  struct Tuning {
    int BreakerThreshold = 3; ///< Consecutive CorruptStore incidents
                              ///< that trip the breaker (<=0 disables).
    double BreakerCooldownSeconds = 30.0; ///< Open -> half-open delay.
  };
  void setTuning(const Tuning &T);

  /// Fault hook for the `store_read` / `store_write` sites: called with
  /// the site name before each disk touch; returning true injects a
  /// CorruptStore incident (the disk is never touched). Install before
  /// serving starts; the hook itself must be thread-safe (it is called
  /// outside the store mutex so latency faults don't serialize).
  using FaultHook = std::function<bool(const char *Site)>;
  void setFaultHook(FaultHook H) { Hook = std::move(H); }

  enum class BreakerState : unsigned { Closed, Open, HalfOpen };
  /// Current state, re-evaluating the cooldown ("open" becomes
  /// "half_open" once elapsed). Names: closed / open / half_open.
  const char *breakerStateName() const;
  uint64_t breakerTrips() const;

private:
  std::string t1Path(const front::CanonicalHash &H) const;

  /// True when the breaker blocks disk access right now; may move
  /// Open -> HalfOpen when the cooldown has elapsed. Caller holds Mu.
  bool breakerBlockedLocked();
  /// Feeds one CorruptStore incident to the breaker. Caller holds Mu.
  void noteCorruptLocked();
  /// Feeds one healthy disk operation (hit, clean miss, successful
  /// write): resets the streak and closes a half-open breaker.
  void noteOkLocked();

  std::string Dir; ///< Empty = disabled.
  FaultHook Hook;  ///< Null unless fault injection is scripted.
  mutable std::mutex Mu;
  StoreStats S;
  Tuning Tune;
  BreakerState Breaker = BreakerState::Closed;
  int CorruptStreak = 0;
  double TripAtSeconds = 0; ///< Monotonic time of the last trip.
};

} // namespace serve
} // namespace sharpie

#endif // SHARPIE_SERVE_STORE_H
