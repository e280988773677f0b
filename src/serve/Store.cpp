//===- serve/Store.cpp - Persistent two-tier result store ---------------------===//
//
// Part of sharpie. See Store.h.
//
//===----------------------------------------------------------------------===//

#include "serve/Store.h"

#include "resil/Resil.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

namespace {
/// Monotonic seconds for breaker cooldown arithmetic.
double monoSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
} // namespace

using namespace sharpie;
using namespace sharpie::serve;

namespace {

constexpr const char *T1Magic = "sharpie-store-t1 v1";
constexpr const char *T2Magic = "sharpie-store-t2 v4";

bool makeDir(const std::string &Path) {
  return ::mkdir(Path.c_str(), 0755) == 0 || errno == EEXIST;
}

/// Reads a whole file; empty optional when unreadable. Missing files are
/// the common case (every cold lookup), so no diagnostics here.
std::optional<std::string> slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  if (In.bad())
    return std::nullopt;
  return SS.str();
}

/// Atomic publish: write next to the target, fsync-free rename over it.
/// A crash mid-write leaves the temp file; a crash mid-rename leaves
/// either the old or the new file -- both parse or miss cleanly.
bool writeAtomic(const std::string &Path, const std::string &Data) {
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out << Data;
    Out.flush();
    if (!Out) {
      std::remove(Tmp.c_str());
      return false;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

/// One "key value" line from a header section; value may be empty.
bool headerLine(std::istringstream &In, const char *Key, std::string &Val) {
  std::string Line;
  if (!std::getline(In, Line))
    return false;
  std::string Prefix = std::string(Key) + " ";
  if (Line.rfind(Prefix, 0) != 0)
    return false;
  Val = Line.substr(Prefix.size());
  return true;
}

} // namespace

ResultStore::ResultStore(std::string Dir_) : Dir(std::move(Dir_)) {
  if (Dir.empty())
    return;
  // Best-effort: if directory creation fails every write fails loudly
  // (store() returns false) while lookups just miss.
  makeDir(Dir);
  makeDir(Dir + "/t1");
  makeDir(Dir + "/t2");
}

std::string ResultStore::t1Path(const front::CanonicalHash &H) const {
  return Dir + "/t1/" + H.hex() + ".entry";
}

std::optional<ResultStore::T1Entry>
ResultStore::lookup(const front::CanonicalHash &H) {
  if (!enabled())
    return std::nullopt;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (breakerBlockedLocked()) {
      ++S.Bypassed;
      return std::nullopt;
    }
  }
  bool Injected = Hook && Hook("store_read");
  std::optional<std::string> Data =
      Injected ? std::nullopt : slurp(t1Path(H));
  std::lock_guard<std::mutex> Lock(Mu);
  if (Injected) {
    ++S.T1Corrupt;
    noteCorruptLocked();
    return std::nullopt;
  }
  if (!Data) {
    noteOkLocked();
    return std::nullopt;
  }
  auto Corrupt = [&]() -> std::optional<T1Entry> {
    ++S.T1Corrupt;
    noteCorruptLocked();
    // Self-heal: the file can never parse again, so keep it from taxing
    // every future lookup of this hash. The slot becomes a clean miss
    // and the next solve rewrites it.
    if (std::remove(t1Path(H).c_str()) == 0)
      ++S.T1Healed;
    return std::nullopt;
  };
  std::istringstream In(*Data);
  std::string Line, Val;
  if (!std::getline(In, Line) || Line != T1Magic)
    return Corrupt();
  T1Entry E;
  if (!headerLine(In, "hash", Val) || Val != H.hex())
    return Corrupt(); // Renamed or cross-linked entry file.
  if (!headerLine(In, "protocol", E.Protocol))
    return Corrupt();
  if (!headerLine(In, "exit", Val))
    return Corrupt();
  char *End = nullptr;
  long Exit = std::strtol(Val.c_str(), &End, 10);
  // The store only ever holds settled verdicts; anything else in the
  // exit field is corruption, not a new feature.
  if (End == Val.c_str() || *End != 0 || (Exit != 0 && Exit != 1))
    return Corrupt();
  E.Exit = static_cast<int>(Exit);
  if (!headerLine(In, "synth_seconds", Val))
    return Corrupt();
  errno = 0;
  E.SynthSeconds = std::strtod(Val.c_str(), &End);
  if (End == Val.c_str() || *End != 0 || errno != 0)
    return Corrupt();
  if (!headerLine(In, "stats", E.StatsJson))
    return Corrupt();
  if (!headerLine(In, "verdict_bytes", Val))
    return Corrupt();
  unsigned long NBytes = std::strtoul(Val.c_str(), &End, 10);
  if (End == Val.c_str() || *End != 0 || NBytes > (16u << 20))
    return Corrupt();
  std::streampos Pos = In.tellg();
  if (Pos < 0 ||
      static_cast<size_t>(Pos) + NBytes + 4 /* "\nend" */ > Data->size())
    return Corrupt(); // Truncated verdict payload.
  E.Verdict = Data->substr(static_cast<size_t>(Pos), NBytes);
  std::string_view Tail(*Data);
  Tail.remove_prefix(static_cast<size_t>(Pos) + NBytes);
  if (Tail.rfind("\nend\n", 0) != 0)
    return Corrupt();
  noteOkLocked();
  return E;
}

bool ResultStore::store(const front::CanonicalHash &H, const T1Entry &E) {
  if (!enabled())
    return false;
  if (E.Exit != 0 && E.Exit != 1)
    return false; // Only settled verdicts; see Store.h.
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (breakerBlockedLocked()) {
      ++S.Bypassed;
      return false;
    }
  }
  if (Hook && Hook("store_write")) {
    std::lock_guard<std::mutex> Lock(Mu);
    noteCorruptLocked();
    return false;
  }
  std::string Out;
  Out += T1Magic;
  Out += "\nhash " + H.hex();
  Out += "\nprotocol " + E.Protocol;
  Out += "\nexit " + std::to_string(E.Exit);
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.6f", E.SynthSeconds);
  Out += std::string("\nsynth_seconds ") + Buf;
  Out += "\nstats " + E.StatsJson;
  Out += "\nverdict_bytes " + std::to_string(E.Verdict.size());
  Out += "\n" + E.Verdict;
  Out += "\nend\n";
  bool Ok = writeAtomic(t1Path(H), Out);
  std::lock_guard<std::mutex> Lock(Mu);
  if (Ok) {
    ++S.T1Writes;
    noteOkLocked();
  }
  return Ok;
}

size_t ResultStore::loadReduceCache(engine::ReduceCache &C,
                                    std::string *Note) {
  if (!enabled())
    return 0;
  std::optional<std::string> Data = slurp(Dir + "/t2/reduce.cache");
  if (!Data)
    return 0; // Cold store: nothing to merge, nothing to report.
  std::string_view Body(*Data);
  std::string Magic = std::string(T2Magic) + "\n";
  if (Body.rfind(Magic, 0) != 0) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++S.T2Corrupt;
    noteCorruptLocked();
    if (Note)
      *Note = std::string(resil::failureClassName(
                  resil::FailureClass::CorruptStore)) +
              ": tier-2 cache has wrong or missing version header";
    return 0;
  }
  Body.remove_prefix(Magic.size());
  std::string CorruptNote;
  size_t N = C.deserializeShared(Body, &CorruptNote);
  std::lock_guard<std::mutex> Lock(Mu);
  S.T2Entries = N;
  if (!CorruptNote.empty()) {
    ++S.T2Corrupt;
    noteCorruptLocked();
    if (Note)
      *Note = std::string(resil::failureClassName(
                  resil::FailureClass::CorruptStore)) +
              ": tier-2 cache: " + CorruptNote;
  }
  return N;
}

size_t ResultStore::saveReduceCache(const engine::ReduceCache &C) {
  if (!enabled())
    return 0;
  std::string Out = std::string(T2Magic) + "\n";
  size_t N = C.serializeShared(Out);
  if (N == 0)
    return 0;
  if (!writeAtomic(Dir + "/t2/reduce.cache", Out))
    return 0;
  return N;
}

StoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return S;
}

void ResultStore::setTuning(const Tuning &T) {
  std::lock_guard<std::mutex> Lock(Mu);
  Tune = T;
}

bool ResultStore::breakerBlockedLocked() {
  if (Breaker != BreakerState::Open)
    return false;
  if (monoSeconds() - TripAtSeconds < Tune.BreakerCooldownSeconds)
    return true;
  Breaker = BreakerState::HalfOpen; // Cooldown over: let probes through.
  return false;
}

void ResultStore::noteCorruptLocked() {
  if (Tune.BreakerThreshold <= 0)
    return;
  ++CorruptStreak;
  // A half-open probe that comes back corrupt re-trips immediately; a
  // closed breaker waits for the full streak.
  if (Breaker == BreakerState::HalfOpen ||
      (Breaker == BreakerState::Closed &&
       CorruptStreak >= Tune.BreakerThreshold)) {
    Breaker = BreakerState::Open;
    TripAtSeconds = monoSeconds();
    CorruptStreak = 0;
    ++S.BreakerTrips;
  }
}

void ResultStore::noteOkLocked() {
  CorruptStreak = 0;
  if (Breaker == BreakerState::HalfOpen)
    Breaker = BreakerState::Closed;
}

const char *ResultStore::breakerStateName() const {
  std::lock_guard<std::mutex> Lock(Mu);
  switch (Breaker) {
  case BreakerState::Closed:
    return "closed";
  case BreakerState::Open:
    // Report the cooldown transition without mutating state in a const
    // accessor; the next lookup/store performs the real move.
    return monoSeconds() - TripAtSeconds < Tune.BreakerCooldownSeconds
               ? "open"
               : "half_open";
  case BreakerState::HalfOpen:
    return "half_open";
  }
  return "?";
}

uint64_t ResultStore::breakerTrips() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return S.BreakerTrips;
}
