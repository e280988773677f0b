//===- explicit/Explicit.cpp - Explicit-state model checker ------------------===//
//
// Part of sharpie. See Explicit.h.
//
//===----------------------------------------------------------------------===//

#include "explicit/Explicit.h"

#include <deque>
#include <map>

using namespace sharpie;
using namespace sharpie::explct;
using logic::Evaluator;
using logic::FiniteModel;
using logic::Term;
using sys::ParamSystem;
using sys::Transition;

namespace {

/// Canonical fingerprint of a state for the visited set.
std::vector<int64_t> fingerprint(const ParamSystem &Sys,
                                 const FiniteModel &S) {
  std::vector<int64_t> Key;
  for (Term G : Sys.globals()) {
    auto It = S.Scalars.find(G);
    Key.push_back(It != S.Scalars.end() ? It->second : 0);
  }
  for (Term L : Sys.locals()) {
    auto It = S.Arrays.find(L);
    if (It == S.Arrays.end()) {
      Key.insert(Key.end(), static_cast<size_t>(S.DomainSize), 0);
      continue;
    }
    std::vector<int64_t> A = It->second;
    A.resize(static_cast<size_t>(S.DomainSize), 0);
    Key.insert(Key.end(), A.begin(), A.end());
  }
  return Key;
}

/// Generic successor generation from the system's own transitions: the
/// asynchronous interpretation of guarded commands (one mover per step),
/// or, for a sync system, whole rounds.
class Stepper {
public:
  Stepper(const ParamSystem &Sys, int64_t IntBound)
      : Sys(Sys), IntBound(IntBound) {}

  std::vector<std::pair<std::string, FiniteModel>>
  successors(const FiniteModel &S) {
    std::vector<std::pair<std::string, FiniteModel>> Out;
    for (const Transition &T : Sys.transitions()) {
      if (Sys.mode() == sys::Composition::Sync) {
        forEachChoice(T, S.DomainSize, 0, [&] { round(S, T, Out); });
        continue;
      }
      for (int64_t Mover = 0; Mover < S.DomainSize; ++Mover)
        forEachChoice(T, S.DomainSize, 0, [&] { step(S, T, Mover, Out); });
    }
    return Out;
  }

private:
  /// Calls \p Visit once per valuation of \p T's choice variables (held
  /// in ChoiceVals), the first choice varying slowest: Int choices over
  /// [Sys.ChoiceLo, Sys.ChoiceHi], Tid choices over the threads.
  template <typename Fn>
  void forEachChoice(const Transition &T, int64_t DomainSize, size_t Idx,
                     Fn &&Visit) {
    if (Idx == T.Choices.size() + T.TidChoices.size()) {
      Visit();
      return;
    }
    bool IsInt = Idx < T.Choices.size();
    Term C = IsInt ? T.Choices[Idx] : T.TidChoices[Idx - T.Choices.size()];
    int64_t Lo = IsInt ? Sys.ChoiceLo : 0;
    int64_t Hi = IsInt ? Sys.ChoiceHi : DomainSize - 1;
    for (int64_t V = Lo; V <= Hi; ++V) {
      ChoiceVals[C] = V;
      forEachChoice(T, DomainSize, Idx + 1, Visit);
    }
    ChoiceVals.erase(C);
  }

  /// \p S with the acting thread \p Self and the current choices bound.
  FiniteModel env(const FiniteModel &S, int64_t Self) const {
    FiniteModel Env = S;
    Env.IntBound = IntBound;
    Env.Scalars[Sys.self()] = Self;
    for (const auto &[C, V] : ChoiceVals)
      Env.Scalars[C] = V;
    return Env;
  }

  void step(const FiniteModel &S, const Transition &T, int64_t Mover,
            std::vector<std::pair<std::string, FiniteModel>> &Out) {
    FiniteModel Env = env(S, Mover);
    Evaluator Ev(Env);
    if (!Ev.evalBool(T.Guard))
      return;
    FiniteModel Next = S;
    for (Term G : Sys.globals()) {
      auto It = T.GlobalUpd.find(G);
      if (It != T.GlobalUpd.end())
        Next.Scalars[G] = Ev.evalInt(It->second);
    }
    for (Term L : Sys.locals()) {
      auto It = T.LocalUpd.find(L);
      if (It == T.LocalUpd.end())
        continue;
      std::vector<int64_t> &A = Next.Arrays[L];
      A.resize(static_cast<size_t>(S.DomainSize), 0);
      A[static_cast<size_t>(Mover)] = Ev.evalInt(It->second);
    }
    for (const Transition::ArrayWrite &W : T.Writes) {
      int64_t Idx = Ev.evalInt(W.Idx);
      assert(Idx >= 0 && Idx < S.DomainSize && "array write out of domain");
      std::vector<int64_t> &A = Next.Arrays[W.Arr];
      A.resize(static_cast<size_t>(S.DomainSize), 0);
      A[static_cast<size_t>(Idx)] = Ev.evalInt(W.Val);
    }
    Out.push_back({T.Name, std::move(Next)});
  }

  /// The rounds of \p T from \p S. The globals take their updates on the
  /// pre-state. Each thread's post-state locals range over [-IntBound,
  /// IntBound]; the values for which the relation holds at that thread
  /// (the other threads' post locals read 0) are its candidates. Every
  /// combination of candidates that satisfies the whole relation at
  /// every thread is a successor. Since x'[e] may index any thread, the
  /// per-thread filter can miss a round, which only shrinks the explored
  /// prefix; it can never admit a round the relation forbids.
  void round(const FiniteModel &S, const Transition &T,
             std::vector<std::pair<std::string, FiniteModel>> &Out) {
    FiniteModel Post = env(S, 0);
    FiniteModel Next = S;
    {
      Evaluator Ev(Post);
      for (const auto &[G, U] : T.GlobalUpd)
        Next.Scalars[G] = Ev.evalInt(U);
    }
    for (Term G : Sys.globals())
      Post.Scalars[Sys.post(G)] = Next.Scalars[G];
    const std::vector<Term> &Locals = Sys.locals();
    size_t N = static_cast<size_t>(S.DomainSize);
    for (Term L : Locals)
      Post.Arrays[Sys.post(L)].assign(N, 0);
    auto Set = [&](size_t Tid, const std::vector<int64_t> &Vals) {
      for (size_t J = 0; J < Locals.size(); ++J)
        Post.Arrays[Sys.post(Locals[J])][Tid] = Vals[J];
    };
    auto HoldsAt = [&](size_t Tid) {
      Post.Scalars[Sys.self()] = static_cast<int64_t>(Tid);
      return Evaluator(Post).evalBool(T.SyncRelation);
    };

    std::vector<std::vector<std::vector<int64_t>>> Cands(N);
    for (size_t Tid = 0; Tid < N; ++Tid) {
      std::vector<int64_t> Vals(Locals.size(), -IntBound);
      for (;;) {
        Set(Tid, Vals);
        if (HoldsAt(Tid))
          Cands[Tid].push_back(Vals);
        size_t J = 0;
        while (J < Vals.size() && ++Vals[J] > IntBound)
          Vals[J++] = -IntBound;
        if (J == Vals.size())
          break;
      }
      Set(Tid, std::vector<int64_t>(Locals.size(), 0));
      if (Cands[Tid].empty())
        return;
    }

    std::vector<size_t> Pick(N, 0);
    for (;;) {
      for (size_t Tid = 0; Tid < N; ++Tid)
        Set(Tid, Cands[Tid][Pick[Tid]]);
      bool Holds = true;
      for (size_t Tid = 0; Tid < N && Holds; ++Tid)
        Holds = HoldsAt(Tid);
      if (Holds) {
        FiniteModel Succ = Next;
        for (Term L : Locals)
          Succ.Arrays[L] = Post.Arrays[Sys.post(L)];
        Out.push_back({T.Name, std::move(Succ)});
      }
      size_t I = 0;
      while (I < N && ++Pick[I] == Cands[I].size())
        Pick[I++] = 0;
      if (I == N)
        break;
    }
  }

  const ParamSystem &Sys;
  int64_t IntBound;
  std::map<Term, int64_t> ChoiceVals;
};

} // namespace

ExplicitResult sharpie::explct::explore(const ParamSystem &Sys,
                                        const ExplicitOptions &Opts,
                                        obs::TraceBuffer *Trace) {
  obs::Span Sp(Trace, "explicit", [&] {
    return "N=" + std::to_string(Opts.NumThreads);
  });
  ExplicitResult Res;

  std::vector<FiniteModel> Initials;
  if (Sys.CustomInit) {
    Initials = Sys.CustomInit(Opts.NumThreads);
  } else {
    FiniteModel S;
    S.DomainSize = Opts.NumThreads;
    for (Term G : Sys.globals())
      S.Scalars[G] = 0;
    for (Term L : Sys.locals())
      S.Arrays[L] =
          std::vector<int64_t>(static_cast<size_t>(Opts.NumThreads), 0);
    Initials.push_back(std::move(S));
  }
  for (FiniteModel &S : Initials) {
    S.DomainSize = Opts.NumThreads;
    S.IntBound = Opts.IntBound;
    if (Sys.sizeVar())
      S.Scalars[*Sys.sizeVar()] = Opts.NumThreads;
#ifndef NDEBUG
    Evaluator Ev(S);
    assert(Ev.evalBool(Sys.init()) && "initial state violates init()");
#endif
  }

  Stepper Generic(Sys, Opts.IntBound);
  std::map<std::vector<int64_t>, size_t> Visited;
  struct Node {
    FiniteModel S;
    size_t Parent;
    std::string Via;
  };
  std::vector<Node> Nodes;
  std::deque<size_t> Queue;

  auto Enqueue = [&](FiniteModel S, size_t Parent, const std::string &Via) {
    auto Key = fingerprint(Sys, S);
    if (Visited.count(Key))
      return;
    Visited.emplace(std::move(Key), Nodes.size());
    Nodes.push_back({std::move(S), Parent, Via});
    Queue.push_back(Nodes.size() - 1);
  };

  for (FiniteModel &S : Initials)
    Enqueue(std::move(S), SIZE_MAX, "");

  Res.Exhausted = true;
  while (!Queue.empty()) {
    if (Nodes.size() > Opts.MaxStates) {
      Res.Exhausted = false;
      break;
    }
    size_t Cur = Queue.front();
    Queue.pop_front();
    // Safety check.
    {
      Evaluator Ev(Nodes[Cur].S);
      if (!Ev.evalBool(Sys.safe())) {
        Res.Safe = false;
        Counterexample Cex;
        Cex.BadState = Nodes[Cur].S;
        for (size_t I = Cur; I != SIZE_MAX && !Nodes[I].Via.empty();
             I = Nodes[I].Parent)
          Cex.TransitionNames.push_back(Nodes[I].Via);
        std::reverse(Cex.TransitionNames.begin(), Cex.TransitionNames.end());
        Res.Cex = std::move(Cex);
        Res.Exhausted = false;
        break;
      }
    }
    std::vector<std::pair<std::string, FiniteModel>> Succs;
    if (Sys.CustomStepper) {
      for (FiniteModel &S : Sys.CustomStepper(Nodes[Cur].S))
        Succs.push_back({"round", std::move(S)});
    } else {
      Succs = Generic.successors(Nodes[Cur].S);
    }
    for (auto &[Via, S] : Succs) {
      S.DomainSize = Opts.NumThreads;
      S.IntBound = Opts.IntBound;
      Enqueue(std::move(S), Cur, Via);
    }
  }

  Res.NumStates = static_cast<unsigned>(Nodes.size());
  Res.States.reserve(Nodes.size());
  for (Node &N : Nodes)
    Res.States.push_back(std::move(N.S));
  if (Trace) {
    Trace->counter("explicit_states", Res.NumStates);
    if (Res.Cex)
      Trace->instant("explicit_cex",
                     Res.Cex->TransitionNames.empty()
                         ? std::string("initial state")
                         : Res.Cex->TransitionNames.back(),
                     static_cast<int64_t>(Res.Cex->TransitionNames.size()));
    SHARPIE_LOGF(Trace, obs::LogLevel::Info,
                 "[explicit] %u states in %.2fs, exhausted=%d, safe=%d",
                 Res.NumStates, Sp.seconds(), Res.Exhausted ? 1 : 0,
                 Res.Safe ? 1 : 0);
  }
  return Res;
}

bool sharpie::explct::holdsInAll(
    const std::vector<ParamSystem::State> &States, Term Phi) {
  for (const ParamSystem::State &S : States) {
    Evaluator Ev(S);
    if (!Ev.evalBool(Phi))
      return false;
  }
  return true;
}
