//===- bounded/Bounded.cpp - The N-thread instance of a system ----------------===//
//
// Part of sharpie. See Bounded.h.
//
// The encoder walks a term under an environment that maps every Tid
// variable in scope to a thread 0..N-1, so Tid terms denote thread
// indices: an Int constant, or an Int ite over constants when a Tid ite
// picks between threads. Array terms denote their N per-thread values.
//
//===----------------------------------------------------------------------===//

#include "bounded/Bounded.h"

#include "logic/TermOps.h"

using namespace sharpie;
using namespace sharpie::bounded;
using logic::Kind;
using logic::Sort;
using logic::Term;

namespace {
/// Thrown inside the encoder for a construct without an exact encoding.
struct Unencodable {};
} // namespace

class Instance::Encoder {
public:
  explicit Encoder(Instance &I) : I(I), M(I.M) {
    if (std::optional<Term> SV = I.Sys.sizeVar()) {
      Size.push_back(*SV);
      Size.push_back(I.Sys.post(*SV));
    }
  }

  /// \p Phi with its free Tid variables \p Free ranging over the threads.
  Term someThreads(Term Phi, const std::vector<Term> &Free) {
    std::vector<Term> Disj;
    expand(Free, 0, Phi, Disj);
    return M.mkOr(Disj);
  }

private:
  Term formula(Term T) {
    const logic::Node *Nd = T.node();
    switch (Nd->kind()) {
    case Kind::BoolConst:
    case Kind::Var:
      return T;
    case Kind::Eq: {
      Term A = Nd->kid(0), B = Nd->kid(1);
      if (A.sort() == Sort::Array) {
        std::vector<Term> VA = array(A), VB = array(B), Conj;
        for (unsigned K = 0; K < I.N; ++K)
          Conj.push_back(M.mkEq(VA[K], VB[K]));
        return M.mkAnd(Conj);
      }
      return M.mkEq(integer(A), integer(B));
    }
    case Kind::Le:
      return M.mkLe(integer(Nd->kid(0)), integer(Nd->kid(1)));
    case Kind::Lt:
      return M.mkLt(integer(Nd->kid(0)), integer(Nd->kid(1)));
    case Kind::And:
    case Kind::Or: {
      std::vector<Term> Ks;
      for (Term K : Nd->kids())
        Ks.push_back(formula(K));
      return Nd->kind() == Kind::And ? M.mkAnd(Ks) : M.mkOr(Ks);
    }
    case Kind::Not:
      return M.mkNot(formula(Nd->kid(0)));
    case Kind::Implies:
      return M.mkImplies(formula(Nd->kid(0)), formula(Nd->kid(1)));
    case Kind::Forall:
    case Kind::Exists: {
      for (Term B : Nd->binders())
        if (B.sort() != Sort::Tid)
          throw Unencodable();
      std::vector<Term> Parts;
      expand(Nd->binders(), 0, Nd->body(), Parts);
      return Nd->kind() == Kind::Forall ? M.mkAnd(Parts) : M.mkOr(Parts);
    }
    default:
      throw Unencodable();
    }
  }

  /// The body's instances over every assignment of \p Bs[Pos..].
  void expand(const std::vector<Term> &Bs, size_t Pos, Term Body,
              std::vector<Term> &Out) {
    if (Pos == Bs.size()) {
      Out.push_back(formula(Body));
      return;
    }
    auto Saved = Env.find(Bs[Pos]) != Env.end()
                     ? std::optional<int64_t>(Env[Bs[Pos]])
                     : std::nullopt;
    for (int64_t T = 0; T < static_cast<int64_t>(I.N); ++T) {
      Env[Bs[Pos]] = T;
      expand(Bs, Pos + 1, Body, Out);
    }
    if (Saved)
      Env[Bs[Pos]] = *Saved;
    else
      Env.erase(Bs[Pos]);
  }

  /// An Int term, or the thread index a Tid term denotes.
  Term integer(Term T) {
    const logic::Node *Nd = T.node();
    switch (Nd->kind()) {
    case Kind::Var: {
      if (T.sort() == Sort::Tid) {
        auto It = Env.find(T);
        if (It == Env.end())
          throw Unencodable(); // Every Tid variable is bound or disjoined.
        return M.mkInt(It->second);
      }
      for (Term S : Size)
        if (S == T)
          return M.mkInt(I.N);
      return T;
    }
    case Kind::IntConst:
      return T;
    case Kind::Add: {
      std::vector<Term> Ks;
      for (Term K : Nd->kids())
        Ks.push_back(integer(K));
      return M.mkAdd(Ks);
    }
    case Kind::Sub:
      return M.mkSub(integer(Nd->kid(0)), integer(Nd->kid(1)));
    case Kind::Neg:
      return M.mkNeg(integer(Nd->kid(0)));
    case Kind::Mul:
      return M.mkMul(integer(Nd->kid(0)), integer(Nd->kid(1)));
    case Kind::Ite:
      return M.mkIte(formula(Nd->kid(0)), integer(Nd->kid(1)),
                     integer(Nd->kid(2)));
    case Kind::Read:
      return at(array(Nd->kid(0)), integer(Nd->kid(1)));
    case Kind::Card: {
      Term B = Nd->binders()[0];
      std::vector<Term> Ones;
      std::vector<Term> Parts;
      expand({B}, 0, Nd->body(), Parts);
      for (Term P : Parts)
        Ones.push_back(M.mkIte(P, M.mkInt(1), M.mkInt(0)));
      return M.mkAdd(Ones);
    }
    default:
      throw Unencodable();
    }
  }

  /// The N per-thread values of an array term.
  std::vector<Term> array(Term T) {
    const logic::Node *Nd = T.node();
    switch (Nd->kind()) {
    case Kind::Var: {
      std::vector<Term> Out;
      for (unsigned K = 0; K < I.N; ++K)
        Out.push_back(I.threadVar(T, K));
      return Out;
    }
    case Kind::Store: {
      std::vector<Term> Out = array(Nd->kid(0));
      Term Idx = integer(Nd->kid(1)), Val = integer(Nd->kid(2));
      for (unsigned K = 0; K < I.N; ++K)
        Out[K] = M.mkIte(M.mkEq(Idx, M.mkInt(K)), Val, Out[K]);
      return Out;
    }
    case Kind::Ite: {
      Term C = formula(Nd->kid(0));
      std::vector<Term> A = array(Nd->kid(1)), B = array(Nd->kid(2));
      for (unsigned K = 0; K < I.N; ++K)
        A[K] = M.mkIte(C, A[K], B[K]);
      return A;
    }
    default:
      throw Unencodable();
    }
  }

  /// Element \p Idx (a thread index term) of \p Vals.
  Term at(const std::vector<Term> &Vals, Term Idx) {
    if (Idx.kind() == Kind::IntConst)
      return Vals[static_cast<size_t>(Idx->value())];
    Term Out = Vals.back();
    for (size_t K = Vals.size() - 1; K-- > 0;)
      Out = M.mkIte(M.mkEq(Idx, M.mkInt(static_cast<int64_t>(K))), Vals[K],
                    Out);
    return Out;
  }

  Instance &I;
  logic::TermManager &M;
  std::vector<Term> Size; ///< The size variable and its post twin.
  std::map<Term, int64_t> Env;
};

Instance::Instance(const sys::ParamSystem &Sys, unsigned N)
    : Sys(Sys), M(Sys.manager()), N(N) {}

Term Instance::encode(Term Phi) {
  std::vector<Term> Free;
  for (Term V : logic::freeVars(Phi))
    if (V.sort() == Sort::Tid)
      Free.push_back(V);
  try {
    return Encoder(*this).someThreads(Phi, Free);
  } catch (const Unencodable &) {
    return Term();
  }
}

Term Instance::threadVar(Term Local, unsigned Thread) {
  std::vector<Term> &Vs = ThreadVars[Local];
  while (Vs.size() < N)
    Vs.push_back(M.mkVar(Local->name() + "@" + std::to_string(Vs.size()),
                         Sort::Int));
  return Vs[Thread];
}

std::string Instance::renderState(smt::SmtModel &Model) {
  auto Value = [&](Term V) {
    std::optional<int64_t> X = Model.evalInt(V);
    return X ? std::to_string(*X) : std::string("?");
  };
  std::string Out;
  std::optional<Term> SV = Sys.sizeVar();
  for (Term G : Sys.globals())
    Out += (Out.empty() ? "" : " ") + G->name() + "=" +
           (SV && *SV == G ? std::to_string(N) : Value(G));
  for (unsigned K = 0; K < N; ++K) {
    Out += (Out.empty() ? "" : " | ") + std::string("t") + std::to_string(K) +
           ":";
    for (Term L : Sys.locals())
      Out += " " + L->name() + "=" + Value(threadVar(L, K));
  }
  return Out;
}
