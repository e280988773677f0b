//===- smt/Z3Solver.cpp - Z3 back end ---------------------------------------===//
//
// Part of sharpie. Translates logic::Term into Z3 expressions. Sort mapping:
// Int -> Int, Tid -> Int (thread identifiers are opaque indices; mapping to
// Int only widens the model class and is sound for validity checking),
// Array -> (Array Int Int).
//
//===----------------------------------------------------------------------===//

#include "smt/SmtSolver.h"

#include "logic/TermOps.h"

#include <map>
#include <unordered_map>
#include <z3++.h>

using namespace sharpie;
using namespace sharpie::smt;
using logic::Kind;
using logic::Sort;
using logic::Term;

const char *sharpie::smt::satResultName(SatResult R) {
  switch (R) {
  case SatResult::Sat:
    return "sat";
  case SatResult::Unsat:
    return "unsat";
  case SatResult::Unknown:
    return "unknown";
  }
  return "?";
}

SmtModel::~SmtModel() = default;
SmtSolver::~SmtSolver() = default;

// Default emulation for back ends without a native check-sat-assuming: the
// assumptions ride on a throwaway frame. The frame is popped before
// returning -- model() stays valid on back ends whose models are decoupled
// from the assertion stack (MiniSolver), and back ends where it is not
// (Z3) override this with the native call anyway. The core defaults to the
// full assumption list via unsatCore()'s base implementation.
SatResult SmtSolver::checkAssuming(const std::vector<logic::Term> &A) {
  LastAssumptions = A;
  push();
  for (logic::Term T : A)
    add(T);
  SatResult R = check(); // Counts toward NumChecks via the inner call.
  pop();
  return R;
}

class sharpie::smt::Z3Context {
public:
  z3::context C;
};

std::shared_ptr<Z3Context> sharpie::smt::makeZ3Context(obs::TraceBuffer *TB) {
  if (TB)
    TB->counter("smt_contexts", 1);
  return std::make_shared<Z3Context>();
}

namespace {

/// Translates terms to Z3 expressions with caching. It holds its context,
/// so the solver and the models that share it keep the context alive.
class Z3Translator {
public:
  explicit Z3Translator(std::shared_ptr<Z3Context> Ctx)
      : Ctx(std::move(Ctx)), C(this->Ctx->C) {}

  z3::context &context() { return C; }

  z3::expr toZ3(Term T) {
    auto It = Cache.find(T);
    if (It != Cache.end())
      return It->second;
    z3::expr E = translate(T);
    Cache.emplace(T, E);
    return E;
  }

private:
  z3::expr translate(Term T) {
    const logic::Node *N = T.node();
    switch (N->kind()) {
    case Kind::Var:
      return mkVar(T);
    case Kind::IntConst:
      return C.int_val(static_cast<int64_t>(N->value()));
    case Kind::BoolConst:
      return C.bool_val(N->value() != 0);
    case Kind::Add: {
      z3::expr E = toZ3(N->kid(0));
      for (unsigned I = 1; I < N->numKids(); ++I)
        E = E + toZ3(N->kid(I));
      return E;
    }
    case Kind::Sub:
      return toZ3(N->kid(0)) - toZ3(N->kid(1));
    case Kind::Neg:
      return -toZ3(N->kid(0));
    case Kind::Mul:
      return toZ3(N->kid(0)) * toZ3(N->kid(1));
    case Kind::Ite:
      return z3::ite(toZ3(N->kid(0)), toZ3(N->kid(1)), toZ3(N->kid(2)));
    case Kind::Read:
      return z3::select(toZ3(N->kid(0)), toZ3(N->kid(1)));
    case Kind::Store:
      return z3::store(toZ3(N->kid(0)), toZ3(N->kid(1)), toZ3(N->kid(2)));
    case Kind::Eq:
      return toZ3(N->kid(0)) == toZ3(N->kid(1));
    case Kind::Le:
      return toZ3(N->kid(0)) <= toZ3(N->kid(1));
    case Kind::Lt:
      return toZ3(N->kid(0)) < toZ3(N->kid(1));
    case Kind::And: {
      z3::expr_vector V(C);
      for (Term K : N->kids())
        V.push_back(toZ3(K));
      return z3::mk_and(V);
    }
    case Kind::Or: {
      z3::expr_vector V(C);
      for (Term K : N->kids())
        V.push_back(toZ3(K));
      return z3::mk_or(V);
    }
    case Kind::Not:
      return !toZ3(N->kid(0));
    case Kind::Implies:
      return z3::implies(toZ3(N->kid(0)), toZ3(N->kid(1)));
    case Kind::Forall:
    case Kind::Exists: {
      z3::expr_vector Bound(C);
      for (Term B : N->binders())
        Bound.push_back(mkVar(B));
      z3::expr Body = toZ3(N->body());
      return N->kind() == Kind::Forall ? z3::forall(Bound, Body)
                                       : z3::exists(Bound, Body);
    }
    case Kind::Card:
      assert(false && "Card term reached the SMT back end; run ELIMCARD");
      return C.int_val(0);
    }
    assert(false && "unhandled kind");
    return C.int_val(0);
  }

  z3::expr mkVar(Term T) {
    const std::string &Name = T->name();
    switch (T.sort()) {
    case Sort::Bool:
      return C.bool_const(Name.c_str());
    case Sort::Int:
    case Sort::Tid:
      return C.int_const(Name.c_str());
    case Sort::Array:
      return C.constant(Name.c_str(),
                        C.array_sort(C.int_sort(), C.int_sort()));
    }
    assert(false && "unhandled sort");
    return C.int_val(0);
  }

  std::shared_ptr<Z3Context> Ctx; // Declared first: dropped after Cache.
  z3::context &C;
  std::map<Term, z3::expr> Cache;
};

class Z3Model final : public SmtModel {
public:
  Z3Model(z3::model Model, std::shared_ptr<Z3Translator> Tr)
      : Tr(std::move(Tr)), Model(std::move(Model)) {}

  std::optional<int64_t> evalInt(Term T) override {
    try {
      z3::expr E = Model.eval(Tr->toZ3(T), /*model_completion=*/true);
      if (!E.is_numeral())
        return std::nullopt;
      return E.get_numeral_int64();
    } catch (const z3::exception &) {
      return std::nullopt;
    }
  }

  std::optional<bool> evalBool(Term T) override {
    try {
      z3::expr E = Model.eval(Tr->toZ3(T), /*model_completion=*/true);
      if (E.is_true())
        return true;
      if (E.is_false())
        return false;
      return std::nullopt;
    } catch (const z3::exception &) {
      return std::nullopt;
    }
  }

private:
  std::shared_ptr<Z3Translator> Tr; // Declared first: outlives Model.
  z3::model Model;
};

class Z3SolverImpl final : public SmtSolver {
public:
  Z3SolverImpl(logic::TermManager &M, bool Simple,
               std::shared_ptr<Z3Context> Ctx)
      : M(M), Tr(std::make_shared<Z3Translator>(std::move(Ctx))),
        Solver(Simple ? z3::solver(Tr->context(), z3::solver::simple())
                      : z3::solver(Tr->context())) {
    (void)this->M;
  }

  void push() override { Solver.push(); }
  void pop() override { Solver.pop(); }

  void add(Term T) override {
    assert(T.sort() == Sort::Bool && "asserting a non-formula");
    Solver.add(Tr->toZ3(T));
  }

  SatResult check() override {
    ++NumChecks;
    LastReason.clear();
    try {
      switch (Solver.check()) {
      case z3::sat:
        return SatResult::Sat;
      case z3::unsat:
        return SatResult::Unsat;
      case z3::unknown:
        LastReason = Solver.reason_unknown();
        return SatResult::Unknown;
      }
    } catch (const z3::exception &E) {
      LastReason = std::string("z3 exception: ") + E.msg();
      return SatResult::Unknown;
    }
    return SatResult::Unknown;
  }

  SatResult checkAssuming(const std::vector<Term> &A) override {
    ++NumChecks;
    LastReason.clear();
    LastCore.clear();
    try {
      z3::expr_vector V(Tr->context());
      for (Term T : A)
        V.push_back(Tr->toZ3(T));
      z3::check_result R = Solver.check(V);
      if (R == z3::unsat) {
        // Map the core literals back to Terms by AST identity: V holds the
        // exact asts Z3 reports in the core. A repeated assumption maps to
        // its first occurrence (emplace keeps the first).
        std::unordered_map<Z3_ast, Term> ByAst;
        ByAst.reserve(A.size());
        for (unsigned I = 0; I < V.size(); ++I)
          ByAst.emplace(static_cast<Z3_ast>(V[static_cast<int>(I)]), A[I]);
        z3::expr_vector Core = Solver.unsat_core();
        for (unsigned I = 0; I < Core.size(); ++I) {
          auto It = ByAst.find(static_cast<Z3_ast>(Core[static_cast<int>(I)]));
          if (It != ByAst.end())
            LastCore.push_back(It->second);
        }
        return SatResult::Unsat;
      }
      if (R == z3::sat)
        return SatResult::Sat;
      LastReason = Solver.reason_unknown();
      return SatResult::Unknown;
    } catch (const z3::exception &E) {
      LastReason = std::string("z3 exception: ") + E.msg();
      return SatResult::Unknown;
    }
  }

  std::vector<Term> unsatCore() const override { return LastCore; }

  std::string reasonUnknown() const override { return LastReason; }

  std::unique_ptr<SmtModel> model() override {
    try {
      return std::make_unique<Z3Model>(Solver.get_model(), Tr);
    } catch (const z3::exception &) {
      return nullptr;
    }
  }

  void setTimeoutMs(unsigned Ms) override {
    z3::params P(Tr->context());
    // Z3's timeout param treats 0 as "0 ms", not "disabled"; the
    // interface contract (SmtSolver.h) says 0 disables, and MiniSolver
    // already honors that, so map 0 to Z3's no-timeout sentinel.
    P.set("timeout", Ms ? Ms : 4294967295u);
    Solver.set(P);
  }

private:
  logic::TermManager &M;
  std::shared_ptr<Z3Translator> Tr; // Declared first: outlives Solver.
  z3::solver Solver;
  std::string LastReason;
  std::vector<Term> LastCore;
};

} // namespace

std::unique_ptr<SmtSolver>
sharpie::smt::makeZ3Solver(logic::TermManager &M, bool Simple,
                           std::shared_ptr<Z3Context> Ctx) {
  return std::make_unique<Z3SolverImpl>(M, Simple,
                                        Ctx ? std::move(Ctx) : makeZ3Context());
}

Validity sharpie::smt::checkValid(SmtSolver &S, logic::TermManager &M,
                                  Term T) {
  S.push();
  S.add(M.mkNot(T));
  SatResult R = S.check();
  S.pop();
  switch (R) {
  case SatResult::Unsat:
    return Validity::Valid;
  case SatResult::Sat:
    return Validity::Invalid;
  case SatResult::Unknown:
    return Validity::Unknown;
  }
  return Validity::Unknown;
}
