//===- logic/TermIO.cpp - Textual term serialization --------------------------===//
//
// Part of sharpie. See TermIO.h.
//
//===----------------------------------------------------------------------===//

#include "logic/TermIO.h"

#include "logic/TermOps.h"

#include <cctype>
#include <cstdlib>

using namespace sharpie;
using namespace sharpie::logic;

namespace {

char sortCode(Sort S) {
  switch (S) {
  case Sort::Bool:
    return 'b';
  case Sort::Int:
    return 'i';
  case Sort::Tid:
    return 't';
  case Sort::Array:
    return 'a';
  }
  return '?';
}

bool sortFromCode(std::string_view Code, Sort &S) {
  if (Code.size() != 1)
    return false;
  switch (Code[0]) {
  case 'b':
    S = Sort::Bool;
    return true;
  case 'i':
    S = Sort::Int;
    return true;
  case 't':
    S = Sort::Tid;
    return true;
  case 'a':
    S = Sort::Array;
    return true;
  }
  return false;
}

void quoteInto(std::string &Out, const std::string &Name) {
  Out += '"';
  for (char C : Name) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  Out += '"';
}

void writeTerm(std::string &Out, Term T) {
  if (T.isNull()) {
    Out += "()";
    return;
  }
  switch (T.kind()) {
  case Kind::Var:
    Out += "(v ";
    Out += sortCode(T.sort());
    Out += ' ';
    quoteInto(Out, T->name());
    Out += ')';
    return;
  case Kind::IntConst:
    Out += std::to_string(T->value());
    return;
  case Kind::BoolConst:
    Out += T->value() ? "#t" : "#f";
    return;
  default:
    break;
  }
  const char *Op = nullptr;
  switch (T.kind()) {
  case Kind::Add:
    Op = "+";
    break;
  case Kind::Sub:
    Op = "-";
    break;
  case Kind::Neg:
    Op = "~";
    break;
  case Kind::Mul:
    Op = "*";
    break;
  case Kind::Ite:
    Op = "ite";
    break;
  case Kind::Read:
    Op = "rd";
    break;
  case Kind::Store:
    Op = "st";
    break;
  case Kind::Eq:
    Op = "=";
    break;
  case Kind::Le:
    Op = "<=";
    break;
  case Kind::Lt:
    Op = "<";
    break;
  case Kind::And:
    Op = "and";
    break;
  case Kind::Or:
    Op = "or";
    break;
  case Kind::Not:
    Op = "not";
    break;
  case Kind::Implies:
    Op = "=>";
    break;
  case Kind::Forall:
    Op = "forall";
    break;
  case Kind::Exists:
    Op = "exists";
    break;
  case Kind::Card:
    Op = "card";
    break;
  default:
    Op = "?";
    break;
  }
  Out += '(';
  Out += Op;
  if (T.kind() == Kind::Forall || T.kind() == Kind::Exists) {
    Out += " (";
    bool First = true;
    for (Term B : T->binders()) {
      if (!First)
        Out += ' ';
      First = false;
      writeTerm(Out, B);
    }
    Out += ')';
    Out += ' ';
    writeTerm(Out, T->body());
  } else if (T.kind() == Kind::Card) {
    Out += ' ';
    writeTerm(Out, T->binders()[0]);
    Out += ' ';
    writeTerm(Out, T->body());
  } else {
    for (Term K : T->kids()) {
      Out += ' ';
      writeTerm(Out, K);
    }
  }
  Out += ')';
}

// -- Parser -------------------------------------------------------------------

/// Recursive-descent reader over the s-expression text. All sort checking
/// happens here, before any TermManager builder runs: the builders assert
/// their preconditions, and asserts are compiled out of release builds,
/// so a corrupt cache file must be rejected at this layer.
struct Reader {
  TermManager &M;
  std::string_view In;
  size_t Pos = 0;
  std::string Err;
  /// Bounded so crafted input cannot blow the stack. Real terms are
  /// shallow: a tier-2 store written by the nine example files and eight
  /// built-ins (ticket, one-third, barriers among them) nests at most 10
  /// deep. An ASan build's parse frames overflow an 8 MB stack between
  /// 1500 and 2000 levels, so 256 keeps a 25x margin over real terms and
  /// stays well clear of the sanitized stack.
  static constexpr unsigned MaxDepth = 256;

  explicit Reader(TermManager &M, std::string_view In) : M(M), In(In) {}

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < In.size() && std::isspace(static_cast<unsigned char>(In[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipWs();
    return Pos >= In.size();
  }

  bool expect(char C) {
    skipWs();
    if (Pos >= In.size() || In[Pos] != C)
      return fail(std::string("expected '") + C + "'");
    ++Pos;
    return true;
  }

  bool peekIs(char C) {
    skipWs();
    return Pos < In.size() && In[Pos] == C;
  }

  /// Reads a bare symbol token (operator name, sort code, #t/#f, number).
  std::string symbol() {
    skipWs();
    size_t Start = Pos;
    while (Pos < In.size()) {
      char C = In[Pos];
      if (C == '(' || C == ')' || C == '"' ||
          std::isspace(static_cast<unsigned char>(C)))
        break;
      ++Pos;
    }
    return std::string(In.substr(Start, Pos - Start));
  }

  bool quotedString(std::string &Out) {
    skipWs();
    if (Pos >= In.size() || In[Pos] != '"')
      return fail("expected quoted name");
    ++Pos;
    Out.clear();
    while (Pos < In.size() && In[Pos] != '"') {
      char C = In[Pos++];
      if (C == '\\') {
        if (Pos >= In.size())
          return fail("truncated escape");
        C = In[Pos++];
      }
      Out += C;
    }
    if (Pos >= In.size())
      return fail("unterminated quoted name");
    ++Pos; // Closing quote.
    return true;
  }

  /// Parses a variable form "(v <sort> \"name\")", validating the sort
  /// against the destination manager's live binding for that name.
  Term parseVar() {
    // Caller consumed "(v".
    std::string Code = symbol();
    Sort S;
    if (!sortFromCode(Code, S)) {
      fail("bad sort code '" + Code + "'");
      return Term();
    }
    std::string Name;
    if (!quotedString(Name))
      return Term();
    if (Name.empty()) {
      fail("empty variable name");
      return Term();
    }
    if (!expect(')'))
      return Term();
    if (Term Live = M.findVar(Name); Live && Live.sort() != S) {
      fail("variable '" + Name + "' re-declared at another sort");
      return Term();
    }
    return M.mkVar(Name, S);
  }

  Term parse(unsigned Depth) {
    if (Depth > MaxDepth) {
      fail("nesting too deep");
      return Term();
    }
    skipWs();
    if (Pos >= In.size()) {
      fail("unexpected end of input");
      return Term();
    }
    char C = In[Pos];
    if (C != '(') {
      std::string Tok = symbol();
      if (Tok == "#t")
        return M.mkBool(true);
      if (Tok == "#f")
        return M.mkBool(false);
      if (!Tok.empty() &&
          (Tok[0] == '-' ? Tok.size() > 1 : true) &&
          Tok.find_first_not_of("-0123456789") == std::string::npos) {
        errno = 0;
        char *End = nullptr;
        long long V = std::strtoll(Tok.c_str(), &End, 10);
        if (errno != 0 || !End || *End != '\0') {
          fail("bad integer literal '" + Tok + "'");
          return Term();
        }
        return M.mkInt(V);
      }
      fail("unexpected token '" + Tok + "'");
      return Term();
    }
    ++Pos; // '('
    if (peekIs(')')) { // "()" is the null term.
      ++Pos;
      return Term();
    }
    std::string Op = symbol();
    if (Op == "v")
      return parseVar();
    if (Op == "forall" || Op == "exists")
      return parseBinder(Op == "forall", Depth);
    if (Op == "card")
      return parseCard(Depth);

    std::vector<Term> Kids;
    while (!peekIs(')')) {
      if (Pos >= In.size() && atEnd()) {
        fail("unterminated list");
        return Term();
      }
      Term K = parse(Depth + 1);
      if (!Err.empty())
        return Term();
      if (K.isNull()) {
        fail("null operand");
        return Term();
      }
      Kids.push_back(K);
    }
    ++Pos; // ')'
    return apply(Op, Kids);
  }

  bool allSort(const std::vector<Term> &Ts, Sort S) {
    for (Term T : Ts)
      if (T.sort() != S)
        return false;
    return true;
  }

  Term apply(const std::string &Op, std::vector<Term> Kids) {
    auto Arity = [&](size_t N) {
      if (Kids.size() == N)
        return true;
      fail("operator '" + Op + "' expects " + std::to_string(N) +
           " operands, got " + std::to_string(Kids.size()));
      return false;
    };
    auto IntSorted = [&](size_t From = 0) {
      for (size_t I = From; I < Kids.size(); ++I)
        if (Kids[I].sort() != Sort::Int) {
          fail("operator '" + Op + "' expects Int operands");
          return false;
        }
      return true;
    };
    auto BoolSorted = [&]() {
      if (allSort(Kids, Sort::Bool))
        return true;
      fail("operator '" + Op + "' expects Bool operands");
      return false;
    };
    if (Op == "+")
      return !Kids.empty() && IntSorted() ? M.mkAdd(std::move(Kids)) : Term();
    if (Op == "-")
      return Arity(2) && IntSorted() ? M.mkSub(Kids[0], Kids[1]) : Term();
    if (Op == "~")
      return Arity(1) && IntSorted() ? M.mkNeg(Kids[0]) : Term();
    if (Op == "*") {
      if (!Arity(2) || !IntSorted())
        return Term();
      // mkMul requires at least one constant side.
      if (Kids[0].kind() != Kind::IntConst && Kids[1].kind() != Kind::IntConst) {
        fail("nonlinear multiplication");
        return Term();
      }
      return M.mkMul(Kids[0], Kids[1]);
    }
    if (Op == "ite") {
      if (!Arity(3))
        return Term();
      if (Kids[0].sort() != Sort::Bool || Kids[1].sort() != Kids[2].sort()) {
        fail("ite sorts");
        return Term();
      }
      return M.mkIte(Kids[0], Kids[1], Kids[2]);
    }
    if (Op == "rd") {
      if (!Arity(2))
        return Term();
      if (Kids[0].sort() != Sort::Array || Kids[1].sort() != Sort::Tid) {
        fail("read sorts");
        return Term();
      }
      return M.mkRead(Kids[0], Kids[1]);
    }
    if (Op == "st") {
      if (!Arity(3))
        return Term();
      if (Kids[0].sort() != Sort::Array || Kids[1].sort() != Sort::Tid ||
          Kids[2].sort() != Sort::Int) {
        fail("store sorts");
        return Term();
      }
      return M.mkStore(Kids[0], Kids[1], Kids[2]);
    }
    if (Op == "=") {
      if (!Arity(2))
        return Term();
      if (Kids[0].sort() != Kids[1].sort()) {
        fail("eq sorts differ");
        return Term();
      }
      return M.mkEq(Kids[0], Kids[1]);
    }
    if (Op == "<=")
      return Arity(2) && IntSorted() ? M.mkLe(Kids[0], Kids[1]) : Term();
    if (Op == "<")
      return Arity(2) && IntSorted() ? M.mkLt(Kids[0], Kids[1]) : Term();
    if (Op == "and")
      return BoolSorted() ? M.mkAnd(std::move(Kids)) : Term();
    if (Op == "or")
      return BoolSorted() ? M.mkOr(std::move(Kids)) : Term();
    if (Op == "not")
      return Arity(1) && BoolSorted() ? M.mkNot(Kids[0]) : Term();
    if (Op == "=>")
      return Arity(2) && BoolSorted() ? M.mkImplies(Kids[0], Kids[1]) : Term();
    fail("unknown operator '" + Op + "'");
    return Term();
  }

  Term parseBinder(bool IsForall, unsigned Depth) {
    if (!expect('('))
      return Term();
    std::vector<Term> Vars;
    while (!peekIs(')')) {
      if (atEnd()) {
        fail("unterminated binder list");
        return Term();
      }
      Term V = parse(Depth + 1);
      if (!Err.empty())
        return Term();
      if (V.isNull() || V.kind() != Kind::Var ||
          (V.sort() != Sort::Tid && V.sort() != Sort::Int)) {
        fail("binder must be a Tid/Int variable");
        return Term();
      }
      Vars.push_back(V);
    }
    ++Pos; // ')'
    if (Vars.empty()) {
      fail("empty binder list");
      return Term();
    }
    Term Body = parse(Depth + 1);
    if (!Err.empty())
      return Term();
    if (Body.isNull() || Body.sort() != Sort::Bool) {
      fail("binder body must be Bool");
      return Term();
    }
    if (!expect(')'))
      return Term();
    return IsForall ? M.mkForall(std::move(Vars), Body)
                    : M.mkExists(std::move(Vars), Body);
  }

  Term parseCard(unsigned Depth) {
    Term V = parse(Depth + 1);
    if (!Err.empty())
      return Term();
    if (V.isNull() || V.kind() != Kind::Var || V.sort() != Sort::Tid) {
      fail("card binder must be a Tid variable");
      return Term();
    }
    Term Body = parse(Depth + 1);
    if (!Err.empty())
      return Term();
    if (Body.isNull() || Body.sort() != Sort::Bool ||
        containsKind(Body, Kind::Store)) {
      fail("card body must be a Store-free Bool");
      return Term();
    }
    if (!expect(')'))
      return Term();
    return M.mkCard(V, Body);
  }
};

} // namespace

std::string sharpie::logic::serializeTerm(Term T) {
  std::string Out;
  writeTerm(Out, T);
  return Out;
}

Term sharpie::logic::deserializeTerm(TermManager &M, std::string_view Text,
                                     std::string *Err) {
  Reader R(M, Text);
  if (R.atEnd()) {
    if (Err)
      *Err = "empty input";
    return Term();
  }
  // "()" at top level is the serialized null term.
  if (Text.size() >= 2) {
    Reader Probe(M, Text);
    if (Probe.peekIs('(')) {
      ++Probe.Pos;
      if (Probe.peekIs(')')) {
        ++Probe.Pos;
        if (Probe.atEnd())
          return Term();
      }
    }
  }
  Term T = R.parse(0);
  if (!R.Err.empty() || T.isNull()) {
    if (Err)
      *Err = R.Err.empty() ? "null term" : R.Err;
    return Term();
  }
  if (!R.atEnd()) {
    if (Err)
      *Err = "trailing input after term";
    return Term();
  }
  return T;
}
