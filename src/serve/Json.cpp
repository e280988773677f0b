//===- serve/Json.cpp - Minimal JSON for the wire protocol --------------------===//
//
// Part of sharpie. See Json.h.
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace sharpie;
using namespace sharpie::serve;

const Json &Json::get(const std::string &Key) const {
  static const Json Null;
  if (Ty != Type::Object)
    return Null;
  auto It = O.find(Key);
  return It == O.end() ? Null : It->second;
}

Json &Json::operator[](const std::string &Key) {
  if (Ty == Type::Null)
    Ty = Type::Object;
  return O[Key];
}

namespace {

void dumpString(const std::string &S, std::string &Out) {
  Out += '"';
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  Out += '"';
}

void dumpValue(const Json &V, std::string &Out) {
  switch (V.type()) {
  case Json::Type::Null:
    Out += "null";
    break;
  case Json::Type::Bool:
    Out += V.asBool() ? "true" : "false";
    break;
  case Json::Type::Int:
    Out += std::to_string(V.asInt());
    break;
  case Json::Type::Double: {
    double D = V.asDouble();
    if (!std::isfinite(D)) { // No NaN/Inf in JSON; degrade to null.
      Out += "null";
      break;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.9g", D);
    Out += Buf;
    break;
  }
  case Json::Type::String:
    dumpString(V.asString(), Out);
    break;
  case Json::Type::Array: {
    Out += '[';
    bool First = true;
    for (const Json &E : V.asArray()) {
      if (!First)
        Out += ',';
      First = false;
      dumpValue(E, Out);
    }
    Out += ']';
    break;
  }
  case Json::Type::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[K, E] : V.asObject()) {
      if (!First)
        Out += ',';
      First = false;
      dumpString(K, Out);
      Out += ':';
      dumpValue(E, Out);
    }
    Out += '}';
    break;
  }
  }
}

/// Recursive-descent parser. Every path that rejects input sets Err and
/// returns null; nothing throws.
struct Parser {
  std::string_view In;
  size_t Pos = 0;
  std::string Err;
  static constexpr int MaxDepth = 64;

  bool fail(const std::string &Why) {
    if (Err.empty())
      Err = Why + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < In.size() && (In[Pos] == ' ' || In[Pos] == '\t' ||
                               In[Pos] == '\n' || In[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Word) {
    if (In.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool parseString(std::string &Out) {
    if (Pos >= In.size() || In[Pos] != '"')
      return fail("expected string");
    ++Pos;
    while (Pos < In.size()) {
      char C = In[Pos++];
      if (C == '"')
        return true;
      if (C == '\\') {
        if (Pos >= In.size())
          return fail("truncated escape");
        char E = In[Pos++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (Pos + 4 > In.size())
            return fail("truncated \\u escape");
          unsigned V = 0;
          for (int I = 0; I < 4; ++I) {
            char H = In[Pos++];
            V <<= 4;
            if (H >= '0' && H <= '9')
              V |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              V |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              V |= static_cast<unsigned>(H - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs land as two
          // replacement-ish 3-byte sequences; the protocol never emits
          // them, this is input tolerance only).
          if (V < 0x80) {
            Out += static_cast<char>(V);
          } else if (V < 0x800) {
            Out += static_cast<char>(0xC0 | (V >> 6));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (V >> 12));
            Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape character");
        }
      } else {
        Out += C;
      }
    }
    return fail("unterminated string");
  }

  bool parseValue(Json &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Pos >= In.size())
      return fail("unexpected end of input");
    char C = In[Pos];
    if (C == 'n')
      return literal("null") ? (Out = Json(), true) : fail("bad literal");
    if (C == 't')
      return literal("true") ? (Out = Json(true), true) : fail("bad literal");
    if (C == 'f')
      return literal("false") ? (Out = Json(false), true)
                              : fail("bad literal");
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json(std::move(S));
      return true;
    }
    if (C == '[') {
      ++Pos;
      JsonArray A;
      skipWs();
      if (Pos < In.size() && In[Pos] == ']') {
        ++Pos;
        Out = Json(std::move(A));
        return true;
      }
      while (true) {
        Json E;
        if (!parseValue(E, Depth + 1))
          return false;
        A.push_back(std::move(E));
        skipWs();
        if (Pos < In.size() && In[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < In.size() && In[Pos] == ']') {
          ++Pos;
          Out = Json(std::move(A));
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '{') {
      ++Pos;
      JsonObject O;
      skipWs();
      if (Pos < In.size() && In[Pos] == '}') {
        ++Pos;
        Out = Json(std::move(O));
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (Pos >= In.size() || In[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        Json V;
        if (!parseValue(V, Depth + 1))
          return false;
        O[std::move(Key)] = std::move(V);
        skipWs();
        if (Pos < In.size() && In[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < In.size() && In[Pos] == '}') {
          ++Pos;
          Out = Json(std::move(O));
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '-' || (C >= '0' && C <= '9')) {
      size_t Start = Pos;
      if (In[Pos] == '-')
        ++Pos;
      bool IsInt = true;
      while (Pos < In.size() &&
             (std::isdigit(static_cast<unsigned char>(In[Pos])) ||
              In[Pos] == '.' || In[Pos] == 'e' || In[Pos] == 'E' ||
              In[Pos] == '+' || In[Pos] == '-')) {
        if (In[Pos] == '.' || In[Pos] == 'e' || In[Pos] == 'E')
          IsInt = false;
        ++Pos;
      }
      std::string Num(In.substr(Start, Pos - Start));
      if (Num.empty() || Num == "-")
        return fail("bad number");
      errno = 0;
      char *End = nullptr;
      if (IsInt) {
        long long V = std::strtoll(Num.c_str(), &End, 10);
        if (*End == 0 && errno == 0) {
          Out = Json(static_cast<int64_t>(V));
          return true;
        }
        // Out-of-range integer: fall through to double.
      }
      errno = 0;
      double D = std::strtod(Num.c_str(), &End);
      if (*End != 0 || errno != 0 || !std::isfinite(D))
        return fail("bad number");
      Out = Json(D);
      return true;
    }
    return fail("unexpected character");
  }
};

} // namespace

std::string Json::dump() const {
  std::string Out;
  dumpValue(*this, Out);
  return Out;
}

Json sharpie::serve::parseJson(std::string_view Text, std::string *Err) {
  Parser P{Text, 0, {}};
  Json Out;
  if (!P.parseValue(Out, 0)) {
    if (Err)
      *Err = P.Err;
    return Json();
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    if (Err)
      *Err = "trailing characters at offset " + std::to_string(P.Pos);
    return Json();
  }
  return Out;
}
