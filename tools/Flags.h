//===- tools/Flags.h - Flag values for the drivers --------------*- C++ -*-===//
//
// Part of sharpie. The one reader of flag values shared by `sharpie` and
// `sharpied`: a flag's value must be present (and, for numeric flags,
// fully numeric and non-negative), or the driver reports the flag by
// name and exits 3 (front::ExitError). Integer flags take decimal digits
// only; real flags (seconds) take anything strtod reads to the end.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_TOOLS_FLAGS_H
#define SHARPIE_TOOLS_FLAGS_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace sharpie {
namespace tools {

/// Reads the value after flag argv[I] into \p Out and advances \p I past
/// it. When the flag is last on the command line prints "error: FLAG
/// needs a value" to stderr and returns false.
inline bool stringFlag(int argc, char **argv, int &I, std::string &Out) {
  if (I + 1 >= argc) {
    std::fprintf(stderr, "error: %s needs a value\n", argv[I]);
    return false;
  }
  Out = argv[++I];
  return true;
}

/// Reads the value after flag argv[I] into \p Out and advances \p I past
/// it. On a missing, non-numeric, trailing-garbage or negative value
/// prints "error: FLAG ..." to stderr and returns false.
template <typename T> bool numericFlag(int argc, char **argv, int &I, T &Out) {
  const char *Flag = argv[I];
  std::string Value;
  if (!stringFlag(argc, argv, I, Value))
    return false;
  const char *V = Value.c_str();
  char *End = nullptr;
  errno = 0;
  bool Ok;
  if constexpr (std::is_floating_point_v<T>) {
    double D = std::strtod(V, &End);
    Ok = End != V && *End == '\0' && std::isfinite(D) && D >= 0;
    if (Ok)
      Out = static_cast<T>(D);
  } else {
    unsigned long long N = std::strtoull(V, &End, 10);
    Ok = std::isdigit(static_cast<unsigned char>(*V)) && *End == '\0' &&
         errno == 0 && N <= static_cast<unsigned long long>(
                                 std::numeric_limits<T>::max());
    if (Ok)
      Out = static_cast<T>(N);
  }
  if (!Ok)
    std::fprintf(stderr, "error: %s needs a non-negative %s, got '%s'\n", Flag,
                 std::is_floating_point_v<T> ? "number" : "integer", V);
  return Ok;
}

} // namespace tools
} // namespace sharpie

#endif // SHARPIE_TOOLS_FLAGS_H
