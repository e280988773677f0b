//===- obs/Cli.cpp - Shared observability wiring for CLI drivers --------------===//
//
// Part of sharpie. See Cli.h.
//
//===----------------------------------------------------------------------===//

#include "obs/Cli.h"
#include "obs/Export.h"

#include <cstring>

using namespace sharpie;
using namespace sharpie::obs;

bool CliObs::parseArg(int argc, char **argv, int &I, std::string &Err) {
  auto Value = [&](const char *Flag) -> const char * {
    if (I + 1 >= argc) {
      Err = std::string(Flag) + " needs a value";
      return nullptr;
    }
    return argv[++I];
  };
  if (!std::strcmp(argv[I], "--trace-out")) {
    if (const char *V = Value("--trace-out"))
      TraceOut = V;
    return true;
  }
  if (!std::strcmp(argv[I], "--events-out")) {
    if (const char *V = Value("--events-out"))
      EventsOut = V;
    return true;
  }
  if (!std::strcmp(argv[I], "--log-level")) {
    if (const char *V = Value("--log-level")) {
      if (auto L = parseLogLevel(V))
        Level = *L;
      else
        Err = std::string("bad --log-level '") + V +
              "' (want quiet|info|debug|trace)";
    }
    return true;
  }
  if (!std::strcmp(argv[I], "--stats")) {
    Stats = true;
    return true;
  }
  return false;
}

std::unique_ptr<Tracer> CliObs::makeTracer() const {
  if (!enabled())
    return nullptr;
  TracerConfig Cfg;
  Cfg.Level = Level;
  Cfg.CollectEvents = !TraceOut.empty() || !EventsOut.empty();
  return std::make_unique<Tracer>(Cfg);
}

bool CliObs::writeOutputs(const Tracer &T, std::string &Err) const {
  auto WriteTo = [&](const std::string &Path, auto &&Writer) {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      Err = "cannot write " + Path;
      return false;
    }
    Writer(T, F);
    std::fclose(F);
    return true;
  };
  if (!TraceOut.empty() &&
      !WriteTo(TraceOut, [](const Tracer &Tr, std::FILE *F) {
        writeChromeTrace(Tr, F);
      }))
    return false;
  if (!EventsOut.empty() &&
      !WriteTo(EventsOut,
               [](const Tracer &Tr, std::FILE *F) { writeJsonl(Tr, F); }))
    return false;
  return true;
}
