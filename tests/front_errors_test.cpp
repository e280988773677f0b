//===- tests/front_errors_test.cpp - golden diagnostics for bad .sharpie ------===//
//
// Part of sharpie. Walks tests/front_errors/*.sharpie; every file starts
// with a golden header
//
//   // expect: LINE:COL: MESSAGE
//
// and must fail to load with exactly that diagnostic. The same walk doubles
// as the sanitizer corpus (this source is rebuilt under ASan/UBSan by
// tests/CMakeLists.txt), together with every examples/protocols/ file,
// which must load, and a prefix-truncation sweep that checks that no
// chopped input can make the frontend throw instead of reporting.
//
//===----------------------------------------------------------------------===//

#include "front/Front.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef SHARPIE_REPO_ROOT
#error "SHARPIE_REPO_ROOT must be defined by the build"
#endif

using namespace sharpie;
namespace fs = std::filesystem;

namespace {

std::string slurp(const fs::path &P) {
  std::ifstream In(P);
  EXPECT_TRUE(In.good()) << "cannot open " << P;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<fs::path> corpusFiles() {
  fs::path Dir = fs::path(SHARPIE_REPO_ROOT) / "tests" / "front_errors";
  std::vector<fs::path> Files;
  for (const auto &Entry : fs::directory_iterator(Dir))
    if (Entry.path().extension() == ".sharpie")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

TEST(FrontErrors, EveryCorpusFileFailsWithItsGoldenDiagnostic) {
  std::vector<fs::path> Files = corpusFiles();
  ASSERT_GE(Files.size(), 10u) << "negative corpus shrank";
  for (const fs::path &P : Files) {
    SCOPED_TRACE(P.filename().string());
    std::string Src = slurp(P);
    constexpr std::string_view Marker = "// expect: ";
    ASSERT_EQ(Src.rfind(Marker, 0), 0u)
        << P << " is missing its '// expect:' golden header";
    std::string Golden = Src.substr(Marker.size(), Src.find('\n') - Marker.size());

    logic::TermManager M;
    front::LoadResult R = front::loadProtocolFile(M, P.string());
    ASSERT_FALSE(R.ok()) << P << " unexpectedly parsed";
    const front::Diagnostic &D = *R.Error;
    std::string Actual = std::to_string(D.Line) + ":" + std::to_string(D.Col) +
                         ": " + D.Message;
    EXPECT_EQ(Actual, Golden);
    EXPECT_EQ(D.File, P.string());
    // render() carries the offending source line and a caret under the column.
    std::string Rendered = D.render();
    EXPECT_NE(Rendered.find("error: "), std::string::npos);
    EXPECT_NE(Rendered.find(D.SourceLine), std::string::npos);
    EXPECT_NE(Rendered.find('^'), std::string::npos);
  }
}

TEST(FrontErrors, MissingFileIsADiagnosticNotAThrow) {
  logic::TermManager M;
  front::LoadResult R =
      front::loadProtocolFile(M, "/nonexistent/never/there.sharpie");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error->Message.find("cannot open file"), std::string::npos);
}

// Every shipped protocol parses and lowers; in the sanitizer build this runs
// the whole examples/protocols/ corpus under ASan/UBSan.
TEST(FrontErrors, EveryExampleProtocolLoads) {
  fs::path Dir = fs::path(SHARPIE_REPO_ROOT) / "examples" / "protocols";
  size_t Count = 0;
  for (const auto &Entry : fs::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".sharpie")
      continue;
    SCOPED_TRACE(Entry.path().filename().string());
    logic::TermManager M;
    front::LoadResult R = front::loadProtocolFile(M, Entry.path().string());
    EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->render() : "");
    ++Count;
  }
  EXPECT_GE(Count, 19u) << "protocols missing under " << Dir;
}

// No truncation of a valid protocol may escape as an exception - every
// prefix either loads or yields a Diagnostic.
TEST(FrontErrors, EveryPrefixOfAValidFileLoadsOrDiagnoses) {
  fs::path Good = fs::path(SHARPIE_REPO_ROOT) / "examples" / "protocols" /
                  "ticket_lock.sharpie";
  std::string Src = slurp(Good);
  ASSERT_FALSE(Src.empty());
  for (size_t Len = 0; Len <= Src.size(); ++Len) {
    logic::TermManager M;
    front::LoadResult R = front::loadProtocolString(
        M, Src.substr(0, Len), "truncated.sharpie");
    if (R.ok())
      EXPECT_TRUE(R.Bundle.has_value());
    else
      EXPECT_FALSE(R.Error->Message.empty()) << "empty diagnostic at " << Len;
  }
}

} // namespace
