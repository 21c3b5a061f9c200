// Pinned golden answer corpus (tests/golden/).
//
// tests/golden/<instance>.txt pins the exact answer text
// (QueryAnswer::ToString) of every corpus query over one database instance,
// and tests check each evaluation mode against it byte for byte. The pinned
// text is the reference: unlike a second engine it shares no DNF algebra,
// Fourier-Motzkin or kernel code with the modes it checks. A query with no
// pinned answer fails the test; it is never filled in silently.
//
// Regenerate (only after an intended change of answer text) by running the
// owning binary directly:
//
//   LCDB_REGENERATE_GOLDEN=1 build/tests/plan_equivalence_test
//
// Each instance file touched by the run is rewritten from scratch with the
// answers of that run, and every later mode of the same run must still match
// the first. Not under ctest: it runs each case in its own process, and
// cases that share an instance would truncate each other's file.
//
// LCDB_TEST_DATA_DIR / LCDB_TEST_GOLDEN_DIR are injected by CMake.

#ifndef LCDB_TESTS_GOLDEN_H_
#define LCDB_TESTS_GOLDEN_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#ifndef LCDB_TEST_DATA_DIR
#define LCDB_TEST_DATA_DIR "data"
#endif
#ifndef LCDB_TEST_GOLDEN_DIR
#define LCDB_TEST_GOLDEN_DIR "tests/golden"
#endif

namespace lcdb {

/// The test-only regeneration switch: LCDB_REGENERATE_GOLDEN=1.
inline bool RegeneratingGolden() {
  const char* flag = std::getenv("LCDB_REGENERATE_GOLDEN");
  return flag != nullptr && std::string(flag) == "1";
}

/// File names of every data/*.lcdb database, sorted, so a database added to
/// data/ joins the corpus (and fails until its answers are pinned).
inline std::vector<std::string> DataFileNames() {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(LCDB_TEST_DATA_DIR)) {
    if (entry.path().extension() == ".lcdb") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Golden instance name of a data file: "comb.lcdb" -> "comb".
inline std::string InstanceOf(const std::string& data_file) {
  return std::filesystem::path(data_file).stem().string();
}

namespace golden_internal {

/// One instance's pinned (query, answer) pairs, in corpus order.
using Entries = std::vector<std::pair<std::string, std::string>>;

inline std::string PathOf(const std::string& instance) {
  return std::string(LCDB_TEST_GOLDEN_DIR) + "/" + instance + ".txt";
}

/// File format: '#' comment lines, then per entry a "query: <text>" line
/// followed by an "answer: <text>" line. Both texts are single lines.
inline Entries Load(const std::string& instance) {
  Entries entries;
  std::ifstream in(PathOf(instance));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("query: ", 0) == 0) {
      entries.emplace_back(line.substr(7), "");
    } else if (line.rfind("answer: ", 0) == 0 && !entries.empty()) {
      entries.back().second = line.substr(8);
    } else {
      ADD_FAILURE() << PathOf(instance) << ": malformed line: " << line;
    }
  }
  return entries;
}

inline void Store(const std::string& instance, const Entries& entries) {
  std::filesystem::create_directories(LCDB_TEST_GOLDEN_DIR);
  std::ofstream out(PathOf(instance), std::ios::trunc);
  out << "# Pinned answers over instance '" << instance
      << "'. Regenerate with:\n"
      << "#   LCDB_REGENERATE_GOLDEN=1 build/tests/plan_equivalence_test\n";
  for (const auto& [query, answer] : entries) {
    out << "\nquery: " << query << "\nanswer: " << answer << "\n";
  }
  EXPECT_TRUE(out.good()) << "cannot write " << PathOf(instance);
}

/// Process-wide corpus: instances load on first use (regeneration starts
/// them empty instead).
inline Entries& Instance(const std::string& instance) {
  static std::map<std::string, Entries> corpus;
  auto it = corpus.find(instance);
  if (it == corpus.end()) {
    it = corpus
             .emplace(instance,
                      RegeneratingGolden() ? Entries() : Load(instance))
             .first;
  }
  return it->second;
}

}  // namespace golden_internal

/// Checks `answer`, produced by evaluation mode `mode`, against the answer
/// pinned for `query` over `instance`. Under regeneration the first answer
/// seen for a query is pinned and written out.
inline void ExpectGoldenAnswer(const std::string& instance,
                               const std::string& query,
                               const std::string& answer,
                               const std::string& mode) {
  golden_internal::Entries& entries = golden_internal::Instance(instance);
  auto it = std::find_if(entries.begin(), entries.end(),
                         [&](const auto& e) { return e.first == query; });
  if (it != entries.end()) {
    EXPECT_EQ(answer, it->second)
        << mode << " diverges from the golden answer of " << instance
        << " on: " << query;
    return;
  }
  if (!RegeneratingGolden()) {
    ADD_FAILURE() << "no golden answer for " << instance << " on: " << query
                  << "\n(pin it: LCDB_REGENERATE_GOLDEN=1 "
                     "build/tests/plan_equivalence_test)";
    return;
  }
  ASSERT_EQ(query.find('\n'), std::string::npos) << query;
  ASSERT_EQ(answer.find('\n'), std::string::npos) << answer;
  entries.emplace_back(query, answer);
  golden_internal::Store(instance, entries);
}

}  // namespace lcdb

#endif  // LCDB_TESTS_GOLDEN_H_
