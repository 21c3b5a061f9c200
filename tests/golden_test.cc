// Identity checks beside the golden answer corpus (tests/golden.h): on every
// data/*.lcdb database, the connectivity sentences must satisfy identities
// that follow from the paper's semantics alone. None of them compares one
// execution path against another, and the union-find baseline shares no
// code with the executor.
//
//  * RegionConn's body is positive in M, so its LFP, IFP and PFP stages all
//    rise the same way from the empty set (Def 5.1): one truth value.
//  * The LFP reachability core and the Section 7 TC operator define the
//    same relation, and both equal union-find connectivity of the regions
//    inside S (SpatialConnectivityBaseline).
//  * DTC follows only unique successors, so DTC ⊆ TC (Def 7.2): a true DTC
//    sentence implies the TC one.
// LCDB_TEST_DATA_DIR is injected by CMake.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/queries.h"
#include "db/geometric_baselines.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "golden.h"

namespace lcdb {
namespace {

/// RegionConnQueryText() with its fixpoint operator replaced by `op`.
std::string RegionConnWith(const std::string& op) {
  std::string text = RegionConnQueryText();
  text.replace(text.find("[lfp"), 4, "[" + op);
  return text;
}

bool Sentence(const RegionExtension& ext, const std::string& text) {
  auto truth = EvaluateSentenceText(ext, text);
  EXPECT_TRUE(truth.ok()) << text << "\n" << truth.status().ToString();
  return truth.ok() && *truth;
}

/// Runs `check` on the arrangement extension of every data/*.lcdb file.
template <typename Check>
void ForEachDataFile(Check check) {
  const std::vector<std::string> names = DataFileNames();
  ASSERT_FALSE(names.empty()) << "no databases in " << LCDB_TEST_DATA_DIR;
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto db =
        LoadDatabaseFromFile(std::string(LCDB_TEST_DATA_DIR) + "/" + name);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    check(*MakeArrangementExtension(*db));
  }
}

TEST(GoldenIdentityTest, PositiveBodyFixpointFlavoursAgree) {
  ForEachDataFile([](const RegionExtension& ext) {
    const bool lfp = Sentence(ext, RegionConnWith("lfp"));
    EXPECT_EQ(Sentence(ext, RegionConnWith("ifp")), lfp);
    EXPECT_EQ(Sentence(ext, RegionConnWith("pfp")), lfp);
  });
}

TEST(GoldenIdentityTest, LfpConnectivityEqualsTcAndUnionFind) {
  ForEachDataFile([](const RegionExtension& ext) {
    const bool lfp = Sentence(ext, RegionConnQueryText());
    EXPECT_EQ(Sentence(ext, RegionConnTcQueryText(false)), lfp);
    EXPECT_EQ(SpatialConnectivityBaseline(ext), lfp);
  });
}

TEST(GoldenIdentityTest, DtcImpliesTc) {
  // The sentence form is often vacuous (DTC connectivity fails as soon as a
  // region has two neighbours inside S), so the pairwise form asks for a
  // DTC-reachable pair that TC misses: there must be none.
  const std::string edge = " R ; R' : subset(R) & subset(R') & adj(R, R')]";
  const std::string dtc_not_tc = "exists Rx Ry . ([dtc" + edge +
                                 "(Rx ; Ry) & !([tc" + edge + "(Rx ; Ry)))";
  ForEachDataFile([&](const RegionExtension& ext) {
    if (Sentence(ext, RegionConnTcQueryText(true))) {
      EXPECT_TRUE(Sentence(ext, RegionConnTcQueryText(false)));
    }
    EXPECT_FALSE(Sentence(ext, dtc_not_tc));
  });
}

}  // namespace
}  // namespace lcdb
