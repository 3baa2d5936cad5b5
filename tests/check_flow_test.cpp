// Integration of check/ with the flow layer, over the real NPN database:
// every pass of a real pipeline leaves a network the full validator accepts,
// the `check` script word runs as a pass, and the built 222-class database
// passes the artifact lint.  (The corrupted-input negative suite lives in
// check_test.cpp; this file needs the npndb fixture and is labeled `flow`.)

#include <gtest/gtest.h>

#include <stdexcept>

#include "check/check.hpp"
#include "exact/database.hpp"
#include "flow/flow.hpp"
#include "gen/arith.hpp"
#include "mig/mig.hpp"

namespace mighty::flow {
namespace {

const exact::Database& db() {
  static const exact::Database instance =
      exact::Database::load_or_build(exact::default_database_path());
  return instance;
}

Session make_session() { return Session(db()); }

TEST(CheckFlowTest, FullCheckLevelHoldsAcrossGeneratorCorpus) {
  auto session = make_session();
  session.set_check_level(CheckLevel::full);
  const auto pipeline = Pipeline::parse("TF;size;BFD;depth");
  for (const auto& [name, network] : {
           std::pair<const char*, mig::Mig>{"adder8", gen::make_adder_n(8)},
           {"mult4", gen::make_multiplier_n(4)},
           {"square5", gen::make_square_n(5)},
       }) {
    FlowReport report;
    mig::Mig optimized;
    // With check level `full`, run_into validates structure, derived data,
    // FFR partition, shard plan and wave order after *every* pass and throws
    // on the first violation — so a plain no-throw run is the assertion.
    ASSERT_NO_THROW(optimized = pipeline.run(network, session, &report)) << name;
    EXPECT_TRUE(check::validate_at(optimized, /*full=*/true).ok()) << name;
    EXPECT_TRUE(check::validate_report(report).ok()) << name;
  }
}

TEST(CheckFlowTest, CheckScriptWordRunsAsAPass) {
  const auto pipeline = Pipeline::parse("TF;check;size");
  EXPECT_EQ(pipeline.to_script(), "TF;check;size");
  EXPECT_EQ(Pipeline::parse(pipeline.to_script()).to_script(), "TF;check;size");

  auto session = make_session();
  session.set_check_level(CheckLevel::off);  // the explicit pass still checks
  FlowReport report;
  const auto optimized = pipeline.run(gen::make_adder_n(6), session, &report);
  EXPECT_TRUE(check::validate(optimized).ok());
  ASSERT_EQ(report.passes.size(), 3u);
  EXPECT_EQ(report.passes[1].name, "check");
  // An analysis pass: the network passes through untouched.
  EXPECT_EQ(report.passes[1].size_before, report.passes[1].size_after);
  EXPECT_EQ(report.passes[1].depth_before, report.passes[1].depth_after);
}

TEST(CheckFlowTest, CheckLevelDefaultsAndSetter) {
  auto session = make_session();
#ifdef NDEBUG
  EXPECT_EQ(session.check_level(), CheckLevel::off);
#else
  EXPECT_EQ(session.check_level(), CheckLevel::fast);
#endif
  session.set_check_level(CheckLevel::full);
  EXPECT_EQ(session.check_level(), CheckLevel::full);
  session.set_check_level(CheckLevel::off);
  EXPECT_EQ(session.check_level(), CheckLevel::off);
}

TEST(CheckFlowTest, BuiltDatabasePassesLint) {
  const auto report = check::lint_database(db());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.diagnostics.empty()) << report.summary();
}

}  // namespace
}  // namespace mighty::flow
