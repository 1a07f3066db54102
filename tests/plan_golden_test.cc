// Golden-plan check (CI gate): Explain() output for the eight NEXMark
// queries is committed under tests/golden/ and diffed here. A diff means
// the optimizer or lowering changed what it produces for a fixed input —
// which must be a deliberate, reviewed change. Regenerate with:
//
//   build/tests/plan_golden_test --regen   (writes tests/golden/q*.txt)
//
// then inspect `git diff tests/golden/` before committing.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/nexmark/plan_queries.h"
#include "tests/test_util.h"

#ifndef IMPELLER_GOLDEN_DIR
#error "IMPELLER_GOLDEN_DIR must point at tests/golden"
#endif

namespace impeller {
namespace {

using testutil::Numbered;

bool g_regen = false;

std::string GoldenPath(int number) {
  return std::string(IMPELLER_GOLDEN_DIR) + "/q" + std::to_string(number) +
         ".txt";
}

std::string BuildExplainText(int number) {
  auto plan = nexmark::BuildNexmarkPlanQuery(number, NexmarkQueryOptions{},
                                             /*fuse=*/true);
  if (!plan.ok()) {
    ADD_FAILURE() << plan.status().ToString();
    return "";
  }
  return plan::ExplainText(plan->lowered);
}

class PlanGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanGoldenTest, ExplainMatchesCommittedGolden) {
  int number = GetParam();
  std::string actual = BuildExplainText(number);
  ASSERT_FALSE(actual.empty());

  if (g_regen) {
    std::ofstream out(GoldenPath(number), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath(number);
    out << actual;
    SUCCEED() << "regenerated " << GoldenPath(number);
    return;
  }

  std::ifstream in(GoldenPath(number));
  ASSERT_TRUE(in.good())
      << "missing golden file " << GoldenPath(number)
      << "; run plan_golden_test --regen and commit tests/golden/";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(actual, buffer.str())
      << "Explain() drifted from the committed golden for q" << number
      << ". If the change is intentional, run plan_golden_test --regen and "
         "commit the diff under tests/golden/.";
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PlanGoldenTest, ::testing::Range(1, 9),
                         [](const auto& info) {
                           return Numbered("Q", info.param);
                         });

}  // namespace
}  // namespace impeller

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") {
      impeller::g_regen = true;
    }
  }
  return RUN_ALL_TESTS();
}
