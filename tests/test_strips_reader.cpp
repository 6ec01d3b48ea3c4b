// S-expression STRIPS reader: syntax, semantics, and error reporting.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "strips/reader.hpp"
#include "strips/validator.hpp"

namespace {

using namespace gaplan::strips;

constexpr const char* kToggle = R"(
; a comment
(domain toggle
  (action make-p (add p))
  (action swap (pre p) (add q) (del p) (cost 2)))
(problem go (init) (goal q))
)";

TEST(Reader, ParsesDomainAndProblem) {
  const auto r = parse_strips(kToggle);
  EXPECT_EQ(r.domain_name, "toggle");
  EXPECT_EQ(r.domain->actions().size(), 2u);
  EXPECT_EQ(r.domain->universe_size(), 2u);
  ASSERT_EQ(r.problems.size(), 1u);
  EXPECT_EQ(r.problems[0].name, "go");
}

TEST(Reader, ParsedProblemIsSolvable) {
  const auto r = parse_strips(kToggle);
  const Problem p = r.problem(0);
  const auto verdict = validate_plan(p, {0, 1});
  EXPECT_TRUE(verdict.valid);
  EXPECT_DOUBLE_EQ(verdict.total_cost, 3.0);
}

TEST(Reader, CompoundAtomsJoinWords) {
  const auto r = parse_strips(R"(
(domain compound
  (action move (pre (at home)) (add (at work)) (del (at home))))
(problem p (init (at home)) (goal (at work)))
)");
  EXPECT_TRUE(r.domain->symbols().lookup("at home").has_value());
  EXPECT_TRUE(r.domain->symbols().lookup("at work").has_value());
  const Problem p = r.problem(0);
  EXPECT_TRUE(validate_plan(p, {0}).valid);
}

TEST(Reader, DefaultCostIsOne) {
  const auto r = parse_strips(kToggle);
  EXPECT_DOUBLE_EQ(r.domain->action(0).cost(), 1.0);
  EXPECT_DOUBLE_EQ(r.domain->action(1).cost(), 2.0);
}

TEST(Reader, ExplicitAtomsSectionReservesIds) {
  const auto r = parse_strips(R"(
(domain d (atoms first second) (action a (add second)))
(problem p (init) (goal second))
)");
  EXPECT_EQ(*r.domain->symbols().lookup("first"), 0u);
  EXPECT_EQ(*r.domain->symbols().lookup("second"), 1u);
}

TEST(Reader, MultipleProblems) {
  const auto r = parse_strips(R"(
(domain d (action a (add x)))
(problem one (init) (goal x))
(problem two (init x) (goal x))
)");
  ASSERT_EQ(r.problems.size(), 2u);
  const Problem p2 = r.problem(1);
  EXPECT_TRUE(p2.is_goal(p2.initial_state()));
}

TEST(Reader, ErrorOnUnterminatedList) {
  EXPECT_THROW(parse_strips("(domain d (action a (add p)"), ParseError);
}

TEST(Reader, ErrorOnStrayCloseParen) {
  EXPECT_THROW(parse_strips(")"), ParseError);
}

TEST(Reader, ErrorOnMissingDomain) {
  EXPECT_THROW(parse_strips("(problem p (init) (goal g))"), ParseError);
}

TEST(Reader, ErrorOnUnknownSection) {
  EXPECT_THROW(parse_strips("(domain d (wibble x))"), ParseError);
}

TEST(Reader, ErrorOnBadCost) {
  EXPECT_THROW(parse_strips("(domain d (action a (add p) (cost banana)))"),
               ParseError);
}

TEST(Reader, ErrorOnDuplicateDomain) {
  EXPECT_THROW(parse_strips("(domain d1 (action a (add p))) (domain d2)"), ParseError);
}

TEST(Reader, ErrorReportsLineNumbers) {
  try {
    parse_strips("(domain d\n  (mystery))\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Reader, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/gaplan_domain.strips";
  {
    std::ofstream out(path);
    out << kToggle;
  }
  const auto r = parse_strips_file(path);
  EXPECT_EQ(r.domain_name, "toggle");
  std::remove(path.c_str());
}

TEST(Reader, FileErrorNamesTheFileAndKeepsTheLine) {
  const std::string path = ::testing::TempDir() + "/gaplan_bad_domain.strips";
  {
    std::ofstream out(path);
    out << "(domain d\n  (mystery))\n";
  }
  try {
    parse_strips_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()).rfind(path + ": ", 0), 0u) << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_EQ(e.line(), 2u);
  }
  std::remove(path.c_str());
}

TEST(Reader, MissingFileThrows) {
  EXPECT_THROW(parse_strips_file("/nonexistent/definitely_missing.strips"),
               std::runtime_error);
}

TEST(Reader, CommentsAreIgnoredToEndOfLine) {
  const auto r = parse_strips(
      "(domain d ; trailing comment (not (parsed))\n (action a (add p)))");
  EXPECT_EQ(r.domain->actions().size(), 1u);
}

}  // namespace
