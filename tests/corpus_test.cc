// Golden tests over the .ldl example corpus: every program loads, analyzes,
// evaluates, and its stored queries answer as expected.
#include <gtest/gtest.h>

#include "ldl/ldl.h"

namespace ldl {
namespace {

std::string CorpusPath(const char* name) {
  return std::string(LDL1_CORPUS_DIR) + "/" + name;
}

StatusOr<std::vector<std::string>> RunStoredQueries(Session& session) {
  std::vector<std::string> all;
  AstPrinter printer(&session.interner());
  for (const QueryAst& query : session.stored_queries()) {
    std::string goal = printer.ToString(query.goal);
    LDL_ASSIGN_OR_RETURN(QueryResult result, session.Query(goal));
    for (const Tuple& tuple : result.tuples) {
      all.push_back(goal + " -> " + session.FormatTuple(tuple));
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

TEST(Corpus, Ancestor) {
  Session session;
  ASSERT_TRUE(session.LoadFile(CorpusPath("ancestor.ldl")).ok());
  auto answers = RunStoredQueries(session);
  ASSERT_TRUE(answers.ok()) << answers.status();
  // abe's five descendants and dina's three ancestors.
  EXPECT_EQ(answers->size(), 8u);
}

TEST(Corpus, Bom) {
  Session session;
  ASSERT_TRUE(session.LoadFile(CorpusPath("bom.ldl")).ok());
  auto answers = RunStoredQueries(session);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0], "result(1, C) -> (1, 245)");
}

TEST(Corpus, Young) {
  Session session;
  ASSERT_TRUE(session.LoadFile(CorpusPath("young.ldl")).ok());
  auto answers = RunStoredQueries(session);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0], "young(ella, S) -> (ella, {bob})");
}

TEST(Corpus, School) {
  Session session;
  ASSERT_TRUE(session.LoadFile(CorpusPath("school.ldl")).ok());
  auto answers = RunStoredQueries(session);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0],
            "by_teacher(smith, S, D) -> (smith, {ann, bob}, {mon, wed})");
}

TEST(Corpus, Sets) {
  Session session;
  ASSERT_TRUE(session.LoadFile(CorpusPath("sets.ldl")).ok());
  auto answers = RunStoredQueries(session);
  ASSERT_TRUE(answers.ok()) << answers.status();
  // elems(X) over {1,2,3} and {2,4}: 1, 2, 3, 4.
  EXPECT_EQ(answers->size(), 4u);
  // Spot-check the derived relations too.
  PredId unions = session.catalog().Find("unions", 1);
  EXPECT_GE(session.database().relation(unions).size(), 4u);
  PredId common = session.catalog().Find("common", 1);
  auto rows = session.database().relation(common).Snapshot();
  bool found = false;
  for (const Tuple& tuple : rows) {
    if (session.FormatTuple(tuple) == "({2})") found = true;
  }
  EXPECT_TRUE(found) << "intersection of {1,2,3} and {2,4} is {2}";
}

TEST(Corpus, MissingFileIsNotFound) {
  Session session;
  EXPECT_EQ(session.LoadFile(CorpusPath("nope.ldl")).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace ldl
