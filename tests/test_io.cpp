#include <gtest/gtest.h>

#include <sstream>

#include "gen/generators.h"
#include "gen/weights.h"
#include "graph/io.h"
#include "util/rng.h"

namespace wmatch {
namespace {

TEST(Io, GraphRoundTrip) {
  Rng rng(1);
  Graph g = gen::assign_weights(gen::erdos_renyi(30, 80, rng),
                                gen::WeightDist::kUniform, 100, rng);
  std::stringstream ss;
  io::write_graph(ss, g);
  Graph g2 = io::read_graph(ss);
  ASSERT_EQ(g2.num_vertices(), g.num_vertices());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    EXPECT_EQ(g2.edge(i), g.edge(i));
  }
}

TEST(Io, EmptyGraphRoundTrip) {
  Graph g(5);
  std::stringstream ss;
  io::write_graph(ss, g);
  Graph g2 = io::read_graph(ss);
  EXPECT_EQ(g2.num_vertices(), 5u);
  EXPECT_EQ(g2.num_edges(), 0u);
}

TEST(Io, MatchingRoundTrip) {
  Graph g(4);
  g.add_edge(0, 1, 5);
  g.add_edge(2, 3, 7);
  Matching m(4);
  m.add(0, 1, 5);
  m.add(2, 3, 7);
  std::stringstream ss;
  io::write_matching(ss, m);
  Matching m2 = io::read_matching(ss, g);
  EXPECT_EQ(m2, m);
}

TEST(Io, CommentsAndBlankLinesSkipped) {
  std::stringstream ss(
      "c a comment\n\np wmatch 3 1\nc another\ne 0 2 9\n");
  Graph g = io::read_graph(ss);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(0).w, 9);
}

TEST(Io, MalformedHeaderThrows) {
  std::stringstream ss("q wmatch 3 1\n");
  EXPECT_THROW(io::read_graph(ss), std::invalid_argument);
  std::stringstream ss2("");
  EXPECT_THROW(io::read_graph(ss2), std::invalid_argument);
  std::stringstream ss3("p matching 3 0\n");
  EXPECT_THROW(io::read_graph(ss3), std::invalid_argument);
}

TEST(Io, TruncatedEdgeListThrows) {
  std::stringstream ss("p wmatch 3 2\ne 0 1 4\n");
  EXPECT_THROW(io::read_graph(ss), std::invalid_argument);
}

TEST(Io, InvalidEdgeReportsLine) {
  std::stringstream ss("p wmatch 3 1\ne 0 0 4\n");
  try {
    io::read_graph(ss);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("line 2"), std::string::npos);
  }
}

TEST(Io, DuplicateEdgeReportsLine) {
  struct Case {
    const char* text;
    const char* line;
  };
  // A parallel copy with another weight, and the reversed orientation
  // (the same undirected edge) after a comment line.
  for (const Case& c : {Case{"p wmatch 3 2\ne 0 1 4\ne 0 1 5\n", "line 3"},
                        Case{"p wmatch 3 2\ne 0 1 4\nc x\ne 1 0 4\n",
                             "line 4"}}) {
    std::stringstream ss(c.text);
    try {
      io::read_graph(ss);
      FAIL() << "expected throw for: " << c.text;
    } catch (const std::invalid_argument& ex) {
      const std::string what = ex.what();
      EXPECT_NE(what.find("duplicate edge"), std::string::npos) << what;
      EXPECT_NE(what.find(c.line), std::string::npos) << what;
    }
  }
}

TEST(Io, MatchingInconsistentWithGraphThrows) {
  Graph g(4);
  g.add_edge(0, 1, 5);
  std::stringstream ss("p matching 4 1\nm 2 3 7\n");
  EXPECT_THROW(io::read_matching(ss, g), std::invalid_argument);
}

TEST(Io, MatchingVertexCountMismatchThrows) {
  Graph g(4);
  std::stringstream ss("p matching 5 0\n");
  EXPECT_THROW(io::read_matching(ss, g), std::invalid_argument);
}

TEST(Io, FileRoundTrip) {
  Rng rng(2);
  Graph g = gen::assign_weights(gen::erdos_renyi(20, 50, rng),
                                gen::WeightDist::kExponential, 64, rng);
  std::string path = "/tmp/wmatch_io_test.graph";
  io::save_graph(path, g);
  Graph g2 = io::load_graph(path);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_EQ(g2.total_weight(), g.total_weight());
  EXPECT_THROW(io::load_graph("/nonexistent/dir/x.graph"),
               std::invalid_argument);
}

}  // namespace
}  // namespace wmatch
