#include "graph/io.h"

#include <fstream>
#include <sstream>
#include <unordered_set>

#include "util/require.h"

namespace wmatch::io {

namespace {

[[noreturn]] void parse_error(std::size_t line, const std::string& what) {
  throw std::invalid_argument("parse error at line " + std::to_string(line) +
                              ": " + what);
}

struct Header {
  std::string kind;
  std::size_t n = 0;
  std::size_t count = 0;
};

Header read_header(std::istream& is, std::size_t& line_no) {
  std::string line;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char tag;
    Header h;
    if (!(ls >> tag >> h.kind >> h.n >> h.count) || tag != 'p') {
      parse_error(line_no, "expected 'p <kind> <n> <count>'");
    }
    return h;
  }
  parse_error(line_no, "missing header");
}

}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  os << "c wmatch graph\n";
  os << "p wmatch " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) {
    os << "e " << e.u << ' ' << e.v << ' ' << e.w << '\n';
  }
}

Graph read_graph(std::istream& is) {
  std::size_t line_no = 0;
  Header h = read_header(is, line_no);
  if (h.kind != "wmatch") parse_error(line_no, "expected kind 'wmatch'");
  Graph g(h.n);
  std::unordered_set<std::uint64_t> seen;
  std::string line;
  std::size_t edges = 0;
  while (edges < h.count && std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char tag;
    Vertex u, v;
    Weight w;
    if (!(ls >> tag >> u >> v >> w) || tag != 'e') {
      parse_error(line_no, "expected 'e <u> <v> <w>'");
    }
    try {
      g.add_edge(u, v, w);
    } catch (const std::invalid_argument& ex) {
      parse_error(line_no, ex.what());
    }
    // add_edge does not look for parallel edges; the solvers assume a
    // simple graph, so a repeated pair (either orientation) is an error.
    if (!seen.insert(Edge{u, v, w}.key()).second) {
      parse_error(line_no, "duplicate edge");
    }
    ++edges;
  }
  if (edges != h.count) parse_error(line_no, "fewer edges than declared");
  return g;
}

void write_matching(std::ostream& os, const Matching& m) {
  os << "c wmatch matching\n";
  os << "p matching " << m.num_vertices() << ' ' << m.size() << '\n';
  for (const Edge& e : m.edges()) {
    os << "m " << e.u << ' ' << e.v << ' ' << e.w << '\n';
  }
}

Matching read_matching(std::istream& is, const Graph& g) {
  std::size_t line_no = 0;
  Header h = read_header(is, line_no);
  if (h.kind != "matching") parse_error(line_no, "expected kind 'matching'");
  if (h.n != g.num_vertices()) parse_error(line_no, "vertex count mismatch");
  Matching m(h.n);
  std::string line;
  std::size_t count = 0;
  while (count < h.count && std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char tag;
    Vertex u, v;
    Weight w;
    if (!(ls >> tag >> u >> v >> w) || tag != 'm') {
      parse_error(line_no, "expected 'm <u> <v> <w>'");
    }
    try {
      m.add(u, v, w);
    } catch (const std::invalid_argument& ex) {
      parse_error(line_no, ex.what());
    }
    ++count;
  }
  if (count != h.count) parse_error(line_no, "fewer edges than declared");
  if (!is_valid_matching(m, g)) {
    parse_error(line_no, "matching inconsistent with graph");
  }
  return m;
}

void save_graph(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  if (!os.good()) {
    throw std::invalid_argument("cannot open '" + path + "' for writing");
  }
  write_graph(os, g);
}

Graph load_graph(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    throw std::invalid_argument("cannot open '" + path + "' for reading");
  }
  return read_graph(is);
}

}  // namespace wmatch::io
