// Plain-text serialization for graphs and matchings (DIMACS-flavoured).
//
// Format:
//   p wmatch <n> <m>
//   e <u> <v> <w>        (one line per edge, 0-based vertices)
// Matchings serialize as:
//   p matching <n> <k>
//   m <u> <v> <w>
// Lines starting with 'c' are comments. Parsing is strict: malformed input,
// including an edge listed twice (in either orientation), throws
// std::invalid_argument with a line number.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.h"
#include "graph/matching.h"

namespace wmatch::io {

void write_graph(std::ostream& os, const Graph& g);
Graph read_graph(std::istream& is);

void write_matching(std::ostream& os, const Matching& m);
/// `g` validates that every matching edge exists with the right weight.
Matching read_matching(std::istream& is, const Graph& g);

/// Convenience round-trips through files.
void save_graph(const std::string& path, const Graph& g);
Graph load_graph(const std::string& path);

}  // namespace wmatch::io
