// Every EXPERIMENTS.md table is regenerated and compared with the block the
// document embeds between `<!-- table ID -->` and `<!-- /table -->`.  Cells
// are formatted as printed, so integers (rounds, words, solves, sizes, paths)
// must match exactly, floats at their printed precision, and oracle-check
// cells must still read "yes".  On a difference the case fails, shows the
// differing lines and prints the fresh block to paste into EXPERIMENTS.md.
// One case per table, so `ctest -j` runs them in parallel.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tables.hpp"

namespace lapclique::experiments {
namespace {

/// The block EXPERIMENTS.md embeds for table `id`; empty if it has none.
std::string pinned_block(const std::string& id) {
  std::ifstream in(LAPCLIQUE_EXPERIMENTS_MD);
  std::stringstream doc;
  doc << in.rdbuf();
  const std::string text = doc.str();
  const std::string open = "<!-- table " + id + " -->\n";
  const std::size_t begin = text.find(open);
  if (begin == std::string::npos) return {};
  const std::size_t body = begin + open.size();
  const std::size_t end = text.find("<!-- /table -->", body);
  if (end == std::string::npos) return {};
  return text.substr(body, end - body);
}

std::vector<std::string> lines(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

void expect_pinned(const Table& t) {
  const std::string fresh = to_markdown(t);
  const std::string pinned = pinned_block(t.id);
  if (fresh == pinned) return;
  const std::vector<std::string> want = lines(pinned);
  const std::vector<std::string> got = lines(fresh);
  std::string diff;
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "(missing)";
    const std::string g = i < got.size() ? got[i] : "(missing)";
    if (w != g) diff += "  EXPERIMENTS.md: " + w + "\n  experiments:    " + g + "\n";
  }
  ADD_FAILURE() << "table " << t.id << " no longer matches " << LAPCLIQUE_EXPERIMENTS_MD
                << ":\n"
                << diff << "\nFresh block:\n"
                << to_marked_block(t);
}

TEST(Experiments, E1Eps) { expect_pinned(e1_eps()); }
TEST(Experiments, E1N) { expect_pinned(e1_n()); }
TEST(Experiments, E1Routing) { expect_pinned(e1_routing()); }
TEST(Experiments, E1U) { expect_pinned(e1_u()); }
TEST(Experiments, E2Families) { expect_pinned(e2_families()); }
TEST(Experiments, E2Weights) { expect_pinned(e2_weights()); }
TEST(Experiments, E3) { expect_pinned(e3()); }
TEST(Experiments, A1) { expect_pinned(a1()); }
TEST(Experiments, E4Delta) { expect_pinned(e4_delta()); }
TEST(Experiments, E4Value) { expect_pinned(e4_value()); }
TEST(Experiments, E5) { expect_pinned(e5()); }
TEST(Experiments, A3) { expect_pinned(a3()); }
TEST(Experiments, E6) { expect_pinned(e6()); }
TEST(Experiments, E7) { expect_pinned(e7()); }
TEST(Experiments, E8) { expect_pinned(e8()); }
TEST(Experiments, E9Eps) { expect_pinned(e9_eps()); }
TEST(Experiments, E9M) { expect_pinned(e9_m()); }
TEST(Experiments, E10) { expect_pinned(e10()); }
TEST(Experiments, A2) { expect_pinned(a2()); }

}  // namespace
}  // namespace lapclique::experiments
