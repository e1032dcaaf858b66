// Prints every EXPERIMENTS.md table as markdown, each between the
// `<!-- table ID -->` / `<!-- /table -->` markers EXPERIMENTS.md embeds it in.
// Takes no arguments: the instances, seeds and runtime are fixed in tables.cpp.
#include <cstdio>

#include "tables.hpp"

int main() {
  for (const auto make : lapclique::experiments::kAllTables) {
    std::printf("%s\n", lapclique::experiments::to_marked_block(make()).c_str());
    std::fflush(stdout);
  }
  return 0;
}
