// One EXPERIMENTS.md table: a caption, column names and rows of cells.
//
// Every cell is formatted when the row is built (integers in full, floats at
// the precision the table prints them), so two tables hold the same numbers
// exactly when their markdown is equal.  tests/test_experiments.cpp relies on
// that: it compares each freshly built table with the block EXPERIMENTS.md
// embeds between `<!-- table ID -->` and `<!-- /table -->`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lapclique::experiments {

struct Table {
  std::string id;     ///< marker id in EXPERIMENTS.md, e.g. "E1-eps"
  std::string title;  ///< one-line caption: the claim and the instances
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;  ///< each row has columns.size() cells
};

/// The block EXPERIMENTS.md embeds for `t`: the caption, a blank line, then a
/// markdown table.  Cells must not contain '|' or a newline.
[[nodiscard]] std::string to_markdown(const Table& t);

/// `to_markdown(t)` between its `<!-- table ID -->` / `<!-- /table -->` markers.
[[nodiscard]] std::string to_marked_block(const Table& t);

/// Cell formatting: an integer in full; a float in fixed notation with
/// `decimals` digits, or (`sci`) in scientific notation with `digits` digits
/// after the point; an oracle check as "yes" or "NO".
[[nodiscard]] std::string cell(std::int64_t v);
[[nodiscard]] std::string fixed(double v, int decimals);
[[nodiscard]] std::string sci(double v, int digits);
[[nodiscard]] std::string yes(bool ok);

}  // namespace lapclique::experiments
