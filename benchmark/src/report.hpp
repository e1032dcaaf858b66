// Aggregation of lapbench result sets: `lapbench report` (stability mode,
// results.json) and `lapbench compare` (parent-vs-change verdicts).
#pragma once

namespace lapbench {

/// report DIR: reads DIR/set-*/<workload>[.trace].json, writes
/// DIR/results.json, prints one line per (workload, metric).  Non-zero exit
/// when any run failed its output checks.
int report_main(int argc, char** argv);

/// compare PARENT_DIR CHANGE_DIR [--bounds BENCHMARK.json]: pairs the i-th
/// result set of each side per workload and prints a verdict per metric.
int compare_main(int argc, char** argv);

}  // namespace lapbench
