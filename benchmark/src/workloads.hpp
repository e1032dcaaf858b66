// The five lapbench workloads and the seeded instances they (and the layer
// probes) run on.  README.md records why each workload exists and which
// layer it stresses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "flow/maxflow_ipm.hpp"
#include "flow/mincost_ipm.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"

namespace lapbench {

// --- seeded instances --------------------------------------------------------

inline constexpr double kLapEps = 1e-6;

/// random_connected_gnm(1024, 4096), graph `index` of lap_solve_sparse.
[[nodiscard]] lapclique::graph::Graph lap_graph(std::uint64_t seed, std::uint64_t index);
/// Mean-zero right-hand side `index` for an n-vertex Laplacian.
[[nodiscard]] std::vector<double> rhs_vector(std::uint64_t seed, std::string_view workload,
                                             std::uint64_t index, int n);
/// Weighted random_connected_gnm(256, 1024), U = 8: the served graph.
[[nodiscard]] lapclique::graph::Graph serve_graph(std::uint64_t seed);

struct FlowInstance {
  lapclique::graph::Digraph g;
  std::int64_t oracle_value = 0;  ///< dinic_max_flow
};
/// random_flow_network(128, 512, U = 4) with its Dinic value: instance
/// `index` (< 128) of the seed's shuffle of the screened flow pool.
[[nodiscard]] FlowInstance maxflow_instance(std::uint64_t seed, std::uint64_t index);

struct MinCostInstance {
  lapclique::graph::Digraph g;
  std::vector<std::int64_t> sigma;
  std::int64_t oracle_cost = 0;  ///< ssp_min_cost_flow
};
/// random_unit_cost_digraph(32, 96, W = 8) with feasible_unit_demands(g, 8),
/// drawn from the screened flow pool like maxflow_instance.
[[nodiscard]] MinCostInstance mincost_instance(std::uint64_t seed, std::uint64_t index);

/// IPM settings of both flow workloads and their probes: iteration_scale
/// 0.02, max_iterations 250 (max-flow also gets the oracle value).
[[nodiscard]] lapclique::flow::MaxFlowIpmOptions maxflow_options(std::int64_t known_value);
[[nodiscard]] lapclique::flow::MinCostIpmOptions mincost_options();

/// doubled(random_gnm(16384, 32768)), m = 65,536: graph `index` of euler_orient.
[[nodiscard]] lapclique::graph::Graph euler_graph(std::uint64_t seed, std::uint64_t index);

/// serve_mixed request lines.  Each line's "id" names its content, so equal
/// lines get byte-equal response bodies and one reference body per id
/// suffices.
struct ServeRequests {
  std::string load;
  std::vector<std::string> hit;   ///< solve, shared eps (always cached)
  std::vector<std::string> batch; ///< resistance_batch, k pairs, shared eps
  std::vector<std::string> cold;  ///< solve, one distinct eps per key
  std::vector<std::string> hit_ids, batch_ids, cold_ids;
};
[[nodiscard]] ServeRequests serve_requests(std::uint64_t seed,
                                           const lapclique::graph::Graph& g,
                                           int threads = 1);

// --- workloads ---------------------------------------------------------------

struct OpSample {
  double ms = 0;
  Clock::time_point at;  ///< midpoint of the op
  /// Counts toward the latency median: every op, except that serve_mixed
  /// takes its median over hit solves (cold and batch requests show in
  /// throughput).
  bool latency = true;
};

/// What one measured loop produced.
struct LoopResult {
  std::vector<OpSample> ops;             ///< every unit op
  std::vector<double> traced_ms;         ///< trace mode: ops run inside a span
  std::vector<double> untraced_ms;       ///< trace mode: the alternate ops
  Clock::time_point start;               ///< the loop's wall-time window
  Clock::time_point end;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Model counts over the first pin_ops() unit ops (deterministic per seed).
  std::int64_t model_rounds = 0;
  std::int64_t model_words = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> details;  ///< workload-specific breakdowns
};

/// One unit op on instance 0: its time and an output fingerprint that must
/// not depend on the thread count.
struct UnitOp {
  double ms = 0;
  std::string fingerprint;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Unit ops whose model counts are pinned; also the smoke op count.
  [[nodiscard]] virtual std::int64_t pin_ops() const = 0;
  /// Builds every input, oracle and reference, then runs one untimed
  /// warm-up op.  Called once per object.
  virtual void setup() = 0;
  /// Runs unit ops until `seconds` have passed and at least `min_ops` ran,
  /// timing `ref` between them.  In trace mode every other op runs inside a
  /// span.
  virtual LoopResult run(double seconds, std::int64_t min_ops, Tracer* tracer,
                         HostReference& ref) = 0;
  virtual UnitOp unit_op(int threads, Tracer* tracer) = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

/// Per-layer probes on the canonical seeded instances (same set for every
/// traced workload).
[[nodiscard]] std::vector<Metric> run_layer_probes(std::uint64_t seed, Tracer* tracer);

}  // namespace lapbench
