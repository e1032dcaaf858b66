// Golden bits of the two IPMs: the FNV-1a hash of the last LAPCKPT snapshot
// of a run, together with its rounds, words, and Laplacian solve count.
// The IPM payload inside that snapshot is pinned on its own as well, so a
// change to the container encoding can re-pin the file hash while the
// payload pin shows that no solve bit moved.
//
// The snapshot carries the fractional iterate (max-flow: the transformed
// graph's f and y; min-cost: f, y, s, nu), so any drift in the bits of an
// electrical solve shows up here even when the integral answer and the round
// count happen to survive it.  The runs call the IPMs directly on a Network
// built in code, and kAuto picks each factor kernel from the instance, so no
// environment variable (LAPCLIQUE_TEST_SEED included) can move a pinned
// value.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "flow/maxflow_ipm.hpp"
#include "flow/mincost_ipm.hpp"
#include "graph/generators.hpp"

namespace lapclique {
namespace {

/// Instance seeds: the default base_seed() (17) plus the checkpoint suite's
/// offsets, fixed here so the goldens do not follow LAPCLIQUE_TEST_SEED.
constexpr std::uint64_t kMaxFlowSeed = 17 + 40;
constexpr std::uint64_t kMinCostSeed = 17 + 43;
constexpr std::uint64_t kMinCostDemandSeed = 17 + 93;

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  EXPECT_FALSE(bytes.empty()) << path;
  return ckpt::fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t payload_hash(const std::string& path) {
  const std::string state = ckpt::load_checkpoint(path).state;
  return ckpt::fnv1a64(state.data(), state.size());
}

// 24 vertices, 96 arcs at iteration_scale 0.02: 67 IPM iterations of which
// 60 are Boosting steps, so the run factors two topologies — the initial
// transformed graph and the boosted one, whose last solves take the sparse
// factor.
TEST(GoldenBits, MaxFlowLastCheckpoint) {
  const graph::Digraph g = graph::random_flow_network(24, 96, 4, kMaxFlowSeed);
  const std::string path = ::testing::TempDir() + "lapclique_golden_maxflow.ckpt";
  ckpt::CheckpointWriter writer(path);
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.checkpoint.writer = &writer;
  clique::Network net(g.num_vertices());
  const flow::MaxFlowIpmReport rep = flow::max_flow_clique(g, 0, 23, net, opt);

  EXPECT_EQ(rep.ipm_iterations, 67);
  EXPECT_EQ(rep.boosting_steps, 60);
  EXPECT_EQ(rep.laplacian_solves, 16);
  EXPECT_EQ(rep.run.rounds, 24887);
  EXPECT_EQ(rep.run.words, 2816620);
  EXPECT_EQ(rep.run.numerics, "sparse");
  EXPECT_EQ(rep.run.factor_fill, 2042);
  EXPECT_EQ(file_hash(path), 3128508377064401522u);
  EXPECT_EQ(payload_hash(path), 11608838109934518391u);
}

TEST(GoldenBits, MinCostLastCheckpoint) {
  const graph::Digraph g = graph::random_unit_cost_digraph(10, 40, 7, kMinCostSeed);
  const std::vector<std::int64_t> sigma =
      graph::feasible_unit_demands(g, 3, kMinCostDemandSeed);
  const std::string path = ::testing::TempDir() + "lapclique_golden_mincost.ckpt";
  ckpt::CheckpointWriter writer(path);
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 60;
  opt.checkpoint.writer = &writer;
  clique::Network net(g.num_vertices());
  const flow::MinCostIpmReport rep = flow::min_cost_flow_clique(g, sigma, net, opt);

  EXPECT_TRUE(rep.feasible);
  EXPECT_EQ(rep.ipm_iterations, 60);
  EXPECT_EQ(rep.laplacian_solves, 120);
  EXPECT_EQ(rep.run.rounds, 33950);
  EXPECT_EQ(rep.run.words, 2218831);
  EXPECT_EQ(rep.run.numerics, "dense");
  EXPECT_EQ(rep.run.factor_fill, 1953);
  EXPECT_EQ(file_hash(path), 9772931731610942808u);
  EXPECT_EQ(payload_hash(path), 12545538646279334509u);
}

}  // namespace
}  // namespace lapclique
