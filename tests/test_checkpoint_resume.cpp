// Resume rejects before it restores (docs/CHECKPOINT.md): a checkpoint whose
// IPM payload or stored fault spec is malformed is refused with a located
// CheckpointError, and the caller's Network, attached ledger and attached
// fault plan are left exactly as they were.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/api.hpp"
#include "fault/fault_plan.hpp"
#include "flow/maxflow_ipm.hpp"
#include "flow/mincost_ipm.hpp"
#include "graph/generators.hpp"
#include "obs/round_ledger.hpp"

namespace lapclique {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "lapclique_resume_" + name + ".ckpt";
}

flow::MaxFlowIpmOptions quick_max() {
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.01;
  opt.max_iterations = 20;
  return opt;
}

flow::MinCostIpmOptions quick_min() {
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 10;
  return opt;
}

/// Runs `run` under a traced, preempt=2 runtime that checkpoints to `path`,
/// then returns the committed checkpoint with its payload cut in half.
template <typename Run>
ckpt::Checkpoint truncated_checkpoint(const std::string& path, const Run& run) {
  fault::FaultPlan plan(fault::parse_fault_spec("preempt=2"), 7);
  obs::RoundLedger ledger;
  Runtime rt;
  rt.faults = &plan;
  rt.trace = &ledger;
  rt.checkpoint_path = path;
  EXPECT_THROW(run(rt), fault::PreemptError);
  ckpt::Checkpoint ck = ckpt::load_checkpoint(path);
  EXPECT_TRUE(ck.has_ledger);
  EXPECT_GT(ck.net.rounds, 0);
  ck.state.resize(ck.state.size() / 2);
  return ck;
}

/// The caller's run container as `resume` found it: a fresh Network with a
/// ledger and a fault plan attached whose fault signature matches the
/// checkpoint's (preempt-only).
struct Caller {
  fault::FaultPlan plan{fault::parse_fault_spec("preempt=100"), 7};
  obs::RoundLedger ledger;
  clique::Network net;

  explicit Caller(int n) : net(n) {
    net.set_tracer(&ledger);
    net.set_fault_plan(&plan);
  }

  void expect_untouched(const std::string& ledger_before) const {
    EXPECT_EQ(net.rounds(), 0);
    EXPECT_EQ(net.words_sent(), 0);
    EXPECT_TRUE(net.op_log().empty());
    EXPECT_EQ(ledger.total_rounds(), 0);
    EXPECT_EQ(ledger.to_json().dump(), ledger_before);
    const fault::FaultPlanSnapshot s = plan.snapshot();
    EXPECT_EQ(s.draws, 0u);
    EXPECT_EQ(s.op_counter, 0);
    EXPECT_EQ(s.stats.recovery_rounds, 0);
  }
};

/// `resume` must throw a CheckpointError from the payload decoder (a count
/// or read past the cut), not from a header check.
template <typename Resume>
void expect_payload_rejected(const Resume& resume) {
  try {
    resume();
    ADD_FAILURE() << "a truncated payload resumed";
  } catch (const ckpt::CheckpointError& ex) {
    const std::string what = ex.what();
    EXPECT_TRUE(what.find("impossible") != std::string::npos ||
                what.find("truncated") != std::string::npos)
        << what;
  }
}

TEST(CheckpointResume, MaxFlowTruncatedPayloadLeavesRunUntouched) {
  const graph::Digraph g = graph::random_flow_network(10, 24, 4, 57);
  const int t = g.num_vertices() - 1;
  const ckpt::Checkpoint ck =
      truncated_checkpoint(tmp_path("mf"), [&](const Runtime& rt) {
        return max_flow(g, 0, t, quick_max(), rt);
      });

  Caller caller(g.num_vertices());
  const std::string ledger_before = caller.ledger.to_json().dump();
  flow::MaxFlowIpmOptions opt = quick_max();
  opt.checkpoint.resume = &ck;
  expect_payload_rejected(
      [&] { (void)flow::max_flow_clique(g, 0, t, caller.net, opt); });
  caller.expect_untouched(ledger_before);
}

TEST(CheckpointResume, MinCostTruncatedPayloadLeavesRunUntouched) {
  const graph::Digraph g = graph::random_unit_cost_digraph(9, 24, 5, 58);
  const std::vector<std::int64_t> sigma = graph::feasible_unit_demands(g, 2, 108);
  const ckpt::Checkpoint ck =
      truncated_checkpoint(tmp_path("mc"), [&](const Runtime& rt) {
        return min_cost_flow(g, sigma, quick_min(), rt);
      });

  Caller caller(g.num_vertices());
  const std::string ledger_before = caller.ledger.to_json().dump();
  flow::MinCostIpmOptions opt = quick_min();
  opt.checkpoint.resume = &ck;
  expect_payload_rejected(
      [&] { (void)flow::min_cost_flow_clique(g, sigma, caller.net, opt); });
  caller.expect_untouched(ledger_before);
}

TEST(CheckpointResume, UnparsableStoredFaultSpecRejectedAtFaultField) {
  ckpt::Checkpoint ck;
  ck.algo = "maxflow";
  ck.routing_mode = "charged";
  ck.has_fault_plan = true;
  ck.fault_spec = "drop=0.5";
  const long long fault_at =
      ckpt::decode_checkpoint("good.ckpt", ckpt::encode_checkpoint(ck))
          .field_offsets.at("fault");

  // A probability of 2 does not parse; the checksum is valid, so only the
  // spec check can reject the file.
  ck.fault_spec = "drop=2";
  try {
    (void)ckpt::decode_checkpoint("bad.ckpt", ckpt::encode_checkpoint(ck));
    FAIL() << "a checkpoint with an unparsable fault spec decoded";
  } catch (const ckpt::CheckpointError& ex) {
    EXPECT_EQ(ex.offset(), fault_at) << ex.what();
    EXPECT_NE(std::string(ex.what()).find("drop=2"), std::string::npos)
        << ex.what();
  }

  // A plan whose spec prints as "" (every clause at its default) is no
  // fault configuration, and decodes.
  ck.fault_spec = "";
  EXPECT_NO_THROW(
      (void)ckpt::decode_checkpoint("empty.ckpt", ckpt::encode_checkpoint(ck)));
}

}  // namespace
}  // namespace lapclique
