// The checkpoint/resume determinism contract (docs/CHECKPOINT.md):
//
//   * a flow run preempted at ANY batch boundary and resumed from its last
//     checkpoint produces byte-identical outputs, round/word ledgers, and
//     trace JSON to an uninterrupted run — at threads 1 and 8 and in all
//     three routing modes (the preempt-at-every-batch sweeps below);
//   * attaching a writer never changes what a run computes or charges;
//   * corrupt, truncated, schema-skewed, or mismatched checkpoint files are
//     rejected with a located CheckpointError before any run state is
//     touched (strong guarantee, mirroring the io/ parser hardening), and so
//     is every length or count the bytes left could not encode — pinned
//     case by case and by fixed-seed mutation fuzzing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/api.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "obs/round_ledger.hpp"
#include "test_seed.hpp"

namespace lapclique {
namespace {

using test::base_seed;

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "lapclique_" + name + ".ckpt";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Everything one flow run produces, flattened into comparable channels.
/// Doubles enter `ints` through their bit patterns — the contract is
/// byte-identity, not tolerance-identity.
struct Observed {
  std::vector<std::int64_t> ints;
  std::int64_t rounds = 0;
  std::int64_t words = 0;
  std::map<std::string, std::int64_t> phases;
  std::string ledger_json;
};

void expect_identical(const Observed& want, const Observed& got,
                      const std::string& where) {
  EXPECT_EQ(want.ints, got.ints) << where;
  EXPECT_EQ(want.rounds, got.rounds) << where;
  EXPECT_EQ(want.words, got.words) << where;
  EXPECT_EQ(want.phases, got.phases) << where;
  EXPECT_EQ(want.ledger_json, got.ledger_json) << where;
}

Observed observe(const flow::MaxFlowIpmReport& rep,
                 const obs::RoundLedger& ledger) {
  Observed o;
  o.ints.push_back(rep.value);
  o.ints.insert(o.ints.end(), rep.flow.begin(), rep.flow.end());
  o.ints.push_back(rep.ipm_iterations);
  o.ints.push_back(rep.augmentation_steps);
  o.ints.push_back(rep.boosting_steps);
  o.ints.push_back(rep.laplacian_solves);
  o.ints.push_back(rep.finishing_augmenting_paths);
  o.ints.push_back(rep.rounding_phases);
  o.ints.push_back(static_cast<std::int64_t>(bits(rep.routed_fraction)));
  o.rounds = rep.run.rounds;
  o.words = rep.run.words;
  o.phases = rep.run.phases.rounds_by_phase;
  o.ledger_json = ledger.to_json().dump();
  return o;
}

Observed observe(const flow::MinCostIpmReport& rep,
                 const obs::RoundLedger& ledger) {
  Observed o;
  o.ints.push_back(rep.feasible ? 1 : 0);
  o.ints.push_back(rep.cost);
  o.ints.insert(o.ints.end(), rep.flow.begin(), rep.flow.end());
  o.ints.push_back(rep.ipm_iterations);
  o.ints.push_back(rep.perturbations);
  o.ints.push_back(rep.laplacian_solves);
  o.ints.push_back(rep.finishing_paths);
  o.ints.push_back(rep.negative_cycles_cancelled);
  o.ints.push_back(rep.rounding_phases);
  o.rounds = rep.run.rounds;
  o.words = rep.run.words;
  o.phases = rep.run.phases.rounds_by_phase;
  o.ledger_json = ledger.to_json().dump();
  return o;
}

// Small instances with scaled-down budgets: the sweeps run one preempted +
// one resumed run per batch boundary, so the boundary count is the test's
// cost multiplier.  The finishers keep the answers exact regardless.
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

graph::Digraph sweep_flow_network() {
  return graph::random_flow_network(10, 24, 4, base_seed() + 40);
}

// --- preempt-at-every-batch sweeps ---------------------------------------

// For every batch boundary B from `first_batch` on: run with `preempt=B`
// until PreemptError, then resume from the committed checkpoint and demand
// byte-identity with an uninterrupted reference.  The sweep ends when
// preempt=B no longer fires (B is past the last boundary); that run must
// still match the reference, which also pins that a preempt-only plan is
// accounting-neutral.  `name` keeps each caller's checkpoint files apart:
// ctest runs tests in parallel processes.
void max_flow_preempt_sweep(const std::string& name, const graph::Digraph& g,
                            const flow::MaxFlowIpmOptions& opt,
                            std::int64_t first_batch, clique::RoutingMode mode,
                            int threads) {
  const int s = 0;
  const int t = g.num_vertices() - 1;
  const std::string tag = name + "_" + clique::to_string(mode) + "_t" +
                          std::to_string(threads);

  Runtime base_rt;
  base_rt.threads = threads;
  base_rt.routing_mode = mode;

  obs::RoundLedger ref_ledger;
  Runtime ref_rt = base_rt;
  ref_rt.trace = &ref_ledger;
  ref_rt.checkpoint_path = tmp_path("mf_ref_" + tag);
  const Observed want = observe(max_flow(g, s, t, opt, ref_rt), ref_ledger);

  bool past_last_boundary = false;
  for (std::int64_t batch = first_batch; batch < 256 && !past_last_boundary; ++batch) {
    const std::string where = tag + " preempt=" + std::to_string(batch);
    const std::string path = tmp_path("mf_sweep_" + tag);
    fault::FaultPlan plan(
        fault::parse_fault_spec("preempt=" + std::to_string(batch)), 1);
    obs::RoundLedger preempt_ledger;
    Runtime r1 = base_rt;
    r1.trace = &preempt_ledger;
    r1.faults = &plan;
    r1.checkpoint_path = path;
    bool preempted = false;
    try {
      const flow::MaxFlowIpmReport full = max_flow(g, s, t, opt, r1);
      expect_identical(want, observe(full, preempt_ledger), where + " (ran through)");
      past_last_boundary = true;
    } catch (const fault::PreemptError&) {
      preempted = true;
    }
    if (!preempted) continue;

    obs::RoundLedger resumed_ledger;
    Runtime r2 = base_rt;
    r2.trace = &resumed_ledger;
    r2.checkpoint_path = path;
    r2.resume = true;
    const flow::MaxFlowIpmReport resumed = max_flow(g, s, t, opt, r2);
    expect_identical(want, observe(resumed, resumed_ledger), where + " (resumed)");
  }
  EXPECT_TRUE(past_last_boundary) << tag << ": sweep never ran past the last boundary";
}

void min_cost_preempt_sweep(clique::RoutingMode mode, int threads) {
  const graph::Digraph g = graph::random_unit_cost_digraph(9, 24, 5, base_seed() + 41);
  const std::vector<std::int64_t> sigma =
      graph::feasible_unit_demands(g, 2, base_seed() + 91);
  const std::string tag =
      std::string(clique::to_string(mode)) + "_t" + std::to_string(threads);

  Runtime base_rt;
  base_rt.threads = threads;
  base_rt.routing_mode = mode;

  obs::RoundLedger ref_ledger;
  Runtime ref_rt = base_rt;
  ref_rt.trace = &ref_ledger;
  ref_rt.checkpoint_path = tmp_path("mc_ref_" + tag);
  const Observed want =
      observe(min_cost_flow(g, sigma, quick_min(), ref_rt), ref_ledger);

  bool past_last_boundary = false;
  for (std::int64_t batch = 0; batch < 256 && !past_last_boundary; ++batch) {
    const std::string where = tag + " preempt=" + std::to_string(batch);
    const std::string path = tmp_path("mc_sweep_" + tag);
    fault::FaultPlan plan(
        fault::parse_fault_spec("preempt=" + std::to_string(batch)), 1);
    obs::RoundLedger preempt_ledger;
    Runtime r1 = base_rt;
    r1.trace = &preempt_ledger;
    r1.faults = &plan;
    r1.checkpoint_path = path;
    bool preempted = false;
    try {
      const flow::MinCostIpmReport full = min_cost_flow(g, sigma, quick_min(), r1);
      expect_identical(want, observe(full, preempt_ledger), where + " (ran through)");
      past_last_boundary = true;
    } catch (const fault::PreemptError&) {
      preempted = true;
    }
    if (!preempted) continue;

    obs::RoundLedger resumed_ledger;
    Runtime r2 = base_rt;
    r2.trace = &resumed_ledger;
    r2.checkpoint_path = path;
    r2.resume = true;
    const flow::MinCostIpmReport resumed = min_cost_flow(g, sigma, quick_min(), r2);
    expect_identical(want, observe(resumed, resumed_ledger), where + " (resumed)");
  }
  EXPECT_TRUE(past_last_boundary) << tag << ": sweep never ran past the last boundary";
}

TEST(CheckpointSweep, MaxFlowPreemptEveryBatchAllModesAndThreads) {
  for (clique::RoutingMode mode :
       {clique::RoutingMode::kCharged, clique::RoutingMode::kExecuted,
        clique::RoutingMode::kBroadcast}) {
    for (int threads : {1, 8}) {
      max_flow_preempt_sweep("all", sweep_flow_network(), quick_max(), 0, mode, threads);
    }
  }
}

// The sweep instance above spends its whole budget on Boosting, with both of
// its solves before boundary 0, so none of its resumes lands before a solve.
// This 24-vertex, 96-arc instance at iteration_scale 0.02 runs 60 Boosting
// steps in its first 60 iterations and then augments on the boosted
// topology, so a run resumed at boundary 60 or later builds a fresh
// electrical solver (and its factor analysis) where the uninterrupted run
// refactors the one it already has — and must still match it byte for byte.
TEST(CheckpointSweep, MaxFlowResumeAfterLastBoost) {
  const graph::Digraph g = graph::random_flow_network(24, 96, 4, base_seed() + 40);
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  max_flow_preempt_sweep("boosted", g, opt, 60, clique::RoutingMode::kCharged, 1);
}

TEST(CheckpointSweep, MinCostPreemptEveryBatchAllModesAndThreads) {
  for (clique::RoutingMode mode :
       {clique::RoutingMode::kCharged, clique::RoutingMode::kExecuted,
        clique::RoutingMode::kBroadcast}) {
    for (int threads : {1, 8}) min_cost_preempt_sweep(mode, threads);
  }
}

// --- checkpointing is observationally free -------------------------------

TEST(CheckpointOverhead, WriterChangesNothingMaxFlow) {
  const graph::Digraph g = graph::random_flow_network(12, 30, 6, base_seed() + 42);
  flow::MaxFlowIpmOptions opt;
  opt.iteration_scale = 0.02;
  opt.max_iterations = 400;

  obs::RoundLedger plain_ledger;
  Runtime plain_rt;
  plain_rt.trace = &plain_ledger;
  const Observed plain = observe(max_flow(g, 0, 11, opt, plain_rt), plain_ledger);

  obs::RoundLedger ck_ledger;
  Runtime ck_rt;
  ck_rt.trace = &ck_ledger;
  ck_rt.checkpoint_path = tmp_path("overhead_mf");
  const Observed with = observe(max_flow(g, 0, 11, opt, ck_rt), ck_ledger);
  expect_identical(plain, with, "maxflow with writer attached");
}

TEST(CheckpointOverhead, WriterChangesNothingMinCost) {
  const graph::Digraph g =
      graph::random_unit_cost_digraph(10, 40, 7, base_seed() + 43);
  const std::vector<std::int64_t> sigma =
      graph::feasible_unit_demands(g, 3, base_seed() + 93);
  flow::MinCostIpmOptions opt;
  opt.iteration_scale = 0.002;
  opt.max_iterations = 60;

  obs::RoundLedger plain_ledger;
  Runtime plain_rt;
  plain_rt.trace = &plain_ledger;
  const Observed plain =
      observe(min_cost_flow(g, sigma, opt, plain_rt), plain_ledger);

  obs::RoundLedger ck_ledger;
  Runtime ck_rt;
  ck_rt.trace = &ck_ledger;
  ck_rt.checkpoint_path = tmp_path("overhead_mc");
  ck_rt.checkpoint_every = 2;
  const Observed with = observe(min_cost_flow(g, sigma, opt, ck_rt), ck_ledger);
  expect_identical(plain, with, "mincost with writer attached");
}

// --- container hardening -------------------------------------------------

/// Commits a real checkpoint by preempting a run at boundary 2, and returns
/// the file path.
std::string make_checkpoint_file(const std::string& name, const graph::Digraph& g,
                                 const char* spec = "preempt=2") {
  const std::string path = tmp_path(name);
  fault::FaultPlan plan(fault::parse_fault_spec(spec), 7);
  Runtime rt;
  rt.routing_mode = clique::RoutingMode::kCharged;
  rt.faults = &plan;
  rt.checkpoint_path = path;
  EXPECT_THROW(max_flow(g, 0, g.num_vertices() - 1, quick_max(), rt),
               fault::PreemptError);
  return path;
}

void expect_checkpoint_error(const std::string& path,
                             const std::vector<std::string>& any_of) {
  try {
    (void)ckpt::load_checkpoint(path);
    FAIL() << "expected CheckpointError mentioning '" << any_of.front() << "'";
  } catch (const ckpt::CheckpointError& ex) {
    const std::string what = ex.what();
    bool matched = false;
    for (const std::string& needle : any_of) {
      matched = matched || what.find(needle) != std::string::npos;
    }
    EXPECT_TRUE(matched) << what;
    EXPECT_NE(what.find(path), std::string::npos)
        << "diagnostic does not locate the file: " << what;
  }
}

TEST(CheckpointFormat, RoundTripsThroughDisk) {
  const std::string path = make_checkpoint_file("fmt_roundtrip", sweep_flow_network());
  const ckpt::Checkpoint ck = ckpt::load_checkpoint(path);
  EXPECT_EQ(ck.schema, ckpt::kSchemaVersion);
  EXPECT_EQ(ck.algo, "maxflow");
  EXPECT_EQ(ck.batch, 2);
  EXPECT_EQ(ck.graph_hash, ckpt::graph_hash(sweep_flow_network()));
  EXPECT_EQ(ck.routing_mode, clique::to_string(clique::RoutingMode::kCharged));
  EXPECT_TRUE(ck.has_fault_plan);
  EXPECT_EQ(ck.fault_spec, "preempt=2");
  EXPECT_FALSE(ck.state.empty());
}

TEST(CheckpointFormat, MissingFileRejected) {
  expect_checkpoint_error(tmp_path("fmt_does_not_exist"), {"cannot"});
}

TEST(CheckpointFormat, TruncatedFileRejected) {
  const std::string path = make_checkpoint_file("fmt_trunc_src", sweep_flow_network());
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 20u);
  const std::string trunc = tmp_path("fmt_trunc");
  // Every prefix must be rejected, never parsed into garbage: below the
  // minimum frame, mid-body, and one byte short of the checksum.
  // Below the minimum frame the framing check names the truncation; past
  // it, a clean cut is indistinguishable from corruption and the checksum
  // rejects it.  Either way: a located error, never garbage state.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{11}}) {
    spew(trunc, bytes.substr(0, cut));
    expect_checkpoint_error(trunc, {"truncated"});
  }
  for (const std::size_t cut : {bytes.size() / 2, bytes.size() - 1}) {
    spew(trunc, bytes.substr(0, cut));
    expect_checkpoint_error(trunc, {"truncated", "checksum mismatch"});
  }
}

TEST(CheckpointFormat, ChecksumMismatchRejected) {
  const std::string path = make_checkpoint_file("fmt_corrupt_src", sweep_flow_network());
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  const std::string corrupt = tmp_path("fmt_corrupt");
  spew(corrupt, bytes);
  expect_checkpoint_error(corrupt, {"checksum mismatch"});
}

TEST(CheckpointFormat, BadMagicRejected) {
  const std::string path = make_checkpoint_file("fmt_magic_src", sweep_flow_network());
  std::string bytes = slurp(path);
  bytes[0] = 'X';
  const std::string bad = tmp_path("fmt_magic");
  spew(bad, bytes);
  expect_checkpoint_error(bad, {"bad magic"});
}

TEST(CheckpointFormat, SchemaSkewRejected) {
  const std::string path = make_checkpoint_file("fmt_schema_src", sweep_flow_network());
  std::string bytes = slurp(path);
  // A well-formed file from a hypothetical future writer: bump the schema
  // word and re-stamp the checksum, so the skew check (not the checksum)
  // must be what rejects it.
  bytes[8] = static_cast<char>(bytes[8] + 1);
  const std::uint64_t sum = ckpt::fnv1a64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  const std::string skewed = tmp_path("fmt_schema");
  spew(skewed, bytes);
  expect_checkpoint_error(skewed, {"schema version skew"});
}

/// Re-stamps the FNV-1a tail, so the body decoder, not the checksum, is what
/// sees an edit.
void restamp(std::string& bytes) {
  const std::uint64_t sum = ckpt::fnv1a64(bytes.data(), bytes.size() - 8);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>(sum >> (8 * i));
  }
}

/// Overwrites the little-endian u64 at byte `at`.
void poke_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/// `decode` must throw a CheckpointError located at byte `at`; any other
/// outcome (a result, or another exception type) fails.
template <typename Decode>
void expect_rejected_at(const Decode& decode, long long at, const std::string& what) {
  try {
    decode();
    ADD_FAILURE() << what << ": decoded without error";
  } catch (const ckpt::CheckpointError& ex) {
    EXPECT_EQ(ex.offset(), at) << what << ": " << ex.what();
  } catch (const std::exception& ex) {
    ADD_FAILURE() << what << ": threw a non-CheckpointError: " << ex.what();
  }
}

TEST(CheckpointFormat, HugeCountsRejected) {
  // A minimal container — no fault plan, no ledger, empty op log, empty
  // payload — whose body ends with the op-log count (8 bytes), the ledger
  // flag (4), and the payload length (8).
  ckpt::Checkpoint ck;
  ck.algo = "maxflow";
  ck.routing_mode = "charged";
  const std::string clean = ckpt::encode_checkpoint(ck);
  const std::size_t op_count_at = clean.size() - 8 - 8 - 4 - 8;
  // Counts whose reserve would throw std::length_error (2^58 records) or
  // std::bad_alloc (2^40 records).
  for (const std::uint64_t count : {std::uint64_t{1} << 58, std::uint64_t{1} << 40}) {
    std::string bytes = clean;
    poke_u64(bytes, op_count_at, count);
    restamp(bytes);
    expect_rejected_at([&] { (void)ckpt::decode_checkpoint("huge.ckpt", bytes); },
                       static_cast<long long>(op_count_at),
                       "op-log count " + std::to_string(count));
  }
  // An algo length of 2^64 - 4: a bounds check that adds it to the cursor
  // wraps, accepts it, and moves the cursor back 4 bytes.
  {
    std::string bytes = clean;
    poke_u64(bytes, 12, ~std::uint64_t{0} - 3);
    restamp(bytes);
    expect_rejected_at([&] { (void)ckpt::decode_checkpoint("huge.ckpt", bytes); },
                       12, "algo length 2^64 - 4");
  }
  // An f64 vector of 2^61 + 1 elements: len * 8 wraps to 8, which the
  // 8 bytes that follow would satisfy.
  {
    ckpt::Encoder e;
    e.u64((std::uint64_t{1} << 61) + 1);
    e.f64(1.0);
    ckpt::Decoder d("vec", e.bytes());
    expect_rejected_at([&] { (void)d.f64_vec(); }, 0, "f64 vector of 2^61 + 1");
  }
  // Max-flow's own payload: the transformed-edge count follows 11 scalars
  // and the potential vector y.  Resuming must reject it, located in the
  // payload.
  {
    ckpt::Checkpoint real =
        ckpt::load_checkpoint(make_checkpoint_file("huge_src", sweep_flow_network()));
    ckpt::Decoder d("payload", real.state);
    for (int i = 0; i < 11; ++i) (void)d.u64();
    (void)d.f64_vec();
    const auto edge_count_at = static_cast<std::size_t>(d.offset());
    ASSERT_LT(edge_count_at + 8, real.state.size());
    poke_u64(real.state, edge_count_at, std::uint64_t{1} << 58);
    const std::string path = tmp_path("huge_edges");
    ckpt::save_checkpoint(path, real);
    Runtime rt;
    rt.routing_mode = clique::RoutingMode::kCharged;
    rt.checkpoint_path = path;
    rt.resume = true;
    expect_rejected_at(
        [&] { (void)max_flow(sweep_flow_network(), 0, 9, quick_max(), rt); },
        static_cast<long long>(edge_count_at), "max-flow edge count 2^58");
  }
}

// --- fixed-seed mutation fuzzing of the container decoder ----------------

/// The bytes of a real checkpoint committed with a fault plan and a trace
/// ledger attached, so every container section is present.  The instances
/// are fixed; LAPCLIQUE_TEST_SEED moves only the mutations.
std::string fuzz_source(const std::string& name, bool min_cost) {
  const std::string path = tmp_path(name);
  fault::FaultPlan plan(fault::parse_fault_spec("preempt=2"), 7);
  obs::RoundLedger ledger;
  Runtime rt;
  rt.routing_mode = clique::RoutingMode::kCharged;
  rt.faults = &plan;
  rt.trace = &ledger;
  rt.checkpoint_path = path;
  try {
    if (min_cost) {
      const graph::Digraph g = graph::random_unit_cost_digraph(9, 24, 5, 58);
      (void)min_cost_flow(g, graph::feasible_unit_demands(g, 2, 108), quick_min(), rt);
    } else {
      (void)max_flow(graph::random_flow_network(10, 24, 4, 57), 0, 9, quick_max(), rt);
    }
  } catch (const fault::PreemptError&) {
    // Boundary 2's checkpoint is committed before the preempt fires.
  }
  return slurp(path);
}

TEST(CheckpointFuzz, MutatedContainersDecodeOrReject) {
  constexpr int kMutations = 300;
  // Values an 8-byte overwrite plants: lengths that wrap a sum or a
  // product, exceed memory, or exceed the file.
  const std::vector<std::uint64_t> large = {
      ~std::uint64_t{0},          ~std::uint64_t{0} - 3,   std::uint64_t{1} << 63,
      (std::uint64_t{1} << 61) + 1, std::uint64_t{1} << 58, std::uint64_t{1} << 40,
      std::uint64_t{1} << 32,     0x7fffffffULL,           4096};
  graph::SplitMix64 rng(base_seed());
  for (const bool min_cost : {false, true}) {
    const std::string source = fuzz_source(min_cost ? "fuzz_mc" : "fuzz_mf", min_cost);
    const std::size_t payload = ckpt::decode_checkpoint("fuzz.ckpt", source).state.size();
    const std::size_t body_end = source.size() - 8;
    // Flips and overwrites land before the payload bytes, which the
    // container decoder treats as opaque; truncations cut anywhere.
    const std::size_t structure_end = body_end - payload;
    ASSERT_GT(structure_end, 64u);
    for (int i = 0; i < kMutations; ++i) {
      std::string bytes = source;
      std::string what;
      switch (rng.next_below(3)) {
        case 0: {
          const std::size_t at = rng.next_below(structure_end);
          bytes[at] = static_cast<char>(bytes[at] ^ static_cast<char>(1 + rng.next_below(255)));
          what = "byte flip at " + std::to_string(at);
          break;
        }
        case 1: {
          const std::size_t at = rng.next_below(structure_end - 7);
          const std::uint64_t v = large[rng.next_below(large.size())];
          poke_u64(bytes, at, v);
          what = "u64 " + std::to_string(v) + " at " + std::to_string(at);
          break;
        }
        default: {
          const std::size_t keep = rng.next_below(body_end);
          bytes = source.substr(0, keep) + std::string(8, '\0');
          what = "cut after byte " + std::to_string(keep);
          break;
        }
      }
      restamp(bytes);
      try {
        (void)ckpt::decode_checkpoint("fuzz.ckpt", bytes);
      } catch (const ckpt::CheckpointError&) {
        // The one allowed failure.
      } catch (const std::exception& ex) {
        ADD_FAILURE() << (min_cost ? "mincost " : "maxflow ") << what
                      << ": threw a non-CheckpointError: " << ex.what();
      }
    }
  }
}

void expect_resume_rejected(const graph::Digraph& g, const Runtime& rt,
                            const char* needle) {
  try {
    (void)max_flow(g, 0, g.num_vertices() - 1, quick_max(), rt);
    FAIL() << "expected CheckpointError mentioning '" << needle << "'";
  } catch (const ckpt::CheckpointError& ex) {
    EXPECT_NE(std::string(ex.what()).find(needle), std::string::npos) << ex.what();
  }
}

TEST(CheckpointCompat, GraphHashMismatchRejected) {
  const std::string path = make_checkpoint_file("compat_ghash", sweep_flow_network());
  const graph::Digraph other = graph::random_flow_network(10, 24, 4, base_seed() + 77);
  Runtime rt;
  rt.routing_mode = clique::RoutingMode::kCharged;
  rt.checkpoint_path = path;
  rt.resume = true;
  expect_resume_rejected(other, rt, "graph hash mismatch");
}

TEST(CheckpointCompat, RoutingModeMismatchRejected) {
  const std::string path = make_checkpoint_file("compat_mode", sweep_flow_network());
  Runtime rt;
  rt.routing_mode = clique::RoutingMode::kBroadcast;
  rt.checkpoint_path = path;
  rt.resume = true;
  expect_resume_rejected(sweep_flow_network(), rt, "routing mode mismatch");
}

TEST(CheckpointCompat, AlgorithmMismatchRejected) {
  const std::string path = make_checkpoint_file("compat_algo", sweep_flow_network());
  const graph::Digraph g = graph::random_unit_cost_digraph(9, 24, 5, base_seed() + 41);
  const std::vector<std::int64_t> sigma =
      graph::feasible_unit_demands(g, 2, base_seed() + 91);
  Runtime rt;
  rt.routing_mode = clique::RoutingMode::kCharged;
  rt.checkpoint_path = path;
  rt.resume = true;
  try {
    (void)min_cost_flow(g, sigma, quick_min(), rt);
    FAIL() << "expected CheckpointError";
  } catch (const ckpt::CheckpointError& ex) {
    EXPECT_NE(std::string(ex.what()).find("algorithm"), std::string::npos) << ex.what();
  }
}

TEST(CheckpointCompat, FaultConfigMismatchRejected) {
  // Checkpoint written under an accounting-relevant fault plan; resuming
  // without it would replay a different fault stream, so it must refuse.
  const std::string path = make_checkpoint_file("compat_faults", sweep_flow_network(),
                                                "drop=0.05,preempt=2");
  Runtime rt;
  rt.routing_mode = clique::RoutingMode::kCharged;
  rt.checkpoint_path = path;
  rt.resume = true;
  expect_resume_rejected(sweep_flow_network(), rt, "fault configuration mismatch");
}

TEST(CheckpointCompat, TracerWithoutCheckpointedLedgerRejected) {
  // make_checkpoint_file attaches no tracer, so the checkpoint carries no
  // ledger; a traced resume must refuse before restoring anything.
  const std::string path = make_checkpoint_file("compat_tracer", sweep_flow_network());
  obs::RoundLedger ledger;
  Runtime rt;
  rt.routing_mode = clique::RoutingMode::kCharged;
  rt.trace = &ledger;
  rt.checkpoint_path = path;
  rt.resume = true;
  expect_resume_rejected(sweep_flow_network(), rt, "carries none");
  EXPECT_EQ(ledger.total_rounds(), 0);
}

// --- preempt grammar and signature ---------------------------------------

TEST(FaultSpecPreempt, GrammarRoundTrip) {
  const fault::FaultSpec spec = fault::parse_fault_spec("preempt=3");
  EXPECT_EQ(spec.preempt_at, 3);
  EXPECT_FALSE(spec.any_transport_faults());
  EXPECT_EQ(fault::to_string(spec), "preempt=3");

  const fault::FaultSpec mixed = fault::parse_fault_spec("drop=0.05,preempt=7");
  EXPECT_TRUE(mixed.any_transport_faults());
  EXPECT_EQ(mixed.preempt_at, 7);
  EXPECT_EQ(fault::parse_fault_spec(fault::to_string(mixed)).preempt_at, 7);

  EXPECT_THROW((void)fault::parse_fault_spec("preempt=-2"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_fault_spec("preempt=x"), std::invalid_argument);
}

TEST(FaultSpecPreempt, SignatureStripsPreemptClause) {
  EXPECT_EQ(ckpt::fault_signature(nullptr), "");
  fault::FaultPlan preempt_only(fault::parse_fault_spec("preempt=5"), 9);
  EXPECT_EQ(ckpt::fault_signature(&preempt_only), "");

  fault::FaultPlan mixed(fault::parse_fault_spec("drop=0.05,preempt=5"), 9);
  fault::FaultSpec stripped = mixed.spec();
  stripped.preempt_at = fault::FaultSpec::kNever;
  EXPECT_EQ(ckpt::fault_signature(&mixed), fault::to_string(stripped) + "#9");
}

TEST(FaultSpecPreempt, PreemptFiresWithoutWriter) {
  // `preempt=` is a process-level drill: it stops the run at the boundary
  // even when no checkpoint path is configured (there is just nothing to
  // resume from afterwards).
  fault::FaultPlan plan(fault::parse_fault_spec("preempt=1"), 1);
  Runtime rt;
  rt.faults = &plan;
  try {
    (void)max_flow(sweep_flow_network(), 0, 9, quick_max(), rt);
    FAIL() << "expected PreemptError";
  } catch (const fault::PreemptError& ex) {
    EXPECT_NE(std::string(ex.what()).find("batch 1"), std::string::npos) << ex.what();
  }
}

}  // namespace
}  // namespace lapclique
