#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/checkpoint.hpp"
#include "fl/fault.hpp"
#include "fl/flat_utils.hpp"
#include "fl/runner.hpp"
#include "fl/server_opt.hpp"

namespace spatl::fl {
namespace {

data::Dataset small_source(std::uint64_t seed = 11) {
  data::SyntheticConfig cfg;
  cfg.num_samples = 400;
  cfg.image_size = 8;
  cfg.num_classes = 10;
  cfg.noise_stddev = 0.2f;
  cfg.seed = seed;
  return data::make_synth_cifar(cfg);
}

FlConfig small_config() {
  FlConfig cfg;
  cfg.model.arch = "cnn2";
  cfg.model.in_channels = 3;
  cfg.model.input_size = 8;
  cfg.model.width_mult = 0.25;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 32;
  cfg.local.lr = 0.05;
  cfg.seed = 21;
  return cfg;
}

std::vector<float> global_weights(FederatedAlgorithm& algo) {
  return nn::flatten_values(algo.global_model().all_params());
}

std::unique_ptr<FederatedAlgorithm> make_algorithm(const std::string& name,
                                                   FlEnvironment& env) {
  if (name == "spatl") {
    core::SpatlOptions sopts;
    // One fine-tune round with one episode exercises the PPO agent state
    // (policy net, Adam moments, RNG cursor) without dominating runtime.
    sopts.agent_finetune_rounds = 1;
    sopts.agent_finetune_episodes = 1;
    return std::make_unique<core::SpatlAlgorithm>(env, small_config(), sopts);
  }
  if (name == "fedavgm" || name == "fedadam") {
    // The CLI's server-optimizer settings.
    ServerOptConfig sopt;
    sopt.optimizer = name == "fedavgm" ? ServerOptimizer::kMomentum
                                       : ServerOptimizer::kAdam;
    sopt.lr = name == "fedadam" ? 0.1 : 0.5;
    sopt.momentum = 0.5;
    return std::make_unique<ServerOptFedAvg>(env, small_config(), sopt);
  }
  return make_baseline(name, env, small_config());
}

// -------------------------------------------------- lossless pack helpers --

TEST(CheckpointPack, FloatsRoundTripBitExactly) {
  const std::vector<float> values = {0.0f, -0.0f, 1.5f,
                                     std::numeric_limits<float>::max(),
                                     std::numeric_limits<float>::denorm_min(),
                                     -3.1415927f};
  const auto t = pack_floats("x", values);
  EXPECT_EQ(t.name, "x");
  const auto back = unpack_floats(t.value);
  ASSERT_EQ(back.size(), values.size());
  EXPECT_EQ(
      std::memcmp(back.data(), values.data(), values.size() * sizeof(float)),
      0);
}

TEST(CheckpointPack, U64sSurviveTheFloat32Container) {
  // 64-bit words do not fit a float; the packing splits them into 16-bit
  // chunks, each exactly representable. Extremes must survive.
  const std::vector<std::uint64_t> values = {
      0ULL, 1ULL, 0xFFFFFFFFFFFFFFFFULL, 0x123456789ABCDEF0ULL,
      0x8000000000000001ULL};
  const auto back = unpack_u64s(pack_u64s("n", values).value);
  EXPECT_EQ(back, values);
}

TEST(CheckpointPack, DoublesRoundTripByBitPattern) {
  const std::vector<double> values = {
      0.0, -0.0, 1.5, -2.718281828459045, 1e300,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  const auto back = unpack_doubles(pack_doubles("d", values).value);
  ASSERT_EQ(back.size(), values.size());
  EXPECT_EQ(
      std::memcmp(back.data(), values.data(), values.size() * sizeof(double)),
      0);
}

TEST(CheckpointPack, RngCursorResumesTheExactStream) {
  common::Rng rng(123);
  // Advance past a Box-Muller draw so the cached second deviate is live —
  // the cursor must carry it, or the next normal() diverges.
  for (int i = 0; i < 7; ++i) rng.uniform();
  (void)rng.normal();
  const auto t = pack_rng("r", rng);

  common::Rng restored(999);
  unpack_rng(t.value, restored);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(rng.uniform(), restored.uniform());
    EXPECT_EQ(rng.normal(), restored.normal());
  }
}

TEST(CheckpointPack, RunCheckpointSaveLoadRoundTrips) {
  RunCheckpoint ckpt;
  ckpt.entries.push_back(pack_floats("a/w", {1.0f, 2.0f, 3.0f}));
  ckpt.entries.push_back(pack_u64s("a/round", {42}));
  const std::string path = "ckpt_roundtrip_test.bin";
  ckpt.save(path);
  const RunCheckpoint loaded = RunCheckpoint::load(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ(unpack_floats(loaded.at("a/w")),
            (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(unpack_u64s(loaded.at("a/round")), (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(loaded.find("missing"), nullptr);
  EXPECT_THROW(loaded.at("missing"), std::runtime_error);
  EXPECT_FALSE(loaded.empty());
  EXPECT_TRUE(RunCheckpoint{}.empty());
}

// ----------------------------------------------------- resume bit-identity --

/// `resilient` = false drops the fault and robust-aggregation options, for
/// the algorithms without that path (run_federated refuses the options
/// for them); their resume is then checked on the clean path.
RunOptions resume_options(bool resilient = true) {
  RunOptions opts;
  opts.rounds = 4;
  opts.sample_ratio = 0.75;
  opts.eval_every = 2;
  opts.sampling_seed = 9;
  opts.fault_aware_sampling = true;  // the EMA must survive the checkpoint
  if (!resilient) return opts;
  FaultConfig fc;
  fc.dropout_rate = 0.2;
  fc.loss_rate = 0.2;
  fc.byzantine_clients = {1, 0, 0, 0};  // client 0 attacks every round
  fc.attack_kind = AttackKind::kScale;
  fc.attack_scale = 2.0;
  fc.seed = 400;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kCoordinateMedian;
  opts.resilience = rc;
  return opts;
}

// A run checkpointed at round 2 and resumed into a freshly-constructed
// algorithm must finish bit-identical to the uninterrupted twin: same
// global weights, same metrics, same byte and failure accounting.
class ResumeBitIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(ResumeBitIdentity, ResumedRunMatchesStraightThrough) {
  const auto source = small_source();

  // Uninterrupted twin.
  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto straight = make_algorithm(GetParam(), env1);
  const bool resilient = straight->supports_resilience();
  const auto full = run_federated(*straight, resume_options(resilient));

  // Leg 1: stop after round 2, capturing the snapshot.
  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto first = make_algorithm(GetParam(), env2);
  RunOptions leg1 = resume_options(resilient);
  leg1.rounds = 2;
  leg1.checkpoint_every = 2;
  const auto half = run_federated(*first, leg1);
  ASSERT_EQ(half.checkpoints_written, 1u);
  ASSERT_FALSE(half.last_checkpoint.empty());

  // Leg 2: fresh algorithm ("process restart"), restore, run rounds 3-4.
  common::Rng rng3(37);
  FlEnvironment env3(source, 4, 0.5, 0.25, rng3);
  auto second = make_algorithm(GetParam(), env3);
  RunOptions leg2 = resume_options(resilient);
  leg2.resume = &half.last_checkpoint;
  const auto resumed = run_federated(*second, leg2);

  const auto wa = global_weights(*straight);
  const auto wb = global_weights(*second);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);

  EXPECT_EQ(full.final_accuracy, resumed.final_accuracy);
  EXPECT_EQ(full.best_accuracy, resumed.best_accuracy);
  EXPECT_EQ(full.total_bytes, resumed.total_bytes);
  EXPECT_EQ(full.retransmitted_bytes, resumed.retransmitted_bytes);
  EXPECT_EQ(full.total_selected, resumed.total_selected);
  EXPECT_EQ(full.total_dropped, resumed.total_dropped);
  EXPECT_EQ(full.total_accepted, resumed.total_accepted);
  EXPECT_EQ(full.total_rejected, resumed.total_rejected);
  EXPECT_EQ(full.total_attacked, resumed.total_attacked);
  EXPECT_EQ(full.total_suspected, resumed.total_suspected);
  EXPECT_EQ(full.rounds_skipped, resumed.rounds_skipped);

  // The resumed history covers rounds 3-4 and must equal the straight
  // run's tail record for record.
  ASSERT_LE(resumed.history.size(), full.history.size());
  const std::size_t offset = full.history.size() - resumed.history.size();
  for (std::size_t i = 0; i < resumed.history.size(); ++i) {
    const auto& x = full.history[offset + i];
    const auto& y = resumed.history[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.avg_accuracy, y.avg_accuracy);
    EXPECT_EQ(x.avg_loss, y.avg_loss);
    EXPECT_EQ(x.cumulative_bytes, y.cumulative_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ResumeBitIdentity,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "spatl", "fedavgm",
                                           "fedadam"));

TEST(CheckpointResume, FileBackedCheckpointResumesIdentically) {
  const auto source = small_source();
  const std::string path = "ckpt_resume_test.bin";

  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto straight = make_algorithm("fedavg", env1);
  const auto full = run_federated(*straight, resume_options());

  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto first = make_algorithm("fedavg", env2);
  RunOptions leg1 = resume_options();
  leg1.rounds = 2;
  leg1.checkpoint_every = 2;
  leg1.checkpoint_path = path;
  run_federated(*first, leg1);

  // The on-disk snapshot — not the in-memory one — feeds the resume.
  const RunCheckpoint loaded = RunCheckpoint::load(path);
  std::remove(path.c_str());
  common::Rng rng3(37);
  FlEnvironment env3(source, 4, 0.5, 0.25, rng3);
  auto second = make_algorithm("fedavg", env3);
  RunOptions leg2 = resume_options();
  leg2.resume = &loaded;
  const auto resumed = run_federated(*second, leg2);

  const auto wa = global_weights(*straight);
  const auto wb = global_weights(*second);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(full.final_accuracy, resumed.final_accuracy);
  EXPECT_EQ(full.total_bytes, resumed.total_bytes);
}

TEST(CheckpointResume, ChurnTraceAndParkedCohortSurviveResume) {
  // The hard case: the snapshot is taken with a NON-EMPTY churn trace (the
  // membership machine is mid-replay, clients departed and pending return
  // discounts outstanding) AND a mid-flight parked straggler cohort in the
  // async buffer. Resume must replay both bit-identically.
  const auto source = small_source();

  const auto make_options = [] {
    RunOptions opts;
    opts.rounds = 6;
    opts.eval_every = 2;
    opts.sampling_seed = 9;
    FaultConfig fc;
    fc.straggler_rate = 0.6;
    fc.slowdown_factor = 3.0;
    fc.round_deadline = 2.0;
    fc.seed = 515;
    opts.faults = fc;
    AsyncConfig ac;
    ac.enabled = true;
    ac.max_lag = 4;
    opts.async = ac;
    ChurnConfig cc;
    cc.initial_fraction = 0.75;
    cc.join_rate = 0.4;
    cc.leave_rate = 0.3;
    cc.return_rate = 0.5;
    cc.seed = 99;
    opts.churn = cc;
    return opts;
  };

  common::Rng rng1(37);
  FlEnvironment env1(source, 6, 0.5, 0.25, rng1);
  auto straight = make_algorithm("fedavg", env1);
  const auto full = run_federated(*straight, make_options());
  // The scenario must actually exercise both subsystems.
  ASSERT_GT(full.total_parked, 0u);
  ASSERT_GT(full.total_joined + full.total_left + full.total_returned, 0u);

  common::Rng rng2(37);
  FlEnvironment env2(source, 6, 0.5, 0.25, rng2);
  auto first = make_algorithm("fedavg", env2);
  RunOptions leg1 = make_options();
  leg1.rounds = 3;
  leg1.checkpoint_every = 3;
  const auto half = run_federated(*first, leg1);
  ASSERT_FALSE(half.last_checkpoint.empty());
  // The snapshot carries churn state and (when stragglers were in flight)
  // the parked cohort.
  EXPECT_NE(half.last_checkpoint.find("run/churn/cursor"), nullptr);
  if (half.buffered_remaining > 0) {
    EXPECT_NE(half.last_checkpoint.find("algo/async/n"), nullptr);
  }

  common::Rng rng3(37);
  FlEnvironment env3(source, 6, 0.5, 0.25, rng3);
  auto second = make_algorithm("fedavg", env3);
  RunOptions leg2 = make_options();
  leg2.resume = &half.last_checkpoint;
  const auto resumed = run_federated(*second, leg2);

  const auto wa = global_weights(*straight);
  const auto wb = global_weights(*second);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(full.final_accuracy, resumed.final_accuracy);
  EXPECT_EQ(full.total_bytes, resumed.total_bytes);
  EXPECT_EQ(full.total_parked, resumed.total_parked);
  EXPECT_EQ(full.total_late_commits, resumed.total_late_commits);
  EXPECT_EQ(full.buffered_remaining, resumed.buffered_remaining);
  EXPECT_EQ(full.total_joined, resumed.total_joined);
  EXPECT_EQ(full.total_left, resumed.total_left);
  EXPECT_EQ(full.total_returned, resumed.total_returned);
  EXPECT_EQ(full.total_returning_discounted,
            resumed.total_returning_discounted);
}

// --------------------------------------------------------- divergence guard --

TEST(DivergenceGuard, RollsBackExplodedRoundsAndReaggregatesRobustly) {
  const auto source = small_source();
  common::Rng rng(109);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 3;
  FaultConfig fc;
  // One colluder pushing an enormous fixed direction: the payload stays
  // finite (so validation admits it) but the mean-aggregated model
  // overflows activations and the evaluation loss goes non-finite.
  fc.byzantine_clients = {1, 0, 0, 0};
  fc.attack_kind = AttackKind::kFixedDirection;
  fc.attack_scale = 1.0e30;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kWeightedMean;
  opts.resilience = rc;
  opts.divergence_factor = 2.0;
  opts.divergence_fallback = AggregatorKind::kCoordinateMedian;

  const auto result = run_federated(algo, opts);
  EXPECT_GT(result.rounds_rolled_back, 0u);
  bool flagged = false;
  for (const auto& rec : result.history) flagged |= rec.stats.rolled_back;
  EXPECT_TRUE(flagged);
  // The fallback median kept the model sane despite the guaranteed-hostile
  // mean path.
  EXPECT_TRUE(is_finite(global_weights(algo)));
  EXPECT_TRUE(std::isfinite(result.history.back().avg_loss));
}

TEST(DivergenceGuard, QuietRunsAreNeverRolledBack) {
  const auto source = small_source();
  common::Rng rng(113);
  FlEnvironment env(source, 4, 5.0, 0.25, rng);
  FedAvg algo(env, small_config());

  RunOptions opts;
  opts.rounds = 3;
  opts.divergence_factor = 10.0;  // generous: normal training never trips it
  const auto result = run_federated(algo, opts);
  EXPECT_EQ(result.rounds_rolled_back, 0u);
  for (const auto& rec : result.history) EXPECT_FALSE(rec.stats.rolled_back);
}

}  // namespace
}  // namespace spatl::fl
