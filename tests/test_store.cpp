#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/spatl.hpp"
#include "data/synthetic.hpp"
#include "fl/algorithm.hpp"
#include "fl/checkpoint.hpp"
#include "fl/fault.hpp"
#include "fl/flat_utils.hpp"
#include "fl/runner.hpp"
#include "fl/store/error.hpp"
#include "fl/store/format.hpp"
#include "fl/store/io.hpp"
#include "fl/store/store.hpp"
#include "obs/export.hpp"

namespace spatl::fl {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the system temp root; removed on scope
/// exit so failed runs cannot poison later ones.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_((fs::temp_directory_path() / ("spatl_store_" + tag)).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<tensor::NamedTensor> sample_entries() {
  std::vector<tensor::NamedTensor> entries;
  entries.push_back(pack_floats("model/w", {1.5f, -2.25f, 0.0f}));
  entries.push_back(pack_u64s("run/round", {7, 0xFFFFFFFFFFFFFFFFULL}));
  entries.push_back(pack_floats("empty", {}));
  return entries;
}

void expect_same_entries(const std::vector<tensor::NamedTensor>& a,
                         const std::vector<tensor::NamedTensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    ASSERT_EQ(a[i].value.shape(), b[i].value.shape());
    ASSERT_EQ(a[i].value.numel(), b[i].value.numel());
    EXPECT_EQ(std::memcmp(a[i].value.data(), b[i].value.data(),
                          a[i].value.numel() * sizeof(float)),
              0);
  }
}

// ------------------------------------------------------- envelope format --

TEST(StoreFormat, Crc32KnownAnswer) {
  // The IEEE 802.3 check value: CRC32("123456789") == 0xCBF43926.
  const char* msg = "123456789";
  EXPECT_EQ(store::crc32(msg, 9), 0xCBF43926u);
  // Chaining partial computations matches one pass.
  const std::uint32_t partial = store::crc32(msg, 4);
  EXPECT_EQ(store::crc32(msg + 4, 5, partial), 0xCBF43926u);
  EXPECT_EQ(store::crc32(msg, 0), 0u);
}

TEST(StoreFormat, EncodeDecodeRoundTrips) {
  const auto entries = sample_entries();
  const std::string bytes = store::encode_checkpoint(entries);
  const auto back = store::decode_checkpoint(bytes, "mem");
  expect_same_entries(entries, back);
  // No-entry checkpoints are legal (header + empty footer).
  const std::string none = store::encode_checkpoint({});
  EXPECT_TRUE(store::decode_checkpoint(none, "mem").empty());
}

TEST(StoreFormat, EveryTruncationIsDetected) {
  const std::string bytes = store::encode_checkpoint(sample_entries());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(store::decode_checkpoint(bytes.substr(0, len), "mem"),
                 store::CheckpointError)
        << "truncation to " << len << " bytes went undetected";
  }
  EXPECT_THROW(store::decode_checkpoint(bytes + 'x', "mem"),
               store::CheckpointError);
}

TEST(StoreFormat, EverySingleBitFlipIsDetected) {
  // Walk a flip across every byte of the file — header, entry bytes, the
  // per-entry CRCs, the payload CRC, and the footer magic — cycling the bit
  // position so all eight bit lanes get coverage.
  const std::string bytes = store::encode_checkpoint(sample_entries());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = char(std::uint8_t(corrupt[i]) ^ (1u << (i % 8)));
    EXPECT_THROW(store::decode_checkpoint(corrupt, "mem"),
                 store::CheckpointError)
        << "bit flip at byte " << i << " went undetected";
  }
}

TEST(StoreFormat, ErrorsCarryPathEntryAndReason) {
  const std::string bytes = store::encode_checkpoint(sample_entries());
  std::string corrupt = bytes;
  corrupt[20] = char(std::uint8_t(corrupt[20]) ^ 0x10);  // inside entry 0
  try {
    store::decode_checkpoint(corrupt, "gen.spatl");
    FAIL() << "corrupt envelope decoded";
  } catch (const store::CheckpointError& e) {
    EXPECT_EQ(e.path(), "gen.spatl");
    EXPECT_FALSE(e.reason().empty());
    EXPECT_NE(std::string(e.what()).find("gen.spatl"), std::string::npos);
  }
}

// ------------------------------------------------ lossless pack hardening --

TEST(CheckpointPackValidation, RejectsCorruptedU64Chunks) {
  // Each chunk must be an integral float in [0, 65535]; the legacy code
  // cast silently and a bit-flipped tensor decoded to a plausible wrong
  // word (undefined behaviour for NaN/Inf).
  const auto good = pack_u64s("n", {1, 2});
  for (const float bad : {70000.0f, -1.0f, 0.5f,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    auto t = good;
    t.value[3] = bad;
    EXPECT_THROW(unpack_u64s(t.value), store::CheckpointError)
        << "chunk value " << bad << " accepted";
  }
  // Chunk counts must stay a multiple of four words.
  tensor::Tensor odd({4});  // pad + 3 chunks
  EXPECT_THROW(unpack_u64s(odd), std::runtime_error);
  EXPECT_EQ(unpack_u64s(good.value), (std::vector<std::uint64_t>{1, 2}));
}

TEST(CheckpointPackValidation, SeededPropertyRoundTrip) {
  // Randomized round-trips through pack -> envelope encode/decode ->
  // unpack: u64 words, doubles reconstructed from raw 64-bit patterns
  // (NaN/Inf payloads included), floats, and RNG cursors; empty payloads
  // are forced on the first iteration.
  common::Rng rng(2026);
  const auto word = [&rng] {
    return (rng.uniform_index(1ULL << 32) << 32) |
           rng.uniform_index(1ULL << 32);
  };
  for (int iter = 0; iter < 24; ++iter) {
    const std::size_t n = iter == 0 ? 0 : rng.uniform_index(17);
    std::vector<std::uint64_t> words(n);
    std::vector<double> doubles(n);
    std::vector<float> floats(n);
    for (std::size_t i = 0; i < n; ++i) {
      words[i] = word();
      // Bias some doubles to special bit patterns.
      std::uint64_t dbits = word();
      if (i % 5 == 1) dbits = 0x7FF0000000000000ULL;          // +Inf
      if (i % 5 == 2) dbits = 0xFFF8000000000001ULL;          // quiet NaN
      if (i % 5 == 3) dbits = 0x0000000000000001ULL;          // denormal
      std::memcpy(&doubles[i], &dbits, sizeof(double));
      floats[i] = float(rng.normal());
    }
    common::Rng stream(word());
    for (std::uint64_t k = rng.uniform_index(9); k > 0; --k) stream.uniform();
    if (iter % 2 == 0) (void)stream.normal();  // cached Box-Muller deviate

    std::vector<tensor::NamedTensor> entries;
    entries.push_back(pack_u64s("w", words));
    entries.push_back(pack_doubles("d", doubles));
    entries.push_back(pack_floats("f", floats));
    entries.push_back(pack_rng("r", stream));
    const auto back =
        store::decode_checkpoint(store::encode_checkpoint(entries), "mem");
    ASSERT_EQ(back.size(), 4u);

    EXPECT_EQ(unpack_u64s(back[0].value), words);
    // memcmp needs non-null pointers even for zero bytes, and an empty
    // vector's data() may be null: compare payloads only when n > 0.
    const auto d = unpack_doubles(back[1].value);
    ASSERT_EQ(d.size(), doubles.size());
    if (n > 0) {
      EXPECT_EQ(std::memcmp(d.data(), doubles.data(), n * sizeof(double)), 0);
    }
    const auto f = unpack_floats(back[2].value);
    ASSERT_EQ(f.size(), floats.size());
    if (n > 0) {
      EXPECT_EQ(std::memcmp(f.data(), floats.data(), n * sizeof(float)), 0);
    }
    common::Rng restored(1);
    unpack_rng(back[3].value, restored);
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(stream.uniform(), restored.uniform());
      EXPECT_EQ(stream.normal(), restored.normal());
    }
  }
}

TEST(CheckpointPackValidation, LegacySaveIsAtomicAndByteStable) {
  // RunCheckpoint::save now routes through tmp+rename, but the final file
  // bytes must stay exactly the historical tensor-container stream.
  ScratchDir dir("legacy");
  RunCheckpoint ckpt;
  ckpt.entries = sample_entries();
  const std::string path = dir.file("legacy.bin");
  ckpt.save(path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // tmp renamed away

  std::ostringstream direct;
  tensor::write_tensors(direct, ckpt.entries);
  EXPECT_EQ(slurp(path), direct.str());
  expect_same_entries(ckpt.entries, RunCheckpoint::load(path).entries);
  EXPECT_THROW(RunCheckpoint::load(dir.file("missing.bin")),
               store::CheckpointError);
}

// -------------------------------------------------------- generation store --

RunCheckpoint tiny_checkpoint(std::uint64_t round) {
  RunCheckpoint ckpt;
  ckpt.entries.push_back(pack_u64s("run/round", {round}));
  ckpt.entries.push_back(pack_floats("model/w", {float(round), -1.0f}));
  return ckpt;
}

TEST(CheckpointStore, CommitPruneManifestAndLoad) {
  ScratchDir dir("commit");
  store::StoreConfig cfg;
  cfg.dir = dir.path();
  cfg.keep_last = 2;
  store::CheckpointStore st(cfg);

  for (const std::uint64_t round : {2, 4, 6}) {
    EXPECT_TRUE(st.commit(std::size_t(round), tiny_checkpoint(round)));
  }
  EXPECT_EQ(st.commits(), 3u);
  EXPECT_EQ(st.commit_failures(), 0u);

  const auto gens = st.generations();
  ASSERT_EQ(gens.size(), 2u);  // round 2 pruned
  EXPECT_EQ(gens[0].round, 6u);
  EXPECT_EQ(gens[1].round, 4u);
  EXPECT_FALSE(fs::exists(dir.file("ckpt-00000002.spatl")));
  EXPECT_TRUE(fs::exists(gens[0].path));

  const RunCheckpoint loaded = st.load(gens[0]);
  EXPECT_EQ(unpack_u64s(loaded.at("run/round")),
            (std::vector<std::uint64_t>{6}));

  // The manifest is advisory but must list exactly the kept generations.
  const std::string manifest = slurp(dir.file("MANIFEST.json"));
  EXPECT_NE(manifest.find("ckpt-00000004.spatl"), std::string::npos);
  EXPECT_NE(manifest.find("ckpt-00000006.spatl"), std::string::npos);
  EXPECT_EQ(manifest.find("ckpt-00000002.spatl"), std::string::npos);

  // Foreign filenames in the directory are ignored by the scan.
  std::ofstream(dir.file("notes.txt")) << "hi";
  std::ofstream(dir.file("ckpt-woops.spatl")) << "hi";
  EXPECT_EQ(st.generations().size(), 2u);
}

TEST(CheckpointStore, RecoveryLadderStepsPastCorruptNewest) {
  ScratchDir dir("ladder");
  const std::string log = dir.file("telemetry.jsonl");
  store::StoreConfig cfg;
  cfg.dir = dir.file("store");
  cfg.keep_last = 0;  // unlimited
  {
    obs::JsonlWriter telemetry(log);
    store::CheckpointStore st(cfg, nullptr, &telemetry);
    for (const std::uint64_t round : {1, 2, 3}) {
      ASSERT_TRUE(st.commit(std::size_t(round), tiny_checkpoint(round)));
    }
    // Flip one bit in the newest generation on disk: recovery must reject
    // it (typed, telemetered) and land on round 2.
    const auto gens = st.generations();
    ASSERT_EQ(gens.size(), 3u);
    std::string bytes = slurp(gens[0].path);
    bytes[bytes.size() / 2] =
        char(std::uint8_t(bytes[bytes.size() / 2]) ^ 0x04);
    std::ofstream(gens[0].path, std::ios::binary) << bytes;

    std::size_t applied_round = 0;
    const store::RecoveryOutcome out = st.recover_latest(
        [&](const RunCheckpoint& c, const store::Generation& g) {
          applied_round = g.round;
          EXPECT_EQ(unpack_u64s(c.at("run/round")),
                    (std::vector<std::uint64_t>{g.round}));
        });
    ASSERT_TRUE(out.applied.has_value());
    EXPECT_EQ(out.applied->round, 2u);
    EXPECT_EQ(applied_round, 2u);
    EXPECT_EQ(out.failed_attempts, 1u);
  }
  const std::string records = slurp(log);
  EXPECT_NE(records.find("\"type\":\"recovery\""), std::string::npos);
  EXPECT_NE(records.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(records.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(records.find("\"error\""), std::string::npos);
}

TEST(CheckpointStore, LadderExhaustionFallsBackToCaller) {
  ScratchDir dir("exhaust");
  store::StoreConfig cfg;
  cfg.dir = dir.path();
  store::CheckpointStore st(cfg);
  ASSERT_TRUE(st.commit(1, tiny_checkpoint(1)));
  const auto gens = st.generations();
  ASSERT_EQ(gens.size(), 1u);
  std::ofstream(gens[0].path, std::ios::binary) << "garbage";

  const store::RecoveryOutcome out = st.recover_latest(
      [](const RunCheckpoint&, const store::Generation&) {});
  EXPECT_FALSE(out.applied.has_value());
  EXPECT_EQ(out.failed_attempts, 1u);
}

TEST(CheckpointStore, ApplyFailureWalksToOlderGeneration) {
  // A generation can decode cleanly yet fail restore (e.g. missing entries
  // for the running configuration); the ladder must treat that the same as
  // a corrupt file and step down.
  ScratchDir dir("apply");
  store::StoreConfig cfg;
  cfg.dir = dir.path();
  store::CheckpointStore st(cfg);
  ASSERT_TRUE(st.commit(1, tiny_checkpoint(1)));
  ASSERT_TRUE(st.commit(2, tiny_checkpoint(2)));

  const store::RecoveryOutcome out = st.recover_latest(
      [](const RunCheckpoint& c, const store::Generation& g) {
        if (g.round == 2) {
          throw std::runtime_error("incompatible snapshot");
        }
        EXPECT_EQ(unpack_u64s(c.at("run/round")),
                  (std::vector<std::uint64_t>{1}));
      });
  ASSERT_TRUE(out.applied.has_value());
  EXPECT_EQ(out.applied->round, 1u);
  EXPECT_EQ(out.failed_attempts, 1u);
}

TEST(CheckpointStore, VerifyOnCommitUnpublishesTornGeneration) {
  ScratchDir dir("verify");
  StorageFaultConfig faults;
  faults.torn_write_rate = 1.0;  // every write silently truncated
  faults.seed = 77;
  FaultyStoreIo io(faults);
  const std::string log = dir.file("telemetry.jsonl");
  store::StoreConfig cfg;
  cfg.dir = dir.file("store");
  cfg.verify_on_commit = true;
  {
    obs::JsonlWriter telemetry(log);
    store::CheckpointStore st(cfg, &io, &telemetry);
    EXPECT_FALSE(st.commit(1, tiny_checkpoint(1)));
    EXPECT_EQ(st.commit_failures(), 1u);
    // The torn generation was removed: nothing is published, so recovery
    // can never load a file that read-back verification already rejected.
    EXPECT_TRUE(st.generations().empty());
  }
  EXPECT_GE(io.torn_writes(), 1u);
  const std::string records = slurp(log);
  EXPECT_NE(records.find("\"type\":\"recovery\""), std::string::npos);
  EXPECT_NE(records.find("\"phase\":\"commit\""), std::string::npos);
}

// ------------------------------------------------- storage fault injection --

TEST(StorageFaults, InjectionIsDeterministicPerSeedAndSequence) {
  ScratchDir dir("det");
  const std::string payload(512, 'a');
  StorageFaultConfig faults;
  faults.torn_write_rate = 0.5;
  faults.corrupt_rate = 0.3;
  faults.seed = 1234;

  const auto run = [&](const std::string& sub) {
    FaultyStoreIo io(faults);
    fs::create_directories(fs::path(dir.path()) / sub);
    std::vector<std::string> files;
    for (int i = 0; i < 8; ++i) {
      const std::string p =
          (fs::path(dir.path()) / sub / ("f" + std::to_string(i))).string();
      io.write_file(p, payload);
      files.push_back(slurp(p));
    }
    EXPECT_EQ(io.writes(), 8u);
    return std::make_tuple(files, io.torn_writes(), io.corrupted_writes());
  };

  const auto a = run("a");
  const auto b = run("b");
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));  // byte-identical damage
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  // With these rates and 8 writes the drill must actually injure something.
  EXPECT_GE(std::get<1>(a) + std::get<2>(a), 1u);
}

TEST(StorageFaults, SimulatedEnospcThrowsTypedErrorAfterPartialWrite) {
  ScratchDir dir("enospc");
  StorageFaultConfig faults;
  faults.io_error_rate = 1.0;
  FaultyStoreIo io(faults);
  const std::string payload(256, 'z');
  const std::string path = dir.file("victim");
  try {
    io.write_file(path, payload);
    FAIL() << "short write reported success";
  } catch (const store::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("short write"), std::string::npos);
  }
  EXPECT_EQ(io.io_errors(), 1u);
  // The loud failure still leaves a prefix on disk, like a real ENOSPC.
  EXPECT_LT(slurp(path).size(), payload.size());

  // Under atomic commit the damage is confined to the tmp file: the
  // destination never appears.
  const std::string final_path = dir.file("atomic");
  EXPECT_THROW(store::atomic_write_file(io, final_path, payload),
               store::CheckpointError);
  EXPECT_FALSE(fs::exists(final_path));
}

// ----------------------------------------------------- runner chaos drills --

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
    sopts.agent_finetune_rounds = 1;
    sopts.agent_finetune_episodes = 1;
    return std::make_unique<core::SpatlAlgorithm>(env, small_config(), sopts);
  }
  return make_baseline(name, env, small_config());
}

RunOptions chaos_options() {
  RunOptions opts;
  opts.rounds = 4;
  opts.sample_ratio = 0.75;
  opts.eval_every = 2;
  opts.sampling_seed = 9;
  opts.fault_aware_sampling = true;
  FaultConfig fc;
  fc.dropout_rate = 0.2;
  fc.loss_rate = 0.2;
  fc.byzantine_clients = {1, 0, 0, 0};
  fc.attack_kind = AttackKind::kScale;
  fc.attack_scale = 2.0;
  fc.seed = 400;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kCoordinateMedian;
  opts.resilience = rc;
  return opts;
}

/// The chaos acceptance drill: crash mid-run while every store write risks
/// torn bytes and bit rot; the run must finish bit-identical to the
/// uncrashed, storage-fault-free twin for every algorithm.
class StorageChaosBitIdentity : public ::testing::TestWithParam<const char*> {
};

TEST_P(StorageChaosBitIdentity, CrashedChaosRunMatchesCleanTwin) {
  const auto source = small_source();

  // Twin: same FL-level faults, no crashes, no store, no storage faults.
  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto clean = make_algorithm(GetParam(), env1);
  const auto clean_result = run_federated(*clean, chaos_options());

  ScratchDir dir(std::string("chaos_") + GetParam());
  StorageFaultConfig faults;
  faults.torn_write_rate = 0.25;
  faults.corrupt_rate = 0.3;
  faults.seed = 9001;
  FaultyStoreIo io(faults);

  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto chaotic = make_algorithm(GetParam(), env2);
  RunOptions opts = chaos_options();
  opts.checkpoint_every = 1;
  store::StoreConfig sc;
  sc.dir = dir.file("store");
  sc.keep_last = 2;
  opts.ckpt_store = sc;
  opts.store_io = &io;
  opts.crash_at_rounds = {2, 3};
  const std::string log = dir.file("telemetry.jsonl");
  RunResult chaos_result;
  {
    obs::JsonlWriter telemetry(log);
    opts.telemetry = &telemetry;
    chaos_result = run_federated(*chaotic, opts);
  }

  EXPECT_EQ(chaos_result.crashes_injected, 2u);
  EXPECT_GT(chaos_result.store_commits, 0u);
  const auto wa = global_weights(*clean);
  const auto wb = global_weights(*chaotic);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(clean_result.final_accuracy, chaos_result.final_accuracy);

  // Every crash consulted the ladder and left a paper trail.
  const std::string records = slurp(log);
  EXPECT_NE(records.find("\"type\":\"recovery\""), std::string::npos);
  EXPECT_NE(records.find("\"type\":\"crash\""), std::string::npos);
  EXPECT_NE(records.find("\"source\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, StorageChaosBitIdentity,
                         ::testing::Values("fedavg", "fedprox", "fednova",
                                           "scaffold", "spatl"));

TEST(StorageChaos, TornWriteOnEveryCommitStillFinishesBitIdentical) {
  // The worst storage day possible: every single store write is torn, so
  // every generation is corrupt and the ladder exhausts. The drill must
  // fall back to the deterministic baseline and still converge to the
  // exact bytes of the clean twin.
  const auto source = small_source();
  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto clean = make_algorithm("fedavg", env1);
  run_federated(*clean, chaos_options());

  ScratchDir dir("torn_all");
  StorageFaultConfig faults;
  faults.torn_write_rate = 1.0;
  faults.seed = 5;
  FaultyStoreIo io(faults);
  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto chaotic = make_algorithm("fedavg", env2);
  RunOptions opts = chaos_options();
  opts.checkpoint_every = 1;
  store::StoreConfig sc;
  sc.dir = dir.file("store");
  opts.ckpt_store = sc;
  opts.store_io = &io;
  opts.crash_at_rounds = {2};
  const std::string log = dir.file("telemetry.jsonl");
  RunResult result;
  {
    obs::JsonlWriter telemetry(log);
    opts.telemetry = &telemetry;
    result = run_federated(*chaotic, opts);
  }

  EXPECT_EQ(result.crashes_injected, 1u);
  EXPECT_EQ(result.recoveries_from_store, 0u);  // nothing on disk survived
  EXPECT_GT(result.recovery_attempts_failed, 0u);
  const auto wa = global_weights(*clean);
  const auto wb = global_weights(*chaotic);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  const std::string records = slurp(log);
  EXPECT_NE(records.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(records.find("\"source\":\"baseline\""), std::string::npos);
}

/// Find a fault seed whose write-sequence damage pattern matches the drill:
/// write 0 (the round-1 generation) lands clean, write 2 (the round-2
/// generation) is torn. Probed against scratch files with the same
/// deterministic injector the run will use, so the search is exact.
std::uint64_t find_torn_second_commit_seed(const ScratchDir& dir) {
  for (std::uint64_t seed = 0; seed < 512; ++seed) {
    StorageFaultConfig faults;
    faults.torn_write_rate = 0.5;
    faults.seed = seed;
    FaultyStoreIo probe(faults);
    std::vector<std::size_t> torn_after;
    for (int op = 0; op < 4; ++op) {
      probe.write_file(dir.file("probe"), "0123456789abcdef");
      torn_after.push_back(probe.torn_writes());
    }
    const bool op0_clean = torn_after[0] == 0;
    const bool op2_torn = torn_after[2] > torn_after[1];
    if (op0_clean && op2_torn) return seed;
  }
  ADD_FAILURE() << "no matching fault seed in the probe range";
  return 0;
}

TEST(StorageChaos, LadderRecoversFromOlderGenerationBitIdentical) {
  // Corruption hits exactly the newest generation at crash time: commit 1
  // (store write 0) is clean, commit 2 (store write 2; write 1 is the
  // manifest) is torn. The crash at round 2 must step the ladder past the
  // torn round-2 file, restore round 1 from disk, and still finish
  // bit-identical.
  const auto source = small_source();
  ScratchDir dir("ladder_run");
  const std::uint64_t seed = find_torn_second_commit_seed(dir);

  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto clean = make_algorithm("fedavg", env1);
  run_federated(*clean, chaos_options());

  StorageFaultConfig faults;
  faults.torn_write_rate = 0.5;
  faults.seed = seed;
  FaultyStoreIo io(faults);
  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto chaotic = make_algorithm("fedavg", env2);
  RunOptions opts = chaos_options();
  opts.checkpoint_every = 1;
  store::StoreConfig sc;
  sc.dir = dir.file("store");
  opts.ckpt_store = sc;
  opts.store_io = &io;
  opts.crash_at_rounds = {2};
  const auto result = run_federated(*chaotic, opts);

  EXPECT_EQ(result.crashes_injected, 1u);
  EXPECT_EQ(result.recoveries_from_store, 1u);
  EXPECT_EQ(result.recovery_attempts_failed, 1u);  // the torn round-2 file
  const auto wa = global_weights(*clean);
  const auto wb = global_weights(*chaotic);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
}

TEST(StorageChaos, StoreOffSwitchKeepsLegacyResultsAndTelemetry) {
  // ckpt_store unset must leave every float and every telemetry byte of
  // the legacy checkpointed path untouched.
  const auto source = small_source();
  const auto run_once = [&](const std::string& log, bool with_store,
                            const std::string& store_dir) {
    common::Rng rng(37);
    FlEnvironment env(source, 4, 0.5, 0.25, rng);
    auto algo = make_algorithm("fedavg", env);
    RunOptions opts = chaos_options();
    opts.checkpoint_every = 2;
    opts.crash_at_rounds = {3};
    if (with_store) {
      store::StoreConfig sc;
      sc.dir = store_dir;
      opts.ckpt_store = sc;
    }
    {
      obs::JsonlWriter telemetry(log);
      opts.telemetry = &telemetry;
      run_federated(*algo, opts);
    }
    return global_weights(*algo);
  };

  ScratchDir dir("offswitch");
  const auto w_legacy = run_once(dir.file("legacy.jsonl"), false, "");
  const auto w_store =
      run_once(dir.file("store.jsonl"), true, dir.file("store"));
  ASSERT_EQ(w_legacy.size(), w_store.size());
  EXPECT_EQ(std::memcmp(w_legacy.data(), w_store.data(),
                        w_legacy.size() * sizeof(float)),
            0);
  // The store-on run only ever adds the gated "source" field to crash
  // records; the store-off bytes are the legacy bytes.
  const std::string legacy = slurp(dir.file("legacy.jsonl"));
  EXPECT_EQ(legacy.find("\"source\""), std::string::npos);
  EXPECT_EQ(legacy.find("\"type\":\"recovery\""), std::string::npos);
  EXPECT_NE(slurp(dir.file("store.jsonl")).find("\"source\":\"store\""),
            std::string::npos);
}

// ---------------------------------------------------------- krum auto-f ----

RunOptions krum_options() {
  RunOptions opts;
  opts.rounds = 6;
  opts.sample_ratio = 1.0;
  opts.eval_every = 3;
  opts.sampling_seed = 9;
  FaultConfig fc;
  fc.byzantine_clients = {1, 1, 0, 0, 0, 0, 0, 0};
  fc.attack_kind = AttackKind::kScale;
  fc.attack_scale = 5.0;
  fc.seed = 600;
  opts.faults = fc;
  ResilienceConfig rc;
  rc.aggregator = AggregatorKind::kKrum;
  rc.krum_f = 1;       // deliberately under-provisioned for two attackers
  rc.multi_krum = 6;   // keep 6 of 8: exclusions concentrate on outliers
  opts.resilience = rc;
  return opts;
}

TEST(KrumAutoF, RepeatSuspectsRaiseTheByzantineBound) {
  const auto source = small_source();
  common::Rng rng(41);
  FlEnvironment env(source, 8, 0.5, 0.25, rng);
  auto algo = make_algorithm("fedavg", env);
  RunOptions opts = krum_options();
  opts.krum_auto_f = true;
  opts.checkpoint_every = 3;
  const auto result = run_federated(*algo, opts);

  // Both scale attackers are excluded round after round; the ledger must
  // push the estimate past the configured f=1 while respecting the Krum
  // viability clamp (participants - 3 = 5).
  EXPECT_GE(result.krum_f_estimate, 2u);
  EXPECT_LE(result.krum_f_estimate, 5u);
  EXPECT_GT(result.total_suspected, 0u);
  // The suspicion ledger rides the snapshot.
  EXPECT_NE(result.last_checkpoint.find("run/krum_ledger"), nullptr);
}

TEST(KrumAutoF, OffSwitchNeverTouchesTheConfiguredBound) {
  const auto source = small_source();
  common::Rng rng(41);
  FlEnvironment env(source, 8, 0.5, 0.25, rng);
  auto algo = make_algorithm("fedavg", env);
  RunOptions opts = krum_options();
  opts.checkpoint_every = 3;
  const auto result = run_federated(*algo, opts);
  EXPECT_EQ(result.krum_f_estimate, 1u);  // == configured krum_f
  EXPECT_EQ(result.last_checkpoint.find("run/krum_ledger"), nullptr);
}

TEST(KrumAutoF, ResumedRunKeepsTheLedgerBitIdentical) {
  // Checkpoint mid-run with a live suspicion ledger, restore into a fresh
  // algorithm, and finish: the auto-tuned run must match its uninterrupted
  // twin exactly, which only works if the ledger (and the re-tuned f)
  // survive the snapshot.
  const auto source = small_source();

  common::Rng rng1(41);
  FlEnvironment env1(source, 8, 0.5, 0.25, rng1);
  auto straight = make_algorithm("fedavg", env1);
  RunOptions full_opts = krum_options();
  full_opts.krum_auto_f = true;
  const auto full = run_federated(*straight, full_opts);

  common::Rng rng2(41);
  FlEnvironment env2(source, 8, 0.5, 0.25, rng2);
  auto first = make_algorithm("fedavg", env2);
  RunOptions leg1 = full_opts;
  leg1.rounds = 3;
  leg1.checkpoint_every = 3;
  const auto half = run_federated(*first, leg1);
  ASSERT_NE(half.last_checkpoint.find("run/krum_ledger"), nullptr);

  common::Rng rng3(41);
  FlEnvironment env3(source, 8, 0.5, 0.25, rng3);
  auto second = make_algorithm("fedavg", env3);
  RunOptions leg2 = full_opts;
  leg2.resume = &half.last_checkpoint;
  const auto resumed = run_federated(*second, leg2);

  const auto wa = global_weights(*straight);
  const auto wb = global_weights(*second);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(full.krum_f_estimate, resumed.krum_f_estimate);
  EXPECT_EQ(full.final_accuracy, resumed.final_accuracy);
}

// ----------------------------------------------------- cross-run reuse --

TEST(CrossRunStoreReuse, FreshProcessResumesFromNewestGeneration) {
  // Two separate run_federated calls against the same checkpoint
  // directory stand in for two OS processes: leg 1 commits generations and
  // stops at round 2; leg 2 — fresh environment, fresh algorithm, no
  // explicit resume snapshot — finds the newest generation on disk via
  // resume_from_store and must finish bit-identical to the uninterrupted
  // straight run.
  const auto source = small_source();
  ScratchDir dir("cross_run");

  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto straight = make_algorithm("fedavg", env1);
  const auto full = run_federated(*straight, chaos_options());

  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto first = make_algorithm("fedavg", env2);
  RunOptions leg1 = chaos_options();
  leg1.rounds = 2;
  leg1.checkpoint_every = 1;
  store::StoreConfig sc;
  sc.dir = dir.file("store");
  leg1.ckpt_store = sc;
  const auto half = run_federated(*first, leg1);
  EXPECT_EQ(half.store_commits, 2u);

  common::Rng rng3(37);
  FlEnvironment env3(source, 4, 0.5, 0.25, rng3);
  auto second = make_algorithm("fedavg", env3);
  RunOptions leg2 = chaos_options();
  leg2.checkpoint_every = 1;
  leg2.ckpt_store = sc;
  leg2.resume_from_store = true;
  const auto resumed = run_federated(*second, leg2);

  EXPECT_EQ(resumed.recoveries_from_store, 1u);
  EXPECT_EQ(resumed.recovery_attempts_failed, 0u);
  // Rounds 1-2 were replayed from disk, not re-run: with eval_every=2 only
  // the round-4 evaluation happened in this leg.
  ASSERT_EQ(resumed.history.size(), 1u);
  EXPECT_EQ(resumed.history.front().round, 4u);
  const auto wa = global_weights(*straight);
  const auto wb = global_weights(*second);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(full.final_accuracy, resumed.final_accuracy);
}

TEST(CrossRunStoreReuse, EmptyStoreIsAColdStart) {
  // resume_from_store against a directory with no generations must behave
  // exactly like a run without the flag: start at round 1, count nothing.
  const auto source = small_source();
  ScratchDir dir("cross_run_cold");

  common::Rng rng1(37);
  FlEnvironment env1(source, 4, 0.5, 0.25, rng1);
  auto straight = make_algorithm("fedavg", env1);
  const auto full = run_federated(*straight, chaos_options());

  common::Rng rng2(37);
  FlEnvironment env2(source, 4, 0.5, 0.25, rng2);
  auto cold = make_algorithm("fedavg", env2);
  RunOptions opts = chaos_options();
  store::StoreConfig sc;
  sc.dir = dir.file("store");
  opts.ckpt_store = sc;
  opts.resume_from_store = true;
  const auto result = run_federated(*cold, opts);

  EXPECT_EQ(result.recoveries_from_store, 0u);
  // All four rounds ran locally: both eval_every=2 evaluations happened.
  ASSERT_EQ(result.history.size(), 2u);
  EXPECT_EQ(result.history.front().round, 2u);
  const auto wa = global_weights(*straight);
  const auto wb = global_weights(*cold);
  ASSERT_EQ(wa.size(), wb.size());
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
  EXPECT_EQ(full.final_accuracy, result.final_accuracy);
}

}  // namespace
}  // namespace spatl::fl
