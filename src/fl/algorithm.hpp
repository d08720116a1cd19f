// Federated optimization algorithms: FedAvg, FedProx, FedNova, SCAFFOLD.
//
// All four baselines share a global flat weight vector on the server and a
// scratch worker model for local updates. Per-round communication is
// metered through CommLedger; SCAFFOLD and FedNova pay the ~2x per-round
// cost the paper reports because their control/normalization state travels
// with the weights.
//
// Every round runs collect-then-aggregate: client updates are trained and
// delivered first (where an installed FaultModel may corrupt or lose them
// and the server's ResilienceConfig vets them), then aggregation is applied
// over the accepted survivors only, re-normalized, and gated by a quorum.
// With no fault model and no resilience installed this is arithmetically
// identical to the clean-world path.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/train.hpp"
#include "fl/async.hpp"
#include "fl/checkpoint.hpp"
#include "fl/churn.hpp"
#include "fl/comm.hpp"
#include "fl/environment.hpp"
#include "fl/fault.hpp"
#include "fl/robust.hpp"
#include "models/split_model.hpp"

namespace spatl::fl {

struct FlConfig {
  models::ModelConfig model;
  data::TrainOptions local;        // paper: 10 local epochs
  double server_lr = 1.0;          // server-side step on aggregated updates
  double fedprox_mu = 0.01;        // FedProx proximal coefficient
  std::uint64_t seed = 42;
};

struct EvalSummary {
  double avg_accuracy = 0.0;  // mean top-1 over clients' validation sets
  double avg_loss = 0.0;
};

// Checkpoint audit (DESIGN.md §14): every data member below must either
// name the checkpoint key(s) persisting it or opt out with a reason —
// spatl_lint's ckpt pass cross-checks the tags against the real pack /
// unpack sites, so adding resume-relevant state without persisting it
// fails lint instead of a bit-identity test several PRs later.
// ckpt-struct: algo/
class FederatedAlgorithm {
 public:
  FederatedAlgorithm(FlEnvironment& env, FlConfig config);
  virtual ~FederatedAlgorithm() = default;

  virtual std::string name() const = 0;

  /// One communication round over the given participating clients.
  virtual void run_round(const std::vector<std::size_t>& selected) = 0;

  /// Average validation accuracy of the deployed model across ALL clients
  /// (the paper evaluates heterogeneous per-client performance; for the
  /// uniform-model baselines this is the global model on each client's
  /// validation set).
  virtual EvalSummary evaluate_clients();

  /// Per-client validation accuracy of the deployed model (Fig. local_acc).
  virtual std::vector<double> per_client_accuracy();

  CommLedger& ledger() { return ledger_; }
  const CommLedger& ledger() const { return ledger_; }
  FlEnvironment& environment() { return env_; }
  const FlConfig& config() const { return config_; }
  models::SplitModel& global_model() { return global_; }

  /// Install fault injection and/or server-side defenses for subsequent
  /// rounds (runner-managed). `fault` may be nullptr to run the defenses
  /// without any injection. Until this is called (or after
  /// clear_fault_injection()), run_round follows the exact clean-world
  /// arithmetic and byte accounting.
  void set_fault_injection(const FaultModel* fault,
                           const ResilienceConfig& resilience);
  void clear_fault_injection();
  bool fault_path_active() const { return defended_; }

  /// Install the semi-asynchronous straggler policy (runner-managed): past-
  /// deadline clients are parked in the straggler buffer and commit late
  /// with a staleness discount instead of being same-round down-weighted or
  /// rejected (DESIGN.md §11). Only honored by algorithms that override
  /// supports_async(); everything else keeps the synchronous policy.
  void set_async(const AsyncConfig& async);
  void clear_async();
  const AsyncConfig& async_config() const { return async_; }
  /// True when this algorithm's run_round can park and replay deferred
  /// updates (the four baselines and SPATL).
  virtual bool supports_async() const { return false; }
  /// True when run_round routes uplinks through the fault, vetting and
  /// robust-aggregation path. run_federated refuses fault, robust and async
  /// options for an algorithm that does not, rather than run it as if they
  /// were absent.
  virtual bool supports_resilience() const { return true; }
  /// Parked updates that would commit at `round` (quorum admission input).
  std::size_t buffered_due(std::size_t round) const {
    return buffer_.due_count(round);
  }
  /// Current straggler-buffer occupancy.
  std::size_t buffered_total() const { return buffer_.size(); }

  /// Install the elastic-membership engine (runner-managed): a returning
  /// client's first accepted uplink is staleness-discounted through the
  /// StragglerBuffer's scale arithmetic. Null = static population,
  /// bit-identical to the legacy path.
  void set_churn(ChurnEngine* churn) { churn_ = churn; }
  void clear_churn() { churn_ = nullptr; }

  /// Estimated per-client uplink payload in float32 units, used by the
  /// runner's admission byte budget: the dense parameter vector by default,
  /// 2x for the control-carrying algorithms (FedNova, SCAFFOLD), and the
  /// dense shared encoder (x2 under gradient control) for SPATL — a
  /// conservative bound on its masked payload.
  virtual std::size_t uplink_cost_floats();

  /// Reset per-round statistics, seed them with the runner's admission
  /// counts, and set the round index that keys fault decisions. Called by
  /// the runner before run_round().
  void begin_round(std::size_t round, RoundStats admission = RoundStats{});
  const RoundStats& round_stats() const { return stats_; }

  /// Capture / restore the algorithm's complete mutable state for
  /// crash-recoverable rounds. The base class handles the global flat
  /// weights and BN statistics ("algo/w", "algo/bn"); subclasses with
  /// additional server or per-client state override both and call the base.
  virtual void save_state(RunCheckpoint& out);
  virtual void load_state(const RunCheckpoint& in);

 protected:
  /// Load global weights + BN stats into the worker model.
  void load_global_into_worker();

  /// Outcome of one client's simulated uplink + server-side vetting.
  struct Delivery {
    bool accepted = true;
    /// Semi-async path: the update passed vetting but the client's virtual
    /// compute time runs past this round's deadline — the caller must park
    /// it via park_update() for the commit round instead of aggregating.
    bool deferred = false;
    std::size_t lag = 0;  // rounds until the deferred update commits
    double scale = 1.0;   // aggregation down-weight (stale stragglers)
    RejectReason reason = RejectReason::kNone;
  };

  /// Simulate the uplink of `payload` (metered as `uplink_floats` float32
  /// values): pay the first attempt, inject message loss with bounded retry
  /// (retransmitted bytes go through CommLedger's retransmission counters),
  /// maybe corrupt the payload in flight, then apply the server's defenses —
  /// NaN/Inf validation, optional L2 norm bound of (payload - reference),
  /// and the straggler staleness policy. Updates round_stats().
  Delivery deliver_update(std::size_t client, std::vector<float>& payload,
                          std::size_t uplink_floats,
                          const std::vector<float>* reference = nullptr);

  /// Aggregation-time quorum gate over the post-validation survivor set
  /// (fresh accepted updates plus this round's late commits): true when
  /// `accepted_count` updates are enough to apply the round; otherwise
  /// records the round as skipped with post-validation attribution (the
  /// caller must leave the global model untouched).
  bool quorum_met(std::size_t accepted_count);

  /// True when the semi-async buffer governs this round's stragglers
  /// (async installed + supported + a fault model with a live deadline).
  bool async_active() const;

  /// Park a deferred update (Delivery::deferred) for its commit round; the
  /// client id and source/commit rounds are filled in here. The caller
  /// provides the algorithm-specific payload fields of `update`.
  void park_update(std::size_t client, const Delivery& d,
                   BufferedUpdate update);

  /// Pop the buffered updates committing this round, in the buffer's
  /// deterministic order. Updates stats and async metrics.
  std::vector<BufferedUpdate> take_due_updates();

  /// Staleness discount for a buffered update committing this round:
  /// stale_weight^(current round - source round).
  double commit_scale(const BufferedUpdate& update) const;

  /// True when a non-default robust aggregator is configured. The
  /// kWeightedMean default keeps each algorithm's original fused
  /// aggregation loop (bit-identical to the clean-world path); any other
  /// kind routes per-client update vectors through robust_combine().
  bool robust_active() const;

  /// Run the configured robust aggregator over materialized per-client
  /// update vectors and fold the outcome (suspects, clip count) into the
  /// round statistics. `dim` is the per-update vector length; `reference`
  /// is the center used by norm-clipping (may be null).
  AggregateOutcome robust_combine(const std::vector<RobustUpdate>& updates,
                                  std::size_t dim,
                                  const std::vector<float>* reference);

  FlEnvironment& env_;       // ckpt: none(borrowed substrate, rebuilt by the caller)
  FlConfig config_;          // ckpt: none(configuration, rebuilt from flags/seed)
  common::Rng rng_;          // ckpt: none(consumed at construction for weight init only)
  CommLedger ledger_;        // ckpt: run/ledger
  models::SplitModel global_;  // ckpt: algo/w, algo/bn
  models::SplitModel worker_;  // ckpt: none(scratch, reloaded from global_ every round)

  const FaultModel* fault_ = nullptr;  // ckpt: none(borrowed; re-armed via set_fault_injection)
  ChurnEngine* churn_ = nullptr;       // ckpt: none(borrowed; persists itself under run/churn/)
  bool defended_ = false;              // ckpt: none(derived from set_fault_injection)
  ResilienceConfig resilience_;        // ckpt: none(configuration)
  std::unique_ptr<RobustAggregator> robust_;  // ckpt: none(derived from resilience_)
  RoundStats stats_;                   // ckpt: none(per-round scratch)
  std::size_t fault_round_ = 0;        // ckpt: none(set by begin_round each round)
  AsyncConfig async_;        // ckpt: none(configuration, synchronous by default)
  StragglerBuffer buffer_;   // ckpt: algo/async/
};

// ---------------------------------------------------------------------------

class FedAvg : public FederatedAlgorithm {
 public:
  using FederatedAlgorithm::FederatedAlgorithm;
  std::string name() const override { return "fedavg"; }
  bool supports_async() const override { return true; }
  void run_round(const std::vector<std::size_t>& selected) override;
};

class FedProx : public FederatedAlgorithm {
 public:
  using FederatedAlgorithm::FederatedAlgorithm;
  std::string name() const override { return "fedprox"; }
  bool supports_async() const override { return true; }
  void run_round(const std::vector<std::size_t>& selected) override;
};

class FedNova : public FederatedAlgorithm {
 public:
  using FederatedAlgorithm::FederatedAlgorithm;
  std::string name() const override { return "fednova"; }
  bool supports_async() const override { return true; }
  void run_round(const std::vector<std::size_t>& selected) override;
  /// Normalized update + a_i normalization state: ~2x FedAvg per uplink.
  std::size_t uplink_cost_floats() override {
    return 2 * FederatedAlgorithm::uplink_cost_floats();
  }
};

// ckpt-struct: algo/scaffold/
class Scaffold : public FederatedAlgorithm {
 public:
  Scaffold(FlEnvironment& env, FlConfig config);
  std::string name() const override { return "scaffold"; }
  bool supports_async() const override { return true; }
  void run_round(const std::vector<std::size_t>& selected) override;
  void save_state(RunCheckpoint& out) override;
  void load_state(const RunCheckpoint& in) override;
  /// Delta weights + delta control variate: ~2x FedAvg per uplink.
  std::size_t uplink_cost_floats() override {
    return 2 * FederatedAlgorithm::uplink_cost_floats();
  }

 private:
  std::vector<float> server_c_;  // ckpt: algo/scaffold/c
  // Lazily sized per client.
  std::vector<std::vector<float>> client_c_;  // ckpt: algo/scaffold/ci/
};

/// Factory over {"fedavg","fedprox","fednova","scaffold"}.
std::unique_ptr<FederatedAlgorithm> make_baseline(const std::string& name,
                                                  FlEnvironment& env,
                                                  FlConfig config);

}  // namespace spatl::fl
