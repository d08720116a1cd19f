// Server-side adaptive optimization: FedAvgM and FedAdam (Reddi et al.,
// "Adaptive Federated Optimization", the paper's reference [28]).
//
// Both treat the averaged client delta as a pseudo-gradient and run a
// stateful optimizer on the server: momentum (FedAvgM) or Adam (FedAdam).
// They complete the baseline family the paper positions SPATL against.
#pragma once

#include "fl/algorithm.hpp"

namespace spatl::fl {

enum class ServerOptimizer { kMomentum, kAdam };

struct ServerOptConfig {
  ServerOptimizer optimizer = ServerOptimizer::kMomentum;
  double lr = 1.0;          // server learning rate on the pseudo-gradient
  double momentum = 0.9;    // FedAvgM
  double beta1 = 0.9;       // FedAdam
  double beta2 = 0.99;
  double eps = 1e-3;        // tau in the paper's notation
};

// ckpt-struct: algo/serveropt/
class ServerOptFedAvg : public FederatedAlgorithm {
 public:
  ServerOptFedAvg(FlEnvironment& env, FlConfig config, ServerOptConfig sopt);

  std::string name() const override {
    return sopt_.optimizer == ServerOptimizer::kMomentum ? "fedavgm"
                                                         : "fedadam";
  }
  void run_round(const std::vector<std::size_t>& selected) override;
  bool supports_resilience() const override { return false; }
  void save_state(RunCheckpoint& out) override;
  void load_state(const RunCheckpoint& in) override;

 private:
  ServerOptConfig sopt_;  // ckpt: none(configuration, rebuilt from flags)
  // Momentum buffer / Adam m.
  std::vector<float> velocity_;  // ckpt: algo/serveropt/velocity
  // Adam v; empty for momentum.
  std::vector<float> second_;  // ckpt: algo/serveropt/second
  // Adam's bias-correction step count.
  std::int64_t step_ = 0;  // ckpt: algo/serveropt/step
};

}  // namespace spatl::fl
