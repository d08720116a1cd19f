#include "fl/server_opt.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "fl/checkpoint.hpp"
#include "fl/flat_utils.hpp"

namespace spatl::fl {

ServerOptFedAvg::ServerOptFedAvg(FlEnvironment& env, FlConfig config,
                                 ServerOptConfig sopt)
    : FederatedAlgorithm(env, std::move(config)), sopt_(sopt) {
  const std::size_t dim = nn::param_count(global_.all_params());
  velocity_.assign(dim, 0.0f);
  if (sopt_.optimizer == ServerOptimizer::kAdam) second_.assign(dim, 0.0f);
}

void ServerOptFedAvg::run_round(const std::vector<std::size_t>& selected) {
  auto views = global_.all_params();
  const std::vector<float> w_global = nn::flatten_values(views);
  std::vector<float> delta(w_global.size(), 0.0f);  // mean client delta
  std::vector<float> bn_accum(flatten_bn_stats(global_).size(), 0.0f);

  const float inv_s = 1.0f / float(selected.size());
  for (const std::size_t i : selected) {
    load_global_into_worker();
    ledger_.add_downlink_floats(w_global.size());
    common::Rng client_rng(config_.seed ^ (0xC11E47ULL * (i + 1)));
    data::train_supervised(worker_, env_.client(i).train, config_.local,
                           client_rng, worker_.all_params());
    ledger_.add_uplink_floats(w_global.size());
    const auto w_i = nn::flatten_values(worker_.all_params());
    for (std::size_t j = 0; j < delta.size(); ++j) {
      delta[j] += inv_s * (w_i[j] - w_global[j]);
    }
    axpy(bn_accum, flatten_bn_stats(worker_), inv_s);
  }

  ++step_;
  std::vector<float> w_new = w_global;
  if (sopt_.optimizer == ServerOptimizer::kMomentum) {
    // v = beta v + delta ; w += lr * v
    const float mu = float(sopt_.momentum);
    for (std::size_t j = 0; j < delta.size(); ++j) {
      velocity_[j] = mu * velocity_[j] + delta[j];
      w_new[j] += float(sopt_.lr) * velocity_[j];
    }
  } else {
    // Adam on the pseudo-gradient (= -delta, sign folded into the update).
    const float b1 = float(sopt_.beta1), b2 = float(sopt_.beta2);
    const double bias1 = 1.0 - std::pow(sopt_.beta1, double(step_));
    const double bias2 = 1.0 - std::pow(sopt_.beta2, double(step_));
    const float lr_t = float(sopt_.lr * std::sqrt(bias2) / bias1);
    for (std::size_t j = 0; j < delta.size(); ++j) {
      velocity_[j] = b1 * velocity_[j] + (1.0f - b1) * delta[j];
      second_[j] = b2 * second_[j] + (1.0f - b2) * delta[j] * delta[j];
      w_new[j] += lr_t * velocity_[j] /
                  (std::sqrt(second_[j]) + float(sopt_.eps));
    }
  }
  nn::unflatten_values(w_new, views);
  unflatten_bn_stats(bn_accum, global_);
}

void ServerOptFedAvg::save_state(RunCheckpoint& out) {
  FederatedAlgorithm::save_state(out);
  out.entries.push_back(pack_floats("algo/serveropt/velocity", velocity_));
  out.entries.push_back(pack_floats("algo/serveropt/second", second_));
  out.entries.push_back(
      pack_u64s("algo/serveropt/step", {std::uint64_t(step_)}));
}

void ServerOptFedAvg::load_state(const RunCheckpoint& in) {
  FederatedAlgorithm::load_state(in);
  std::vector<float> velocity = unpack_floats(in.at("algo/serveropt/velocity"));
  std::vector<float> second = unpack_floats(in.at("algo/serveropt/second"));
  const std::vector<std::uint64_t> step =
      unpack_u64s(in.at("algo/serveropt/step"));
  if (velocity.size() != velocity_.size() || second.size() != second_.size() ||
      step.size() != 1) {
    throw std::runtime_error(
        "ServerOptFedAvg: checkpoint optimizer state does not match the "
        "model or optimizer");
  }
  velocity_ = std::move(velocity);
  second_ = std::move(second);
  step_ = std::int64_t(step[0]);
}

}  // namespace spatl::fl
