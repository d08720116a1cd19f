// Update-compression codecs: classic communication-efficiency baselines
// (gradient sparsification / quantization, cf. the paper's related work
// [37],[53]) that SPATL's salient selection competes against.
//
// Codecs operate on the flat client update (w_i - w_global):
//   kTopK : keep the k largest-magnitude entries, send (index, value) pairs
//   kInt8 : linear 8-bit quantization with a per-message float scale
// Both are lossy; wire size is metered exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fl/algorithm.hpp"

namespace spatl::fl {

enum class Codec { kNone, kTopK, kInt8 };

std::string codec_name(Codec codec);

/// A compressed flat update, decodable to a dense vector of size `dim`.
struct CompressedUpdate {
  Codec codec = Codec::kNone;
  std::size_t dim = 0;
  std::vector<float> dense;           // kNone
  std::vector<std::uint32_t> indices;  // kTopK
  std::vector<float> values;           // kTopK
  std::vector<std::int8_t> qvalues;    // kInt8
  float scale = 1.0f;                  // kInt8

  /// Exact bytes this message occupies on the wire.
  double wire_bytes() const;
};

/// Encode `delta`. For kTopK, `topk_fraction` in (0,1] selects the kept
/// share of coordinates (at least 1).
CompressedUpdate compress_update(std::span<const float> delta, Codec codec,
                                 double topk_fraction = 0.1);

/// Decode into a dense vector (zeros where nothing was sent).
std::vector<float> decompress_update(const CompressedUpdate& update);

/// FedAvg with compressed uplink: clients send encoded deltas; the server
/// averages the decoded deltas. Downlink stays dense (servers are not
/// bandwidth-bound in the paper's setting).
class CompressedFedAvg : public FederatedAlgorithm {
 public:
  CompressedFedAvg(FlEnvironment& env, FlConfig config, Codec codec,
                   double topk_fraction = 0.1);

  std::string name() const override {
    return "fedavg+" + codec_name(codec_);
  }
  void run_round(const std::vector<std::size_t>& selected) override;
  bool supports_resilience() const override { return false; }

 private:
  Codec codec_;
  double topk_fraction_;
};

}  // namespace spatl::fl
