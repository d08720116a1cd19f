#include "fl/checkpoint.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "fl/store/error.hpp"
#include "fl/store/format.hpp"

namespace spatl::fl {

namespace {

/// Split a 64-bit word into four 16-bit chunks, little-endian chunk order.
/// Each chunk value is an integer in [0, 65535] and therefore exactly
/// representable as a float32.
void append_u64(std::vector<float>& out, std::uint64_t word) {
  for (int k = 0; k < 4; ++k) {
    out.push_back(float((word >> (16 * k)) & 0xFFFFULL));
  }
}

std::uint64_t read_u64(const std::vector<float>& chunks, std::size_t base) {
  std::uint64_t word = 0;
  for (int k = 0; k < 4; ++k) {
    const float c = chunks[base + std::size_t(k)];
    // A valid chunk is an exact 16-bit integer by construction (append_u64
    // above). Anything else — NaN/Inf, a fraction, a value outside
    // [0, 65535] — means the tensor was corrupted after packing, and the
    // silent float->u64 cast of the original code would have produced a
    // plausible-looking wrong word (undefined behaviour for NaN/Inf).
    if (!std::isfinite(c) || c != std::floor(c) || c < 0.0f ||
        c > 65535.0f) {
      throw store::CheckpointError(
          "", "",
          "unpack_u64s: chunk " + std::to_string(base + std::size_t(k)) +
              " is not an integral float in [0, 65535]");
    }
    word |= std::uint64_t(c) << (16 * k);
  }
  return word;
}

}  // namespace

tensor::NamedTensor pack_floats(std::string name,
                                const std::vector<float>& values) {
  // Leading pad element so empty payloads still serialize (the tensor file
  // format rejects zero-sized dimensions).
  tensor::Tensor t({values.size() + 1});
  t[0] = 0.0f;
  for (std::size_t i = 0; i < values.size(); ++i) t[i + 1] = values[i];
  return {std::move(name), std::move(t)};
}

std::vector<float> unpack_floats(const tensor::Tensor& t) {
  if (t.numel() == 0) {
    throw std::runtime_error("unpack_floats: missing pad element");
  }
  std::vector<float> out(t.numel() - 1);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = t[i + 1];
  return out;
}

tensor::NamedTensor pack_u64s(std::string name,
                              const std::vector<std::uint64_t>& values) {
  std::vector<float> chunks;
  chunks.reserve(values.size() * 4);
  for (const std::uint64_t w : values) append_u64(chunks, w);
  return pack_floats(std::move(name), chunks);
}

std::vector<std::uint64_t> unpack_u64s(const tensor::Tensor& t) {
  const std::vector<float> chunks = unpack_floats(t);
  if (chunks.size() % 4 != 0) {
    throw std::runtime_error("unpack_u64s: chunk count not divisible by 4");
  }
  std::vector<std::uint64_t> out(chunks.size() / 4);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = read_u64(chunks, 4 * i);
  }
  return out;
}

tensor::NamedTensor pack_doubles(std::string name,
                                 const std::vector<double>& values) {
  std::vector<std::uint64_t> words(values.size());
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  // An empty vector's data() may be null, and memcpy from null is undefined
  // even for zero bytes.
  if (!values.empty()) {
    std::memcpy(words.data(), values.data(),
                values.size() * sizeof(std::uint64_t));
  }
  return pack_u64s(std::move(name), words);
}

std::vector<double> unpack_doubles(const tensor::Tensor& t) {
  const std::vector<std::uint64_t> words = unpack_u64s(t);
  std::vector<double> out(words.size());
  if (!words.empty()) {
    std::memcpy(out.data(), words.data(), words.size() * sizeof(double));
  }
  return out;
}

tensor::NamedTensor pack_rng(std::string name, const common::Rng& rng) {
  const auto cursor = rng.save_cursor();
  return pack_u64s(std::move(name),
                   std::vector<std::uint64_t>(cursor.begin(), cursor.end()));
}

void unpack_rng(const tensor::Tensor& t, common::Rng& rng) {
  const std::vector<std::uint64_t> words = unpack_u64s(t);
  if (words.size() != 6) {
    throw std::runtime_error("unpack_rng: expected 6 cursor words");
  }
  std::array<std::uint64_t, 6> cursor{};
  for (std::size_t i = 0; i < 6; ++i) cursor[i] = words[i];
  rng.restore_cursor(cursor);
}

const tensor::Tensor* RunCheckpoint::find(const std::string& name) const {
  for (const auto& e : entries) {
    if (e.name == name) return &e.value;
  }
  return nullptr;
}

const tensor::Tensor& RunCheckpoint::at(const std::string& name) const {
  const tensor::Tensor* t = find(name);
  if (t == nullptr) {
    throw std::runtime_error("RunCheckpoint: missing entry '" + name + "'");
  }
  return *t;
}

void RunCheckpoint::save(const std::string& path) const {
  // Routed through the store's atomic tmp+rename protocol; the final file
  // bytes are the plain tensor container, unchanged from the direct write.
  store::save_legacy_checkpoint(path, entries);
}

RunCheckpoint RunCheckpoint::load(const std::string& path) {
  return RunCheckpoint{store::load_legacy_checkpoint(path)};
}

}  // namespace spatl::fl
