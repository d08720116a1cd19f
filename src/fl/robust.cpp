#include "fl/robust.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/check.hpp"
#include "fl/fault.hpp"
#include "fl/flat_utils.hpp"
#include "tensor/ops.hpp"

namespace spatl::fl {

namespace {

bool owns(const RobustUpdate& u, std::size_t j) {
  return u.mask == nullptr || (*u.mask)[j] != 0;
}

/// Iterate the coordinates of a (possibly masked) update: calls
/// fn(coordinate, value) for every transmitted coordinate. Masked values are
/// compacted, so the cursor advances only over owned coordinates.
template <typename Fn>
void for_each_coord(const RobustUpdate& u, std::size_t dim, Fn&& fn) {
  if (u.mask == nullptr) {
    for (std::size_t j = 0; j < dim; ++j) fn(j, (*u.values)[j]);
    return;
  }
  std::size_t p = 0;
  for (std::size_t j = 0; j < dim; ++j) {
    if ((*u.mask)[j]) fn(j, (*u.values)[p++]);
  }
}

/// Value of coordinate j given the compacted cursor position p (the caller
/// maintains per-update cursors when walking coordinates in order).
struct Cursor {
  std::size_t p = 0;
};

void init_outcome(AggregateOutcome& out, std::size_t dim) {
  out.value.assign(dim, 0.0f);
  out.defined.assign(dim, 0);
}

/// Structural invariants of an update batch (debug builds only): every
/// update carries a payload; dense payloads are exactly `dim` floats;
/// masked payloads carry one float per owned coordinate. A violation here
/// means a caller compacted or flattened inconsistently — the estimators
/// below would silently misalign coordinates.
void dcheck_updates(const std::vector<RobustUpdate>& updates,
                    std::size_t dim) {
#if defined(SPATL_DEBUG_CHECKS)
  for (const auto& u : updates) {
    SPATL_DCHECK(u.values != nullptr);
    SPATL_DCHECK(std::isfinite(u.weight) && u.weight >= 0.0);
    if (u.mask == nullptr) {
      SPATL_DCHECK(u.values->size() == dim);
    } else {
      SPATL_DCHECK(u.mask->size() == dim);
      std::size_t owned = 0;
      for (std::size_t j = 0; j < dim; ++j) owned += (*u.mask)[j] != 0;
      SPATL_DCHECK(u.values->size() == owned);
    }
  }
#else
  (void)updates;
  (void)dim;
#endif
}

/// Weighted mean over a subset of the updates (all when `subset` is empty).
/// Per-coordinate weight renormalization over the clients owning that
/// coordinate; dense inputs with pre-normalized weights reduce to the
/// classic axpy loop.
AggregateOutcome weighted_mean(const std::vector<RobustUpdate>& updates,
                               std::size_t dim) {
  dcheck_updates(updates, dim);
  AggregateOutcome out;
  init_outcome(out, dim);
  std::vector<double> sum(dim, 0.0);
  std::vector<double> wsum(dim, 0.0);
  for (const auto& u : updates) {
    for_each_coord(u, dim, [&](std::size_t j, float v) {
      sum[j] += u.weight * double(v);
      wsum[j] += u.weight;
    });
  }
  for (std::size_t j = 0; j < dim; ++j) {
    if (wsum[j] <= 0.0) continue;
    out.value[j] = float(sum[j] / wsum[j]);
    out.defined[j] = 1;
  }
  return out;
}

class WeightedMeanAggregator : public RobustAggregator {
 public:
  AggregatorKind kind() const override { return AggregatorKind::kWeightedMean; }
  AggregateOutcome aggregate(const std::vector<RobustUpdate>& updates,
                             std::size_t dim,
                             const std::vector<float>*) const override {
    return weighted_mean(updates, dim);
  }
};

class CoordinateMedianAggregator : public RobustAggregator {
 public:
  AggregatorKind kind() const override {
    return AggregatorKind::kCoordinateMedian;
  }
  AggregateOutcome aggregate(const std::vector<RobustUpdate>& updates,
                             std::size_t dim,
                             const std::vector<float>*) const override {
    dcheck_updates(updates, dim);
    AggregateOutcome out;
    init_outcome(out, dim);
    // Dense updates are read in place. A masked update is expanded to a
    // dense row with +inf on the coordinates it did not send, and each
    // coordinate's owner count tells the kernel how many of its values
    // are real: +inf ranks last, so the count's middle order statistics
    // are the owners'.
    std::vector<const float*> rows;
    std::vector<std::vector<float>> expanded;
    std::vector<std::uint32_t> counts;
    rows.reserve(updates.size());
    expanded.reserve(updates.size());
    for (const auto& u : updates) {
      if (u.mask == nullptr) {
        rows.push_back(u.values->data());
        continue;
      }
      if (counts.empty()) counts.assign(dim, 0);
      auto& row = expanded.emplace_back(
          dim, std::numeric_limits<float>::infinity());
      for_each_coord(u, dim, [&](std::size_t j, float v) { row[j] = v; });
      rows.push_back(row.data());
    }
    if (!counts.empty()) {
      for (const auto& u : updates) {
        for_each_coord(u, dim, [&](std::size_t j, float) { ++counts[j]; });
      }
    }
    tensor::coordinate_median(rows.data(), rows.size(),
                              counts.empty() ? nullptr : counts.data(), dim,
                              out.value.data());
    for (std::size_t j = 0; j < dim; ++j) {
      out.defined[j] = counts.empty() ? !updates.empty() : counts[j] > 0;
    }
    return out;
  }
};

class TrimmedMeanAggregator : public RobustAggregator {
 public:
  explicit TrimmedMeanAggregator(double trim) : trim_(trim) {}
  AggregatorKind kind() const override { return AggregatorKind::kTrimmedMean; }
  AggregateOutcome aggregate(const std::vector<RobustUpdate>& updates,
                             std::size_t dim,
                             const std::vector<float>*) const override {
    dcheck_updates(updates, dim);
    AggregateOutcome out;
    init_outcome(out, dim);
    std::vector<Cursor> cur(updates.size());
    std::vector<std::pair<float, double>> col;  // (value, weight)
    col.reserve(updates.size());
    for (std::size_t j = 0; j < dim; ++j) {
      col.clear();
      for (std::size_t s = 0; s < updates.size(); ++s) {
        const auto& u = updates[s];
        if (!owns(u, j)) continue;
        col.emplace_back((*u.values)[u.mask ? cur[s].p++ : j], u.weight);
      }
      if (col.empty()) continue;
      std::sort(col.begin(), col.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      // Drop floor(trim * n) order statistics from each end; if trimming
      // would drop everything, keep the middle element (median-like).
      std::size_t cut = std::size_t(trim_ * double(col.size()));
      if (2 * cut >= col.size()) cut = (col.size() - 1) / 2;
      double sum = 0.0, wsum = 0.0;
      for (std::size_t s = cut; s < col.size() - cut; ++s) {
        sum += col[s].second * double(col[s].first);
        wsum += col[s].second;
      }
      if (wsum <= 0.0) continue;
      out.value[j] = float(sum / wsum);
      out.defined[j] = 1;
    }
    return out;
  }

 private:
  double trim_;
};

class KrumAggregator : public RobustAggregator {
 public:
  KrumAggregator(std::size_t f, std::size_t m)
      : f_(f), m_(std::max<std::size_t>(1, m)) {}
  AggregatorKind kind() const override { return AggregatorKind::kKrum; }
  AggregateOutcome aggregate(const std::vector<RobustUpdate>& updates,
                             std::size_t dim,
                             const std::vector<float>*) const override {
    dcheck_updates(updates, dim);
    const std::size_t n = updates.size();
    if (n == 0) {
      AggregateOutcome out;
      init_outcome(out, dim);
      return out;
    }
    // Pairwise squared distances; masked pairs use the mean squared
    // difference over their shared coordinates scaled back to dim, so a
    // sparse attacker cannot shrink its distances by uploading fewer
    // coordinates. Pairs with no shared coordinates are maximally far.
    std::vector<std::vector<double>> d2(n, std::vector<double>(n, 0.0));
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        d2[a][b] = d2[b][a] = pair_distance(updates[a], updates[b], dim);
      }
    }
    // Krum score: sum of the n - f - 2 smallest distances to other clients
    // (at least 1 neighbour).
    const std::size_t neighbours =
        std::max<std::size_t>(1, n > f_ + 2 ? n - f_ - 2 : 1);
    std::vector<std::pair<double, std::size_t>> scored(n);
    std::vector<double> row;
    for (std::size_t a = 0; a < n; ++a) {
      row.clear();
      for (std::size_t b = 0; b < n; ++b) {
        if (b != a) row.push_back(d2[a][b]);
      }
      std::sort(row.begin(), row.end());
      double score = 0.0;
      for (std::size_t k = 0; k < std::min(neighbours, row.size()); ++k) {
        score += row[k];
      }
      scored[a] = {score, a};
    }
    std::sort(scored.begin(), scored.end());
    const std::size_t keep = std::min(m_, n);

    std::vector<RobustUpdate> selected;
    selected.reserve(keep);
    std::vector<std::uint8_t> kept(n, 0);
    for (std::size_t k = 0; k < keep; ++k) {
      selected.push_back(updates[scored[k].second]);
      kept[scored[k].second] = 1;
    }
    AggregateOutcome out = weighted_mean(selected, dim);
    for (std::size_t a = 0; a < n; ++a) {
      if (!kept[a]) out.excluded.push_back(updates[a].client);
    }
    return out;
  }

 private:
  static double pair_distance(const RobustUpdate& a, const RobustUpdate& b,
                              std::size_t dim) {
    if (a.mask == nullptr && b.mask == nullptr) {
      double sum = 0.0;
      for (std::size_t j = 0; j < dim; ++j) {
        const double diff = double((*a.values)[j]) - double((*b.values)[j]);
        sum += diff * diff;
      }
      return sum;
    }
    double sum = 0.0;
    std::size_t shared = 0, pa = 0, pb = 0;
    for (std::size_t j = 0; j < dim; ++j) {
      const bool in_a = owns(a, j), in_b = owns(b, j);
      if (in_a && in_b) {
        const double diff = double((*a.values)[a.mask ? pa : j]) -
                            double((*b.values)[b.mask ? pb : j]);
        sum += diff * diff;
        ++shared;
      }
      if (in_a && a.mask) ++pa;
      if (in_b && b.mask) ++pb;
    }
    if (shared == 0) return std::numeric_limits<double>::max();
    return sum * double(dim) / double(shared);
  }

  std::size_t f_;
  std::size_t m_;
};

class NormClippedMeanAggregator : public RobustAggregator {
 public:
  explicit NormClippedMeanAggregator(double clip) : clip_(clip) {}
  AggregatorKind kind() const override {
    return AggregatorKind::kNormClippedMean;
  }
  AggregateOutcome aggregate(const std::vector<RobustUpdate>& updates,
                             std::size_t dim,
                             const std::vector<float>* reference)
      const override {
    dcheck_updates(updates, dim);
    SPATL_DCHECK(reference == nullptr || reference->size() == dim);
    // Norm of each update's deviation from the reference (origin when no
    // reference is given), over the coordinates it transmitted.
    std::vector<double> norms(updates.size(), 0.0);
    for (std::size_t s = 0; s < updates.size(); ++s) {
      double sum = 0.0;
      for_each_coord(updates[s], dim, [&](std::size_t j, float v) {
        const double diff =
            double(v) - (reference ? double((*reference)[j]) : 0.0);
        sum += diff * diff;
      });
      norms[s] = std::sqrt(sum);
    }
    // Auto threshold: the median update norm. A majority of honest clients
    // pins the clip level no matter how hard the attackers boost.
    double clip = clip_;
    if (clip <= 0.0) {
      std::vector<double> sorted = norms;
      std::nth_element(sorted.begin(),
                       sorted.begin() + std::ptrdiff_t(sorted.size() / 2),
                       sorted.end());
      clip = sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
    }

    AggregateOutcome out;
    std::vector<std::vector<float>> clipped_values;
    std::vector<RobustUpdate> clipped = updates;
    clipped_values.reserve(updates.size());
    for (std::size_t s = 0; s < updates.size(); ++s) {
      if (clip <= 0.0 || norms[s] <= clip || !std::isfinite(norms[s])) {
        // Non-finite norms are left to update validation upstream.
        continue;
      }
      const double scale = clip / norms[s];
      std::vector<float> v = *updates[s].values;
      if (reference != nullptr) {
        std::size_t p = 0;
        for_each_coord(updates[s], dim, [&](std::size_t j, float val) {
          v[p++] = float(double((*reference)[j]) +
                         scale * (double(val) - double((*reference)[j])));
        });
      } else {
        for (auto& x : v) x = float(double(x) * scale);
      }
      clipped_values.push_back(std::move(v));
      clipped[s].values = &clipped_values.back();
      ++out.clipped;
    }
    AggregateOutcome mean = weighted_mean(clipped, dim);
    mean.clipped = out.clipped;
    return mean;
  }

 private:
  double clip_;
};

}  // namespace

const char* aggregator_kind_name(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kWeightedMean: return "mean";
    case AggregatorKind::kCoordinateMedian: return "median";
    case AggregatorKind::kTrimmedMean: return "trimmed";
    case AggregatorKind::kKrum: return "krum";
    case AggregatorKind::kNormClippedMean: return "clipped";
  }
  return "unknown";
}

AggregatorKind parse_aggregator_kind(const std::string& name) {
  if (name == "mean") return AggregatorKind::kWeightedMean;
  if (name == "median") return AggregatorKind::kCoordinateMedian;
  if (name == "trimmed") return AggregatorKind::kTrimmedMean;
  if (name == "krum") return AggregatorKind::kKrum;
  if (name == "clipped") return AggregatorKind::kNormClippedMean;
  throw std::invalid_argument("unknown aggregator '" + name +
                              "' (mean|median|trimmed|krum|clipped)");
}

std::unique_ptr<RobustAggregator> make_robust_aggregator(
    const ResilienceConfig& config) {
  switch (config.aggregator) {
    case AggregatorKind::kWeightedMean:
      return std::make_unique<WeightedMeanAggregator>();
    case AggregatorKind::kCoordinateMedian:
      return std::make_unique<CoordinateMedianAggregator>();
    case AggregatorKind::kTrimmedMean:
      return std::make_unique<TrimmedMeanAggregator>(config.trim_fraction);
    case AggregatorKind::kKrum:
      return std::make_unique<KrumAggregator>(config.krum_f,
                                              config.multi_krum);
    case AggregatorKind::kNormClippedMean:
      return std::make_unique<NormClippedMeanAggregator>(config.clip_norm);
  }
  throw std::logic_error("make_robust_aggregator: bad kind");
}

}  // namespace spatl::fl
