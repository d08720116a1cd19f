// ComputeContext: the pluggable compute-backend seam under the GEMM family.
//
// The public matmul/matmul_tn/matmul_nt entry points in ops.hpp, and the
// conv entry points that run those GEMMs inside their own data movement
// (conv2d_forward, conv2d_backward_data), keep all shape validation, the
// finiteness pre-scan of B, and the parallel_for row partitioning (the
// fixed-chunk contract of common/parallel.hpp), and hand each row panel to
// the active ComputeContext. Backends therefore differ
// only in how a panel is computed, never in which rows land in which chunk,
// so every backend is individually bit-identical across 1/2/N-thread pools.
//
// Two backends ship today:
//
//   scalar    the reference implementation (src/tensor/ops_reference.cpp).
//             Bit-for-bit the repository's historical semantics on finite
//             inputs, and the oracle every other backend is judged against
//             (tests/test_backend.cpp). test_thread_determinism runs locked
//             on this backend.
//   cpu-simd  register-tiled AVX2+FMA kernels
//             (src/tensor/simd/gemm_avx2.cpp) behind a runtime CPU check.
//             Ulp-bounded against scalar (see the accumulation contract in
//             ops.hpp); falls back to scalar when the CPU lacks AVX2/FMA.
//
// Selection: set_active_backend() (the CLI's --backend flag and
// fl::RunOptions::backend route here), or the SPATL_BACKEND environment
// variable ("scalar" | "cpu-simd" | "auto") read once at first use.
// "auto" means cpu-simd when supported, scalar otherwise. The default with
// no flag and no environment override is scalar, keeping every seeded
// replay byte-stable across machines.
//
// Adding a backend (e.g. OpenCL, following the clcontext/clbuffer split of
// the CortiCL exemplar) means implementing this interface and registering a
// BackendKind; no caller above tensor/ needs to change.
#pragma once

#include <cstddef>
#include <string>

namespace spatl::tensor {

enum class BackendKind {
  kScalar,
  kCpuSimd,
};

/// Canonical name ("scalar", "cpu-simd").
const char* backend_name(BackendKind kind);

/// Parse "scalar" | "cpu-simd" | "auto" (auto resolves against the runtime
/// CPU check). Throws std::invalid_argument on anything else.
BackendKind parse_backend(const std::string& name);

/// True when the running CPU supports the cpu-simd kernels (AVX2 + FMA).
bool cpu_simd_supported();

/// Row panels handed to a backend span a multiple of this many rows (the
/// last panel of a matrix excepted), so a register tile of up to
/// kGemmRowTile rows never straddles two panels. Panel geometry is
/// bit-neutral for the GEMM family: no reduction crosses a row.
inline constexpr std::size_t kGemmRowTile = 4;

/// A compute backend: row-panel GEMM kernels. `row_lo`/`row_hi` bound the
/// output rows this call owns; panels never overlap, so implementations are
/// free of synchronization. `b_finite` is the caller's one-shot finiteness
/// pre-scan of the B operand: zero-row elision (skipping a_ip == 0 terms)
/// is permitted ONLY when it is true — with a non-finite B every product
/// must be formed so 0 * NaN/Inf propagates per IEEE-754 (the divergence
/// guard's contract, DESIGN.md §15).
class ComputeContext {
 public:
  virtual ~ComputeContext() = default;

  virtual BackendKind kind() const = 0;
  const char* name() const { return backend_name(kind()); }

  /// C[i,:] += A[i,:] * B for i in [row_lo, row_hi). A is (m,k) row-major,
  /// B is (k,n) row-major, C is (m,n) and the panel is overwritten.
  virtual void gemm_nn(const float* a, const float* b, float* c,
                       std::size_t row_lo, std::size_t row_hi, std::size_t k,
                       std::size_t n, bool b_finite) const = 0;

  /// C = A^T * B panel: A is stored (k,m) row-major (so A^T is (m,k)),
  /// B is (k,n), C is (m,n); rows i of C in [row_lo, row_hi).
  virtual void gemm_tn(const float* a, const float* b, float* c,
                       std::size_t row_lo, std::size_t row_hi, std::size_t m,
                       std::size_t k, std::size_t n, bool b_finite) const = 0;

  /// C = A * B^T panel: A is (m,k), B is stored (n,k) row-major, C is
  /// (m,n); rows i of C in [row_lo, row_hi). No elision fast path: every
  /// dot product is formed in full.
  virtual void gemm_nt(const float* a, const float* b, float* c,
                       std::size_t row_lo, std::size_t row_hi, std::size_t k,
                       std::size_t n) const = 0;
};

/// The scalar reference backend. Always available.
const ComputeContext& scalar_context();

/// The AVX2+FMA backend, or the scalar backend when the CPU (or build
/// target) does not support it — callers never get an illegal-instruction
/// path.
const ComputeContext& cpu_simd_context();

/// The backend the GEMM entry points currently dispatch to. First use reads
/// SPATL_BACKEND from the environment; with no override the default is
/// scalar.
const ComputeContext& active_context();
BackendKind active_backend();

/// Select the process-wide backend. Cheap and safe to call between kernel
/// invocations; not intended to be raced against in-flight kernels.
void set_active_backend(BackendKind kind);

}  // namespace spatl::tensor
