#ifndef GYO_REL_SIMD_H_
#define GYO_REL_SIMD_H_

#include <cstdint>
#include <cstring>

/// Explicit vectorization for the kernel hot loops (rel/ops.cc): the FNV-1a
/// fold sweeps of HashColumns and the per-column gather behind every
/// compaction pass. Two compile-time tiers:
///
///   1. GCC/Clang vector extensions (4 × u64 lanes) for the streaming
///      sweeps — element-wise xor/multiply/shift are defined per lane, so
///      the results are BIT-IDENTICAL to the scalar loops (bucket chains,
///      Bloom bits, and output orders depend on the exact hash values).
///   2. Scalar loops everywhere else — Gather64 always (the vector
///      extensions cannot express an indexed load), and every sweep when
///      the build sets GYO_DISABLE_SIMD (CMake option of the same name),
///      the configuration CI proves green so the portable path cannot rot.
///
/// Unaligned data is the norm (arena offsets are arbitrary), so all vector
/// loads/stores go through memcpy, which the compilers fold into unaligned
/// vector moves.

#if !defined(GYO_DISABLE_SIMD) && (defined(__GNUC__) || defined(__clang__))
#define GYO_SIMD_VECTOR_EXT 1
#endif

namespace gyo {
namespace simd {

#if defined(GYO_SIMD_VECTOR_EXT)

// The 32-byte vectors below never cross a translation-unit boundary — every
// helper is inline and the vectors live in registers or on the local stack —
// so GCC's psabi note about their call ABI without -mavx is moot. Without
// AVX the compiler splits each 4-lane op into two 16-byte SSE ops, still
// lane-exact.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

typedef uint64_t VecU64 __attribute__((vector_size(32)));
constexpr int64_t kVecLanes = 4;

inline VecU64 LoadU(const void* p) {
  VecU64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreU(void* p, VecU64 v) { std::memcpy(p, &v, sizeof(v)); }

#endif  // GYO_SIMD_VECTOR_EXT

/// out[0 .. n) = v — the hash-seed broadcast.
inline void FillU64(uint64_t* out, int64_t n, uint64_t v) {
  int64_t i = 0;
#if defined(GYO_SIMD_VECTOR_EXT)
  const VecU64 vv = {v, v, v, v};
  for (; i + kVecLanes <= n; i += kVecLanes) StoreU(out + i, vv);
#endif
  for (; i < n; ++i) out[i] = v;
}

/// out[i] = (out[i] ^ uint64(in[i])) * mul for i in [0, n) — one FNV-1a
/// fold pass over a key column. `in` is the signed arena type; the cast to
/// unsigned is the two's-complement bit pattern, so loading the bits
/// directly (vector path) and static_cast (scalar path) agree exactly.
inline void XorMulU64(uint64_t* out, const int64_t* in, int64_t n,
                      uint64_t mul) {
  int64_t i = 0;
#if defined(GYO_SIMD_VECTOR_EXT)
  const VecU64 vmul = {mul, mul, mul, mul};
  for (; i + kVecLanes <= n; i += kVecLanes) {
    StoreU(out + i, (LoadU(out + i) ^ LoadU(in + i)) * vmul);
  }
#endif
  for (; i < n; ++i) {
    out[i] = (out[i] ^ static_cast<uint64_t>(in[i])) * mul;
  }
}

/// Murmur3-style 64-bit finalizer applied to h[0 .. n) in place. Lane
/// shifts on unsigned vectors are logical shifts, so every lane computes
/// exactly the scalar AvalancheMix.
inline void AvalancheSweep(uint64_t* h, int64_t n) {
  constexpr uint64_t kMul1 = 0xff51afd7ed558ccdull;
  constexpr uint64_t kMul2 = 0xc4ceb9fe1a85ec53ull;
  int64_t i = 0;
#if defined(GYO_SIMD_VECTOR_EXT)
  const VecU64 vm1 = {kMul1, kMul1, kMul1, kMul1};
  const VecU64 vm2 = {kMul2, kMul2, kMul2, kMul2};
  for (; i + kVecLanes <= n; i += kVecLanes) {
    VecU64 v = LoadU(h + i);
    v ^= v >> 33;
    v *= vm1;
    v ^= v >> 33;
    v *= vm2;
    v ^= v >> 33;
    StoreU(h + i, v);
  }
#endif
  for (; i < n; ++i) {
    uint64_t x = h[i];
    x ^= x >> 33;
    x *= kMul1;
    x ^= x >> 33;
    x *= kMul2;
    x ^= x >> 33;
    h[i] = x;
  }
}

/// dst[t] = src[ids[t]] for t in [0, n) — the per-column gather every
/// compaction/output pass is built from. Order-preserving by construction.
inline void Gather64(const int64_t* src, const int64_t* ids, int64_t n,
                     int64_t* dst) {
  for (int64_t t = 0; t < n; ++t) dst[t] = src[ids[t]];
}

#if defined(GYO_SIMD_VECTOR_EXT) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace simd
}  // namespace gyo

#endif  // GYO_REL_SIMD_H_
