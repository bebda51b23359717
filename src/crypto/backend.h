// Runtime-dispatched crypto backends.
//
// The scalar implementations in aes.cpp / gcm.cpp / sha2.cpp are the portable
// baseline; backend_aesni.cpp adds an x86-64 backend built on AES-NI,
// PCLMULQDQ and (where the toolchain supports it) SHA-NI. Which one runs is
// decided once per process: CPUID feature detection, overridable with
//
//   MBTLS_CRYPTO_BACKEND=auto|scalar|aesni
//
// so benchmarks and CI can pin a backend for reproducibility. Call sites
// outside src/crypto never see the dispatch — Aes / AesGcm / Sha256 capture
// the active backend at construction, so the record layer and middlebox
// reprotect accelerate with zero call-site changes.
// MBTLS_REFERENCE_CRYPTO remains a separate, compile-time oracle: reference
// paths never dispatch to an accelerated backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/bytes.h"

namespace mbtls::crypto {

enum class Backend : int {
  kScalar = 0,  // portable C++ (T-table AES, Shoup-table GHASH, plain SHA-2)
  kAesni = 1,   // AES-NI + PCLMULQDQ (+ SHA-NI when compiled in)
};

/// CPUID-reported features relevant to the accelerated backend. `sse41` and
/// `ssse3` gate the byte-shuffle helpers the AES-NI paths lean on; `avx2` is
/// recorded for bench attribution only.
struct CpuFeatures {
  bool aesni = false;
  bool pclmul = false;
  bool ssse3 = false;
  bool sse41 = false;
  bool sha_ni = false;
  bool avx2 = false;
};

/// Host CPU features, detected once via CPUID (all-false off x86-64).
const CpuFeatures& cpu_features();

/// True when the AES-NI/PCLMUL backend is both compiled into this binary and
/// usable on this CPU.
bool aesni_available();

/// True when the SHA-NI SHA-256 path is compiled in and usable on this CPU.
bool sha_ni_available();

/// The backend in effect, resolved once from MBTLS_CRYPTO_BACKEND and CPU
/// features. `aesni` requested without hardware support falls back to scalar
/// (with a one-line stderr note); unknown values behave like `auto`.
Backend active_backend();

/// Test/bench hook: override the resolved backend for objects constructed
/// from now on. A kAesni request is clamped to kScalar when unavailable, so
/// forced-accel test runs degrade to a scalar re-run on portable hosts.
void force_backend_for_testing(Backend b);

const char* backend_name(Backend b);
const char* active_backend_name();

/// Space-separated detected-feature list ("aesni pclmul ..."), "none" when
/// nothing relevant is present. Recorded in bench JSON for attribution.
std::string cpu_feature_string();

// Accelerated entry points (backend_aesni.cpp). Callers must check
// aesni_available() / sha_ni_available() first: without hardware (or when the
// toolchain could not compile the intrinsics) these abort. Round keys are the
// byte-identical FIPS-197 schedule from Aes::round_keys_ — the AES-NI paths
// load them directly, no separate schedule storage.
namespace accel {

/// AESKEYGENASSIST-based key expansion for 16/32-byte keys; byte-identical to
/// the scalar FIPS-197 expansion. `round_keys` receives 16*(rounds+1) bytes.
void aes_key_expand(const std::uint8_t* key, std::size_t key_len, std::uint8_t* round_keys);

void aes_encrypt_block(const std::uint8_t* round_keys, int rounds, const std::uint8_t in[16],
                       std::uint8_t out[16]);
void aes_encrypt4(const std::uint8_t* round_keys, int rounds, const std::uint8_t in[64],
                  std::uint8_t out[64]);

/// GCM CTR keystream XOR: 8 counter blocks in flight per AESENC round. The
/// 32-bit counter starts at j0's low word and pre-increments per block,
/// matching AesGcm::ctr_xor. In-place (out == in) is fine.
void aes_ctr_xor(const std::uint8_t* round_keys, int rounds, const std::uint8_t j0[16],
                 const std::uint8_t* in, std::size_t len, std::uint8_t* out);

/// Precompute H^1..H^4 (bit-reflected form) from the GHASH key H = E_K(0^128)
/// into a 64-byte table consumed by ghash(). Key-equivalent material — owners
/// wipe it on teardown.
void ghash_init(const std::uint8_t h[16], std::uint8_t h_powers[64]);

/// Full GHASH (AAD, then ciphertext, then the length block) with 4-way
/// aggregated PCLMUL reduction. Writes the 16-byte S block in standard
/// (big-endian) byte order.
void ghash(const std::uint8_t* h_powers, ByteView aad, ByteView ciphertext,
           std::uint8_t out[16]);

/// SHA-NI compression over `nblocks` contiguous 64-byte blocks.
void sha256_compress(std::uint32_t state[8], const std::uint8_t* blocks, std::size_t nblocks);

}  // namespace accel

}  // namespace mbtls::crypto
