// Hot-path crypto microbenchmarks: fast vs reference implementations.
//
// Every optimized primitive ships alongside the reference implementation it
// was differentially tested against (see MBTLS_REFERENCE_CRYPTO), so this
// binary can measure both in one process and report the speedup directly:
//   * P-256 scalar multiplication — fixed-window comb (mul_base), fixed
//     window with per-point table (mul), the interleaved wNAF ladder
//     (mul_add) vs the plain double-and-add ladder,
//   * ECDSA verification — the wNAF ladder with its inversion-free x check
//     vs the same verification over mul_add_reference,
//   * AES-GCM seal/open — 4-block interleaved CTR + word XOR + table GHASH
//     vs block-at-a-time CTR with bit-serial GHASH,
//   * BigInt::mod_exp — sliding-window vs bit-at-a-time Montgomery ladder,
//   * the record layer — allocation-free seal_into vs the allocating seal.
//
// `--json PATH` writes the numbers machine-readably (BENCH_micro.json is the
// committed perf-regression baseline; scripts/bench.sh refreshes it);
// `--quick` shrinks the measurement budget for the bench_smoke ctest.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bignum/bignum.h"
#include "crypto/backend.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "ec/ecdsa.h"
#include "ec/p256.h"
#include "tls/record.h"

namespace mbtls::bench {
namespace {

/// Seconds of measurement per primitive and side (after one warmup call).
double g_budget = 0.2;

struct Metric {
  std::string name;
  std::string unit;    // "us_per_op" (lower better) or "mb_per_s" (higher better)
  double fast = 0;
  double reference = 0;
  double speedup = 0;  // always >1 means the fast path wins
};

/// Seconds taken by `n` back-to-back calls of `f`.
template <typename F>
double time_calls(F& f, long n) {
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < n; ++i) f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// How many calls of `f` fill about `seconds` (at least one).
template <typename F>
long calls_per(F& f, double seconds) {
  long n = 1;
  double dt = time_calls(f, n);
  while (dt < seconds / 8 && n < (1L << 30)) {
    n *= 8;
    dt = time_calls(f, n);
  }
  return std::max(1L, static_cast<long>(static_cast<double>(n) * seconds / std::max(dt, 1e-9)));
}

/// Times `fast` against `reference` in alternating short rounds and keeps
/// each side's fastest round. Interleaving puts both sides under the same
/// host conditions (steal, frequency), and the minimum drops the rounds a
/// burst of noise slowed down, so the ratio moves with the code, not the
/// host. `bytes` == 0 reports microseconds per call; otherwise MB/s over
/// `bytes` per call.
template <typename F, typename R>
Metric compare(std::string name, std::size_t bytes, F&& fast, R&& reference) {
  constexpr int kRounds = 10;
  const double round_s = g_budget / kRounds;
  fast();  // warmup
  reference();
  const long fast_calls = calls_per(fast, round_s);
  const long reference_calls = calls_per(reference, round_s);
  double fast_us = 1e300, reference_us = 1e300;
  for (int round = 0; round < kRounds; ++round) {
    fast_us = std::min(fast_us, time_calls(fast, fast_calls) * 1e6 / static_cast<double>(fast_calls));
    reference_us = std::min(reference_us, time_calls(reference, reference_calls) * 1e6 /
                                              static_cast<double>(reference_calls));
  }
  Metric m{std::move(name), bytes == 0 ? "us_per_op" : "mb_per_s", fast_us, reference_us,
           reference_us / fast_us};
  if (bytes != 0) {  // bytes/us == MB/s
    m.fast = static_cast<double>(bytes) / fast_us;
    m.reference = static_cast<double>(bytes) / reference_us;
  }
  return m;
}

void p256_metrics(std::vector<Metric>& out) {
  const auto& curve = ec::P256::instance();
  crypto::Drbg rng_local("bench-micro-p256", 1);
  const ec::U256 k1 = curve.random_scalar(rng_local);
  const ec::U256 k2 = curve.random_scalar(rng_local);
  const ec::AffinePoint q = curve.mul_base_reference(k2);

  out.push_back(compare("p256_mul_base", 0, [&] { (void)curve.mul_base(k1); },
                        [&] { (void)curve.mul_base_reference(k1); }));
  out.push_back(compare("p256_mul", 0, [&] { (void)curve.mul(k1, q); },
                        [&] { (void)curve.mul_reference(k1, q); }));
  out.push_back(compare("p256_mul_add", 0, [&] { (void)curve.mul_add(k1, k2, q); },
                        [&] { (void)curve.mul_add_reference(k1, k2, q); }));

  // A certificate-shaped verify: SHA-384 over a 165-byte message, the size
  // of the randoms plus ECDHE parameters a ServerKeyExchange signs.
  const ec::EcdsaKeyPair key = ec::ecdsa_generate(rng_local);
  const Bytes msg = rng_local.bytes(165);
  const Bytes sig = ec::ecdsa_sign(key, crypto::HashAlgo::kSha384, msg, rng_local);
  out.push_back(compare(
      "ecdsa_verify", 0,
      [&] {
        if (!ec::ecdsa_verify(key.public_key, crypto::HashAlgo::kSha384, msg, sig)) std::abort();
      },
      [&] {
        if (!ec::ecdsa_verify_reference(key.public_key, crypto::HashAlgo::kSha384, msg, sig))
          std::abort();
      }));
}

/// Forces a crypto backend for the enclosing scope (bench-local copy of the
/// test guard; backend choice is captured per AesGcm at construction).
class BackendGuard {
 public:
  explicit BackendGuard(crypto::Backend b) : saved_(crypto::active_backend()) {
    crypto::force_backend_for_testing(b);
  }
  ~BackendGuard() { crypto::force_backend_for_testing(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  crypto::Backend saved_;
};

void gcm_metrics(std::vector<Metric>& out) {
  // The committed aes_gcm_* floors predate the dispatch layer: they gauge
  // the scalar fast path (4-block CTR + table GHASH) against the bit-serial
  // reference. Pin the scalar backend here so those numbers keep meaning the
  // same thing on AES-NI hosts; gcm_accel_metrics covers the new backend.
  BackendGuard guard(crypto::Backend::kScalar);
  crypto::Drbg rng_local("bench-micro-gcm", 2);
  const crypto::AesGcm aead(rng_local.bytes(32));
  const Bytes iv = rng_local.bytes(12);
  const Bytes aad = rng_local.bytes(13);

  for (const std::size_t size : {std::size_t{1500}, std::size_t{8192}}) {
    const Bytes plaintext = rng_local.bytes(size);
    Bytes scratch(size + crypto::AesGcm::kTagSize);
    out.push_back(compare("aes_gcm_seal_" + std::to_string(size), size,
                          [&] { aead.seal_into(iv, aad, plaintext, scratch); },
                          [&] { (void)aead.seal_reference(iv, aad, plaintext); }));
    if (size == 8192) {
      const Bytes sealed = aead.seal(iv, aad, plaintext);
      Bytes open_scratch(size);
      out.push_back(compare(
          "aes_gcm_open_" + std::to_string(size), size,
          [&] {
            if (!aead.open_into(iv, aad, sealed, open_scratch)) std::abort();
          },
          [&] {
            if (!aead.open_reference(iv, aad, sealed)) std::abort();
          }));
    }
  }
}

/// AES-NI/PCLMUL backend vs the *scalar fast path* (not the bit-serial
/// reference): `fast` is an AesGcm built under the resolved accelerated
/// backend, `reference` the same key forced scalar. Only emitted when the
/// active backend is aesni — on other hosts (or under
/// MBTLS_CRYPTO_BACKEND=scalar) the metrics and their floor are absent.
void gcm_accel_metrics(std::vector<Metric>& out) {
  if (crypto::active_backend() != crypto::Backend::kAesni) return;
  crypto::Drbg rng_local("bench-micro-gcm-accel", 6);
  const Bytes key = rng_local.bytes(32);
  const Bytes iv = rng_local.bytes(12);
  const Bytes aad = rng_local.bytes(13);
  const crypto::AesGcm accel(key);
  BackendGuard guard(crypto::Backend::kScalar);
  const crypto::AesGcm scalar(key);

  for (const std::size_t size : {std::size_t{1500}, std::size_t{8192}}) {
    const Bytes plaintext = rng_local.bytes(size);
    Bytes scratch(size + crypto::AesGcm::kTagSize);
    out.push_back(compare("aes_gcm_seal_" + std::to_string(size) + "_aesni", size,
                          [&] { accel.seal_into(iv, aad, plaintext, scratch); },
                          [&] { scalar.seal_into(iv, aad, plaintext, scratch); }));
    if (size == 8192) {
      const Bytes sealed = accel.seal(iv, aad, plaintext);
      Bytes open_scratch(size);
      out.push_back(compare(
          "aes_gcm_open_" + std::to_string(size) + "_aesni", size,
          [&] {
            if (!accel.open_into(iv, aad, sealed, open_scratch)) std::abort();
          },
          [&] {
            if (!scalar.open_into(iv, aad, sealed, open_scratch)) std::abort();
          }));
    }
  }
}

void mod_exp_metric(std::vector<Metric>& out) {
  crypto::Drbg rng_local("bench-micro-rsa", 3);
  Bytes mod_bytes = rng_local.bytes(256);  // RSA-2048-sized operands
  mod_bytes[0] |= 0x80;
  mod_bytes[255] |= 1;
  const bn::BigInt modulus = bn::BigInt::from_bytes(mod_bytes);
  const bn::BigInt base = bn::BigInt::from_bytes(rng_local.bytes(256)) % modulus;
  const bn::BigInt exponent = bn::BigInt::from_bytes(rng_local.bytes(256));

  out.push_back(compare("mod_exp_2048", 0, [&] { (void)base.mod_exp(exponent, modulus); },
                        [&] { (void)base.mod_exp_reference(exponent, modulus); }));
}

void record_metric(std::vector<Metric>& out) {
  crypto::Drbg rng_local("bench-micro-record", 4);
  const tls::DirectionKeys keys{rng_local.bytes(32), rng_local.bytes(4)};
  const std::size_t size = 8192;
  const Bytes payload = rng_local.bytes(size);

  tls::HopChannel fast_channel(keys), reference_channel(keys);
  Bytes wire;
  out.push_back(compare(
      "record_seal_8192", size,
      [&] {
        wire.clear();  // capacity is reused — steady state allocates nothing
        fast_channel.seal_into(tls::ContentType::kApplicationData, payload, wire);
      },
      [&] { (void)reference_channel.seal(tls::ContentType::kApplicationData, payload); }));
}

void record_trace_metric(std::vector<Metric>& out) {
  crypto::Drbg rng_local("bench-micro-trace", 5);
  const tls::DirectionKeys keys{rng_local.bytes(32), rng_local.bytes(4)};
  const std::size_t size = 8192;
  const Bytes payload = rng_local.bytes(size);

  // Zero-cost-when-disabled guard: the record path now carries its trace
  // branch unconditionally. With no sink attached, seal_into must stay
  // within noise of the raw AEAD data plane — the branch plus record
  // framing is all that separates them at 8 KB.
  tls::HopChannel channel(keys);  // tracing compiled in, no sink attached
  Bytes wire;
  const crypto::AesGcm aead(keys.key);
  const Bytes iv = rng_local.bytes(12);
  const Bytes aad = rng_local.bytes(13);
  Bytes scratch(size + crypto::AesGcm::kTagSize);
  out.push_back(compare(
      "record_seal_trace_off_8192", size,
      [&] {
        wire.clear();
        channel.seal_into(tls::ContentType::kApplicationData, payload, wire);
      },
      [&] { aead.seal_into(iv, aad, payload, scratch); }));
}

}  // namespace
}  // namespace mbtls::bench

int main(int argc, char** argv) {
  using namespace mbtls::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") g_budget = 0.01;
  }
  const std::string json_path = json_arg(argc, argv);

  std::printf("=== Microcrypto: fast vs reference (budget %.2fs per primitive) ===\n", g_budget);
  std::printf("crypto backend: %s (features: %s)\n", mbtls::crypto::active_backend_name(),
              mbtls::crypto::cpu_feature_string().c_str());
  std::vector<Metric> metrics;
  p256_metrics(metrics);
  gcm_metrics(metrics);
  gcm_accel_metrics(metrics);
  mod_exp_metric(metrics);
  record_metric(metrics);
  record_trace_metric(metrics);

  std::printf("%-22s %12s %12s %9s  %s\n", "primitive", "fast", "reference", "speedup",
              "unit");
  for (const auto& m : metrics) {
    std::printf("%-22s %12.2f %12.2f %8.2fx  %s\n", m.name.c_str(), m.fast, m.reference,
                m.speedup, m.unit.c_str());
  }

  if (!json_path.empty()) {
    Json rows = Json::array();
    for (const auto& m : metrics) {
      rows.push(Json::object()
                    .add("name", m.name)
                    .add("unit", m.unit)
                    .add("fast", m.fast)
                    .add("reference", m.reference)
                    .add("speedup", m.speedup));
    }
    Json doc = Json::object().add("bench", std::string("microcrypto"));
    add_backend_fields(doc).add("metrics", rows);
    if (!doc.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Regression gate mirrored by the acceptance criteria: the windowed
  // ladder must beat the reference ladder 3x on the fixed base, the wNAF
  // ladder 1.9x on u1*G + u2*Q, and the fast GCM data plane must beat the
  // reference seal 1.5x. Sanitizer instrumentation skews the two paths
  // differently, so only uninstrumented builds enforce the floor.
#ifdef MBTLS_SANITIZER_BUILD
  std::printf("sanitizer build: speedup floors not enforced\n");
  return 0;
#endif
  for (const auto& m : metrics) {
    if (m.name == "p256_mul_base" && m.speedup < 3.0) {
      std::fprintf(stderr, "FAIL: p256_mul_base speedup %.2fx < 3x\n", m.speedup);
      return 1;
    }
    // The wNAF verify ladder read 2.12-2.77x over five full runs and
    // 2.13-2.62x over ten --quick runs on a 4-vCPU Xeon; the w=4 window
    // interleave it replaced read 1.8-2.1x against its own reference. The
    // reference shares the faster doubling and inversion, so the floor
    // catches a lost ladder (a fall back toward 1x), not a few percent.
    if (m.name == "p256_mul_add" && m.speedup < 1.9) {
      std::fprintf(stderr, "FAIL: p256_mul_add speedup %.2fx < 1.9x\n", m.speedup);
      return 1;
    }
    if (m.name == "aes_gcm_seal_8192" && m.speedup < 1.5) {
      std::fprintf(stderr, "FAIL: aes_gcm_seal_8192 speedup %.2fx < 1.5x\n", m.speedup);
      return 1;
    }
    // Tracing must be free when disabled: the record path with its (never
    // taken) trace branch keeps at least 70% of raw AEAD throughput. The
    // generous floor absorbs single-core scheduling noise; a forgotten
    // unconditional argument render would cut this far below it.
    if (m.name == "record_seal_trace_off_8192" && m.speedup < 0.7) {
      std::fprintf(stderr, "FAIL: record_seal_trace_off_8192 ratio %.2fx < 0.7x\n", m.speedup);
      return 1;
    }
    // Accelerated-backend floor (only present when the aesni backend
    // resolved): AES-NI + PCLMUL must beat the scalar fast path 3x at 8 KB.
    // In practice it lands far higher; 3x catches a dispatch regression
    // (e.g. the per-object capture silently resolving scalar).
    if (m.name == "aes_gcm_seal_8192_aesni" && m.speedup < 3.0) {
      std::fprintf(stderr, "FAIL: aes_gcm_seal_8192_aesni speedup %.2fx < 3x\n", m.speedup);
      return 1;
    }
  }
  return 0;
}
