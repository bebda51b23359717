// Differential tests: every optimized hot-path primitive against its
// reference implementation, over seeded-DRBG inputs plus hand-picked edge
// cases. The references (`*_reference`, also reachable tree-wide via
// -DMBTLS_REFERENCE_CRYPTO) are the straightforward textbook versions; any
// divergence here means the optimization changed semantics, not just speed.
#include <gtest/gtest.h>

#include "bignum/bignum.h"
#include "crypto/backend.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/sha2.h"
#include "ec/ecdsa.h"
#include "ec/p256.h"
#include "util/bytes.h"

namespace mbtls {
namespace {

// ---------------------------------------------------------------- P-256

ec::U256 u256_from_u64(std::uint64_t v) {
  Bytes be(32, 0);
  for (int i = 0; i < 8; ++i) be[31 - i] = static_cast<std::uint8_t>(v >> (8 * i));
  return ec::U256::from_bytes(be);
}

ec::U256 order_minus_one() {
  Bytes be = ec::P256::instance().order().to_bytes();
  // The order is odd, so decrementing cannot borrow past the last byte.
  be[31] -= 1;
  return ec::U256::from_bytes(be);
}

ec::U256 high_bit_scalar() {
  Bytes be(32, 0);
  be[0] = 0x80;
  return ec::U256::from_bytes(be);
}

ec::U256 all_ones_scalar() {
  return ec::U256::from_bytes(Bytes(32, 0xff));  // >= n: exercises robustness
}

/// Edge scalars every windowed path must agree on: zero (infinity), the
/// smallest scalars, the largest in-range scalar, a lone high bit (63 zero
/// windows), and an out-of-range value.
std::vector<ec::U256> edge_scalars() {
  return {u256_from_u64(0), u256_from_u64(1),  u256_from_u64(2),
          u256_from_u64(15), u256_from_u64(16), order_minus_one(),
          high_bit_scalar(), all_ones_scalar()};
}

void expect_same_point(const ec::AffinePoint& got, const ec::AffinePoint& want,
                       const std::string& what) {
  EXPECT_EQ(got.infinity, want.infinity) << what;
  if (got.infinity || want.infinity) return;
  EXPECT_EQ(got.x, want.x) << what;
  EXPECT_EQ(got.y, want.y) << what;
}

TEST(CryptoDiff, P256MulBaseMatchesReference) {
  const auto& curve = ec::P256::instance();
  crypto::Drbg rng("diff-p256-base", 1);
  std::vector<ec::U256> scalars = edge_scalars();
  for (int i = 0; i < 32; ++i) scalars.push_back(curve.random_scalar(rng));
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    expect_same_point(curve.mul_base(scalars[i]), curve.mul_base_reference(scalars[i]),
                      "mul_base scalar #" + std::to_string(i));
  }
}

TEST(CryptoDiff, P256MulMatchesReference) {
  const auto& curve = ec::P256::instance();
  crypto::Drbg rng("diff-p256-mul", 2);
  std::vector<ec::U256> scalars = edge_scalars();
  for (int i = 0; i < 16; ++i) scalars.push_back(curve.random_scalar(rng));
  // Vary the base point too: random multiples of G (all valid curve points).
  for (int pi = 0; pi < 4; ++pi) {
    const ec::AffinePoint q = curve.mul_base_reference(curve.random_scalar(rng));
    for (std::size_t i = 0; i < scalars.size(); ++i) {
      expect_same_point(curve.mul(scalars[i], q), curve.mul_reference(scalars[i], q),
                        "mul point #" + std::to_string(pi) + " scalar #" + std::to_string(i));
    }
  }
}

TEST(CryptoDiff, P256MulAddMatchesReference) {
  const auto& curve = ec::P256::instance();
  crypto::Drbg rng("diff-p256-muladd", 3);
  std::vector<ec::U256> scalars = edge_scalars();
  for (int i = 0; i < 4; ++i) scalars.push_back(curve.random_scalar(rng));
  const ec::AffinePoint q = curve.mul_base_reference(curve.random_scalar(rng));
  // Full cross product: hits u1 = 0, u2 = 0, both-zero, and cancellation-ish
  // combinations the ECDSA-verify hot path would only see adversarially.
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    for (std::size_t j = 0; j < scalars.size(); ++j) {
      expect_same_point(curve.mul_add(scalars[i], scalars[j], q),
                        curve.mul_add_reference(scalars[i], scalars[j], q),
                        "mul_add u1 #" + std::to_string(i) + " u2 #" + std::to_string(j));
    }
  }
}

TEST(CryptoDiff, P256MulAddAtInfinityMatchesReference) {
  // Q at infinity: the ladder skips Q's digits and leaves u1*G.
  const auto& curve = ec::P256::instance();
  ec::AffinePoint infinity;
  infinity.infinity = true;
  for (const auto& u : edge_scalars()) {
    expect_same_point(curve.mul_add(u, u256_from_u64(7), infinity),
                      curve.mul_add_reference(u, u256_from_u64(7), infinity),
                      "mul_add at infinity");
  }
}

TEST(CryptoDiff, EcdsaVerifyMatchesReference) {
  // The wNAF ladder with its inversion-free x check against the affine
  // verification over mul_add_reference: valid signatures, wrong messages,
  // tampered r or s, and every out-of-range scalar.
  crypto::Drbg rng("diff-ecdsa-verify", 5);
  const Bytes order = ec::P256::instance().order().to_bytes();
  const auto check = [](const ec::AffinePoint& q, crypto::HashAlgo algo, ByteView msg,
                        ByteView sig, const std::string& what) {
    const bool fast = ec::ecdsa_verify(q, algo, msg, sig);
    EXPECT_EQ(fast, ec::ecdsa_verify_reference(q, algo, msg, sig)) << what;
    return fast;
  };
  for (int trial = 0; trial < 8; ++trial) {
    const std::string tag = "trial " + std::to_string(trial);
    const ec::EcdsaKeyPair key = ec::ecdsa_generate(rng);
    const auto algo = trial % 2 == 0 ? crypto::HashAlgo::kSha256 : crypto::HashAlgo::kSha384;
    const Bytes msg = rng.bytes(16 + static_cast<std::size_t>(trial) * 29);
    const Bytes sig = ec::ecdsa_sign(key, algo, msg, rng);
    EXPECT_TRUE(check(key.public_key, algo, msg, sig, tag + " valid"));
    Bytes other = msg;
    other[0] ^= 0x80;
    EXPECT_FALSE(check(key.public_key, algo, other, sig, tag + " wrong message"));
    for (const std::size_t at : {7u, 31u, 40u, 63u}) {
      Bytes bad = sig;
      bad[at] ^= 0x01;  // bytes 0..31 are r, 32..63 are s
      EXPECT_FALSE(check(key.public_key, algo, msg, bad, tag + " tampered " + std::to_string(at)));
    }
    const Bytes r(sig.begin(), sig.begin() + 32), s(sig.begin() + 32, sig.end());
    const Bytes zero(32, 0), ones(32, 0xff);
    EXPECT_FALSE(check(key.public_key, algo, msg, concat({zero, s}), tag + " r = 0"));
    EXPECT_FALSE(check(key.public_key, algo, msg, concat({r, zero}), tag + " s = 0"));
    EXPECT_FALSE(check(key.public_key, algo, msg, concat({order, s}), tag + " r = n"));
    EXPECT_FALSE(check(key.public_key, algo, msg, concat({ones, s}), tag + " r > n"));
    EXPECT_FALSE(check(key.public_key, algo, msg, concat({r, order}), tag + " s = n"));
    EXPECT_FALSE(check(key.public_key, algo, msg, concat({r, ones}), tag + " s > n"));
  }
}

TEST(CryptoDiff, P256WindowSelectMatchesIndexing) {
  // ct_select_window must agree with plain indexing for every index,
  // including the idx == 0 "no entry" convention.
  const auto& curve = ec::P256::instance();
  crypto::Drbg rng("diff-p256-sel", 4);
  std::vector<ec::AffinePoint> table;
  for (int i = 0; i < 15; ++i) table.push_back(curve.mul_base_reference(curve.random_scalar(rng)));
  const ec::AffinePoint zero = ct_select_window(table, 0);
  EXPECT_TRUE(zero.infinity);
  for (std::uint32_t idx = 1; idx <= table.size(); ++idx) {
    const ec::AffinePoint got = ct_select_window(table, idx);
    expect_same_point(got, table[idx - 1], "window idx " + std::to_string(idx));
  }
}

// --------------------------------------------------------------- AES-GCM

TEST(CryptoDiff, GcmSealMatchesReference) {
  crypto::Drbg rng("diff-gcm-seal", 5);
  for (const std::size_t key_len : {std::size_t{16}, std::size_t{32}}) {
    const crypto::AesGcm gcm(rng.bytes(key_len));
    // Sizes straddling every code-path boundary: empty, partial block, exact
    // blocks, the 4-block fast batch, and past it.
    for (const std::size_t size : {0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 1500, 4096}) {
      const Bytes iv = rng.bytes(12);
      const Bytes aad = rng.bytes(size % 32);  // varying AAD lengths too
      const Bytes plaintext = rng.bytes(size);
      const Bytes fast = gcm.seal(iv, aad, plaintext);
      const Bytes ref = gcm.seal_reference(iv, aad, plaintext);
      EXPECT_EQ(fast, ref) << "seal key_len=" << key_len << " size=" << size;

      // Cross-open: each implementation must accept the other's output.
      const auto fast_opens_ref = gcm.open(iv, aad, ref);
      const auto ref_opens_fast = gcm.open_reference(iv, aad, fast);
      ASSERT_TRUE(fast_opens_ref.has_value());
      ASSERT_TRUE(ref_opens_fast.has_value());
      EXPECT_EQ(*fast_opens_ref, plaintext);
      EXPECT_EQ(*ref_opens_fast, plaintext);
    }
  }
}

TEST(CryptoDiff, GcmInPlaceMatchesAllocating) {
  crypto::Drbg rng("diff-gcm-inplace", 6);
  const crypto::AesGcm gcm(rng.bytes(32));
  for (const std::size_t size : {0, 1, 16, 65, 1500}) {
    const Bytes iv = rng.bytes(12);
    const Bytes aad = rng.bytes(13);
    const Bytes plaintext = rng.bytes(size);

    // seal_into with the plaintext already sitting in the output buffer
    // (true in-place use, as the record layer drives it).
    Bytes buf(size + crypto::AesGcm::kTagSize);
    std::copy(plaintext.begin(), plaintext.end(), buf.begin());
    gcm.seal_into(iv, aad, ByteView(buf).first(size), buf);
    EXPECT_EQ(buf, gcm.seal_reference(iv, aad, plaintext)) << "size=" << size;

    // open_into decrypting into the ciphertext's own storage.
    ASSERT_TRUE(gcm.open_into(iv, aad, buf, MutableByteView(buf).first(size)));
    EXPECT_TRUE(std::equal(plaintext.begin(), plaintext.end(), buf.begin())) << "size=" << size;
  }
}

TEST(CryptoDiff, GcmBothPathsRejectForgery) {
  crypto::Drbg rng("diff-gcm-forge", 7);
  const crypto::AesGcm gcm(rng.bytes(32));
  const Bytes iv = rng.bytes(12);
  const Bytes aad = rng.bytes(13);
  const Bytes plaintext = rng.bytes(100);
  Bytes sealed = gcm.seal(iv, aad, plaintext);
  for (const std::size_t flip : {std::size_t{0}, plaintext.size(), sealed.size() - 1}) {
    sealed[flip] ^= 0x01;
    Bytes scratch(plaintext.size());
    EXPECT_FALSE(gcm.open(iv, aad, sealed).has_value()) << "flip=" << flip;
    EXPECT_FALSE(gcm.open_reference(iv, aad, sealed).has_value()) << "flip=" << flip;
    EXPECT_FALSE(gcm.open_into(iv, aad, sealed, scratch)) << "flip=" << flip;
    sealed[flip] ^= 0x01;
  }
}

// ----------------------------------------------------- cross-backend GCM
//
// The runtime-dispatched backends (crypto/backend.h) must be byte-identical:
// scalar vs. AES-NI/PCLMUL vs. the bit-serial reference oracle. Backend
// choice is captured per object at construction, so each case constructs its
// AesGcm under the forced backend. On hardware without AES-NI,
// force_backend_for_testing clamps kAesni to kScalar and these cases
// degenerate to scalar-vs-scalar (still a valid oracle check); the
// accelerated arm is additionally exercised by the crypto_diff_force_aesni
// ctest registration on capable machines.

/// Forces a backend for the current scope, restoring the previous choice on
/// exit (restoration matters: gtest shards share the process).
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

/// Seals with an AesGcm constructed under `backend`; returns ct || tag.
Bytes seal_with_backend(crypto::Backend backend, ByteView key, ByteView iv, ByteView aad,
                        ByteView plaintext) {
  BackendGuard guard(backend);
  const crypto::AesGcm gcm(key);
  return gcm.seal(iv, aad, plaintext);
}

TEST(CryptoDiff, GcmCrossBackendAllTailLengths) {
  crypto::Drbg rng("diff-gcm-backend-tail", 20);
  for (const std::size_t key_len : {std::size_t{16}, std::size_t{32}}) {
    const Bytes key = rng.bytes(key_len);
    // Every tail length 0..64 both on its own and appended to a full 8-block
    // (128-byte) batch, so the AES-NI CTR main loop, its 16-byte tail loop,
    // the partial-block path, and the 4-way aggregated GHASH all get hit.
    for (std::size_t tail = 0; tail <= 64; ++tail) {
      for (const std::size_t base : {std::size_t{0}, std::size_t{128}}) {
        const std::size_t size = base + tail;
        const Bytes iv = rng.bytes(12);
        const Bytes aad = rng.bytes(tail % 24);
        const Bytes plaintext = rng.bytes(size);
        const Bytes scalar = seal_with_backend(crypto::Backend::kScalar, key, iv, aad, plaintext);
        const Bytes accel = seal_with_backend(crypto::Backend::kAesni, key, iv, aad, plaintext);
        EXPECT_EQ(scalar, accel) << "key_len=" << key_len << " size=" << size;
        // Both must also match the bit-serial reference oracle.
        const crypto::AesGcm oracle(key);
        EXPECT_EQ(scalar, oracle.seal_reference(iv, aad, plaintext))
            << "key_len=" << key_len << " size=" << size;
      }
    }
  }
}

TEST(CryptoDiff, GcmCrossBackendEmptyAndAadOnly) {
  crypto::Drbg rng("diff-gcm-backend-aad", 21);
  const Bytes key = rng.bytes(32);
  const Bytes iv = rng.bytes(12);
  // Empty plaintext + empty AAD (tag-only output), and AAD-only inputs whose
  // lengths straddle the 64-byte aggregated GHASH batch.
  for (const std::size_t aad_len : {0, 1, 16, 63, 64, 65, 200}) {
    const Bytes aad = rng.bytes(aad_len);
    const Bytes scalar = seal_with_backend(crypto::Backend::kScalar, key, iv, aad, {});
    const Bytes accel = seal_with_backend(crypto::Backend::kAesni, key, iv, aad, {});
    EXPECT_EQ(scalar, accel) << "aad_len=" << aad_len;
    ASSERT_EQ(scalar.size(), crypto::AesGcm::kTagSize);

    // Cross-open: a backend must accept the other backend's sealed output.
    BackendGuard guard(crypto::Backend::kAesni);
    const crypto::AesGcm gcm(key);
    const auto opened = gcm.open(iv, aad, scalar);
    ASSERT_TRUE(opened.has_value()) << "aad_len=" << aad_len;
    EXPECT_TRUE(opened->empty());
  }
}

TEST(CryptoDiff, GcmCrossBackendInPlaceAliasing) {
  crypto::Drbg rng("diff-gcm-backend-alias", 22);
  const Bytes key = rng.bytes(16);
  for (const crypto::Backend backend : {crypto::Backend::kScalar, crypto::Backend::kAesni}) {
    BackendGuard guard(backend);
    const crypto::AesGcm gcm(key);
    for (const std::size_t size : {0, 1, 15, 16, 65, 128, 129, 1500}) {
      const Bytes iv = rng.bytes(12);
      const Bytes aad = rng.bytes(13);
      const Bytes plaintext = rng.bytes(size);

      // seal_into with the plaintext already in the output buffer.
      Bytes buf(size + crypto::AesGcm::kTagSize);
      std::copy(plaintext.begin(), plaintext.end(), buf.begin());
      gcm.seal_into(iv, aad, ByteView(buf).first(size), buf);
      EXPECT_EQ(buf, gcm.seal_reference(iv, aad, plaintext))
          << crypto::backend_name(backend) << " size=" << size;

      // open_into decrypting into the ciphertext's own storage.
      ASSERT_TRUE(gcm.open_into(iv, aad, buf, MutableByteView(buf).first(size)))
          << crypto::backend_name(backend) << " size=" << size;
      EXPECT_TRUE(std::equal(plaintext.begin(), plaintext.end(), buf.begin()))
          << crypto::backend_name(backend) << " size=" << size;
    }
  }
}

TEST(CryptoDiff, Sha256CrossBackend) {
  crypto::Drbg rng("diff-sha-backend", 23);
  // Lengths straddling the 64-byte block boundary and multi-block bulk runs
  // (the SHA-NI path compresses whole runs of blocks in one call).
  for (const std::size_t size : {0, 1, 55, 56, 63, 64, 65, 127, 128, 129, 1000}) {
    const Bytes data = rng.bytes(size);
    Bytes scalar_digest, accel_digest;
    {
      BackendGuard guard(crypto::Backend::kScalar);
      scalar_digest = crypto::Sha256::digest(data);
    }
    {
      BackendGuard guard(crypto::Backend::kAesni);
      accel_digest = crypto::Sha256::digest(data);
      // Also stream byte-at-a-time: every block goes through the staging
      // buffer instead of the bulk run.
      crypto::Sha256 streaming;
      for (const std::uint8_t b : data) streaming.update(ByteView(&b, 1));
      EXPECT_EQ(streaming.finish(), accel_digest) << "size=" << size;
    }
    EXPECT_EQ(scalar_digest, accel_digest) << "size=" << size;
  }
}

TEST(CryptoDiff, BackendReportingIsConsistent) {
  // backend_name round-trips, and the active name matches the active enum.
  EXPECT_STREQ(crypto::backend_name(crypto::Backend::kScalar), "scalar");
  EXPECT_STREQ(crypto::backend_name(crypto::Backend::kAesni), "aesni");
  EXPECT_STREQ(crypto::active_backend_name(), crypto::backend_name(crypto::active_backend()));
  // Forcing scalar always succeeds on every machine.
  BackendGuard guard(crypto::Backend::kScalar);
  EXPECT_EQ(crypto::active_backend(), crypto::Backend::kScalar);
  // An Aes built under forced scalar must report unaccelerated.
  const crypto::Aes aes(Bytes(16, 0x01));
  EXPECT_FALSE(aes.accelerated());
}

// --------------------------------------------------------------- mod_exp

bn::BigInt random_bigint(crypto::Drbg& rng, std::size_t bytes) {
  return bn::BigInt::from_bytes(rng.bytes(bytes));
}

TEST(CryptoDiff, ModExpMatchesReferenceOddModulus) {
  crypto::Drbg rng("diff-modexp-odd", 8);
  for (int trial = 0; trial < 8; ++trial) {
    Bytes mod_bytes = rng.bytes(64);
    mod_bytes[0] |= 0x80;
    mod_bytes[63] |= 1;  // odd: the Montgomery sliding-window path
    const bn::BigInt modulus = bn::BigInt::from_bytes(mod_bytes);
    const bn::BigInt base = random_bigint(rng, 64) % modulus;
    const bn::BigInt exponent = random_bigint(rng, 64);
    EXPECT_EQ(base.mod_exp(exponent, modulus), base.mod_exp_reference(exponent, modulus))
        << "trial " << trial;
  }
}

TEST(CryptoDiff, ModExpMatchesReferenceEvenModulus) {
  crypto::Drbg rng("diff-modexp-even", 9);
  for (int trial = 0; trial < 4; ++trial) {
    Bytes mod_bytes = rng.bytes(48);
    mod_bytes[0] |= 0x80;
    mod_bytes[47] &= 0xfe;  // even: the non-Montgomery fallback
    const bn::BigInt modulus = bn::BigInt::from_bytes(mod_bytes);
    const bn::BigInt base = random_bigint(rng, 48) % modulus;
    const bn::BigInt exponent = random_bigint(rng, 24);
    EXPECT_EQ(base.mod_exp(exponent, modulus), base.mod_exp_reference(exponent, modulus))
        << "trial " << trial;
  }
}

TEST(CryptoDiff, ModExpEdgeExponents) {
  crypto::Drbg rng("diff-modexp-edge", 10);
  Bytes mod_bytes = rng.bytes(64);
  mod_bytes[0] |= 0x80;
  mod_bytes[63] |= 1;
  const bn::BigInt modulus = bn::BigInt::from_bytes(mod_bytes);
  const bn::BigInt base = random_bigint(rng, 64) % modulus;
  // Exponents chosen for the sliding window's boundaries: 0, 1, a window of
  // all ones (31 = 0b11111), one bit beyond a window (32), a lone high bit,
  // and runs of zeros between set bits.
  std::vector<bn::BigInt> exponents = {bn::BigInt(0),  bn::BigInt(1),  bn::BigInt(2),
                                       bn::BigInt(31), bn::BigInt(32), bn::BigInt(33),
                                       bn::BigInt(0x80000000ull)};
  Bytes lone_high(64, 0);
  lone_high[0] = 0x80;
  exponents.push_back(bn::BigInt::from_bytes(lone_high));
  Bytes sparse(64, 0);
  sparse[0] = 0x81;
  sparse[63] = 0x01;
  exponents.push_back(bn::BigInt::from_bytes(sparse));
  for (std::size_t i = 0; i < exponents.size(); ++i) {
    EXPECT_EQ(base.mod_exp(exponents[i], modulus),
              base.mod_exp_reference(exponents[i], modulus))
        << "exponent #" << i;
  }
}

}  // namespace
}  // namespace mbtls
