// P-256 group law, ECDH, and ECDSA tests. Correctness is established through
// algebraic invariants (curve membership, commutativity, n*G = infinity) plus
// the standard generator coordinates.
#include <gtest/gtest.h>

#include "ec/ecdh.h"
#include "ec/ecdsa.h"
#include "ec/p256.h"
#include "util/hex.h"

namespace mbtls::ec {
namespace {

const P256& curve() { return P256::instance(); }

U256 scalar(std::uint64_t v) {
  U256 k{};
  k.w[0] = v;
  return k;
}

TEST(P256, GeneratorOnCurve) {
  EXPECT_TRUE(curve().on_curve(curve().generator()));
}

TEST(P256, GeneratorCoordinatesMatchStandard) {
  const Bytes enc = curve().encode_point(curve().generator());
  EXPECT_EQ(hex_encode(enc),
            "04"
            "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
            "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
}

TEST(P256, SmallMultiplesOnCurve) {
  for (std::uint64_t k = 1; k <= 20; ++k) {
    const AffinePoint p = curve().mul_base(scalar(k));
    EXPECT_TRUE(curve().on_curve(p)) << "k=" << k;
  }
}

TEST(P256, AdditionConsistency) {
  // (k+1)G == kG + G, exercised via 2G + 3G == 5G through scalar arithmetic.
  const AffinePoint p2 = curve().mul_base(scalar(2));
  const AffinePoint p3 = curve().mul_base(scalar(3));
  const AffinePoint p5 = curve().mul_base(scalar(5));
  // mul_add computes u1*G + u2*Q; with Q = 2G and u2 = 1, u1 = 3: 3G + 2G.
  const AffinePoint sum = curve().mul_add(scalar(3), scalar(1), p2);
  EXPECT_EQ(sum.x, p5.x);
  EXPECT_EQ(sum.y, p5.y);
  EXPECT_TRUE(curve().on_curve(p3));
}

TEST(P256, OrderTimesGeneratorIsInfinity) {
  const AffinePoint p = curve().mul_base(curve().order());
  EXPECT_TRUE(p.infinity);
}

TEST(P256, ScalarMulCommutes) {
  crypto::Drbg rng("ec-commute", 0);
  const U256 a = curve().random_scalar(rng);
  const U256 b = curve().random_scalar(rng);
  const AffinePoint ag = curve().mul_base(a);
  const AffinePoint bg = curve().mul_base(b);
  const AffinePoint abg = curve().mul(b, ag);
  const AffinePoint bag = curve().mul(a, bg);
  EXPECT_EQ(abg.x, bag.x);
  EXPECT_EQ(abg.y, bag.y);
}

TEST(P256, PointCodecRoundTrip) {
  crypto::Drbg rng("ec-codec", 0);
  const AffinePoint p = curve().mul_base(curve().random_scalar(rng));
  const Bytes enc = curve().encode_point(p);
  const auto dec = curve().decode_point(enc);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->x, p.x);
  EXPECT_EQ(dec->y, p.y);
}

TEST(P256, DecodeRejectsInvalid) {
  Bytes enc = curve().encode_point(curve().generator());
  enc[40] ^= 1;  // corrupt a coordinate byte -> off curve
  EXPECT_FALSE(curve().decode_point(enc).has_value());
  EXPECT_FALSE(curve().decode_point(Bytes(64, 0)).has_value());   // wrong length
  Bytes compressed = enc;
  compressed[0] = 0x02;
  EXPECT_FALSE(curve().decode_point(compressed).has_value());     // unsupported form
}

TEST(Ecdh, SharedSecretAgrees) {
  crypto::Drbg rng_a("ecdh-a", 0);
  crypto::Drbg rng_b("ecdh-b", 0);
  const EcdhKeyPair a = ecdh_generate(rng_a);
  const EcdhKeyPair b = ecdh_generate(rng_b);
  const Bytes s1 = ecdh_shared_secret(a, b.public_point);
  const Bytes s2 = ecdh_shared_secret(b, a.public_point);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 32u);
}

TEST(Ecdh, DistinctPeersDistinctSecrets) {
  crypto::Drbg rng("ecdh-multi", 0);
  const EcdhKeyPair a = ecdh_generate(rng);
  const EcdhKeyPair b = ecdh_generate(rng);
  const EcdhKeyPair c = ecdh_generate(rng);
  EXPECT_NE(ecdh_shared_secret(a, b.public_point), ecdh_shared_secret(a, c.public_point));
}

TEST(Ecdh, RejectsInvalidPeerPoint) {
  crypto::Drbg rng("ecdh-bad", 0);
  const EcdhKeyPair a = ecdh_generate(rng);
  Bytes bogus(65, 0);
  bogus[0] = 0x04;
  EXPECT_THROW(ecdh_shared_secret(a, bogus), std::invalid_argument);
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  crypto::Drbg rng("ecdsa-rt", 0);
  const EcdsaKeyPair key = ecdsa_generate(rng);
  const auto msg = to_bytes(std::string_view("attested handshake transcript"));
  const Bytes sig = ecdsa_sign(key, crypto::HashAlgo::kSha256, msg, rng);
  EXPECT_EQ(sig.size(), 64u);
  EXPECT_TRUE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, msg, sig));
}

TEST(Ecdsa, VerifyRejectsWrongMessage) {
  crypto::Drbg rng("ecdsa-msg", 0);
  const EcdsaKeyPair key = ecdsa_generate(rng);
  const Bytes sig =
      ecdsa_sign(key, crypto::HashAlgo::kSha256, to_bytes(std::string_view("m1")), rng);
  EXPECT_FALSE(
      ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, to_bytes(std::string_view("m2")), sig));
}

TEST(Ecdsa, VerifyRejectsTamperedSignature) {
  crypto::Drbg rng("ecdsa-tamper", 0);
  const EcdsaKeyPair key = ecdsa_generate(rng);
  const auto msg = to_bytes(std::string_view("msg"));
  Bytes sig = ecdsa_sign(key, crypto::HashAlgo::kSha256, msg, rng);
  for (std::size_t i = 0; i < sig.size(); i += 7) {
    Bytes bad = sig;
    bad[i] ^= 1;
    EXPECT_FALSE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, msg, bad));
  }
}

TEST(Ecdsa, VerifyRejectsWrongKey) {
  crypto::Drbg rng("ecdsa-key", 0);
  const EcdsaKeyPair key1 = ecdsa_generate(rng);
  const EcdsaKeyPair key2 = ecdsa_generate(rng);
  const auto msg = to_bytes(std::string_view("msg"));
  const Bytes sig = ecdsa_sign(key1, crypto::HashAlgo::kSha256, msg, rng);
  EXPECT_FALSE(ecdsa_verify(key2.public_key, crypto::HashAlgo::kSha256, msg, sig));
}

TEST(Ecdsa, Sha384MessagesWork) {
  crypto::Drbg rng("ecdsa-384", 0);
  const EcdsaKeyPair key = ecdsa_generate(rng);
  const auto msg = to_bytes(std::string_view("sha-384 signed"));
  const Bytes sig = ecdsa_sign(key, crypto::HashAlgo::kSha384, msg, rng);
  EXPECT_TRUE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha384, msg, sig));
  // Cross-algorithm verification must fail.
  EXPECT_FALSE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, msg, sig));
}

TEST(Ecdsa, RejectsMalformedSignatures) {
  crypto::Drbg rng("ecdsa-malformed", 0);
  const EcdsaKeyPair key = ecdsa_generate(rng);
  const auto msg = to_bytes(std::string_view("msg"));
  EXPECT_FALSE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, msg, Bytes(63, 1)));
  EXPECT_FALSE(ecdsa_verify(key.public_key, crypto::HashAlgo::kSha256, msg, Bytes(64, 0)));  // r=s=0
}

// Nonce derivation (RFC 6979 with §3.6 hedging): k depends on the key, the
// message hash and 32 bytes from the caller's DRBG.

TEST(EcdsaNonce, SameDrbgStateDifferentMessagesGiveDifferentR) {
  // Two signers whose DRBGs are in the same state — e.g. two sessions seeded
  // from the same label — must still never share a nonce.
  const EcdsaKeyPair key = [] {
    crypto::Drbg rng("ecdsa-nonce-key", 0);
    return ecdsa_generate(rng);
  }();
  crypto::Drbg rng_a("ecdsa-nonce-state", 0);
  crypto::Drbg rng_b("ecdsa-nonce-state", 0);
  const Bytes sig_a =
      ecdsa_sign(key, crypto::HashAlgo::kSha256, to_bytes(std::string_view("m1")), rng_a);
  const Bytes sig_b =
      ecdsa_sign(key, crypto::HashAlgo::kSha256, to_bytes(std::string_view("m2")), rng_b);
  EXPECT_NE(Bytes(sig_a.begin(), sig_a.begin() + 32), Bytes(sig_b.begin(), sig_b.begin() + 32));
}

TEST(EcdsaNonce, FixedKeyMessageAndDrbgStateGiveFixedSignature) {
  crypto::Drbg key_rng("ecdsa-fixed", 0);
  const EcdsaKeyPair key = ecdsa_generate(key_rng);
  const auto msg = to_bytes(std::string_view("fixed message"));
  for (const auto algo : {crypto::HashAlgo::kSha256, crypto::HashAlgo::kSha384}) {
    crypto::Drbg rng_a("ecdsa-fixed-state", 7);
    crypto::Drbg rng_b("ecdsa-fixed-state", 7);
    crypto::Drbg rng_c("ecdsa-fixed-state", 8);
    const Bytes sig_a = ecdsa_sign(key, algo, msg, rng_a);
    EXPECT_EQ(sig_a, ecdsa_sign(key, algo, msg, rng_b));
    // The DRBG bytes are a real input: another state hedges to another k.
    EXPECT_NE(sig_a, ecdsa_sign(key, algo, msg, rng_c));
  }
}

TEST(EcdsaNonce, SignVerifyRoundTripsForSha256AndSha384) {
  crypto::Drbg rng("ecdsa-nonce-rt", 0);
  for (const auto algo : {crypto::HashAlgo::kSha256, crypto::HashAlgo::kSha384}) {
    for (int trial = 0; trial < 8; ++trial) {
      const EcdsaKeyPair key = ecdsa_generate(rng);
      const Bytes msg = rng.bytes(1 + rng.uniform(200));
      const Bytes sig = ecdsa_sign(key, algo, msg, rng);
      ASSERT_EQ(sig.size(), 64u);
      EXPECT_TRUE(ecdsa_verify(key.public_key, algo, msg, sig)) << "trial " << trial;
      Bytes other = msg;
      other[0] ^= 1;
      EXPECT_FALSE(ecdsa_verify(key.public_key, algo, other, sig)) << "trial " << trial;
    }
  }
}

TEST(U256, BytesRoundTrip) {
  crypto::Drbg rng("u256", 0);
  const Bytes b = rng.bytes(32);
  EXPECT_EQ(U256::from_bytes(b).to_bytes(), b);
  EXPECT_THROW(U256::from_bytes(Bytes(31, 0)), std::invalid_argument);
}

}  // namespace
}  // namespace mbtls::ec
