// P-256 group law, ECDH, and ECDSA tests. Correctness is established through
// algebraic invariants (curve membership, commutativity, n*G = infinity) plus
// the standard generator coordinates.
#include <gtest/gtest.h>

#include <cstdlib>

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

// ------------------------------------------------- wNAF verify ladder

namespace {

U256 order_minus_one() {
  U256 k = curve().order();
  k.w[0] -= 1;  // the order is odd: no borrow
  return k;
}

/// k as the sum of its digits, recomputed over five limbs: positive and
/// negative digits accumulated apart, then subtracted.
U256 wnaf_value(const Wnaf5& digits, bool& overflow) {
  std::uint64_t pos[5] = {}, neg[5] = {};
  for (std::size_t i = 0; i < digits.size(); ++i) {
    const int d = digits[i];
    if (d == 0) continue;
    std::uint64_t* acc = d > 0 ? pos : neg;
    unsigned __int128 carry = static_cast<unsigned __int128>(static_cast<unsigned>(std::abs(d)))
                              << (i % 64);
    for (std::size_t limb = i / 64; limb < 5 && carry != 0; ++limb) {
      const unsigned __int128 sum = static_cast<unsigned __int128>(acc[limb]) +
                                    static_cast<std::uint64_t>(carry);
      acc[limb] = static_cast<std::uint64_t>(sum);
      carry = (carry >> 64) + (sum >> 64);
    }
  }
  U256 out;
  std::uint64_t borrow = 0;
  std::uint64_t top = 0;
  for (int limb = 0; limb < 5; ++limb) {
    const unsigned __int128 diff = static_cast<unsigned __int128>(pos[limb]) - neg[limb] - borrow;
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
    if (limb < 4) out.w[static_cast<std::size_t>(limb)] = static_cast<std::uint64_t>(diff);
    else top = static_cast<std::uint64_t>(diff);
  }
  overflow = top != 0 || borrow != 0;
  return out;
}

void expect_valid_wnaf(const U256& k, const std::string& what) {
  const Wnaf5 digits = wnaf5(k);
  for (std::size_t i = 0; i < digits.size(); ++i) {
    const int d = digits[i];
    if (d == 0) continue;
    EXPECT_EQ(std::abs(d) % 2, 1) << what << " digit " << i;
    EXPECT_LT(std::abs(d), 16) << what << " digit " << i;
    for (std::size_t j = i + 1; j <= i + 4 && j < digits.size(); ++j)
      EXPECT_EQ(digits[j], 0) << what << " digit " << j << " follows a non-zero digit";
  }
  bool overflow = false;
  EXPECT_EQ(wnaf_value(digits, overflow), k) << what;
  EXPECT_FALSE(overflow) << what;
}

/// A curve point whose x lies in [n, p): the only points for which
/// x mod n != x, found by walking x up from n until x^3 - 3x + b is a
/// square, with the square root a^((p+1)/4) (p = 3 mod 4).
AffinePoint point_with_x_above_order() {
  const Mont& fp = curve().field();
  const AffinePoint& g = curve().generator();
  const U256 gx = fp.to_mont(g.x), gy = fp.to_mont(g.y);
  const auto rhs_of = [&](const U256& xm, const U256& b) {
    return fp.add(fp.sub(fp.mul(fp.sqr(xm), xm), fp.add(fp.add(xm, xm), xm)), b);
  };
  // b = gy^2 - (gx^3 - 3gx)
  const U256 b = fp.sub(fp.sqr(gy), rhs_of(gx, U256{}));
  // (p + 1) / 4: p's low limb is all ones, so p + 1 carries into limb 1.
  U256 e = fp.modulus();
  e.w[0] = 0;
  e.w[1] += 1;
  for (int i = 0; i < 4; ++i) {
    e.w[static_cast<std::size_t>(i)] >>= 2;
    if (i < 3) e.w[static_cast<std::size_t>(i)] |= e.w[static_cast<std::size_t>(i + 1)] << 62;
  }
  U256 x = curve().order();
  for (int tries = 0; tries < 256; ++tries, ++x.w[0]) {
    const U256 rhs = rhs_of(fp.to_mont(x), b);
    const U256 y = fp.exp(rhs, e);
    if (fp.sqr(y) == rhs) return AffinePoint{x, fp.from_mont(y)};
  }
  ADD_FAILURE() << "no square found";
  return {};
}

U256 sub_u256(const U256& a, const U256& b) {
  U256 r;
  unsigned __int128 borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const unsigned __int128 d = static_cast<unsigned __int128>(a.w[i]) - b.w[i] - borrow;
    r.w[i] = static_cast<std::uint64_t>(d);
    borrow = (d >> 64) & 1;
  }
  return r;
}

}  // namespace

TEST(P256Wnaf, RecodingOfEdgeAndRandomScalars) {
  U256 top_bit{};
  top_bit.w[3] = std::uint64_t{1} << 63;
  U256 all_ones;
  all_ones.w.fill(~std::uint64_t{0});
  expect_valid_wnaf(scalar(0), "0");
  expect_valid_wnaf(scalar(1), "1");
  expect_valid_wnaf(order_minus_one(), "n-1");
  expect_valid_wnaf(top_bit, "2^255");
  expect_valid_wnaf(all_ones, "2^256-1");
  EXPECT_EQ(wnaf5(all_ones)[256], 1);  // the carry past bit 255
  crypto::Drbg rng("wnaf-random", 0);
  for (int i = 0; i < 64; ++i)
    expect_valid_wnaf(U256::from_bytes(rng.bytes(32)), "random #" + std::to_string(i));
}

TEST(P256Wnaf, InversionChainInvertsAndMatchesFermat) {
  const Mont& fp = curve().field();
  crypto::Drbg rng("inv-p", 0);
  for (int i = 0; i < 64; ++i) {
    const U256 a = fp.to_mont(fp.reduce_once(U256::from_bytes(rng.bytes(32))));
    if (a.is_zero()) continue;
    const U256 inv = curve().inv_p(a);
    EXPECT_EQ(fp.mul(inv, a), fp.one_mont()) << "a #" << i;
    EXPECT_EQ(inv, fp.inv(a)) << "a #" << i;
  }
  EXPECT_TRUE(curve().inv_p(U256{}).is_zero());
}

TEST(P256Wnaf, XCheckTakesTheRPlusNBranch) {
  // R = P with x(P) in [n, p): x mod n = x - n, so the check must accept
  // r = x - n, which only X == (r+n)*Z^2 can match.
  const AffinePoint p = point_with_x_above_order();
  ASSERT_TRUE(curve().on_curve(p));
  const U256 r = sub_u256(p.x, curve().order());
  EXPECT_TRUE(curve().mul_add_x_equals(scalar(0), scalar(1), p, r));
  // The same point reached through a full ladder (Z != 1): k * (k^-1 * P).
  const Mont& fn = curve().scalar_field();
  crypto::Drbg rng("r-plus-n", 0);
  const U256 k = curve().random_scalar(rng);
  const U256 k_inv = fn.from_mont(fn.inv(fn.to_mont(k)));
  const AffinePoint q = curve().mul_reference(k_inv, p);
  EXPECT_TRUE(curve().mul_add_x_equals(scalar(0), k, q, r));
  U256 wrong = r;
  wrong.w[0] ^= 1;
  EXPECT_FALSE(curve().mul_add_x_equals(scalar(0), k, q, wrong));
  EXPECT_FALSE(curve().mul_add_x_equals(scalar(1), k, q, r));  // G + P: another x
}

TEST(P256Wnaf, EcdsaVerifyAcceptsSignatureWhoseRWrapsPastN) {
  // Build a public key Q so that u1*G + u2*Q lands on P (x(P) >= n) for a
  // chosen (r, s, message): Q = u2^-1 * (P - u1*G).
  const AffinePoint p = point_with_x_above_order();
  const Mont& fn = curve().scalar_field();
  const U256 r = sub_u256(p.x, curve().order());
  const U256 s = scalar(0x5eed);
  const Bytes msg = to_bytes(std::string_view("r wraps past n"));
  const U256 z = fn.reduce_once(U256::from_bytes(crypto::hash(crypto::HashAlgo::kSha256, msg)));
  const U256 w = fn.inv(fn.to_mont(s));
  const U256 u1 = fn.mul(fn.to_mont(z), w);  // Montgomery domain
  const U256 u2 = fn.mul(fn.to_mont(r), w);
  const U256 u2_inv = fn.inv(u2);
  const U256 g_coeff = fn.from_mont(fn.sub(U256{}, fn.mul(u1, u2_inv)));
  const AffinePoint q = curve().mul_add_reference(g_coeff, fn.from_mont(u2_inv), p);
  ASSERT_TRUE(curve().on_curve(q));
  const Bytes sig = concat({r.to_bytes(), s.to_bytes()});
  EXPECT_TRUE(ecdsa_verify(q, crypto::HashAlgo::kSha256, msg, sig));
  EXPECT_TRUE(ecdsa_verify_reference(q, crypto::HashAlgo::kSha256, msg, sig));
  Bytes other = msg;
  other[0] ^= 1;
  EXPECT_FALSE(ecdsa_verify(q, crypto::HashAlgo::kSha256, other, sig));
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
