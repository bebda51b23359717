#include "ec/ecdsa.h"

#include <optional>

#include "crypto/hmac.h"

namespace mbtls::ec {

namespace {
// Hash-to-scalar: leftmost 256 bits of the digest, reduced once mod n.
U256 hash_to_scalar(crypto::HashAlgo algo, ByteView message) {
  Bytes digest = crypto::hash(algo, message);
  digest.resize(32);  // truncate to the group size (SHA-384/512 -> 32 bytes)
  const U256 z = U256::from_bytes(digest);
  return P256::instance().scalar_field().reduce_once(z);
}

/// RFC 6979 §3.2 nonce generation for P-256 (qlen = 256), with HMAC over the
/// signature's own hash and the §3.6 additional data `extra` appended to the
/// seed. Fresh `extra` makes the nonce hedged: a repeated DRBG state still
/// yields a distinct k for every (key, message) pair.
class NonceGenerator {
 public:
  NonceGenerator(crypto::HashAlgo algo, const U256& d, const U256& z, ByteView extra)
      : algo_(algo),
        k_(crypto::digest_size(algo), 0x00),
        v_(crypto::digest_size(algo), 0x01) {
    // int2octets(d) || bits2octets(H(m)) || extra
    Bytes seed = d.to_bytes();
    append(seed, z.to_bytes());
    append(seed, extra);
    for (const std::uint8_t round : {0x00, 0x01}) {  // steps d-g
      Bytes msg = v_;
      msg.push_back(round);
      append(msg, seed);
      k_ = crypto::hmac(algo_, k_, msg);
      v_ = crypto::hmac(algo_, k_, v_);
      secure_wipe(msg);
    }
    secure_wipe(seed);
  }
  ~NonceGenerator() {
    secure_wipe(k_);
    secure_wipe(v_);
  }
  NonceGenerator(const NonceGenerator&) = delete;
  NonceGenerator& operator=(const NonceGenerator&) = delete;

  /// Step h: the next candidate in [1, n-1]. Each call after the first
  /// advances the state before drawing, so a k the caller rejected (r or s
  /// zero) is never produced twice.
  U256 next() {
    const auto& fn = P256::instance().scalar_field();
    for (;;) {
      if (drawn_) {
        Bytes msg = v_;
        msg.push_back(0x00);
        k_ = crypto::hmac(algo_, k_, msg);
        v_ = crypto::hmac(algo_, k_, v_);
      }
      drawn_ = true;
      Bytes t;
      while (t.size() < 32) {
        v_ = crypto::hmac(algo_, k_, v_);
        append(t, v_);
      }
      t.resize(32);  // bits2int: the leftmost qlen bits
      const U256 k = U256::from_bytes(t);
      secure_wipe(t);
      if (!k.is_zero() && fn.reduce_once(k) == k) return k;
    }
  }

 private:
  crypto::HashAlgo algo_;
  Bytes k_;  // HMAC key K of the RFC's HMAC_DRBG
  Bytes v_;  // chaining value V
  bool drawn_ = false;
};
}  // namespace

EcdsaKeyPair ecdsa_generate(crypto::Drbg& rng) {
  const auto& curve = P256::instance();
  EcdsaKeyPair kp;
  kp.private_key = curve.random_scalar(rng);
  kp.public_key = curve.mul_base(kp.private_key);
  return kp;
}

Bytes ecdsa_sign(const EcdsaKeyPair& key, crypto::HashAlgo algo, ByteView message,
                 crypto::Drbg& rng) {
  const auto& curve = P256::instance();
  const auto& fn = curve.scalar_field();
  const U256 z = hash_to_scalar(algo, message);
  NonceGenerator nonces(algo, key.private_key, z, rng.bytes(32));
  for (;;) {
    const U256 k = nonces.next();
    const AffinePoint r_point = curve.mul_base(k);
    const U256 r = fn.reduce_once(r_point.x);
    if (r.is_zero()) continue;
    // s = k^-1 (z + r d) mod n, computed in the Montgomery domain of n.
    const U256 km = fn.to_mont(k);
    const U256 rm = fn.to_mont(r);
    const U256 dm = fn.to_mont(key.private_key);
    const U256 zm = fn.to_mont(z);
    const U256 kinv = fn.inv(km);
    const U256 sm = fn.mul(kinv, fn.add(zm, fn.mul(rm, dm)));
    const U256 s = fn.from_mont(sm);
    if (s.is_zero()) continue;
    return concat({r.to_bytes(), s.to_bytes()});
  }
}

namespace {
/// The public inputs of the verification equation R = u1*G + u2*Q, or
/// nullopt when the key or the signature is malformed.
struct VerifyScalars {
  U256 r, u1, u2;
};

std::optional<VerifyScalars> verify_scalars(const AffinePoint& public_key,
                                            crypto::HashAlgo algo, ByteView message,
                                            ByteView signature) {
  if (signature.size() != 64) return std::nullopt;
  const auto& curve = P256::instance();
  const auto& fn = curve.scalar_field();
  if (!curve.on_curve(public_key)) return std::nullopt;

  const U256 r = U256::from_bytes(signature.first(32));
  const U256 s = U256::from_bytes(signature.subspan(32));
  if (r.is_zero() || s.is_zero()) return std::nullopt;
  // r, s must be < n.
  if (fn.reduce_once(r) != r || fn.reduce_once(s) != s) return std::nullopt;

  const U256 z = hash_to_scalar(algo, message);
  const U256 w = fn.inv(fn.to_mont(s));  // s^-1 in Montgomery form
  return VerifyScalars{r, fn.from_mont(fn.mul(fn.to_mont(z), w)),
                       fn.from_mont(fn.mul(fn.to_mont(r), w))};
}
}  // namespace

bool ecdsa_verify(const AffinePoint& public_key, crypto::HashAlgo algo, ByteView message,
                  ByteView signature) {
  const auto in = verify_scalars(public_key, algo, message, signature);
  return in && P256::instance().mul_add_x_equals(in->u1, in->u2, public_key, in->r);
}

bool ecdsa_verify_reference(const AffinePoint& public_key, crypto::HashAlgo algo,
                            ByteView message, ByteView signature) {
  const auto in = verify_scalars(public_key, algo, message, signature);
  if (!in) return false;
  const auto& curve = P256::instance();
  const AffinePoint rp = curve.mul_add_reference(in->u1, in->u2, public_key);
  return !rp.infinity && curve.scalar_field().reduce_once(rp.x) == in->r;
}

}  // namespace mbtls::ec
