// ECDSA over P-256 (FIPS 186-4). Signatures are encoded as raw r || s
// (64 bytes); the x509 layer wraps them in DER when placing them in
// certificates.
#pragma once

#include "crypto/drbg.h"
#include "crypto/sha2.h"
#include "ec/p256.h"
#include "util/bytes.h"

namespace mbtls::ec {

struct EcdsaKeyPair {
  U256 private_key;   // d in [1, n-1]
  AffinePoint public_key;  // Q = d*G

  Bytes public_bytes() const { return P256::instance().encode_point(public_key); }
};

/// Generate a fresh key pair from `rng`.
EcdsaKeyPair ecdsa_generate(crypto::Drbg& rng);

/// Sign `message` (hashed with `algo` internally). Returns r || s (64 bytes).
/// The nonce is RFC 6979 deterministic in (private key, H(message)) and
/// hedged with 32 bytes drawn from `rng` (§3.6 additional data): a repeated
/// `rng` state never repeats a nonce across different messages.
Bytes ecdsa_sign(const EcdsaKeyPair& key, crypto::HashAlgo algo, ByteView message,
                 crypto::Drbg& rng);

/// Verify an r || s signature over `message`: one wNAF ladder for
/// u1*G + u2*Q and an inversion-free comparison of its x with r.
bool ecdsa_verify(const AffinePoint& public_key, crypto::HashAlgo algo, ByteView message,
                  ByteView signature);

/// The same verification over `P256::mul_add_reference` and an affine
/// comparison: the differential-test oracle and the bench baseline.
bool ecdsa_verify_reference(const AffinePoint& public_key, crypto::HashAlgo algo,
                            ByteView message, ByteView signature);

}  // namespace mbtls::ec
