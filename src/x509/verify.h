// Certificate chain verification against a set of trust anchors.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "x509/certificate.h"

namespace mbtls::x509 {

enum class VerifyStatus {
  kOk,
  kEmptyChain,
  kExpired,
  kNotYetValid,
  kBadSignature,
  kUnknownIssuer,
  kIssuerNotCa,
  kHostnameMismatch,
};

const char* to_string(VerifyStatus s);

struct VerifyOptions {
  std::int64_t now = 0;     // Unix seconds (simulated clock)
  std::string hostname;     // empty = skip hostname check
};

/// Verify `chain` (leaf first) against `trust_anchors`. Every certificate's
/// validity window is checked; each signature is checked against the next
/// certificate in the chain or, for the last element, against a matching
/// trust anchor (matched by issuer CN, then by signature).
VerifyStatus verify_chain(std::span<const Certificate> chain,
                          std::span<const Certificate> trust_anchors,
                          const VerifyOptions& options);

/// Does `cert` carry a valid signature under `issuer_key`? The hook lets a
/// caller answer from a memo of earlier verdicts (tls::CertPool); the default
/// is Certificate::verify_signature.
using SignatureCheck =
    std::function<bool(const Certificate& cert, const PublicKey& issuer_key)>;

/// Pointer-chain overload for callers holding certificates by reference —
/// the dedup cert pool hands out shared parsed certificates, which cannot
/// form a contiguous Certificate array without copying. Only the signature
/// checks go through `check_signature` (empty = verify every signature);
/// validity dates, hostname, CA flag and issuer names are checked on every
/// call.
VerifyStatus verify_chain(std::span<const Certificate* const> chain,
                          std::span<const Certificate> trust_anchors,
                          const VerifyOptions& options,
                          const SignatureCheck& check_signature = {});

}  // namespace mbtls::x509
