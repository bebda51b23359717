// X.509 v3 certificates: a real DER encoding of the fields the TLS stack
// needs (serial, issuer/subject CN, validity, SPKI, basicConstraints and
// subjectAltName extensions), plus a CA abstraction for issuing them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/sha2.h"
#include "x509/keys.h"

namespace mbtls::x509 {

/// Parsed certificate contents.
struct CertificateInfo {
  bn::BigInt serial;
  std::string issuer_cn;
  std::string subject_cn;
  std::vector<std::string> san_dns;
  std::int64_t not_before = 0;
  std::int64_t not_after = 0;
  bool is_ca = false;
  PublicKey key;
};

class Certificate {
 public:
  Certificate() = default;

  /// Parse a DER certificate; throws DecodeError on malformed input.
  static Certificate parse(ByteView der);

  const CertificateInfo& info() const { return info_; }
  ByteView der() const { return der_; }

  /// Verify this certificate's signature with the issuer's public key.
  bool verify_signature(const PublicKey& issuer_key) const;

  /// Hostname check against subject CN and dNSName SANs, with single-label
  /// left-most wildcard support ("*.example.com").
  bool matches_hostname(std::string_view host) const;

 private:
  Bytes der_;
  Bytes tbs_der_;  // the signed portion
  Bytes signature_;
  std::string sig_oid_;
  CertificateInfo info_;
};

/// Fields for issuing a certificate.
struct CertRequest {
  std::string subject_cn;
  std::vector<std::string> san_dns;
  std::int64_t not_before = 0;
  std::int64_t not_after = 0;
  bool is_ca = false;
  PublicKey key;
};

/// Build and sign a certificate. `issuer_cn` names the signer; for
/// self-signed roots it equals the subject CN.
Certificate issue_certificate(const CertRequest& req, std::string_view issuer_cn,
                              const PrivateKey& issuer_key, crypto::HashAlgo algo,
                              const bn::BigInt& serial, crypto::Drbg& rng);

/// A certificate authority: a self-signed root plus an issuing key.
class CertificateAuthority {
 public:
  /// Create a root CA. Validity defaults to a wide window around epoch time
  /// used by the simulations.
  static CertificateAuthority create(std::string name, KeyType type, crypto::Drbg& rng,
                                     std::int64_t not_before = 0,
                                     std::int64_t not_after = 2524607999 /* 2049-12-31, the UTCTime limit */);

  const Certificate& root() const { return root_; }
  const PrivateKey& key() const { return key_; }
  const std::string& name() const { return name_; }

  /// Issue an end-entity (or intermediate, if req.is_ca) certificate.
  Certificate issue(const CertRequest& req, crypto::Drbg& rng) const;

 private:
  std::string name_;
  PrivateKey key_;
  Certificate root_;
  mutable std::uint64_t next_serial_ = 2;
};

}  // namespace mbtls::x509
