#include "sgx/attestation.h"

#include "crypto/sha2.h"

namespace mbtls::sgx {

namespace {

const ec::EcdsaKeyPair& service_key() {
  static const ec::EcdsaKeyPair key = [] {
    crypto::Drbg rng("intel-attestation-service", 0);
    return ec::ecdsa_generate(rng);
  }();
  return key;
}

Bytes quote_message(ByteView measurement, ByteView report_data) {
  Bytes msg = to_bytes(std::string_view("sgx-quote:"));
  append(msg, measurement);
  append(msg, report_data);
  return msg;
}

}  // namespace

const ec::AffinePoint& attestation_service_public_key() { return service_key().public_key; }

Bytes attestation_service_sign(ByteView measurement, ByteView report_data) {
  // ecdsa_sign derives its nonce from the key and the message (RFC 6979), so
  // a fixed hedge stream keeps quotes reproducible across runs without ever
  // reusing a nonce for two different quotes.
  crypto::Drbg hedge("intel-attestation-service/sign", 0);
  return ec::ecdsa_sign(service_key(), crypto::HashAlgo::kSha256,
                        quote_message(measurement, report_data), hedge);
}

bool verify_quote(ByteView measurement, ByteView report_data, ByteView signature) {
  return ec::ecdsa_verify(attestation_service_public_key(), crypto::HashAlgo::kSha256,
                          quote_message(measurement, report_data), signature);
}

}  // namespace mbtls::sgx
