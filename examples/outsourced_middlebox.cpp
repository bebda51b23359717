// Outsourced middlebox on untrusted infrastructure — the paper's headline
// scenario (§3, requirement 2).
//
// The middlebox service provider (MSP) ships its proxy to a third-party
// cloud (the MIP). Run once WITHOUT SGX: the cloud operator reads the
// session keys straight out of RAM. Run again WITH SGX: the client demands
// an attestation for the exact proxy build, and the operator's memory view
// shows only ciphertext.
#include <cstdio>

#include "mbox/header_proxy.h"
#include "mbtls/endpoint.h"
#include "mbtls/middlebox.h"
#include "util/hex.h"

using namespace mbtls;

namespace {
crypto::Drbg g_rng("outsourced-example", 0);

struct Identity {
  std::shared_ptr<x509::PrivateKey> key;
  std::vector<x509::Certificate> chain;
};

Identity issue(const x509::CertificateAuthority& ca, const std::string& cn) {
  Identity id;
  id.key = std::make_shared<x509::PrivateKey>(
      x509::PrivateKey::generate(x509::KeyType::kEcdsaP256, g_rng));
  x509::CertRequest req;
  req.subject_cn = cn;
  req.san_dns = {cn};
  req.not_after = 2524607999;
  req.key = id.key->public_key();
  id.chain = {ca.issue(req, g_rng)};
  return id;
}

void pump(mb::ClientSession& client, mb::Middlebox& mbox, mb::ServerSession& server) {
  for (int i = 0; i < 60; ++i) {
    bool moved = false;
    Bytes a = client.take_output();
    if (!a.empty()) {
      moved = true;
      mbox.feed_from_client(a);
    }
    Bytes b = mbox.take_to_server();
    if (!b.empty()) {
      moved = true;
      server.feed(b);
    }
    Bytes c = server.take_output();
    if (!c.empty()) {
      moved = true;
      mbox.feed_from_server(c);
    }
    Bytes d = mbox.take_to_client();
    if (!d.empty()) {
      moved = true;
      client.feed(d);
    }
    if (!moved) break;
  }
}

void run(bool with_sgx, const x509::CertificateAuthority& ca, const Identity& server_id,
         const Identity& mbox_id) {
  std::printf("--- middlebox outsourced to a cloud provider, %s ---\n",
              with_sgx ? "WITH SGX enclave" : "WITHOUT SGX");

  sgx::Platform cloud_machine;  // owned by the infrastructure provider
  sgx::Enclave* enclave = with_sgx ? &cloud_machine.launch("msp-proxy-build-2017.12") : nullptr;

  mb::ClientSession::Options copts;
  copts.tls.trust_anchors = {ca.root()};
  copts.tls.server_name = "origin.example";
  copts.require_middlebox_attestation = with_sgx;
  if (with_sgx) copts.expected_middlebox_measurement = sgx::measure("msp-proxy-build-2017.12");
  mb::ClientSession client(std::move(copts));

  mb::ServerSession::Options sopts;
  sopts.tls.private_key = server_id.key;
  sopts.tls.certificate_chain = server_id.chain;
  mb::ServerSession server(std::move(sopts));

  mb::Middlebox::Options mopts;
  mopts.name = "proxy.cloud.example";
  mopts.side = mb::Middlebox::Side::kClientSide;
  mopts.private_key = mbox_id.key;
  mopts.certificate_chain = mbox_id.chain;
  mopts.enclave = enclave;
  mopts.untrusted_store = &cloud_machine.untrusted_memory();
  mb::Middlebox mbox(std::move(mopts));

  client.start();
  pump(client, mbox, server);
  if (!client.established()) {
    std::printf("  session failed: %s\n\n", client.error_message().c_str());
    return;
  }
  if (with_sgx) {
    const auto descriptors = client.middleboxes();
    const auto& desc = descriptors.at(0);
    std::printf("  client verified enclave measurement %s...\n",
                hex_encode(ByteView(desc.measurement).first(8)).c_str());
  }

  client.send(to_bytes(std::string_view("account=alice&amount=100")));
  pump(client, mbox, server);
  std::printf("  server received: \"%s\"\n", to_string(server.take_app_data()).c_str());

  // THE CLOUD OPERATOR'S VIEW: scan every byte of the machine's memory for
  // the session's bridge key.
  const Bytes bridge_key = client.primary().connection_keys().keys.client_write.key;
  const auto hits = cloud_machine.adversary_find_secret(bridge_key);
  if (hits.empty()) {
    std::printf("  cloud operator scans RAM for the session key: NOT FOUND");
    std::size_t encrypted_regions = 0;
    for (const auto& region : cloud_machine.adversary_memory_view())
      encrypted_regions += region.encrypted;
    std::printf(" (%zu enclave pages visible only as ciphertext)\n\n", encrypted_regions);
  } else {
    std::printf("  cloud operator scans RAM for the session key: FOUND in\n");
    for (const auto& hit : hits) std::printf("    - %s\n", hit.c_str());
    std::printf("  => the MIP can decrypt and forge session traffic at will\n\n");
  }
}

}  // namespace

int main() {
  std::printf("Outsourced middlebox vs the untrusted infrastructure provider\n");
  std::printf("==============================================================\n\n");
  const auto ca =
      x509::CertificateAuthority::create("Demo Root", x509::KeyType::kEcdsaP256, g_rng);
  const Identity server_id = issue(ca, "origin.example");
  const Identity mbox_id = issue(ca, "proxy.cloud.example");
  run(/*with_sgx=*/false, ca, server_id, mbox_id);
  run(/*with_sgx=*/true, ca, server_id, mbox_id);
  return 0;
}
