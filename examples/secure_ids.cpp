// An intrusion-detection middlebox running inside SGX on outsourced
// hardware — the workload the paper's related work discusses (PRI, S-NFV)
// and mbTLS makes deployable: the IDS sees session plaintext to scan it,
// the cloud operator hosting the IDS sees nothing.
//
// The server (an enterprise's mail/API gateway, say) mandates the IDS as a
// server-side middlebox and verifies its code identity by attestation.
#include <cstdio>

#include "mbox/ids.h"
#include "mbtls/endpoint.h"
#include "mbtls/middlebox.h"

using namespace mbtls;

namespace {
crypto::Drbg g_rng("ids-example", 0);

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
  for (int i = 0; i < 80; ++i) {
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

}  // namespace

int main() {
  std::printf("SGX-protected intrusion detection as an mbTLS middlebox\n");
  std::printf("========================================================\n\n");

  const auto ca = x509::CertificateAuthority::create("Root", x509::KeyType::kEcdsaP256, g_rng);
  const Identity server_id = issue(ca, "gateway.corp.example");
  const Identity ids_id = issue(ca, "ids.cloud.example");

  // The IDS runs on a third-party cloud. Enterprise policy: the gateway
  // only accepts the IDS build it audited.
  sgx::Platform cloud;
  sgx::Enclave& enclave = cloud.launch("corp-ids-ruleset-2017-12");

  mbox::IntrusionDetector ids({"SELECT * FROM", "../../etc/passwd", "<script>alert"});

  mb::ClientSession::Options copts;
  copts.tls.trust_anchors = {ca.root()};
  copts.tls.server_name = "gateway.corp.example";
  mb::ClientSession client(std::move(copts));

  mb::ServerSession::Options sopts;
  sopts.tls.private_key = server_id.key;
  sopts.tls.certificate_chain = server_id.chain;
  sopts.tls.trust_anchors = {ca.root()};
  sopts.require_middlebox_attestation = true;
  sopts.expected_middlebox_measurement = sgx::measure("corp-ids-ruleset-2017-12");
  mb::ServerSession server(std::move(sopts));

  mb::Middlebox::Options mopts;
  mopts.name = "ids.cloud.example";
  mopts.side = mb::Middlebox::Side::kServerSide;
  mopts.private_key = ids_id.key;
  mopts.certificate_chain = ids_id.chain;
  mopts.enclave = &enclave;
  mopts.untrusted_store = &cloud.untrusted_memory();
  mopts.processor = ids.processor();
  mb::Middlebox mbox(std::move(mopts));

  client.start();
  pump(client, mbox, server);
  if (!server.established()) {
    std::printf("session failed: %s\n", server.error_message().c_str());
    return 1;
  }
  const auto descriptors = server.middleboxes();
  std::printf("gateway verified IDS: cn=%s attested=%d\n",
              descriptors.at(0).certificate_cn.c_str(), descriptors.at(0).attested);

  // Traffic: one benign request, one attack.
  client.send(to_bytes(std::string_view("GET /profile?id=42")));
  pump(client, mbox, server);
  client.send(to_bytes(std::string_view("GET /download?file=../../etc/passwd")));
  pump(client, mbox, server);
  (void)server.take_app_data();

  std::printf("\nIDS alerts (%zu):\n", ids.alerts().size());
  for (const auto& alert : ids.alerts()) {
    std::printf("  signature \"%s\" at stream offset %llu (%s)\n", alert.signature.c_str(),
                static_cast<unsigned long long>(alert.stream_offset),
                alert.client_to_server ? "client->server" : "server->client");
  }

  // The cloud operator, meanwhile, sees neither rules nor traffic:
  const Bytes key = client.primary().connection_keys().keys.client_write.key;
  std::printf("\ncloud operator searches its RAM for the session key: %s\n",
              cloud.adversary_find_secret(key).empty() ? "not found (enclave-protected)"
                                                       : "FOUND (breach!)");
  return 0;
}
