// Legacy interoperability (P5): an mbTLS endpoint includes middleboxes in a
// session with a completely unmodified TLS 1.2 peer.
//
// Case A: mbTLS client + client-side middlebox, legacy server.
// Case B: legacy client, mbTLS server + server-side middlebox.
// In both cases the legacy engine runs zero mbTLS code paths.
#include <cstdio>

#include "mbtls/endpoint.h"
#include "mbtls/middlebox.h"

using namespace mbtls;

namespace {
crypto::Drbg g_rng("legacy-example", 0);

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

template <typename Client, typename Server>
void pump(Client& client, mb::Middlebox& mbox, Server& server) {
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

}  // namespace

int main() {
  std::printf("mbTLS legacy interoperability (property P5)\n");
  std::printf("===========================================\n\n");
  const auto ca = x509::CertificateAuthority::create("Root", x509::KeyType::kEcdsaP256, g_rng);
  const Identity server_id = issue(ca, "legacy.example");
  const Identity mbox_id = issue(ca, "proxy.example");

  {
    std::printf("Case A: mbTLS client + middlebox, STOCK TLS 1.2 server\n");
    mb::ClientSession::Options copts;
    copts.tls.trust_anchors = {ca.root()};
    copts.tls.server_name = "legacy.example";
    mb::ClientSession client(std::move(copts));

    tls::Config scfg;  // a plain TLS engine: knows nothing about mbTLS
    scfg.is_client = false;
    scfg.private_key = server_id.key;
    scfg.certificate_chain = server_id.chain;
    tls::Engine legacy_server(scfg);

    mb::Middlebox::Options mopts;
    mopts.name = "proxy.example";
    mopts.side = mb::Middlebox::Side::kClientSide;
    mopts.private_key = mbox_id.key;
    mopts.certificate_chain = mbox_id.chain;
    mb::Middlebox mbox(std::move(mopts));

    client.start();
    pump(client, mbox, legacy_server);
    std::printf("  client established=%d  middlebox joined=%d  legacy server sees: plain TLS\n",
                client.established(), mbox.joined());
    client.send(to_bytes(std::string_view("request through the middlebox")));
    pump(client, mbox, legacy_server);
    std::printf("  legacy server received: \"%s\"\n\n",
                to_string(legacy_server.take_plaintext()).c_str());
  }

  {
    std::printf("Case B: STOCK TLS 1.2 client, mbTLS server + server-side middlebox\n");
    tls::Config ccfg;  // plain TLS client, e.g. an old browser
    ccfg.is_client = true;
    ccfg.trust_anchors = {ca.root()};
    ccfg.server_name = "legacy.example";
    tls::Engine legacy_client(ccfg);

    mb::ServerSession::Options sopts;
    sopts.tls.private_key = server_id.key;
    sopts.tls.certificate_chain = server_id.chain;
    sopts.tls.trust_anchors = {ca.root()};
    mb::ServerSession server(std::move(sopts));

    mb::Middlebox::Options mopts;
    mopts.name = "proxy.example";
    mopts.side = mb::Middlebox::Side::kServerSide;
    mopts.private_key = mbox_id.key;
    mopts.certificate_chain = mbox_id.chain;
    mb::Middlebox mbox(std::move(mopts));

    legacy_client.start();
    pump(legacy_client, mbox, server);
    std::printf("  legacy client established=%d  middlebox joined=%d (announced itself to the\n"
                "  server; the client never saw anything but TLS 1.2)\n",
                legacy_client.handshake_done(), mbox.joined());
    legacy_client.send(to_bytes(std::string_view("old client says hi")));
    pump(legacy_client, mbox, server);
    std::printf("  mbTLS server received: \"%s\"\n", to_string(server.take_app_data()).c_str());
  }
  return 0;
}
