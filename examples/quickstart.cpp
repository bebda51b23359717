// Quickstart: the smallest complete mbTLS session.
//
// One client, one on-path middlebox (discovered in-band during the
// handshake), one server — all in-process, bytes moved by hand so every
// step is visible. Run: ./quickstart
#include <cstdio>

#include "mbtls/endpoint.h"
#include "mbtls/middlebox.h"

using namespace mbtls;

namespace {

// A tiny CA for the demo: issues the server's and middlebox's certificates.
crypto::Drbg g_rng("quickstart", 0);

x509::CertificateAuthority make_ca() {
  return x509::CertificateAuthority::create("Demo Root CA", x509::KeyType::kEcdsaP256, g_rng);
}

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

}  // namespace

int main() {
  std::printf("mbTLS quickstart\n================\n\n");

  const auto ca = make_ca();
  const Identity server_id = issue(ca, "server.example");
  const Identity mbox_id = issue(ca, "proxy.example");

  // 1. The three parties. The client does not know the middlebox exists —
  //    it will discover it during the handshake (P6).
  mb::ClientSession::Options copts;
  copts.tls.trust_anchors = {ca.root()};
  copts.tls.server_name = "server.example";
  mb::ClientSession client(std::move(copts));

  mb::ServerSession::Options sopts;
  sopts.tls.private_key = server_id.key;
  sopts.tls.certificate_chain = server_id.chain;
  mb::ServerSession server(std::move(sopts));

  mb::Middlebox::Options mopts;
  mopts.name = "proxy.example";
  mopts.side = mb::Middlebox::Side::kClientSide;
  mopts.private_key = mbox_id.key;
  mopts.certificate_chain = mbox_id.chain;
  mopts.processor = [](bool c2s, ByteView data) {
    std::printf("  [middlebox] processed %zu bytes (%s)\n", data.size(),
                c2s ? "client->server" : "server->client");
    return to_bytes(data);
  };
  mb::Middlebox mbox(std::move(mopts));

  // 2. Run the handshake: shuttle bytes client <-> middlebox <-> server.
  client.start();
  for (int i = 0; i < 50; ++i) {
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

  if (!client.established() || !server.established()) {
    std::printf("handshake failed: %s / %s\n", client.error_message().c_str(),
                server.error_message().c_str());
    return 1;
  }
  std::printf("handshake complete\n");
  std::printf("  negotiated suite : %s\n", tls::suite_name(client.primary().suite().id));
  for (const auto& desc : client.middleboxes()) {
    std::printf("  discovered mbox  : %s (subchannel %u)\n", desc.certificate_cn.c_str(),
                desc.subchannel);
  }
  std::printf("  server-side view : %zu middleboxes (client-side boxes are invisible to it)\n\n",
              server.middleboxes().size());

  // 3. Application data flows hop by hop, re-protected by the middlebox.
  client.send(to_bytes(std::string_view("hello through the middlebox")));
  for (int i = 0; i < 10; ++i) {
    Bytes a = client.take_output();
    if (!a.empty()) mbox.feed_from_client(a);
    Bytes b = mbox.take_to_server();
    if (!b.empty()) server.feed(b);
  }
  std::printf("server received  : \"%s\"\n", to_string(server.take_app_data()).c_str());

  server.send(to_bytes(std::string_view("hello back")));
  for (int i = 0; i < 10; ++i) {
    Bytes c = server.take_output();
    if (!c.empty()) mbox.feed_from_server(c);
    Bytes d = mbox.take_to_client();
    if (!d.empty()) client.feed(d);
  }
  std::printf("client received  : \"%s\"\n", to_string(client.take_app_data()).c_str());
  std::printf("\nrecords re-protected by middlebox: %lu\n",
              static_cast<unsigned long>(mbox.records_reprotected()));
  return 0;
}
