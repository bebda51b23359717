// A Flywheel-style compression service built from two cooperating mbTLS
// middleboxes: a compressor at the server's edge and a decompressor at the
// client's edge. The WAN hop between them carries compressed records; both
// endpoints see only the original bytes.
//
// This is the "compression proxy" workload the paper's introduction uses to
// motivate multi-party sessions: it requires arbitrary computation on the
// payload, which per-pattern schemes (BlindBox) cannot express.
#include <cstdio>

#include "http/http.h"
#include "mbox/compression_proxy.h"
#include "mbtls/endpoint.h"
#include "mbtls/middlebox.h"

using namespace mbtls;

namespace {
crypto::Drbg g_rng("cdn-example", 0);

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
  std::printf("Compression CDN: two mbTLS middleboxes bracketing the WAN\n");
  std::printf("==========================================================\n\n");

  const auto ca = x509::CertificateAuthority::create("Root", x509::KeyType::kEcdsaP256, g_rng);
  const Identity server_id = issue(ca, "origin.example");
  const Identity decomp_id = issue(ca, "edge-client.example");
  const Identity comp_id = issue(ca, "edge-server.example");

  mb::ClientSession::Options copts;
  copts.tls.trust_anchors = {ca.root()};
  copts.tls.server_name = "origin.example";
  mb::ClientSession client(std::move(copts));

  mb::ServerSession::Options sopts;
  sopts.tls.private_key = server_id.key;
  sopts.tls.certificate_chain = server_id.chain;
  sopts.tls.trust_anchors = {ca.root()};
  mb::ServerSession server(std::move(sopts));

  mbox::DecompressorProxy decompressor;
  mb::Middlebox::Options d_opts;
  d_opts.name = "edge-client.example";
  d_opts.side = mb::Middlebox::Side::kClientSide;
  d_opts.private_key = decomp_id.key;
  d_opts.certificate_chain = decomp_id.chain;
  d_opts.processor = decompressor.processor();
  mb::Middlebox client_edge(std::move(d_opts));

  mbox::CompressorProxy compressor;
  mb::Middlebox::Options c_opts;
  c_opts.name = "edge-server.example";
  c_opts.side = mb::Middlebox::Side::kServerSide;
  c_opts.private_key = comp_id.key;
  c_opts.certificate_chain = comp_id.chain;
  c_opts.processor = compressor.processor();
  mb::Middlebox server_edge(std::move(c_opts));

  // Path: client - client_edge - [WAN] - server_edge - server.
  std::uint64_t wan_bytes = 0;
  auto pump = [&] {
    for (int i = 0; i < 80; ++i) {
      bool moved = false;
      Bytes a = client.take_output();
      if (!a.empty()) {
        moved = true;
        client_edge.feed_from_client(a);
      }
      Bytes b = client_edge.take_to_server();
      if (!b.empty()) {
        moved = true;
        wan_bytes += b.size();
        server_edge.feed_from_client(b);
      }
      Bytes c = server_edge.take_to_server();
      if (!c.empty()) {
        moved = true;
        server.feed(c);
      }
      Bytes d = server.take_output();
      if (!d.empty()) {
        moved = true;
        server_edge.feed_from_server(d);
      }
      Bytes e = server_edge.take_to_client();
      if (!e.empty()) {
        moved = true;
        wan_bytes += e.size();
        client_edge.feed_from_server(e);
      }
      Bytes f = client_edge.take_to_client();
      if (!f.empty()) {
        moved = true;
        client.feed(f);
      }
      if (!moved) break;
    }
  };

  client.start();
  pump();
  if (!client.established() || !server.established()) {
    std::printf("session failed: %s / %s\n", client.error_message().c_str(),
                server.error_message().c_str());
    return 1;
  }
  std::printf("session up: both edges joined (client side: %zu, server side: %zu)\n\n",
              client.middleboxes().size(), server.middleboxes().size());

  // The client requests a large, highly compressible page.
  http::Request req;
  req.target = "/catalog.html";
  client.send(req.serialize());
  pump();
  (void)server.take_app_data();
  http::Response resp;
  for (int i = 0; i < 1500; ++i)
    append(resp.body,
           to_bytes(std::string_view("<li class=\"product\">another catalog item</li>\n")));
  const std::size_t original = resp.serialize().size();
  const std::uint64_t wan_before = wan_bytes;
  server.send(resp.serialize());
  pump();
  const Bytes delivered = client.take_app_data();
  const auto parsed = http::parse_response(delivered);

  std::printf("page size at endpoints : %zu bytes (delivered intact: %s)\n", original,
              parsed && parsed->body == resp.body ? "yes" : "NO");
  std::printf("bytes across the WAN   : %llu (incl. record + compression framing)\n",
              static_cast<unsigned long long>(wan_bytes - wan_before));
  std::printf("compressor saw %llu bytes, emitted %llu (%.1f%% of original)\n",
              static_cast<unsigned long long>(compressor.bytes_in()),
              static_cast<unsigned long long>(compressor.bytes_out()),
              100.0 * static_cast<double>(compressor.bytes_out()) /
                  static_cast<double>(compressor.bytes_in()));
  return 0;
}
