// §5.1 "Legacy Interoperability" — the Alexa-top-500 experiment.
//
// The paper used a modified curl speaking mbTLS through a SOCKS HTTP proxy
// to fetch the root document of the 500 most popular sites, reporting:
//   385/500 support HTTPS; of those, 308 succeeded, 19 failed with
//   invalid/expired certificates, 40 lacked AES256-GCM (the only cipher the
//   prototype implemented), 13 failed on unhandled redirects, 5 unknown.
//
// Substitution: 500 simulated origin servers with exactly that property
// mix, each running the *plain* TLS engine (no mbTLS code paths). The
// mbTLS client fetches "/" through a header-insertion middlebox proxy. The
// prototype's cipher limitation is reproduced by restricting the client to
// AES-256-GCM suites.
#include <cstdio>

#include "bench/bench_common.h"
#include "mbox/header_proxy.h"
#include "http/http.h"
#include "mbtls/endpoint.h"
#include "mbtls/middlebox.h"

namespace mbtls::bench {
namespace {

enum class SiteKind {
  kNoHttps,       // 115: port 443 closed
  kOk,            // 308: stock TLS 1.2 with AES-256-GCM
  kBadCert,       // 19: expired or untrusted certificate
  kNoAes256Gcm,   // 40: only AES-128-GCM suites enabled
  kRedirect,      // 13: HTTPS fine but responds with a redirect (unhandled)
  kBroken,        // 5: aborts mid-handshake
};

enum class FetchResult { kSuccess, kConnectFailed, kCertFailed, kCipherFailed, kRedirect, kOther };

const char* to_string(FetchResult r) {
  switch (r) {
    case FetchResult::kSuccess: return "successful fetches";
    case FetchResult::kConnectFailed: return "no HTTPS (connect failed)";
    case FetchResult::kCertFailed: return "invalid / expired certificates";
    case FetchResult::kCipherFailed: return "no AES256-GCM support";
    case FetchResult::kRedirect: return "unhandled redirects";
    case FetchResult::kOther: return "other failures";
  }
  return "?";
}

const Identity& mbox_identity() {
  static const Identity id = make_identity("socks-proxy.example", x509::KeyType::kEcdsaP256);
  return id;
}

struct Origin {
  SiteKind kind;
  std::string host;
  Identity identity;
};

Origin make_origin(SiteKind kind, int index) {
  Origin origin;
  origin.kind = kind;
  origin.host = "site" + std::to_string(index) + ".example";
  if (kind == SiteKind::kNoHttps) return origin;

  origin.identity.key = std::make_shared<x509::PrivateKey>(
      x509::PrivateKey::generate(x509::KeyType::kEcdsaP256, rng()));
  x509::CertRequest req;
  req.subject_cn = origin.host;
  req.san_dns = {origin.host};
  req.not_after = 2524607999;
  req.key = origin.identity.key->public_key();
  if (kind == SiteKind::kBadCert && index % 2 == 0) {
    req.not_after = 1000;  // long expired
  }
  origin.identity.chain = {ca().issue(req, rng())};
  if (kind == SiteKind::kBadCert && index % 2 == 1) {
    // Self-signed by an unknown CA.
    crypto::Drbg rogue("rogue-site", static_cast<std::uint64_t>(index));
    const auto rogue_ca =
        x509::CertificateAuthority::create("Unknown CA", x509::KeyType::kEcdsaP256, rogue);
    origin.identity.chain = {rogue_ca.issue(req, rogue)};
  }
  return origin;
}

FetchResult fetch_via_proxy(const Origin& origin, std::uint64_t seed) {
  if (origin.kind == SiteKind::kNoHttps) return FetchResult::kConnectFailed;

  // Legacy origin: a plain TLS 1.2 engine, mbTLS-unaware; tolerant of
  // unknown record types (the common behaviour the paper observed — the
  // client-side proxy never sends any to the server anyway).
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = origin.identity.key;
  scfg.certificate_chain = origin.identity.chain;
  scfg.rng_seed = seed;
  if (origin.kind == SiteKind::kNoAes256Gcm) {
    scfg.cipher_suites = {tls::CipherSuite::kEcdheEcdsaAes128GcmSha256};
  }
  tls::Engine server(scfg);

  // The prototype client: mbTLS with only AES-256-GCM suites.
  mb::ClientSession::Options copts;
  copts.tls.cipher_suites = {tls::CipherSuite::kEcdheEcdsaAes256GcmSha384,
                             tls::CipherSuite::kEcdheRsaAes256GcmSha384,
                             tls::CipherSuite::kDheRsaAes256GcmSha384};
  copts.tls.trust_anchors = {ca().root()};
  copts.tls.server_name = origin.host;
  copts.tls.rng_seed = seed + 1;
  mb::ClientSession client(std::move(copts));

  mbox::HeaderInsertionProxy proxy("Via", "mbtls-socks-proxy");
  mb::Middlebox::Options mopts;
  mopts.name = "socks-proxy.example";
  mopts.side = mb::Middlebox::Side::kClientSide;
  mopts.private_key = mbox_identity().key;
  mopts.certificate_chain = mbox_identity().chain;
  mopts.processor = proxy.processor();
  mb::Middlebox mbox(std::move(mopts));

  client.start();
  int broken_countdown = 2;  // for kBroken: abort after a couple of flights
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
    if (origin.kind == SiteKind::kBroken && --broken_countdown == 0) {
      return FetchResult::kOther;  // connection reset mid-handshake
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

  if (client.failed()) {
    const auto& msg = client.error_message();
    if (msg.find("certificate") != std::string::npos || msg.find("unknown_ca") != std::string::npos)
      return FetchResult::kCertFailed;
    if (msg.find("cipher") != std::string::npos || msg.find("handshake_failure") != std::string::npos)
      return FetchResult::kCipherFailed;
    return FetchResult::kOther;
  }
  if (!client.established() || !server.handshake_done()) return FetchResult::kOther;

  // Fetch "/".
  http::Request req;
  req.target = "/";
  req.headers.set("Host", origin.host);
  client.send(req.serialize());
  for (int i = 0; i < 20; ++i) {
    Bytes a = client.take_output();
    if (!a.empty()) mbox.feed_from_client(a);
    Bytes b = mbox.take_to_server();
    if (!b.empty()) server.feed(b);
    const Bytes got = server.take_plaintext();
    if (!got.empty()) {
      // Serve the root document (or a redirect).
      http::Response resp;
      if (origin.kind == SiteKind::kRedirect) {
        resp.status = 301;
        resp.reason = "Moved Permanently";
        resp.headers.set("Location", "https://www." + origin.host + "/");
      } else {
        resp.body = to_bytes(std::string_view("<html>root document</html>"));
      }
      server.send(resp.serialize());
    }
    Bytes c = server.take_output();
    if (!c.empty()) mbox.feed_from_server(c);
    Bytes d = mbox.take_to_client();
    if (!d.empty()) client.feed(d);
    const Bytes body = client.take_app_data();
    if (!body.empty()) {
      const auto response = http::parse_response(body);
      if (!response) return FetchResult::kOther;
      if (response->status >= 300 && response->status < 400) return FetchResult::kRedirect;
      return FetchResult::kSuccess;
    }
  }
  return FetchResult::kOther;
}

}  // namespace
}  // namespace mbtls::bench

int main() {
  using namespace mbtls::bench;
  std::printf("=== §5.1 Legacy interoperability: mbTLS client vs 500 legacy origins ===\n");
  std::printf("mbTLS client + header-insertion proxy fetches '/' from each origin.\n\n");

  // The paper's observed population.
  struct Group {
    SiteKind kind;
    int count;
  };
  const Group groups[] = {
      {SiteKind::kNoHttps, 115}, {SiteKind::kOk, 308},      {SiteKind::kBadCert, 19},
      {SiteKind::kNoAes256Gcm, 40}, {SiteKind::kRedirect, 13}, {SiteKind::kBroken, 5},
  };

  std::map<FetchResult, int> tally;
  std::uint64_t seed = 10'000;
  int site_index = 0;
  for (const auto& group : groups) {
    for (int i = 0; i < group.count; ++i, ++site_index) {
      const Origin origin = make_origin(group.kind, site_index);
      ++tally[fetch_via_proxy(origin, seed += 3)];
    }
  }

  std::printf("%-38s %8s %8s\n", "outcome", "measured", "paper");
  const std::pair<FetchResult, int> expected[] = {
      {FetchResult::kSuccess, 308},      {FetchResult::kConnectFailed, 115},
      {FetchResult::kCertFailed, 19},    {FetchResult::kCipherFailed, 40},
      {FetchResult::kRedirect, 13},      {FetchResult::kOther, 5},
  };
  for (const auto& [result, paper_count] : expected) {
    std::printf("%-38s %8d %8d\n", to_string(result), tally[result], paper_count);
  }
  std::printf("\nHTTPS-capable sites: %d/500 (paper: 385); successful: %d (paper: 308).\n",
              500 - tally[FetchResult::kConnectFailed], tally[FetchResult::kSuccess]);
  return 0;
}
