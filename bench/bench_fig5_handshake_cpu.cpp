// Figure 5 — Handshake CPU Microbenchmarks.
//
// Reproduces: per-party computation time for a single handshake (network
// wait excluded — every byte moves through in-memory pipes and only the time
// spent inside a party's own calls is counted), for:
//   TLS (no mbox), mbTLS (no mbox), "split" TLS (1 mbox),
//   mbTLS (1 client mbox), mbTLS (1/2/3 server mboxes).
//
// Paper result (shape): client/server TLS and mbTLS costs are close without
// middleboxes; the middlebox is cheaper under mbTLS than under split TLS
// (one handshake instead of two); the server's cost is flat in the number of
// client-side middleboxes and grows by roughly the cost of one *client*
// handshake (~20% of its own) per server-side middlebox.
//
// Also reports the cost of framing one secondary-handshake record as an
// Encapsulated record (§3.4), the per-message overhead mbTLS adds to every
// middlebox's handshake flight.
#include <chrono>

#include "baselines/split_tls.h"
#include "bench/bench_common.h"
#include "mbtls/endpoint.h"
#include "mbtls/metrics.h"
#include "mbtls/middlebox.h"

namespace mbtls::bench {
namespace {

using mb::ClientSession;
using mb::Middlebox;
using mb::ServerSession;

struct Sample {
  double client_ms = 0;
  double mbox_ms = 0;  // first middlebox when several
  double server_ms = 0;
};

const Identity& server_identity() {
  static const Identity id = make_identity("origin.example", x509::KeyType::kRsa);
  return id;
}

const Identity& mbox_identity() {
  static const Identity id = make_identity("proxy.example", x509::KeyType::kRsa);
  return id;
}

std::vector<tls::CipherSuite> suite_for(const std::string& kx) {
  if (kx == "DHE-RSA") return {tls::CipherSuite::kDheRsaAes256GcmSha384};
  return {tls::CipherSuite::kEcdheRsaAes256GcmSha384};
}

// ------------------------------------------------- plain TLS / no middlebox

Sample run_tls_no_mbox(const std::string& kx, std::uint64_t seed) {
  tls::Config ccfg;
  ccfg.is_client = true;
  ccfg.cipher_suites = suite_for(kx);
  ccfg.trust_anchors = {ca().root()};
  ccfg.server_name = "origin.example";
  ccfg.rng_seed = seed;
  tls::Config scfg;
  scfg.is_client = false;
  scfg.cipher_suites = suite_for(kx);
  scfg.private_key = server_identity().key;
  scfg.certificate_chain = server_identity().chain;
  scfg.rng_seed = seed + 1;
  tls::Engine client(ccfg);
  tls::Engine server(scfg);
  PartyTimer tc, ts;
  tc.time([&] { client.start(); });
  for (int i = 0; i < 20; ++i) {
    const Bytes a = tc.time([&] { return client.take_output(); });
    const Bytes b = ts.time([&] { return server.take_output(); });
    if (a.empty() && b.empty()) break;
    if (!a.empty()) ts.time([&] { server.feed(a); });
    if (!b.empty()) tc.time([&] { client.feed(b); });
  }
  if (!client.handshake_done() || !server.handshake_done()) std::abort();
  return {tc.ms(), 0, ts.ms()};
}

// ----------------------------------------------------- mbTLS with N mboxes

Sample run_mbtls(const std::string& kx, int client_mboxes, int server_mboxes,
                 std::uint64_t seed, trace::Sink* sink = nullptr) {
  ClientSession::Options copts;
  copts.tls.cipher_suites = suite_for(kx);
  copts.tls.trust_anchors = {ca().root()};
  copts.tls.server_name = "origin.example";
  copts.tls.rng_seed = seed;
  copts.trace_sink = sink;
  ClientSession client(std::move(copts));

  ServerSession::Options sopts;
  sopts.tls.cipher_suites = suite_for(kx);
  sopts.tls.private_key = server_identity().key;
  sopts.tls.certificate_chain = server_identity().chain;
  sopts.tls.trust_anchors = {ca().root()};
  sopts.tls.rng_seed = seed + 1;
  sopts.trace_sink = sink;
  ServerSession server(std::move(sopts));

  std::vector<std::unique_ptr<Middlebox>> mboxes;
  for (int i = 0; i < client_mboxes + server_mboxes; ++i) {
    Middlebox::Options mopts;
    mopts.name = "proxy.example";
    mopts.side = i < client_mboxes ? Middlebox::Side::kClientSide : Middlebox::Side::kServerSide;
    mopts.cipher_suites = suite_for(kx);
    mopts.private_key = mbox_identity().key;
    mopts.certificate_chain = mbox_identity().chain;
    mopts.trace_sink = sink;
    mopts.trace_actor = "mbox" + std::to_string(i + 1);
    mboxes.push_back(std::make_unique<Middlebox>(std::move(mopts)));
  }

  PartyTimer tc, tm, ts;
  tc.time([&] { client.start(); });
  for (int iter = 0; iter < 100; ++iter) {
    bool moved = false;
    auto move = [&](Bytes data, auto&& sink) {
      if (!data.empty()) {
        moved = true;
        sink(data);
      }
    };
    move(tc.time([&] { return client.take_output(); }), [&](const Bytes& d) {
      if (mboxes.empty()) {
        ts.time([&] { server.feed(d); });
      } else {
        tm.time([&] { mboxes[0]->feed_from_client(d); });
      }
    });
    for (std::size_t i = 0; i < mboxes.size(); ++i) {
      auto timed = [&](auto&& f) {
        // Only the first middlebox is reported (all are symmetric).
        if (i == 0) return tm.time(f);
        return f();
      };
      move(timed([&] { return mboxes[i]->take_to_server(); }), [&](const Bytes& d) {
        if (i + 1 < mboxes.size()) {
          mboxes[i + 1]->feed_from_client(d);
        } else {
          ts.time([&] { server.feed(d); });
        }
      });
      move(timed([&] { return mboxes[i]->take_to_client(); }), [&](const Bytes& d) {
        if (i == 0) {
          tc.time([&] { client.feed(d); });
        } else {
          mboxes[i - 1]->feed_from_server(d);
        }
      });
    }
    move(ts.time([&] { return server.take_output(); }), [&](const Bytes& d) {
      if (mboxes.empty()) {
        tc.time([&] { client.feed(d); });
      } else {
        mboxes.back()->feed_from_server(d);
      }
    });
    if (!moved) break;
  }
  if (!client.established() || !server.established()) std::abort();
  return {tc.ms(), tm.ms(), ts.ms()};
}

// -------------------------------------------------------------- split TLS

Sample run_split(const std::string& kx, std::uint64_t seed);

Sample run_split(const std::string& kx, std::uint64_t seed) {
  tls::Config ccfg;
  ccfg.is_client = true;
  ccfg.cipher_suites = suite_for(kx);
  ccfg.trust_anchors = {ca().root()};
  ccfg.server_name = "origin.example";
  ccfg.rng_seed = seed;
  tls::Engine client(ccfg);

  baselines::SplitTlsMiddlebox::Options mopts;
  mopts.ca = &ca();
  mopts.upstream_trust_anchors = {ca().root()};
  mopts.rng_seed = seed + 7;
  baselines::SplitTlsMiddlebox mbox(std::move(mopts));

  tls::Config scfg;
  scfg.is_client = false;
  scfg.cipher_suites = suite_for(kx);
  scfg.private_key = server_identity().key;
  scfg.certificate_chain = server_identity().chain;
  scfg.rng_seed = seed + 1;
  tls::Engine server(scfg);

  PartyTimer tc, tm, ts;
  tc.time([&] { client.start(); });
  for (int i = 0; i < 50; ++i) {
    bool moved = false;
    auto move = [&](Bytes data, auto&& sink) {
      if (!data.empty()) {
        moved = true;
        sink(data);
      }
    };
    move(tc.time([&] { return client.take_output(); }),
         [&](const Bytes& d) { tm.time([&] { mbox.feed_from_client(d); }); });
    move(tm.time([&] { return mbox.take_to_server(); }),
         [&](const Bytes& d) { ts.time([&] { server.feed(d); }); });
    move(ts.time([&] { return server.take_output(); }),
         [&](const Bytes& d) { tm.time([&] { mbox.feed_from_server(d); }); });
    move(tm.time([&] { return mbox.take_to_client(); }),
         [&](const Bytes& d) { tc.time([&] { client.feed(d); }); });
    if (!moved) break;
  }
  if (!client.handshake_done() || !server.handshake_done()) std::abort();
  return {tc.ms(), tm.ms(), ts.ms()};
}

Json report(const std::string& kx, const std::string& config,
            const std::vector<Sample>& samples) {
  std::vector<double> c, m, s;
  for (const auto& sample : samples) {
    c.push_back(sample.client_ms);
    m.push_back(sample.mbox_ms);
    s.push_back(sample.server_ms);
  }
  const Stats sc = stats_of(c), sm = stats_of(m), ss = stats_of(s);
  std::printf("%-28s  client %7.3f ±%5.3f ms   mbox %7.3f ±%5.3f ms   server %7.3f ±%5.3f ms\n",
              config.c_str(), sc.mean, sc.ci95, sm.mean, sm.ci95, ss.mean, ss.ci95);
  return Json::object()
      .add("kx", kx)
      .add("config", config)
      .add("client_ms", sc.mean)
      .add("client_ci95", sc.ci95)
      .add("mbox_ms", sm.mean)
      .add("mbox_ci95", sm.ci95)
      .add("server_ms", ss.mean)
      .add("server_ci95", ss.ci95);
}

void run_kx(const std::string& kx, int trials, Json& rows) {
  std::printf("--- key exchange: %s (RSA-2048 certificates) ---\n", kx.c_str());
  struct Case {
    std::string name;
    std::function<Sample(std::uint64_t)> run;
  };
  const std::vector<Case> cases = {
      {"TLS (no mbox)", [&](std::uint64_t s) { return run_tls_no_mbox(kx, s); }},
      {"mbTLS (no mbox)", [&](std::uint64_t s) { return run_mbtls(kx, 0, 0, s); }},
      {"\"Split\" TLS (1 mbox)", [&](std::uint64_t s) { return run_split(kx, s); }},
      {"mbTLS (1 client mbox)", [&](std::uint64_t s) { return run_mbtls(kx, 1, 0, s); }},
      {"mbTLS (1 server mbox)", [&](std::uint64_t s) { return run_mbtls(kx, 0, 1, s); }},
      {"mbTLS (2 server mboxes)", [&](std::uint64_t s) { return run_mbtls(kx, 0, 2, s); }},
      {"mbTLS (3 server mboxes)", [&](std::uint64_t s) { return run_mbtls(kx, 0, 3, s); }},
  };
  for (const auto& c : cases) {
    std::vector<Sample> samples;
    for (int t = 0; t < trials; ++t) samples.push_back(c.run(static_cast<std::uint64_t>(t) * 100));
    rows.push(report(kx, c.name, samples));
  }
}

// ------------------------------------------------ Encapsulated framing

struct EncapsulationCost {
  std::size_t inner_bytes = 0;
  std::size_t overhead_bytes = 0;  // subchannel byte + outer record header
  double ns_per_record = 0;
};

EncapsulationCost encapsulation_cost(int iterations) {
  crypto::Drbg r("fig5-encap", 0);
  const Bytes inner = tls::frame_plaintext_record(tls::ContentType::kHandshake, r.bytes(512));
  std::size_t framed_bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) {
    tls::EncapsulatedRecord enc;
    enc.subchannel = 3;
    enc.inner_record = inner;
    framed_bytes =
        tls::frame_plaintext_record(tls::ContentType::kMbtlsEncapsulated, enc.encode()).size();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return {inner.size(), framed_bytes - inner.size(), elapsed * 1e9 / iterations};
}

}  // namespace
}  // namespace mbtls::bench

int main(int argc, char** argv) {
  using namespace mbtls::bench;
  const int trials = trials_arg(argc, argv, 100);
  const std::string json_path = json_arg(argc, argv);
  const std::string trace_path = trace_arg(argc, argv);
  if (!trace_path.empty()) {
    // One traced handshake — client, two server-side middleboxes, server —
    // exported as Chrome trace-event JSON (see EXPERIMENTS.md).
    mbtls::trace::Recorder rec;
    run_mbtls("ECDHE-RSA", 0, 2, 42, &rec);
    if (!write_text_file(trace_path, rec.chrome_trace_json())) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      return 1;
    }
    const auto metrics = mbtls::mb::summarize(rec.events());
    std::printf("traced mbTLS handshake (2 server mboxes): %zu events\n%s",
                rec.events().size(), metrics.dump().c_str());
    std::printf("wrote %s\n", trace_path.c_str());
    return 0;
  }
  std::printf("=== Figure 5: Handshake CPU microbenchmarks (%d trials, mean ± 95%% CI) ===\n",
              trials);
  // One-time setup outside the timers: DHE group generation, CA creation,
  // identity issuance, and one split-TLS fabrication per host.
  mbtls::tls::default_dh_group();
  (void)server_identity();
  (void)mbox_identity();
  run_split("ECDHE-RSA", 17);
  run_split("DHE-RSA", 18);
  std::printf("Time spent computing per handshake, per party; network wait excluded.\n\n");
  Json rows = Json::array();
  run_kx("ECDHE-RSA", trials, rows);
  std::printf("\n");
  run_kx("DHE-RSA", trials, rows);
  std::printf(
      "\nPaper shape to check: TLS ~= mbTLS without middleboxes; middlebox cheaper under\n"
      "mbTLS than split TLS (one handshake, not two); server cost flat vs client-side\n"
      "middleboxes, + ~one client-handshake (~20%%) per server-side middlebox.\n");
  const EncapsulationCost encap = encapsulation_cost(20'000);
  std::printf("\nEncapsulated-record framing (%zu B inner record): +%zu bytes, %.0f ns/record\n",
              encap.inner_bytes, encap.overhead_bytes, encap.ns_per_record);
  if (!json_path.empty()) {
    Json doc = Json::object()
                   .add("bench", std::string("fig5_handshake_cpu"))
                   .add("trials", static_cast<double>(trials));
    add_backend_fields(doc).add("rows", rows).add(
        "encapsulation", Json::object()
                             .add("inner_record_bytes", static_cast<double>(encap.inner_bytes))
                             .add("overhead_bytes", static_cast<double>(encap.overhead_bytes))
                             .add("ns_per_record", encap.ns_per_record));
    if (!doc.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
