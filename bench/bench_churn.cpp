// Million-user control plane under session churn (DESIGN.md "Control
// plane"): N clients each open M sessions against a fleet of origins; a
// configurable fraction of those sessions resume (stateless tickets sealed
// by the rotating TicketKeyManager, server-side state in the sharded LRU
// cache). Reported:
//
//   * full vs resumed handshakes/sec — an abbreviated handshake is PRF-only
//     (no ECDHE, no certificate chain, no signature), so the resumed rate
//     must clear 5x the full rate or resumption is not pulling its weight;
//   * per-cache hit rates — the dedup certificate pool over the 500-origin
//     legacy mix (the §5.1 site population: a fleet's handshakes overwhelm
//     a few hundred distinct leaves, so the pool must serve >=90% of chain
//     parses from memory) and the memoized attestation-quote verifier
//     (Knauth et al.: one quote is presented across many connections).
//
// Both floors are enforced on every run (--quick included); scripts/bench.sh
// --churn commits the full-run record as BENCH_churn.json.
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.h"
#include "sgx/attestation.h"
#include "tls/cache.h"
#include "tls/engine.h"
#include "tls/ticket.h"

namespace mbtls::bench {
namespace {

struct Options {
  int clients = 50;
  int sessions = 20;
  double resumption_ratio = 0.8;
  int origins = 500;
  int quote_draws = 2000;
  bool quick = false;
};

/// EC P-256 identities keep origin setup and the full-handshake phase
/// dominated by the handshake itself, not RSA keygen.
Identity make_origin(int index) {
  return make_identity("site" + std::to_string(index) + ".example",
                       x509::KeyType::kEcdsaP256);
}

struct ControlPlane {
  tls::SessionCache sessions{{.shards = 16, .capacity_per_shard = 4096}};
  tls::CertPool certs{16};
  tls::QuoteVerifyCache quotes{16};
  tls::TicketKeyManager ticket_keys{"churn-ticket-keys", 0};
};

/// One handshake against `origin`; with `client_cache` set the client
/// offers its cached ticket/session. Returns whether it came up resumed.
bool handshake(const Identity& origin, const std::string& host, ControlPlane& cp,
               tls::SessionCache* client_cache, std::uint64_t seed) {
  tls::Config ccfg;
  ccfg.is_client = true;
  ccfg.trust_anchors = {ca().root()};
  ccfg.server_name = host;
  ccfg.cert_pool = &cp.certs;
  ccfg.rng_label = "churn-client";
  ccfg.rng_seed = seed;
  if (client_cache) {
    ccfg.session_cache = client_cache;
    ccfg.offer_resumption = true;
    ccfg.enable_session_tickets = true;
  }
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = origin.key;
  scfg.certificate_chain = origin.chain;
  scfg.session_cache = &cp.sessions;
  scfg.enable_session_tickets = true;
  scfg.ticket_keys = &cp.ticket_keys;
  scfg.rng_label = "churn-server";
  scfg.rng_seed = seed + 1;

  tls::Engine client(ccfg);
  tls::Engine server(scfg);
  client.start();
  for (int i = 0; i < 50; ++i) {
    const Bytes a = client.take_output();
    const Bytes b = server.take_output();
    if (a.empty() && b.empty()) break;
    if (!a.empty()) server.feed(a);
    if (!b.empty()) client.feed(b);
  }
  if (!client.handshake_done() || !server.handshake_done()) {
    std::fprintf(stderr, "churn handshake failed: %s / %s\n",
                 client.error_message().c_str(), server.error_message().c_str());
    std::exit(1);
  }
  return client.resumed();
}

double rate_per_sec(int count, const PartyTimer& timer) {
  return timer.ms() <= 0 ? 0 : static_cast<double>(count) / (timer.ms() / 1000.0);
}

}  // namespace
}  // namespace mbtls::bench

int main(int argc, char** argv) {
  using namespace mbtls;
  using namespace mbtls::bench;

  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") opt.quick = true;
  }
  if (opt.quick) {
    opt.clients = 6;
    opt.sessions = 5;
    opt.origins = 40;
    opt.quote_draws = 100;
  }
  if (const std::string v = value_arg(argc, argv, "--clients"); !v.empty())
    opt.clients = std::atoi(v.c_str());
  if (const std::string v = value_arg(argc, argv, "--sessions"); !v.empty())
    opt.sessions = std::atoi(v.c_str());
  if (const std::string v = value_arg(argc, argv, "--origins"); !v.empty())
    opt.origins = std::atoi(v.c_str());
  if (const std::string v = value_arg(argc, argv, "--resumption-ratio"); !v.empty())
    opt.resumption_ratio = std::atof(v.c_str());

  std::printf("churn: %d clients x %d sessions, %.0f%% resumption, %d origins\n",
              opt.clients, opt.sessions, opt.resumption_ratio * 100, opt.origins);

  // ------------------------------------------------------------ origin fleet
  std::vector<Identity> origins;
  std::vector<std::string> hosts;
  origins.reserve(static_cast<std::size_t>(opt.origins));
  for (int i = 0; i < opt.origins; ++i) {
    origins.push_back(make_origin(i));
    hosts.push_back("site" + std::to_string(i) + ".example");
  }

  ControlPlane cp;

  // -------------------------------------------- phase 1: full vs resumed rate
  // Same origin, pinned measurement loops: the full path runs ECDHE + ECDSA
  // + chain verification every time; the resumed path is ticket unseal + PRF.
  const int rate_handshakes = opt.quick ? 8 : 64;
  PartyTimer full_timer;
  for (int i = 0; i < rate_handshakes; ++i) {
    full_timer.time([&] {
      handshake(origins[0], hosts[0], cp, nullptr, 1000 + 2 * static_cast<std::uint64_t>(i));
    });
  }

  tls::SessionCache warm_cache;
  handshake(origins[0], hosts[0], cp, &warm_cache, 5000);  // populate the ticket
  PartyTimer resumed_timer;
  for (int i = 0; i < rate_handshakes; ++i) {
    resumed_timer.time([&] {
      if (!handshake(origins[0], hosts[0], cp, &warm_cache,
                     6000 + 2 * static_cast<std::uint64_t>(i))) {
        std::fprintf(stderr, "resumed-phase handshake fell back to full\n");
        std::exit(1);
      }
    });
  }
  const double full_rate = rate_per_sec(rate_handshakes, full_timer);
  const double resumed_rate = rate_per_sec(rate_handshakes, resumed_timer);
  const double speedup = full_rate > 0 ? resumed_rate / full_rate : 0;
  std::printf("  full    : %8.0f handshakes/sec\n", full_rate);
  std::printf("  resumed : %8.0f handshakes/sec  (%.1fx)\n", resumed_rate, speedup);

  // ----------------------------------------- phase 2: churn mix + rotation
  // N clients, M sessions each: a fresh client starts full, then resumes
  // with probability `resumption_ratio` (else it behaves like a new user —
  // cache dropped). Ticket keys rotate mid-phase, so late resumptions cross
  // a rotation and exercise the stale-ticket reissue path.
  crypto::Drbg churn_rng("churn-mix", 1);
  std::vector<std::unique_ptr<tls::SessionCache>> client_caches;
  std::vector<std::size_t> last_origin(static_cast<std::size_t>(opt.clients), 0);
  for (int c = 0; c < opt.clients; ++c)
    client_caches.push_back(std::make_unique<tls::SessionCache>());
  int churn_total = 0, churn_resumed = 0;
  PartyTimer churn_timer;
  std::uint64_t seed = 10'000;
  for (int s = 0; s < opt.sessions; ++s) {
    if (s == opt.sessions / 2) cp.ticket_keys.rotate();
    for (int c = 0; c < opt.clients; ++c) {
      const std::size_t ci = static_cast<std::size_t>(c);
      const Bytes draw = churn_rng.bytes(3);
      // A resuming client revisits its previous origin (that is what a
      // cached ticket is for); otherwise it behaves like a new user — cache
      // dropped, fresh uniform origin pick.
      const bool try_resume = s > 0 && (draw[2] < opt.resumption_ratio * 256.0);
      std::size_t origin = last_origin[ci];
      if (!try_resume) {
        client_caches[ci]->clear();
        origin = static_cast<std::size_t>(draw[0] | (draw[1] << 8)) % origins.size();
        last_origin[ci] = origin;
      }
      bool resumed = false;
      churn_timer.time([&] {
        resumed = handshake(origins[origin], hosts[origin], cp, client_caches[ci].get(),
                            seed);
      });
      seed += 2;
      ++churn_total;
      churn_resumed += resumed ? 1 : 0;
    }
  }
  const double churn_rate = rate_per_sec(churn_total, churn_timer);
  std::printf("  churn   : %8.0f handshakes/sec aggregate (%d/%d resumed)\n", churn_rate,
              churn_resumed, churn_total);

  // ------------------------------- phase 3: cert pool over the legacy mix
  // The fleet's view of the §5.1 origin population: every full churn
  // handshake above already interned its origin's leaf; fold in a uniform
  // sweep of 20 draws per origin (each origin's first sighting is a
  // compulsory miss, so the steady-state hit rate needs draws >> origins),
  // then read the pool's lifetime hit rate.
  crypto::Drbg mix_rng("legacy-mix", 2);
  const int mix_draws = 20 * opt.origins;
  for (int i = 0; i < mix_draws; ++i) {
    const Bytes draw = mix_rng.bytes(2);
    const std::size_t origin =
        static_cast<std::size_t>(draw[0] | (draw[1] << 8)) % origins.size();
    (void)cp.certs.intern(origins[origin].chain[0].der());
  }
  const auto cert_stats = cp.certs.stats();
  std::printf("  certs   : %zu distinct, %.1f%% hit rate\n", cp.certs.size(),
              cert_stats.hit_rate() * 100);

  // -------------------------------- phase 4: memoized quote verification
  // A handful of enclave builds present quotes across thousands of
  // connections; the ECDSA verification runs once per distinct quote.
  const int enclave_builds = 4;
  std::vector<Bytes> measurements, reports, sigs;
  for (int i = 0; i < enclave_builds; ++i) {
    measurements.push_back(crypto::Drbg("churn-meas", static_cast<std::uint64_t>(i)).bytes(32));
    reports.push_back(Bytes(64, static_cast<std::uint8_t>(i)));
    sigs.push_back(sgx::attestation_service_sign(measurements.back(), reports.back()));
  }
  crypto::Drbg quote_rng("quote-draws", 3);
  PartyTimer quote_timer;
  for (int i = 0; i < opt.quote_draws; ++i) {
    const std::size_t b = quote_rng.bytes(1)[0] % static_cast<std::size_t>(enclave_builds);
    quote_timer.time([&] {
      if (!cp.quotes.verify(measurements[b], reports[b], sigs[b])) {
        std::fprintf(stderr, "quote verification failed\n");
        std::exit(1);
      }
    });
  }
  const auto quote_stats = cp.quotes.stats();
  std::printf("  quotes  : %8.0f verifications/sec, %.1f%% hit rate\n",
              rate_per_sec(opt.quote_draws, quote_timer), quote_stats.hit_rate() * 100);

  const auto session_stats = cp.sessions.stats();
  const auto ticket_stats = cp.ticket_keys.stats();
  std::printf("  tickets : %llu sealed, %llu current, %llu stale, %llu rejected\n",
              static_cast<unsigned long long>(ticket_stats.seals),
              static_cast<unsigned long long>(ticket_stats.unseal_current),
              static_cast<unsigned long long>(ticket_stats.unseal_stale),
              static_cast<unsigned long long>(ticket_stats.rejects));

  // ------------------------------------------------------------------ floors
  constexpr double kSpeedupFloor = 5.0;
  constexpr double kCertHitFloor = 0.90;
  bool ok = true;
  if (speedup < kSpeedupFloor) {
    std::fprintf(stderr, "FLOOR VIOLATION: resumed/full speedup %.2fx < %.1fx\n", speedup,
                 kSpeedupFloor);
    ok = false;
  }
  if (cert_stats.hit_rate() < kCertHitFloor) {
    std::fprintf(stderr, "FLOOR VIOLATION: cert pool hit rate %.3f < %.2f\n",
                 cert_stats.hit_rate(), kCertHitFloor);
    ok = false;
  }

  // -------------------------------------------------------------------- JSON
  const std::string json_path = json_arg(argc, argv);
  if (!json_path.empty()) {
    auto cache_json = [](const tls::CacheStats& st) {
      return Json::object()
          .add("hits", static_cast<double>(st.hits))
          .add("misses", static_cast<double>(st.misses))
          .add("stores", static_cast<double>(st.stores))
          .add("evictions", static_cast<double>(st.evictions))
          .add("hit_rate", st.hit_rate());
    };
    Json doc = Json::object();
    doc.add("bench", std::string("churn"));
    doc.add("config", Json::object()
                          .add("clients", opt.clients)
                          .add("sessions", opt.sessions)
                          .add("resumption_ratio", opt.resumption_ratio)
                          .add("origins", opt.origins)
                          .add("quote_draws", opt.quote_draws)
                          .add("quick", opt.quick ? 1 : 0));
    doc.add("full_handshakes_per_sec", full_rate);
    doc.add("resumed_handshakes_per_sec", resumed_rate);
    doc.add("resumed_speedup", speedup);
    doc.add("churn_handshakes_per_sec", churn_rate);
    doc.add("churn_resumed_fraction",
            churn_total == 0 ? 0.0
                             : static_cast<double>(churn_resumed) / churn_total);
    doc.add("session_cache", cache_json(session_stats));
    doc.add("cert_pool", cache_json(cp.certs.stats())
                             .add("distinct", static_cast<double>(cp.certs.size())));
    doc.add("quote_cache", cache_json(quote_stats));
    doc.add("tickets", Json::object()
                           .add("seals", static_cast<double>(ticket_stats.seals))
                           .add("unseal_current",
                                static_cast<double>(ticket_stats.unseal_current))
                           .add("unseal_stale", static_cast<double>(ticket_stats.unseal_stale))
                           .add("rejects", static_cast<double>(ticket_stats.rejects))
                           .add("generation",
                                static_cast<double>(cp.ticket_keys.generation())));
    doc.add("floors", Json::object()
                          .add("resumed_speedup_min", kSpeedupFloor)
                          .add("cert_pool_hit_rate_min", kCertHitFloor));
    add_backend_fields(doc);
    if (!doc.write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!ok) return 1;
  std::printf("floors: resumed speedup %.1fx >= %.1fx, cert hit rate %.1f%% >= %.0f%%\n",
              speedup, kSpeedupFloor, cert_stats.hit_rate() * 100, kCertHitFloor * 100);
  return 0;
}
