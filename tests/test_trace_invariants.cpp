// Trace-driven tests that pin the paper's protocol invariants from traces
// alone — no peeking into session internals:
//  * P7 (no extra round trips, §3.3): a vanilla TLS handshake and an mbTLS
//    handshake run side by side with tracing attached; the flight boundaries
//    extracted from the two traces must match (4 flights full, 3 resumed).
//  * P4 (pairwise-unique hop keys, §3.2): the endpoints' keylog-style
//    "keylog.hop" events carry key fingerprints per hop; across
//    client↔mbox↔server hops the fingerprints must be pairwise distinct —
//    except the bridge hop, which both endpoints fingerprint identically —
//    and a resumed connection must distribute entirely fresh hop keys.
//  * The Chrome-trace exporter of a two-middlebox handshake produces a
//    well-formed timeline (the EXPERIMENTS.md recipe in miniature).
#include <gtest/gtest.h>

#include <set>

#include "mbtls/metrics.h"
#include "tests/mbtls_test_util.h"
#include "tls/cache.h"
#include "tls/ticket.h"

namespace mbtls::mb {
namespace {

using namespace testing;

// ------------------------------------------------------------- vanilla TLS

struct TlsCaches {
  tls::SessionCache client, server;
};

/// One traced plain-TLS handshake; with `caches`, resumption state persists
/// across calls so the second handshake is abbreviated.
void run_tls(trace::Recorder& rec, std::uint64_t seed, TlsCaches* caches = nullptr) {
  static const tls::testing::ServerIdentity id = make_identity("trace.example");
  tls::Config ccfg;
  ccfg.is_client = true;
  ccfg.trust_anchors = {test_ca().root()};
  ccfg.server_name = "trace.example";
  ccfg.rng_label = "trace-tls-client";
  ccfg.rng_seed = seed;
  ccfg.trace_sink = &rec;
  ccfg.trace_actor = "client";
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = id.key;
  scfg.certificate_chain = id.chain;
  scfg.rng_label = "trace-tls-server";
  scfg.rng_seed = seed + 1;
  scfg.trace_sink = &rec;
  scfg.trace_actor = "server";
  if (caches) {
    ccfg.session_cache = &caches->client;
    ccfg.offer_resumption = true;
    scfg.session_cache = &caches->server;
  }
  tls::Engine client(ccfg);
  tls::Engine server(scfg);
  client.start();
  tls::testing::pump(client, server);
  ASSERT_TRUE(client.handshake_done()) << client.error_message();
  ASSERT_TRUE(server.handshake_done()) << server.error_message();
}

// ------------------------------------------------------------------ mbTLS

struct TracedChain {
  trace::Recorder rec;
  std::unique_ptr<ClientSession> client;
  std::unique_ptr<ServerSession> server;
  std::vector<std::unique_ptr<Middlebox>> mboxes;

  void run(int client_mboxes, int server_mboxes, std::uint64_t seed,
           tls::SessionCache* client_cache = nullptr,
           tls::SessionCache* server_cache = nullptr,
           tls::SessionCache* mbox_cache = nullptr,
           tls::TicketKeyManager* ticket_keys = nullptr) {
    auto copts = client_options("trace.example", seed);
    copts.trace_sink = &rec;
    if (client_cache) {
      copts.tls.session_cache = client_cache;
      copts.tls.offer_resumption = true;
    }
    if (ticket_keys) copts.tls.enable_session_tickets = true;
    client = std::make_unique<ClientSession>(std::move(copts));

    static const tls::testing::ServerIdentity server_id = make_identity("trace.example");
    auto sopts = server_options(server_id, seed + 1);
    sopts.trace_sink = &rec;
    if (server_cache) sopts.tls.session_cache = server_cache;
    if (ticket_keys) {
      sopts.tls.enable_session_tickets = true;
      sopts.tls.ticket_keys = ticket_keys;
    }
    server = std::make_unique<ServerSession>(std::move(sopts));

    Chain chain;
    chain.client = client.get();
    chain.server = server.get();
    for (int i = 0; i < client_mboxes + server_mboxes; ++i) {
      auto mopts = middlebox_options("tracebox.example",
                                     i < client_mboxes ? Middlebox::Side::kClientSide
                                                       : Middlebox::Side::kServerSide);
      mopts.trace_sink = &rec;
      mopts.trace_actor = "mbox" + std::to_string(i + 1);
      if (mbox_cache) mopts.session_cache = mbox_cache;
      mboxes.push_back(std::make_unique<Middlebox>(std::move(mopts)));
      chain.middleboxes.push_back(mboxes.back().get());
    }
    client->start();
    chain.pump();
    ASSERT_TRUE(client->established()) << client->error_message();
    ASSERT_TRUE(server->established()) << server->error_message();
    for (const auto& m : mboxes) ASSERT_TRUE(m->joined());
  }
};

/// Every fingerprint string mentioned by a list of keylog entries.
std::set<std::string> fingerprints_of(const std::vector<HopKeylog>& logs) {
  std::set<std::string> out;
  for (const auto& k : logs) {
    out.insert(k.c2s);
    out.insert(k.s2c);
  }
  return out;
}

// -------------------------------------------------------------------- P7

TEST(TraceInvariants, FullHandshakeAddsNoFlightsOverTls) {
  trace::Recorder tls_rec;
  run_tls(tls_rec, 101);

  TracedChain mb;
  mb.run(/*client_mboxes=*/1, /*server_mboxes=*/1, 201);

  // Flight boundaries extracted from the traces alone: the mbTLS *primary*
  // handshake must pace exactly like plain TLS on both endpoints (P7) —
  // the secondary handshakes ride inside these flights.
  const int tls_client = flight_count(tls_rec.events(), "client");
  const int tls_server = flight_count(tls_rec.events(), "server");
  const int mb_client = flight_count(mb.rec.events(), "client/primary");
  const int mb_server = flight_count(mb.rec.events(), "server/primary");
  EXPECT_EQ(tls_client, 4);
  EXPECT_EQ(tls_server, 4);
  EXPECT_EQ(mb_client, tls_client);
  EXPECT_EQ(mb_server, tls_server);

  // The engines agree with their own traces.
  EXPECT_EQ(mb.client->primary().flights(), mb_client);
  EXPECT_EQ(mb.server->primary().flights(), mb_server);
}

TEST(TraceInvariants, ResumedHandshakeAddsNoFlightsOverTls) {
  TlsCaches tls_caches;
  {
    trace::Recorder warmup;
    run_tls(warmup, 111, &tls_caches);
  }
  trace::Recorder tls_rec;
  run_tls(tls_rec, 112, &tls_caches);

  tls::SessionCache client_cache, server_cache, mbox_cache;
  {
    TracedChain warmup;
    warmup.run(1, 0, 211, &client_cache, &server_cache, &mbox_cache);
  }
  TracedChain mb;
  mb.run(1, 0, 212, &client_cache, &server_cache, &mbox_cache);
  ASSERT_TRUE(mb.client->primary().resumed());
  ASSERT_TRUE(mb.mboxes[0]->resumed());

  // Abbreviated handshake: three flights on each side, same as resumed TLS.
  const int tls_client = flight_count(tls_rec.events(), "client");
  const int mb_client = flight_count(mb.rec.events(), "client/primary");
  EXPECT_EQ(tls_client, 3);
  EXPECT_EQ(mb_client, tls_client);
  EXPECT_EQ(flight_count(mb.rec.events(), "server/primary"),
            flight_count(tls_rec.events(), "server"));
}

// -------------------------------------------------------------------- P4

TEST(TraceInvariants, HopKeysPairwiseUniqueAcrossHops) {
  TracedChain mb;
  mb.run(/*client_mboxes=*/1, /*server_mboxes=*/1, 301);

  // Each endpoint logs fingerprints for the bridge (hop 0) plus one hop per
  // middlebox on its side of the chain.
  const auto client_logs = hop_keylogs(mb.rec.events(), "client");
  const auto server_logs = hop_keylogs(mb.rec.events(), "server");
  ASSERT_EQ(client_logs.size(), 2u);
  ASSERT_EQ(server_logs.size(), 2u);
  EXPECT_EQ(client_logs[0].hop, 0u);
  EXPECT_EQ(server_logs[0].hop, 0u);

  // The bridge hop is the primary session's key block: both endpoints must
  // fingerprint it identically (that is what P5 interop hinges on).
  EXPECT_EQ(client_logs[0].c2s, server_logs[0].c2s);
  EXPECT_EQ(client_logs[0].s2c, server_logs[0].s2c);

  // P4: across the chain client — C1 — [bridge] — S1 — server, the three
  // hops' keys are pairwise distinct in both directions (and no hop reuses
  // one key for both directions). 3 hops x 2 directions = 6 fingerprints.
  std::set<std::string> all = fingerprints_of(client_logs);
  for (const auto& fp : fingerprints_of({server_logs[1]})) all.insert(fp);
  EXPECT_EQ(all.size(), 6u);

  // Cross-check from the middleboxes' own perspective: every key a
  // middlebox installed ("joined" event) is one the endpoints distributed.
  for (const auto& e : mb.rec.events()) {
    if (e.category != "mbtls" || e.name != "joined") continue;
    for (const auto& a : e.args) {
      if (a.name == "subchannel") continue;
      EXPECT_TRUE(all.count(a.value)) << e.actor << " installed unknown key " << a.value;
    }
  }
}

TEST(TraceInvariants, ResumptionDistributesFreshUniqueHopKeys) {
  tls::SessionCache client_cache, server_cache, mbox_cache;
  TracedChain first;
  first.run(1, 0, 401, &client_cache, &server_cache, &mbox_cache);
  TracedChain second;
  second.run(1, 0, 402, &client_cache, &server_cache, &mbox_cache);
  ASSERT_TRUE(second.client->primary().resumed());

  const auto logs1 = hop_keylogs(first.rec.events(), "client");
  const auto logs2 = hop_keylogs(second.rec.events(), "client");
  ASSERT_EQ(logs1.size(), 2u);
  ASSERT_EQ(logs2.size(), 2u);

  // Still pairwise unique within the resumed connection...
  EXPECT_EQ(fingerprints_of(logs2).size(), 4u);
  // ...and disjoint from the first connection: resumption re-derives the
  // bridge keys from fresh randoms and generates brand-new hop keys.
  for (const auto& fp : fingerprints_of(logs2)) {
    EXPECT_FALSE(fingerprints_of(logs1).count(fp)) << "hop key reused across connections";
  }
}

TEST(TraceInvariants, TicketResumptionThroughShardedCachesKeepsHopKeysFresh) {
  // The million-user control plane under the P4 lens: the sharded session
  // caches stand in for the plain map caches, the server seals tickets with
  // a rotating key manager, and the key rotates between the connections —
  // the second connection resumes by a stale-but-valid ticket. Freshness
  // must be unaffected: pairwise-unique hop keys, all disjoint from the
  // first connection's.
  tls::SessionCache client_cache({.shards = 4, .capacity_per_shard = 16});
  tls::SessionCache server_cache({.shards = 4, .capacity_per_shard = 16});
  tls::SessionCache mbox_cache({.shards = 4, .capacity_per_shard = 16});
  tls::TicketKeyManager keys("trace-ticket-keys", 0);

  TracedChain first;
  first.run(1, 0, 601, &client_cache, &server_cache, &mbox_cache, &keys);
  ASSERT_FALSE(first.client->primary().resumed());

  keys.rotate();

  TracedChain second;
  second.run(1, 0, 602, &client_cache, &server_cache, &mbox_cache, &keys);
  ASSERT_TRUE(second.client->primary().resumed());
  EXPECT_GE(keys.stats().unseal_stale, 1u);  // resumed across the rotation

  const auto logs1 = hop_keylogs(first.rec.events(), "client");
  const auto logs2 = hop_keylogs(second.rec.events(), "client");
  ASSERT_EQ(logs1.size(), 2u);
  ASSERT_EQ(logs2.size(), 2u);
  // P4 within the resumed connection: 2 hops x 2 directions, all distinct.
  EXPECT_EQ(fingerprints_of(logs2).size(), 4u);
  // ...and entirely fresh relative to the first connection.
  for (const auto& fp : fingerprints_of(logs2)) {
    EXPECT_FALSE(fingerprints_of(logs1).count(fp)) << "hop key reused across connections";
  }
}

// -------------------------------------------------------------- exporters

TEST(TraceInvariants, ChromeTraceOfTwoMiddleboxHandshake) {
  TracedChain mb;
  mb.run(/*client_mboxes=*/0, /*server_mboxes=*/2, 501);

  const auto metrics = summarize(mb.rec.events());
  EXPECT_EQ(metrics.sessions_established, 2u);  // client + server
  EXPECT_EQ(metrics.middleboxes_joined, 2u);
  EXPECT_EQ(metrics.failures, 0u);
  EXPECT_GT(metrics.records_sealed, 0u);

  // Without a clock installed, the recorder stamps a strictly increasing
  // sequence — the timeline is still totally ordered.
  for (std::size_t i = 1; i < mb.rec.events().size(); ++i) {
    EXPECT_LE(mb.rec.events()[i - 1].ts, mb.rec.events()[i].ts);
  }

  const std::string json = mb.rec.chrome_trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 40);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"keylog.hop\""), std::string::npos);
  EXPECT_NE(json.find("\"mbox.approved\""), std::string::npos);
  EXPECT_NE(json.find("\"established\""), std::string::npos);

  const std::string counters = mb.rec.counter_dump();
  EXPECT_NE(counters.find("events/client/mbtls.established 1"), std::string::npos) << counters;
  EXPECT_NE(counters.find("events/server/mbtls.keylog.hop 3"), std::string::npos) << counters;
}

}  // namespace
}  // namespace mbtls::mb
