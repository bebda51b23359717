// Hostile-path suite: every mbTLS session under every chaos tap must either
// complete with byte-exact data or fail with an explicit error, in bounded
// virtual time — never hang, never deliver corrupted plaintext — and the
// same seed must reproduce the same outcome bit-for-bit.
//
// The harness models what real deployments have above TLS: per-endpoint
// handshake deadlines and an application-level read watchdog that tears the
// connection down (fatal alert + TCP teardown) if the transfer stops making
// progress. The invariant is asserted over the whole system: sessions,
// middlebox, bindings, TCP, and the fault-injected links.
#include <gtest/gtest.h>

#include "mbtls/cache.h"
#include "mbtls/metrics.h"
#include "mbtls/transport.h"
#include "net/chaos.h"
#include "tests/tls_test_util.h"
#include "tls/ticket.h"

namespace mbtls::mb {
namespace {

using namespace net;
using tls::testing::make_identity;
using tls::testing::test_ca;

constexpr Time kHandshakeDeadline = 20 * kSecond;
constexpr Time kWatchdog = 90 * kSecond;   // application read deadline
constexpr Time kVirtualCap = 200 * kSecond;  // nothing may outlive this

struct ChaosRig {
  Simulator sim;
  Network network;
  NodeId nc, nm, ns;
  std::unique_ptr<Host> client_host, mbox_host, server_host;

  explicit ChaosRig(std::uint64_t seed = 1) : network(sim, seed) {
    nc = network.add_node("client");
    nm = network.add_node("mbox");
    ns = network.add_node("server");
    network.add_link(nc, nm, {.propagation = 10 * kMillisecond});
    network.add_link(nm, ns, {.propagation = 5 * kMillisecond});
    client_host = std::make_unique<Host>(network, nc);
    mbox_host = std::make_unique<Host>(network, nm);
    server_host = std::make_unique<Host>(network, ns);
  }
};

struct ChaosParties {
  ClientSession client;
  ServerSession server;
  Middlebox mbox;
  std::unique_ptr<SocketBinding<ServerSession>> server_binding;
  std::unique_ptr<MiddleboxBinding> mbox_binding;
  std::unique_ptr<SocketBinding<ClientSession>> client_binding;
  Socket* mbox_down = nullptr;  // for the mbox-death scenario
  Socket* mbox_up = nullptr;

  ChaosParties(ClientSession::Options copts, ServerSession::Options sopts,
               Middlebox::Options mopts)
      : client(std::move(copts)), server(std::move(sopts)), mbox(std::move(mopts)) {}
};

/// Hook for scenarios that carry state across runs (resumption caches,
/// rotating ticket keys): runs on the freshly built options before the
/// parties are constructed.
using OptionsHook =
    std::function<void(ClientSession::Options&, ServerSession::Options&)>;

std::unique_ptr<ChaosParties> wire_up(ChaosRig& rig, std::uint64_t seed,
                                      Time deadline = kHandshakeDeadline,
                                      trace::Sink* sink = nullptr,
                                      const OptionsHook& customize = {}) {
  // One identity per process: the byte-for-byte trace determinism test needs
  // run N and run N+1 to present identical certificates (a fresh identity
  // per run would shift record lengths and key fingerprints).
  static const auto server_id = make_identity("chaos.example");
  static const auto mbox_id = make_identity("chaosproxy.example");

  ClientSession::Options copts;
  copts.tls.trust_anchors = {test_ca().root()};
  copts.tls.server_name = "chaos.example";
  copts.tls.rng_seed = seed;
  copts.handshake_timeout = deadline;
  copts.trace_sink = sink;
  ServerSession::Options sopts;
  sopts.tls.private_key = server_id.key;
  sopts.tls.certificate_chain = server_id.chain;
  sopts.tls.rng_seed = seed + 1;
  sopts.handshake_timeout = deadline;
  sopts.trace_sink = sink;
  Middlebox::Options mopts;
  mopts.name = "chaosproxy.example";
  mopts.side = Middlebox::Side::kClientSide;
  mopts.private_key = mbox_id.key;
  mopts.certificate_chain = mbox_id.chain;
  mopts.handshake_timeout = deadline;
  mopts.trace_sink = sink;
  if (customize) customize(copts, sopts);

  auto parties = std::make_unique<ChaosParties>(std::move(copts), std::move(sopts),
                                                std::move(mopts));

  rig.server_host->listen(443, [&rig, deadline, p = parties.get()](Socket& socket) {
    p->server_binding = std::make_unique<SocketBinding<ServerSession>>(p->server, socket);
    p->server_binding->arm_handshake_deadline(rig.sim, deadline);
  });
  rig.mbox_host->listen(443, [&rig, deadline, p = parties.get()](Socket& downstream) {
    Socket& upstream = rig.mbox_host->connect(rig.ns, 443);
    p->mbox_down = &downstream;
    p->mbox_up = &upstream;
    p->mbox_binding = std::make_unique<MiddleboxBinding>(p->mbox, downstream, upstream);
    p->mbox_binding->arm_join_deadline(rig.sim, deadline);
  });
  Socket& client_socket = rig.client_host->connect(rig.nm, 443);
  parties->client_binding =
      std::make_unique<SocketBinding<ClientSession>>(parties->client, client_socket);
  client_socket.on_connect = [p = parties.get()] {
    p->client.start();
    p->client_binding->flush();
  };
  parties->client_binding->arm_handshake_deadline(rig.sim, deadline);
  return parties;
}

template <typename Session>
bool terminal(const Session& s) {
  return s.failed() || s.status() == SessionStatus::kClosed;
}

struct Outcome {
  bool completed = false;               // server got the byte-exact blob
  bool delivered_prefix_intact = true;  // plaintext never corrupted
  bool client_terminal = false;
  bool server_terminal = false;
  bool resumed = false;  // primary came up abbreviated
  std::string client_error, server_error;
  RunStatus status = RunStatus::kDrained;
  Time finished_at = 0;

  std::string fingerprint() const {
    return std::to_string(completed) + "|" + std::to_string(client_terminal) + "|" +
           std::to_string(server_terminal) + "|" + std::to_string(resumed) + "|" +
           client_error + "|" + server_error + "|" + std::to_string(finished_at);
  }
};

/// One chaos run: client dials through the middlebox, sends a 12 kB blob
/// once established; the run ends when the blob arrived intact or both
/// endpoints reached an explicit terminal state.
Outcome run_chaos(std::uint64_t seed, const std::function<void(ChaosRig&)>& install,
                  Time deadline = kHandshakeDeadline, trace::Recorder* rec = nullptr,
                  const OptionsHook& customize = {}) {
  ChaosRig rig(seed);
  if (rec) {
    // Virtual-clock timestamps: a deterministic run leaves a byte-identical
    // trace (no wall time, no pointers).
    rec->set_clock([sim = &rig.sim] { return sim->now(); });
    rig.network.set_trace(rec);
  }
  auto parties = wire_up(rig, seed, deadline, rec, customize);
  install(rig);

  crypto::Drbg blob_rng("chaos-blob", seed);
  const Bytes blob = blob_rng.bytes(12'000);
  Bytes received;
  bool sent = false;

  std::function<void()> poll = [&] {
    append(received, parties->server.take_app_data());
    if (!sent && parties->client.established()) {
      sent = true;
      parties->client.send(blob);
      parties->client_binding->flush();
    }
    const bool done = received.size() >= blob.size() ||
                      (terminal(parties->client) &&
                       (!parties->server_binding || terminal(parties->server)));
    if (!done) rig.sim.schedule(5 * kMillisecond, poll);
  };
  rig.sim.schedule(5 * kMillisecond, poll);

  // Application-level read deadline: whatever is still limping gets torn
  // down explicitly — the invariant's backstop against silent stalls below
  // the record layer (e.g. a record dropped by a hop after an auth failure).
  rig.sim.schedule(kWatchdog, [&] {
    if (received.size() >= blob.size()) return;
    if (!terminal(parties->client)) {
      parties->client.abort("application watchdog");
      parties->client_binding->flush();
      if (parties->client_binding->socket().writable()) parties->client_binding->socket().close();
    }
    if (parties->server_binding && !terminal(parties->server)) {
      parties->server.abort("application watchdog");
      parties->server_binding->flush();
      if (parties->server_binding->socket().writable()) parties->server_binding->socket().close();
    }
  });

  Outcome out;
  out.status = rig.sim.run_until(kVirtualCap, 5'000'000);
  append(received, parties->server.take_app_data());
  out.delivered_prefix_intact =
      received.size() <= blob.size() &&
      std::equal(received.begin(), received.end(), blob.begin());
  out.completed = received.size() == blob.size() && out.delivered_prefix_intact;
  out.client_terminal = terminal(parties->client);
  out.server_terminal = !parties->server_binding || terminal(parties->server);
  out.client_error = parties->client.error_message();
  out.server_error = parties->server.error_message();
  out.resumed = parties->client.established() && parties->client.primary().resumed();
  out.finished_at = rig.sim.now();
  return out;
}

/// The repo-wide robustness invariant.
void expect_invariant(const Outcome& o) {
  // No hang: every event ran and the queue drained inside the virtual cap,
  // without hitting the runaway budget.
  EXPECT_EQ(o.status, RunStatus::kDrained);
  EXPECT_LE(o.finished_at, kVirtualCap);
  // No corruption ever reaches the application.
  EXPECT_TRUE(o.delivered_prefix_intact);
  // Dichotomy: intact completion, or both endpoints explicitly terminal.
  EXPECT_TRUE(o.completed || (o.client_terminal && o.server_terminal))
      << "client=" << o.client_error << " server=" << o.server_error;
  if (!o.completed) {
    EXPECT_FALSE(o.client_error.empty() && o.server_error.empty())
        << "failure without any explicit error";
  }
}

// --------------------------------------------------------------- the matrix

TEST(Chaos, CorruptByteEitherCompletesOrFailsExplicitly) {
  // No checksum in the simplified TCP: flipped bytes reach the record layer
  // and the AEAD must be the arbiter. Depending on what the flip hits the
  // session completes (flip in a retransmitted-over segment) or fails with
  // an authentication error — silent corruption is never an outcome.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Outcome o = run_chaos(seed, [&](ChaosRig& rig) {
      rig.network.add_tap(rig.nc, rig.nm,
                          ChaosTap::corrupt_byte(crypto::Drbg("chaos-corrupt-a", seed), 0.04));
      rig.network.add_tap(rig.nm, rig.ns,
                          ChaosTap::corrupt_byte(crypto::Drbg("chaos-corrupt-b", seed), 0.04));
    });
    expect_invariant(o);
  }
}

TEST(Chaos, TruncateRecoversViaRetransmission) {
  // A truncated segment leaves a sequence gap; go-back-N must refill it and
  // deliver the byte-exact stream.
  for (std::uint64_t seed : {1u, 2u}) {
    const Outcome o = run_chaos(seed, [&](ChaosRig& rig) {
      rig.network.add_tap(rig.nc, rig.nm,
                          ChaosTap::truncate(crypto::Drbg("chaos-trunc", seed), 0.15));
    });
    expect_invariant(o);
    EXPECT_TRUE(o.completed) << o.client_error << " / " << o.server_error;
  }
}

TEST(Chaos, DuplicatesAreDeduplicated) {
  for (std::uint64_t seed : {1u, 2u}) {
    const Outcome o = run_chaos(seed, [&](ChaosRig& rig) {
      rig.network.add_tap(rig.nc, rig.nm,
                          ChaosTap::duplicate(rig.network, rig.nc, rig.nm,
                                              crypto::Drbg("chaos-dup", seed), 0.3));
    });
    expect_invariant(o);
    EXPECT_TRUE(o.completed) << o.client_error << " / " << o.server_error;
  }
}

TEST(Chaos, ReorderingReassembles) {
  for (std::uint64_t seed : {1u, 2u}) {
    const Outcome o = run_chaos(seed, [&](ChaosRig& rig) {
      rig.network.add_tap(rig.nm, rig.ns,
                          ChaosTap::reorder_within_window(rig.network, rig.nm, rig.ns,
                                                          crypto::Drbg("chaos-reorder", seed),
                                                          /*window=*/4));
    });
    expect_invariant(o);
    EXPECT_TRUE(o.completed) << o.client_error << " / " << o.server_error;
  }
}

TEST(Chaos, StallShorterThanDeadlineCompletesLate) {
  // A 3-second freeze of the mbox-server link mid-handshake: backoff rides
  // it out and the session completes once the backlog releases.
  const Outcome o = run_chaos(7, [&](ChaosRig& rig) {
    rig.network.add_tap(rig.nm, rig.ns,
                        ChaosTap::stall_for_duration(rig.network, rig.nm, rig.ns,
                                                     /*start_after=*/5 * kMillisecond,
                                                     /*duration=*/3 * kSecond));
  });
  expect_invariant(o);
  EXPECT_TRUE(o.completed) << o.client_error << " / " << o.server_error;
  EXPECT_GT(o.finished_at, 3 * kSecond);  // it really did wait out the stall
}

TEST(Chaos, StallBeyondDeadlineFailsCleanly) {
  // The freeze outlives the handshake deadline: the client must send its
  // fatal alert and fail with an explicit deadline error, never hang.
  const Outcome o = run_chaos(8, [&](ChaosRig& rig) {
    rig.network.add_tap(rig.nm, rig.ns,
                        ChaosTap::stall_for_duration(rig.network, rig.nm, rig.ns,
                                                     /*start_after=*/5 * kMillisecond,
                                                     /*duration=*/60 * kSecond));
  });
  expect_invariant(o);
  EXPECT_FALSE(o.completed);
  EXPECT_EQ(o.client_error, "handshake deadline exceeded");
}

TEST(Chaos, BlackholeKillsBothEndpointsExplicitly) {
  // The path silently dies after N packets: retransmission exhaustion (with
  // bounded backoff) plus deadlines must terminate both ends — the "mbox
  // host dies" failure from the network's point of view.
  // n=5: the link dies mid-handshake — completion is impossible, so both
  // endpoints must reach an explicit error (deadline or transport death).
  const Outcome died_early = run_chaos(14, [](ChaosRig& rig) {
    rig.network.add_tap(rig.nm, rig.ns, ChaosTap::blackhole_after(5));
  });
  expect_invariant(died_early);
  EXPECT_FALSE(died_early.completed);
  EXPECT_FALSE(died_early.client_error.empty());
  EXPECT_FALSE(died_early.server_error.empty());

  // Larger budgets die somewhere between mid-handshake and after-the-data
  // (TCP bursts segments, so the blob can beat the blackhole); wherever the
  // cut lands, the dichotomy must hold.
  for (std::size_t n : {20u, 30u}) {
    const Outcome o = run_chaos(9 + n, [&](ChaosRig& rig) {
      rig.network.add_tap(rig.nm, rig.ns, ChaosTap::blackhole_after(n));
    });
    expect_invariant(o);
  }
}

TEST(Chaos, ComposedTapsStillSatisfyInvariant) {
  // Taps compose in install order; a link that corrupts AND duplicates AND
  // reorders is still within the contract.
  for (std::uint64_t seed : {1u, 5u}) {
    const Outcome o = run_chaos(seed, [&](ChaosRig& rig) {
      rig.network.add_tap(rig.nc, rig.nm,
                          ChaosTap::corrupt_byte(crypto::Drbg("combo-corrupt", seed), 0.02));
      rig.network.add_tap(rig.nc, rig.nm,
                          ChaosTap::duplicate(rig.network, rig.nc, rig.nm,
                                              crypto::Drbg("combo-dup", seed), 0.2));
      rig.network.add_tap(rig.nm, rig.ns,
                          ChaosTap::reorder_within_window(rig.network, rig.nm, rig.ns,
                                                          crypto::Drbg("combo-reorder", seed),
                                                          /*window=*/3));
    });
    expect_invariant(o);
  }
}

// ------------------------------------------------------------ determinism

TEST(Chaos, SameSeedSameOutcome) {
  auto scenario = [](ChaosRig& rig) {
    rig.network.add_tap(rig.nc, rig.nm,
                        ChaosTap::corrupt_byte(crypto::Drbg("chaos-repro", 42), 0.08));
    rig.network.add_tap(rig.nm, rig.ns,
                        ChaosTap::duplicate(rig.network, rig.nm, rig.ns,
                                            crypto::Drbg("chaos-repro-dup", 42), 0.2));
  };
  const Outcome first = run_chaos(42, scenario);
  const Outcome second = run_chaos(42, scenario);
  expect_invariant(first);
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
}

TEST(Chaos, SameSeedSameTraceByteForByte) {
  // The determinism invariant, strengthened to the full trace: the same DRBG
  // seed and the same chaos taps reproduce the identical event sequence with
  // identical virtual timestamps — every net segment, every TLS flight,
  // every mbtls session event. Asserted on the exported bytes, so exporter
  // order is pinned too.
  auto scenario = [](ChaosRig& rig) {
    // Corruption rate high enough that the tap reliably mutates at least one
    // packet (the assertion below wants a genuinely hostile trace); whether
    // the transfer then completes or fails gracefully, both runs must agree.
    rig.network.add_tap(rig.nc, rig.nm,
                        ChaosTap::corrupt_byte(crypto::Drbg("chaos-trace", 42), 0.25));
    rig.network.add_tap(rig.nm, rig.ns,
                        ChaosTap::duplicate(rig.network, rig.nm, rig.ns,
                                            crypto::Drbg("chaos-trace-dup", 42), 0.15));
  };
  trace::Recorder first, second;
  const Outcome o1 = run_chaos(42, scenario, kHandshakeDeadline, &first);
  const Outcome o2 = run_chaos(42, scenario, kHandshakeDeadline, &second);
  expect_invariant(o1);
  EXPECT_EQ(o1.fingerprint(), o2.fingerprint());
  ASSERT_FALSE(first.events().empty());
  EXPECT_EQ(first.events().size(), second.events().size());
  EXPECT_EQ(first.chrome_trace_json(), second.chrome_trace_json());
  EXPECT_EQ(first.counter_dump(), second.counter_dump());
  // The taps really fired into the trace (the runs were genuinely hostile).
  EXPECT_GT(summarize(first.events()).taps_fired, 0u);
}

// ----------------------------------------------------- targeted scenarios

TEST(Chaos, ExpiredHandshakeEmitsFatalAlert) {
  // Unit-level check of the deadline hook itself, for both endpoint roles:
  // the session must emit a well-formed fatal handshake_failure alert when
  // its deadline fires.
  static const auto server_id = make_identity("expired.example");
  ClientSession::Options copts;
  copts.tls.trust_anchors = {test_ca().root()};
  copts.tls.server_name = "expired.example";
  ClientSession client(std::move(copts));
  ServerSession::Options sopts;
  sopts.tls.private_key = server_id.key;
  sopts.tls.certificate_chain = server_id.chain;
  ServerSession server(std::move(sopts));

  // Both sessions are mid-handshake: the client has sent its ClientHello and
  // the server has answered it; neither flight is delivered any further.
  client.start();
  server.feed(client.take_output());
  ASSERT_FALSE(server.take_output().empty());
  ASSERT_FALSE(server.failed()) << server.error_message();

  for (EndpointSession* session : std::initializer_list<EndpointSession*>{&client, &server}) {
    SCOPED_TRACE(session == &client ? "client" : "server");
    ASSERT_TRUE(session->handshake_expired());
    const Bytes out = session->take_output();
    tls::RecordReader reader;
    reader.feed(out);
    const auto record = reader.next();
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->type, tls::ContentType::kAlert);
    const auto alert = parse_alert(record->payload);
    ASSERT_TRUE(alert.has_value());
    EXPECT_EQ(alert->level, tls::AlertLevel::kFatal);
    EXPECT_EQ(alert->description, tls::AlertDescription::kHandshakeFailure);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(session->failed());
    // Idempotent: a second expiry on a dead session is a no-op.
    EXPECT_FALSE(session->handshake_expired());
    EXPECT_TRUE(session->take_output().empty());
  }
}

TEST(Chaos, MiddleboxDiesMidSessionBothEndpointsTerminate) {
  ChaosRig rig(11);
  auto parties = wire_up(rig, 11);
  bool killed = false;
  std::function<void()> kill_when_established = [&] {
    if (parties->client.established() && parties->server.established()) {
      killed = true;
      // The middlebox process dies: both its TCP connections abort.
      if (parties->mbox_up) parties->mbox_up->reset();
      if (parties->mbox_down) parties->mbox_down->reset();
      return;
    }
    rig.sim.schedule(10 * kMillisecond, kill_when_established);
  };
  rig.sim.schedule(10 * kMillisecond, kill_when_established);

  EXPECT_EQ(rig.sim.run_until(kVirtualCap, 5'000'000), RunStatus::kDrained);
  ASSERT_TRUE(killed);
  EXPECT_TRUE(parties->client.failed());
  EXPECT_TRUE(parties->server.failed());
  EXPECT_NE(parties->client.error_message().find("transport closed"), std::string::npos);
  EXPECT_NE(parties->server.error_message().find("transport closed"), std::string::npos);
}

TEST(Chaos, StalledMiddleboxFallsBackToDirectTls) {
  // P5: the proxy accepts TCP but its application is wedged (never dials
  // upstream, never answers). The client's deadline fires, it abandons the
  // mbTLS attempt, and redials the origin with plain end-to-end TLS.
  ChaosRig rig(12);
  const auto server_id = make_identity("chaos.example");

  // Dead proxy: accept and sit on the bytes forever.
  rig.mbox_host->listen(443, [](Socket&) {});

  // Origin accepts any number of connections, one ServerSession each.
  struct Accepted {
    std::unique_ptr<ServerSession> session;
    std::unique_ptr<SocketBinding<ServerSession>> binding;
  };
  std::vector<Accepted> accepted;
  rig.server_host->listen(443, [&](Socket& socket) {
    ServerSession::Options sopts;
    sopts.tls.private_key = server_id.key;
    sopts.tls.certificate_chain = server_id.chain;
    sopts.tls.rng_seed = 77 + accepted.size();
    auto session = std::make_unique<ServerSession>(std::move(sopts));
    auto binding = std::make_unique<SocketBinding<ServerSession>>(*session, socket);
    accepted.push_back({std::move(session), std::move(binding)});
  });

  FallbackClient::Config config;
  config.proxy = {rig.nm, 443, ""};
  config.origin = {rig.ns, 443, ""};
  config.options.tls.trust_anchors = {test_ca().root()};
  config.options.tls.server_name = "chaos.example";
  config.options.tls.rng_seed = 13;
  config.options.handshake_timeout = 5 * kSecond;
  config.options.fallback_to_direct_tls = true;
  FallbackClient fallback(*rig.client_host, config);
  fallback.start();

  EXPECT_EQ(rig.sim.run_until(kVirtualCap, 5'000'000), RunStatus::kDrained);
  EXPECT_TRUE(fallback.fell_back());
  ASSERT_TRUE(fallback.session().established()) << fallback.session().error_message();
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_TRUE(accepted[0].session->established());
  // The fallback session is plain end-to-end TLS: no middleboxes joined.
  EXPECT_TRUE(fallback.session().middleboxes().empty());

  // Data still flows on the degraded path.
  fallback.session().send(to_bytes(std::string_view("degraded but alive")));
  fallback.flush();
  EXPECT_EQ(rig.sim.run(), RunStatus::kDrained);
  EXPECT_EQ(to_string(accepted[0].session->take_app_data()), "degraded but alive");
}

TEST(Chaos, TicketExchangeCorruptedMidRotation) {
  // Control-plane chaos: connection 1 populates a session ticket cleanly,
  // the fleet then rotates its ticket key (the cached ticket is now sealed
  // under the previous generation — the abbreviated flight must carry a
  // reissued NewSessionTicket), and connection 2 runs that exchange over
  // links that corrupt and truncate records. Whatever the taps hit — the
  // offered ticket, the reissued one, the Finished — the invariant holds:
  // byte-exact completion or explicit errors at both ends, in bounded
  // virtual time, bit-identical per seed.
  auto episode = [](std::uint64_t seed) {
    tls::TicketKeyManager keys("chaos-ticket-keys", seed);
    ShardedSessionCache client_cache({.shards = 2, .capacity_per_shard = 8});
    const OptionsHook customize = [&](ClientSession::Options& c,
                                      ServerSession::Options& s) {
      c.tls.session_cache = &client_cache;
      c.tls.offer_resumption = true;
      c.tls.enable_session_tickets = true;
      s.tls.enable_session_tickets = true;
      s.tls.ticket_keys = &keys;
    };

    const Outcome first = run_chaos(seed, [](ChaosRig&) {}, kHandshakeDeadline,
                                    nullptr, customize);
    expect_invariant(first);
    EXPECT_TRUE(first.completed);
    EXPECT_FALSE(first.resumed);
    EXPECT_GT(client_cache.size(), 0u);

    keys.rotate();  // mid-rotation: the held ticket is one generation old

    const Outcome second = run_chaos(
        seed,
        [seed](ChaosRig& rig) {
          rig.network.add_tap(
              rig.nc, rig.nm,
              ChaosTap::corrupt_byte(crypto::Drbg("chaos-rot-corrupt", seed), 0.03));
          rig.network.add_tap(
              rig.nm, rig.ns,
              ChaosTap::truncate(crypto::Drbg("chaos-rot-trunc", seed), 0.08));
        },
        kHandshakeDeadline, nullptr, customize);
    expect_invariant(second);
    return first.fingerprint() + "#" + second.fingerprint();
  };

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    // Same seed, same outcome, bit for bit — rotation included.
    EXPECT_EQ(episode(seed), episode(seed)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mbtls::mb
