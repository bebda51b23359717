// Backend conformance: the same mbTLS scenarios — full handshake with
// bidirectional data, close_notify teardown, handshake-deadline expiry, and
// legacy-client demotion to relay — run unchanged against both transport
// backends (discrete-event simulator and posix epoll loop over 127.0.0.1).
// Everything above the net::Transport seam is byte-identical code; only the
// rig differs, which is what keeps the seam honest.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "mbtls/transport.h"
#include "net/posix/epoll_loop.h"
#include "tests/tls_test_util.h"
#include "tls/cache.h"

namespace mbtls::mb {
namespace {

using namespace net;
using tls::testing::make_identity;
using tls::testing::test_ca;

// Each rig provides three Transports (client / middlebox / server machine),
// endpoint construction, and settle(): drive the backend until `done()`
// holds or the budget runs out, returning done()'s final value.

struct SimRig {
  Simulator sim;
  Network network{sim};
  NodeId nc, nm, ns;
  std::unique_ptr<Host> hc, hm, hs;

  SimRig() {
    nc = network.add_node("client");
    nm = network.add_node("mbox");
    ns = network.add_node("server");
    network.add_link(nc, nm, {.propagation = 2 * kMillisecond});
    network.add_link(nm, ns, {.propagation = kMillisecond});
    hc = std::make_unique<Host>(network, nc);
    hm = std::make_unique<Host>(network, nm);
    hs = std::make_unique<Host>(network, ns);
  }

  Transport& client() { return *hc; }
  Transport& mbox() { return *hm; }
  Transport& server() { return *hs; }
  Port listen_port(Port suggested) const { return suggested; }
  Endpoint mbox_endpoint(Port port) const { return {nm, port, ""}; }
  Endpoint server_endpoint(Port port) const { return {ns, port, ""}; }

  bool settle(const std::function<bool()>& done) {
    sim.run();
    return done();
  }
};

struct PosixRig {
  net::posix::EpollLoop lc, lm, ls;

  Transport& client() { return lc; }
  Transport& mbox() { return lm; }
  Transport& server() { return ls; }
  Port listen_port(Port) const { return 0; }  // kernel-chosen ephemeral
  Endpoint mbox_endpoint(Port port) const { return {0, port, "127.0.0.1"}; }
  Endpoint server_endpoint(Port port) const { return {0, port, "127.0.0.1"}; }

  bool settle(const std::function<bool()>& done) {
    // Single-threaded interleaving: one poll round per loop, re-checking the
    // predicate between rounds. ~1 ms of epoll_wait per idle loop per round
    // bounds the budget at a few wall-clock seconds.
    for (int round = 0; round < 2000; ++round) {
      if (done()) return true;
      lc.poll_once(kMillisecond);
      lm.poll_once(kMillisecond);
      ls.poll_once(kMillisecond);
    }
    return done();
  }
};

struct Parties {
  std::unique_ptr<ClientSession> client;
  std::unique_ptr<ServerSession> server;
  std::unique_ptr<Middlebox> mbox;
  std::unique_ptr<SocketBinding<ClientSession>> client_binding;
  std::unique_ptr<SocketBinding<ServerSession>> server_binding;
  std::unique_ptr<MiddleboxBinding> mbox_binding;
  Stream* client_stream = nullptr;
  Stream* server_stream = nullptr;
};

/// Resumption state that outlives one rig: the sharded control-plane caches
/// (the tentpole classes, driven here through the seam over both backends).
/// ID-based resumption keeps every party — middlebox included — on the
/// abbreviated path; the ticket/middlebox mixed mode is pinned separately
/// in test_mbtls_resumption.
struct ResumptionState {
  tls::SessionCache client_cache{{.shards = 2, .capacity_per_shard = 8}};
  tls::SessionCache server_cache{{.shards = 2, .capacity_per_shard = 8}};
  tls::SessionCache mbox_cache{{.shards = 2, .capacity_per_shard = 8}};
};

/// Client ↔ middlebox ↔ server across the rig's three transports, via the
/// seam API only (listen_stream/dial/Endpoint — no backend types).
template <typename Rig>
std::unique_ptr<Parties> wire(Rig& rig, std::uint64_t seed,
                              ResumptionState* resume = nullptr) {
  const auto server_id = make_identity("conf.example");
  const auto mbox_id = make_identity("confproxy.example");

  auto p = std::make_unique<Parties>();
  ClientSession::Options copts;
  copts.tls.trust_anchors = {test_ca().root()};
  copts.tls.server_name = "conf.example";
  copts.tls.rng_seed = seed;
  if (resume) {
    copts.tls.session_cache = &resume->client_cache;
    copts.tls.offer_resumption = true;
  }
  p->client = std::make_unique<ClientSession>(std::move(copts));
  ServerSession::Options sopts;
  sopts.tls.private_key = server_id.key;
  sopts.tls.certificate_chain = server_id.chain;
  sopts.tls.rng_seed = seed + 1;
  if (resume) sopts.tls.session_cache = &resume->server_cache;
  p->server = std::make_unique<ServerSession>(std::move(sopts));
  Middlebox::Options mopts;
  mopts.name = "confproxy.example";
  mopts.side = Middlebox::Side::kClientSide;
  mopts.private_key = mbox_id.key;
  mopts.certificate_chain = mbox_id.chain;
  if (resume) mopts.session_cache = &resume->mbox_cache;
  p->mbox = std::make_unique<Middlebox>(std::move(mopts));

  const Port sport = rig.server().listen_stream(rig.listen_port(443), [p = p.get()](Stream& s) {
    p->server_stream = &s;
    p->server_binding = std::make_unique<SocketBinding<ServerSession>>(*p->server, s);
  });
  const Port mport = rig.mbox().listen_stream(
      rig.listen_port(444), [p = p.get(), &rig, sport](Stream& down) {
        Stream& up = rig.mbox().dial(rig.server_endpoint(sport));
        p->mbox_binding = std::make_unique<MiddleboxBinding>(*p->mbox, down, up);
      });
  p->client_stream = &rig.client().dial(rig.mbox_endpoint(mport));
  p->client_stream->on_connect = [p = p.get()] { p->client->start(); };
  p->client_binding =
      std::make_unique<SocketBinding<ClientSession>>(*p->client, *p->client_stream);
  return p;
}

template <typename Rig>
class TransportConformance : public ::testing::Test {};

using Backends = ::testing::Types<SimRig, PosixRig>;

class BackendNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, SimRig> ? "Simulator" : "PosixEpoll";
  }
};

TYPED_TEST_SUITE(TransportConformance, Backends, BackendNames);

TYPED_TEST(TransportConformance, FullHandshakeAndBidirectionalData) {
  TypeParam rig;
  auto p = wire(rig, 500);
  ASSERT_TRUE(rig.settle([&] {
    return p->client->established() && p->server->established() && p->mbox->joined();
  })) << "client: " << p->client->error_message()
      << " server: " << p->server->error_message();

  // Byte-identical payloads both directions, larger than one TCP segment so
  // real-socket chunking is exercised.
  crypto::Drbg rng("conformance-data", 42);
  const Bytes up_blob = rng.bytes(64 * 1024);
  const Bytes down_blob = rng.bytes(48 * 1024);
  p->client->send(up_blob);
  p->client_binding->flush();
  Bytes server_got;
  ASSERT_TRUE(rig.settle([&] {
    append(server_got, p->server->take_app_data());
    return server_got.size() >= up_blob.size();
  }));
  EXPECT_EQ(server_got, up_blob);

  p->server->send(down_blob);
  p->server_binding->flush();
  Bytes client_got;
  ASSERT_TRUE(rig.settle([&] {
    append(client_got, p->client->take_app_data());
    return client_got.size() >= down_blob.size();
  }));
  EXPECT_EQ(client_got, down_blob);
}

TYPED_TEST(TransportConformance, FullThenResumedHandshake) {
  // Connection 1 on a fresh rig: full handshakes everywhere, the sharded
  // control-plane caches populate. Connection 2 on a second rig — new
  // sockets/ports, same caches — must come up abbreviated at every party
  // and still move data byte-exact.
  ResumptionState resume;
  {
    TypeParam rig;
    auto p = wire(rig, 800, &resume);
    ASSERT_TRUE(rig.settle([&] {
      return p->client->established() && p->server->established() && p->mbox->joined();
    })) << "client: " << p->client->error_message()
        << " server: " << p->server->error_message();
    EXPECT_FALSE(p->client->primary().resumed());
  }
  EXPECT_GT(resume.client_cache.size(), 0u);
  EXPECT_GT(resume.mbox_cache.size(), 0u);

  TypeParam rig;
  auto p = wire(rig, 810, &resume);
  ASSERT_TRUE(rig.settle([&] {
    return p->client->established() && p->server->established() && p->mbox->joined();
  })) << "client: " << p->client->error_message()
      << " server: " << p->server->error_message();
  EXPECT_TRUE(p->client->primary().resumed());
  EXPECT_TRUE(p->server->primary().resumed());
  EXPECT_TRUE(p->mbox->resumed());

  crypto::Drbg rng("conformance-resumed-data", 81);
  const Bytes blob = rng.bytes(32 * 1024);
  p->client->send(blob);
  p->client_binding->flush();
  Bytes got;
  ASSERT_TRUE(rig.settle([&] {
    append(got, p->server->take_app_data());
    return got.size() >= blob.size();
  }));
  EXPECT_EQ(got, blob);
}

TYPED_TEST(TransportConformance, CloseNotifyTeardown) {
  TypeParam rig;
  auto p = wire(rig, 600);
  ASSERT_TRUE(rig.settle([&] {
    return p->client->established() && p->server->established();
  })) << p->client->error_message();

  // close_notify is one-directional and one-shot: the closer emits the alert
  // and goes kClosed; the peer observes kClosed on feed with no
  // auto-response. The application then tears down TCP.
  p->client->close();
  p->client_binding->flush();
  ASSERT_TRUE(rig.settle([&] { return p->server->status() == SessionStatus::kClosed; }));
  EXPECT_EQ(p->client->status(), SessionStatus::kClosed);
  EXPECT_FALSE(p->client->failed());
  EXPECT_FALSE(p->server->failed());

  p->client_stream->close();
  ASSERT_TRUE(rig.settle([&] {
    return p->client_stream->closed() && p->server_stream != nullptr &&
           p->server_stream->closed();
  }));
  // Clean teardown end to end: no error on either stream, no failed session.
  EXPECT_EQ(p->client_stream->error(), SocketError::kNone);
  EXPECT_EQ(p->server_stream->error(), SocketError::kNone);
}

TYPED_TEST(TransportConformance, HandshakeDeadlineExpires) {
  // The middlebox machine accepts TCP and then sits on the bytes forever; the
  // client's deadline — armed through the seam's Scheduler, so virtual time
  // on the simulator and the timer wheel on the epoll loop — must fail the
  // session and tear the transport down on both backends.
  TypeParam rig;
  const Port mport = rig.mbox().listen_stream(rig.listen_port(444), [](Stream&) {});

  ClientSession::Options copts;
  copts.tls.trust_anchors = {test_ca().root()};
  copts.tls.server_name = "conf.example";
  copts.tls.rng_seed = 700;
  ClientSession client(std::move(copts));
  Stream& stream = rig.client().dial(rig.mbox_endpoint(mport));
  stream.on_connect = [&] { client.start(); };
  SocketBinding<ClientSession> binding(client, stream);
  binding.arm_handshake_deadline(rig.client().scheduler(), 100 * kMillisecond);

  ASSERT_TRUE(rig.settle([&] { return client.failed() && stream.closed(); }));
  EXPECT_FALSE(client.established());
  EXPECT_GE(rig.client().scheduler().now(), 100 * kMillisecond);
}

TYPED_TEST(TransportConformance, LegacyClientDemotesToRelay) {
  // A plain-TLS client that never announces mbTLS: the middlebox must detect
  // the legacy peer, demote itself to a transparent relay, and pass the
  // end-to-end handshake and data through byte-intact.
  TypeParam rig;
  const auto server_id = make_identity("legacyconf.example");
  const auto mbox_id = make_identity("confproxy.example");

  tls::Config ccfg;
  ccfg.is_client = true;
  ccfg.trust_anchors = {test_ca().root()};
  ccfg.server_name = "legacyconf.example";
  tls::Engine client(ccfg);
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = server_id.key;
  scfg.certificate_chain = server_id.chain;
  tls::Engine server(scfg);
  Middlebox::Options mopts;
  mopts.name = "confproxy.example";
  mopts.side = Middlebox::Side::kClientSide;
  mopts.private_key = mbox_id.key;
  mopts.certificate_chain = mbox_id.chain;
  Middlebox mbox(std::move(mopts));

  std::unique_ptr<SocketBinding<tls::Engine>> server_binding;
  std::unique_ptr<MiddleboxBinding> mbox_binding;
  const Port sport = rig.server().listen_stream(rig.listen_port(443), [&](Stream& s) {
    server_binding = std::make_unique<SocketBinding<tls::Engine>>(server, s);
  });
  const Port mport = rig.mbox().listen_stream(rig.listen_port(444), [&](Stream& down) {
    Stream& up = rig.mbox().dial(rig.server_endpoint(sport));
    mbox_binding = std::make_unique<MiddleboxBinding>(mbox, down, up);
  });
  Stream& client_stream = rig.client().dial(rig.mbox_endpoint(mport));
  client_stream.on_connect = [&] { client.start(); };
  SocketBinding<tls::Engine> client_binding(client, client_stream);

  ASSERT_TRUE(rig.settle([&] { return client.handshake_done() && server.handshake_done(); }))
      << client.error_message();
  EXPECT_TRUE(mbox.relay_mode());
  EXPECT_TRUE(mbox.observed_legacy_peer());

  client.send(to_bytes(std::string_view("legacy bytes through a demoted relay")));
  client_binding.flush();
  Bytes got;
  ASSERT_TRUE(rig.settle([&] {
    append(got, server.take_plaintext());
    return got.size() >= 36;
  }));
  EXPECT_EQ(to_string(got), "legacy bytes through a demoted relay");
}

}  // namespace
}  // namespace mbtls::mb
