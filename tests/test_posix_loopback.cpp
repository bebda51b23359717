// Flagship integration test for the posix backend: client, middlebox, and
// server run as three epoll loops on three threads, talking only through
// real TCP over 127.0.0.1 — the deployment shape the paper's middlebox
// occupies, with no simulator anywhere in the path.
//
// Thread discipline: each loop (and every session/binding living on it) is
// touched only by its own thread; the main thread wires listeners/dials
// before the threads start, communicates through atomics set inside loop
// callbacks, and inspects heavyweight state only after join().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "mbtls/transport.h"
#include "net/posix/epoll_loop.h"
#include "net/posix/loop_group.h"
#include "tests/tls_test_util.h"
#include "tls/cache.h"

namespace mbtls::mb {
namespace {

using namespace net;
using net::posix::EpollLoop;
using net::posix::LoopGroup;
using tls::testing::make_identity;
using tls::testing::test_ca;

void drive(EpollLoop& loop, const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) loop.poll_once(kMillisecond);
}

/// Chain an application-level poll after the binding's own data handler.
template <typename F>
void on_data_then(Stream& s, F poll) {
  s.on_data = [inner = std::move(s.on_data), poll](ByteView d) {
    if (inner) inner(d);
    poll();
  };
}

template <typename F>
void on_close_then(Stream& s, F then) {
  s.on_close = [inner = std::move(s.on_close), then] {
    if (inner) inner();
    then();
  };
}

bool await(const std::atomic<bool>& flag, int timeout_ms = 20'000) {
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    if (flag.load(std::memory_order_acquire)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return flag.load(std::memory_order_acquire);
}

TEST(PosixLoopback, FullMbtlsSessionAcrossThreeProcessesWorthOfLoops) {
  const auto server_id = make_identity("loop.example");
  const auto mbox_id = make_identity("loopproxy.example");
  crypto::Drbg rng("loopback-payload", 7);
  const Bytes request = rng.bytes(96 * 1024);   // multiple records, multiple segments
  const Bytes response = rng.bytes(64 * 1024);

  std::atomic<bool> stop{false};
  std::atomic<bool> client_teardown{false}, server_teardown{false};

  // --- server machine -------------------------------------------------------
  EpollLoop server_loop;
  ServerSession::Options sopts;
  sopts.tls.private_key = server_id.key;
  sopts.tls.certificate_chain = server_id.chain;
  sopts.tls.rng_seed = 901;
  ServerSession server(std::move(sopts));
  std::unique_ptr<SocketBinding<ServerSession>> server_binding;
  Bytes server_got;
  bool server_responded = false;
  const Port server_port = server_loop.listen_stream(0, [&](Stream& s) {
    server_binding = std::make_unique<SocketBinding<ServerSession>>(server, s);
    on_data_then(s, [&] {
      append(server_got, server.take_app_data());
      if (!server_responded && server.established() && server_got.size() >= request.size()) {
        server_responded = true;
        server.send(response);
        server_binding->flush();
      }
    });
    on_close_then(s, [&] { server_teardown.store(true, std::memory_order_release); });
  });

  // --- middlebox machine ----------------------------------------------------
  EpollLoop mbox_loop;
  Middlebox::Options mopts;
  mopts.name = "loopproxy.example";
  mopts.side = Middlebox::Side::kClientSide;
  mopts.private_key = mbox_id.key;
  mopts.certificate_chain = mbox_id.chain;
  Middlebox mbox(std::move(mopts));
  std::unique_ptr<MiddleboxBinding> mbox_binding;
  const Port mbox_port = mbox_loop.listen_stream(0, [&](Stream& down) {
    Stream& up = mbox_loop.dial({0, server_port, "127.0.0.1"});
    mbox_binding = std::make_unique<MiddleboxBinding>(mbox, down, up);
  });

  // --- client machine -------------------------------------------------------
  EpollLoop client_loop;
  ClientSession::Options copts;
  copts.tls.trust_anchors = {test_ca().root()};
  copts.tls.server_name = "loop.example";
  copts.tls.rng_seed = 900;
  ClientSession client(std::move(copts));
  Stream& client_stream = client_loop.dial({0, mbox_port, "127.0.0.1"});
  client_stream.on_connect = [&] { client.start(); };
  SocketBinding<ClientSession> client_binding(client, client_stream);
  Bytes client_got;
  bool client_sent = false, client_closed_session = false;
  on_data_then(client_stream, [&] {
    if (!client_sent && client.established()) {
      client_sent = true;
      client.send(request);
      client_binding.flush();
    }
    append(client_got, client.take_app_data());
    if (!client_closed_session && client_got.size() >= response.size()) {
      client_closed_session = true;
      client.close();  // close_notify toward the server (one-shot: kClosed)
      client_binding.flush();
      client_stream.close();  // FIN rides behind the alert; server FINs back
    }
  });
  on_close_then(client_stream, [&] { client_teardown.store(true, std::memory_order_release); });

  std::thread ts([&] { drive(server_loop, stop); });
  std::thread tm([&] { drive(mbox_loop, stop); });
  std::thread tc([&] { drive(client_loop, stop); });
  const bool finished = await(client_teardown) && await(server_teardown);
  stop.store(true, std::memory_order_relaxed);
  tc.join();
  tm.join();
  ts.join();

  ASSERT_TRUE(finished) << "teardown never completed; client: " << client.error_message()
                        << " server: " << server.error_message();
  // Full mbTLS handshake happened through the middlebox...
  EXPECT_TRUE(mbox.joined());
  EXPECT_FALSE(mbox.relay_mode());
  // ...payloads were byte-identical in both directions...
  EXPECT_EQ(server_got, request);
  EXPECT_EQ(client_got, response);
  // ...and the close_notify teardown was clean on every hop.
  EXPECT_EQ(client.status(), SessionStatus::kClosed);
  EXPECT_EQ(server.status(), SessionStatus::kClosed);
  EXPECT_FALSE(client.failed());
  EXPECT_FALSE(server.failed());
  EXPECT_TRUE(mbox.saw_close_notify_from_client());
  EXPECT_EQ(client_stream.error(), SocketError::kNone);
  EXPECT_EQ(client_loop.open_streams(), 0u);
}

TEST(PosixLoopback, LegacyClientDemotesMiddleboxToRelay) {
  // A plain-TLS client through the same three-loop topology: the middlebox
  // must demote itself to a transparent relay and the end-to-end handshake
  // and data must pass through byte-intact.
  const auto server_id = make_identity("legacyloop.example");
  const auto mbox_id = make_identity("loopproxy.example");
  constexpr std::string_view kPayload = "legacy through it";

  std::atomic<bool> stop{false};
  std::atomic<bool> client_done{false};

  EpollLoop server_loop;
  tls::Config scfg;
  scfg.is_client = false;
  scfg.private_key = server_id.key;
  scfg.certificate_chain = server_id.chain;
  tls::Engine server(scfg);
  std::unique_ptr<SocketBinding<tls::Engine>> server_binding;
  Bytes server_got;
  const Port server_port = server_loop.listen_stream(0, [&](Stream& s) {
    server_binding = std::make_unique<SocketBinding<tls::Engine>>(server, s);
    on_data_then(s, [&, stream = &s] {
      append(server_got, server.take_plaintext());
      if (server_got.size() >= kPayload.size()) stream->close();  // got it all: hang up
    });
  });

  EpollLoop mbox_loop;
  Middlebox::Options mopts;
  mopts.name = "loopproxy.example";
  mopts.side = Middlebox::Side::kClientSide;
  mopts.private_key = mbox_id.key;
  mopts.certificate_chain = mbox_id.chain;
  Middlebox mbox(std::move(mopts));
  std::unique_ptr<MiddleboxBinding> mbox_binding;
  const Port mbox_port = mbox_loop.listen_stream(0, [&](Stream& down) {
    Stream& up = mbox_loop.dial({0, server_port, "127.0.0.1"});
    mbox_binding = std::make_unique<MiddleboxBinding>(mbox, down, up);
  });

  EpollLoop client_loop;
  tls::Config ccfg;
  ccfg.is_client = true;
  ccfg.trust_anchors = {test_ca().root()};
  ccfg.server_name = "legacyloop.example";
  tls::Engine client(ccfg);
  Stream& client_stream = client_loop.dial({0, mbox_port, "127.0.0.1"});
  client_stream.on_connect = [&] { client.start(); };
  SocketBinding<tls::Engine> client_binding(client, client_stream);
  bool sent = false;
  on_data_then(client_stream, [&] {
    if (!sent && client.handshake_done()) {
      sent = true;
      client.send(to_bytes(kPayload));
      client_binding.flush();
    }
  });
  on_close_then(client_stream, [&] { client_done.store(true, std::memory_order_release); });

  std::thread ts([&] { drive(server_loop, stop); });
  std::thread tm([&] { drive(mbox_loop, stop); });
  std::thread tc([&] { drive(client_loop, stop); });
  const bool finished = await(client_done);
  stop.store(true, std::memory_order_relaxed);
  tc.join();
  tm.join();
  ts.join();

  ASSERT_TRUE(finished) << client.error_message();
  EXPECT_TRUE(client.handshake_done());
  EXPECT_TRUE(mbox.relay_mode());
  EXPECT_TRUE(mbox.observed_legacy_peer());
  EXPECT_EQ(to_string(server_got), kPayload);
}

TEST(PosixLoopback, ConcurrentSessionsThroughOneMiddlebox) {
  // Several independent mbTLS sessions multiplexed through one middlebox
  // loop — the C10K shape at unit-test scale.
  constexpr int kSessions = 6;
  const auto server_id = make_identity("many.example");
  const auto mbox_id = make_identity("loopproxy.example");

  std::atomic<bool> stop{false};
  std::atomic<int> clients_done{0};

  struct ServerSide {
    std::unique_ptr<ServerSession> session;
    std::unique_ptr<SocketBinding<ServerSession>> binding;
    Bytes got;
  };
  EpollLoop server_loop;
  std::vector<std::unique_ptr<ServerSide>> accepted;
  const Port server_port = server_loop.listen_stream(0, [&](Stream& s) {
    auto side = std::make_unique<ServerSide>();
    ServerSession::Options sopts;
    sopts.tls.private_key = server_id.key;
    sopts.tls.certificate_chain = server_id.chain;
    sopts.tls.rng_seed = 1000 + accepted.size();
    side->session = std::make_unique<ServerSession>(std::move(sopts));
    side->binding = std::make_unique<SocketBinding<ServerSession>>(*side->session, s);
    ServerSide* raw = side.get();
    on_data_then(s, [raw, stream = &s] {
      append(raw->got, raw->session->take_app_data());
      if (raw->got.size() >= 11 && raw->session->established()) {
        raw->session->close();  // close_notify, then FIN right behind it
        raw->binding->flush();
        stream->close();
      }
    });
    accepted.push_back(std::move(side));
  });

  struct MbSide {
    std::unique_ptr<Middlebox> mbox;
    std::unique_ptr<MiddleboxBinding> binding;
  };
  EpollLoop mbox_loop;
  std::vector<std::unique_ptr<MbSide>> spliced;
  const Port mbox_port = mbox_loop.listen_stream(0, [&](Stream& down) {
    auto side = std::make_unique<MbSide>();
    Middlebox::Options mopts;
    mopts.name = "loopproxy.example";
    mopts.side = Middlebox::Side::kClientSide;
    mopts.private_key = mbox_id.key;
    mopts.certificate_chain = mbox_id.chain;
    side->mbox = std::make_unique<Middlebox>(std::move(mopts));
    Stream& up = mbox_loop.dial({0, server_port, "127.0.0.1"});
    side->binding = std::make_unique<MiddleboxBinding>(*side->mbox, down, up);
    spliced.push_back(std::move(side));
  });

  struct ClientSide {
    std::unique_ptr<ClientSession> session;
    std::unique_ptr<SocketBinding<ClientSession>> binding;
    Stream* stream = nullptr;
    bool sent = false;
  };
  EpollLoop client_loop;
  std::vector<std::unique_ptr<ClientSide>> clients;
  for (int i = 0; i < kSessions; ++i) {
    auto side = std::make_unique<ClientSide>();
    ClientSession::Options copts;
    copts.tls.trust_anchors = {test_ca().root()};
    copts.tls.server_name = "many.example";
    copts.tls.rng_seed = 2000 + i;
    side->session = std::make_unique<ClientSession>(std::move(copts));
    side->stream = &client_loop.dial({0, mbox_port, "127.0.0.1"});
    ClientSide* raw = side.get();
    side->stream->on_connect = [raw] { raw->session->start(); };
    side->binding = std::make_unique<SocketBinding<ClientSession>>(*side->session, *side->stream);
    on_data_then(*side->stream, [raw] {
      if (!raw->sent && raw->session->established()) {
        raw->sent = true;
        raw->session->send(to_bytes(std::string_view("hello world")));
        raw->binding->flush();
      }
    });
    on_close_then(*side->stream,
                  [&] { clients_done.fetch_add(1, std::memory_order_acq_rel); });
    clients.push_back(std::move(side));
  }

  std::thread ts([&] { drive(server_loop, stop); });
  std::thread tm([&] { drive(mbox_loop, stop); });
  std::thread tc([&] { drive(client_loop, stop); });
  bool finished = false;
  for (int waited = 0; waited < 60'000 && !finished; waited += 10) {
    finished = clients_done.load(std::memory_order_acquire) == kSessions;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  tc.join();
  tm.join();
  ts.join();

  ASSERT_TRUE(finished) << clients_done.load() << "/" << kSessions << " sessions finished";
  ASSERT_EQ(accepted.size(), static_cast<std::size_t>(kSessions));
  ASSERT_EQ(spliced.size(), static_cast<std::size_t>(kSessions));
  for (const auto& side : accepted) {
    EXPECT_EQ(side->session->status(), SessionStatus::kClosed)
        << side->session->error_message();
    EXPECT_EQ(to_string(side->got), "hello world");
  }
  for (const auto& side : spliced) EXPECT_TRUE(side->mbox->joined());
  for (const auto& side : clients) {
    EXPECT_EQ(side->session->status(), SessionStatus::kClosed)
        << side->session->error_message();
  }
}

// ---------------------------------------------------------------------------
// Multi-loop suite: the same three-tier topology, but every tier is a
// LoopGroup — 4 loops × 3 tiers = 12 event-loop threads, SO_REUSEPORT
// sharding accepts across the middlebox and server loops, outbound dials
// posted to their assigned loops. The loop-affinity invariant (a session's
// fds, sessions, bindings, and DRBGs never migrate off the loop that
// created them) is what makes this safe with zero locks on the data path;
// the only shared state is the mutex-striped session cache, exercised from
// all server loops at once.

struct GroupServerSide {
  std::unique_ptr<ServerSession> session;
  std::unique_ptr<SocketBinding<ServerSession>> binding;
  Bytes got;
  bool responded = false;
};
struct GroupMbSide {
  std::unique_ptr<Middlebox> mbox;
  std::unique_ptr<MiddleboxBinding> binding;
};
struct GroupClientSide {
  std::unique_ptr<ClientSession> session;
  std::unique_ptr<SocketBinding<ClientSession>> binding;
  Stream* stream = nullptr;
  Bytes got;
  bool sent = false;
  bool closed_session = false;
};

/// The three-tier LoopGroup rig shared by the multi-loop tests. Wires
/// listeners on construction; the caller assigns clients, starts the
/// groups, and posts the dial storm.
struct GroupRig {
  static constexpr std::size_t kLoops = 4;

  explicit GroupRig(const tls::testing::ServerIdentity& server_id,
                    const tls::testing::ServerIdentity& mbox_id, const Bytes& request,
                    const Bytes& response)
      : server_group({kLoops, LoopGroup::DialPolicy::kRoundRobin}),
        mbox_group({kLoops, LoopGroup::DialPolicy::kRoundRobin}),
        client_group({kLoops, LoopGroup::DialPolicy::kRoundRobin}),
        server_sides(kLoops),
        mb_sides(kLoops),
        clients(kLoops) {
    server_port = server_group.listen(0, [&, this](std::size_t li, Stream& s) {
      auto side = std::make_unique<GroupServerSide>();
      ServerSession::Options sopts;
      sopts.tls.private_key = server_id.key;
      sopts.tls.certificate_chain = server_id.chain;
      sopts.tls.rng_seed = 4000 + li * 1000 + server_sides[li].size();
      sopts.tls.session_cache = &session_cache;  // shared, mutex-striped
      side->session = std::make_unique<ServerSession>(std::move(sopts));
      side->binding = std::make_unique<SocketBinding<ServerSession>>(*side->session, s);
      GroupServerSide* raw = side.get();
      const Bytes* want = &request;
      const Bytes* reply = &response;
      on_data_then(s, [raw, want, reply] {
        append(raw->got, raw->session->take_app_data());
        if (!raw->responded && raw->session->established() &&
            raw->got.size() >= want->size()) {
          raw->responded = true;
          raw->session->send(*reply);
          raw->binding->flush();
        }
      });
      server_sides[li].push_back(std::move(side));
    });

    mbox_port = mbox_group.listen(0, [&, this](std::size_t li, Stream& down) {
      auto side = std::make_unique<GroupMbSide>();
      Middlebox::Options mopts;
      mopts.name = "grouploop.proxy";
      mopts.side = Middlebox::Side::kClientSide;
      mopts.private_key = mbox_id.key;
      mopts.certificate_chain = mbox_id.chain;
      mopts.session_cache = &session_cache;
      side->mbox = std::make_unique<Middlebox>(std::move(mopts));
      // Upstream dial happens on this same loop: loop affinity from birth.
      Stream& up = mbox_group.loop(li).dial({0, server_port, "127.0.0.1"});
      side->binding = std::make_unique<MiddleboxBinding>(*side->mbox, down, up);
      mb_sides[li].push_back(std::move(side));
    });
  }

  ~GroupRig() { stop(); }

  void stop() {
    client_group.stop();
    mbox_group.stop();
    server_group.stop();
  }

  tls::SessionCache session_cache;
  LoopGroup server_group, mbox_group, client_group;
  Port server_port = 0, mbox_port = 0;
  std::vector<std::vector<std::unique_ptr<GroupServerSide>>> server_sides;
  std::vector<std::vector<std::unique_ptr<GroupMbSide>>> mb_sides;
  std::vector<std::vector<std::unique_ptr<GroupClientSide>>> clients;
};

TEST(PosixLoopback, MultiLoopGroupShardsSessionsAcrossLoops) {
  constexpr int kSessions = 16;
  const auto server_id = make_identity("grouploop.example");
  const auto mbox_id = make_identity("grouploop.proxy");
  crypto::Drbg rng("grouploop-payload", 11);
  const Bytes request = rng.bytes(8 * 1024);
  const Bytes response = rng.bytes(4 * 1024);

  GroupRig rig(server_id, mbox_id, request, response);
  std::atomic<int> clients_done{0};

  // Assign sessions to client loops (round-robin) before any thread runs.
  for (int i = 0; i < kSessions; ++i) {
    auto side = std::make_unique<GroupClientSide>();
    ClientSession::Options copts;
    copts.tls.trust_anchors = {test_ca().root()};
    copts.tls.server_name = "grouploop.example";
    copts.tls.rng_seed = 5000 + i;
    side->session = std::make_unique<ClientSession>(std::move(copts));
    rig.clients[rig.client_group.pick_loop()].push_back(std::move(side));
  }

  rig.server_group.start();
  rig.mbox_group.start();
  rig.client_group.start();

  // Dial storm: each loop opens its own connections on its own thread.
  for (std::size_t li = 0; li < GroupRig::kLoops; ++li) {
    rig.client_group.post(li, [&, li] {
      for (auto& side : rig.clients[li]) {
        GroupClientSide* raw = side.get();
        raw->stream = &rig.client_group.loop(li).dial({0, rig.mbox_port, "127.0.0.1"});
        raw->stream->on_connect = [raw] { raw->session->start(); };
        raw->binding =
            std::make_unique<SocketBinding<ClientSession>>(*raw->session, *raw->stream);
        on_data_then(*raw->stream, [raw, &request, &response] {
          if (!raw->sent && raw->session->established()) {
            raw->sent = true;
            raw->session->send(request);
            raw->binding->flush();
          }
          append(raw->got, raw->session->take_app_data());
          if (!raw->closed_session && raw->got.size() >= response.size()) {
            raw->closed_session = true;
            raw->session->close();
            raw->binding->flush();
            raw->stream->close();
          }
        });
        on_close_then(*raw->stream,
                      [&clients_done] { clients_done.fetch_add(1, std::memory_order_acq_rel); });
      }
    });
  }

  bool finished = false;
  for (int waited = 0; waited < 60'000 && !finished; waited += 10) {
    finished = clients_done.load(std::memory_order_acquire) == kSessions;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  rig.stop();
  ASSERT_TRUE(finished) << clients_done.load() << "/" << kSessions << " sessions finished";

  // The kernel sharded the storm: every accept is accounted to exactly one
  // loop, the counters sum to the session count on both sharded tiers, and
  // the load did not collapse onto a single loop.
  const auto mbox_counts = rig.mbox_group.accept_counts();
  const auto server_counts = rig.server_group.accept_counts();
  std::uint64_t mbox_total = 0, server_total = 0;
  std::size_t mbox_loops_hit = 0;
  for (const auto c : mbox_counts) {
    mbox_total += c;
    if (c > 0) ++mbox_loops_hit;
  }
  for (const auto c : server_counts) server_total += c;
  EXPECT_EQ(mbox_total, static_cast<std::uint64_t>(kSessions));
  EXPECT_EQ(server_total, static_cast<std::uint64_t>(kSessions));
  EXPECT_GE(mbox_loops_hit, 2u) << "SO_REUSEPORT left every session on one loop";

  // Byte-identical transfers in both directions on every session, across
  // whatever loop each one landed on.
  std::size_t served = 0, mb_joined = 0;
  for (const auto& per_loop : rig.server_sides)
    for (const auto& side : per_loop) {
      ++served;
      EXPECT_EQ(side->got, request);
      EXPECT_EQ(side->session->status(), SessionStatus::kClosed)
          << side->session->error_message();
    }
  for (const auto& per_loop : rig.mb_sides)
    for (const auto& side : per_loop)
      if (side->mbox->joined()) ++mb_joined;
  EXPECT_EQ(served, static_cast<std::size_t>(kSessions));
  EXPECT_EQ(mb_joined, static_cast<std::size_t>(kSessions));
  for (const auto& per_loop : rig.clients)
    for (const auto& side : per_loop) {
      EXPECT_EQ(side->got, response);
      EXPECT_EQ(side->session->status(), SessionStatus::kClosed)
          << side->session->error_message();
    }
}

TEST(PosixLoopback, LoopGroupStopWithInFlightSessionsIsClean) {
  // stop() while handshakes and transfers are still in flight: the drain
  // budget gives loops a moment, then teardown must be orderly — threads
  // join, no callback fires into freed state (ASan/TSan cover the latter).
  constexpr int kSessions = 8;
  const auto server_id = make_identity("stoploop.example");
  const auto mbox_id = make_identity("grouploop.proxy");
  crypto::Drbg rng("stoploop-payload", 13);
  const Bytes request = rng.bytes(64 * 1024);
  const Bytes response = rng.bytes(64 * 1024);

  GroupRig rig(server_id, mbox_id, request, response);
  std::atomic<int> established{0};

  for (int i = 0; i < kSessions; ++i) {
    auto side = std::make_unique<GroupClientSide>();
    ClientSession::Options copts;
    copts.tls.trust_anchors = {test_ca().root()};
    copts.tls.server_name = "stoploop.example";
    copts.tls.rng_seed = 6000 + i;
    side->session = std::make_unique<ClientSession>(std::move(copts));
    rig.clients[rig.client_group.pick_loop()].push_back(std::move(side));
  }

  rig.server_group.start();
  rig.mbox_group.start();
  rig.client_group.start();
  for (std::size_t li = 0; li < GroupRig::kLoops; ++li) {
    rig.client_group.post(li, [&, li] {
      for (auto& side : rig.clients[li]) {
        GroupClientSide* raw = side.get();
        raw->stream = &rig.client_group.loop(li).dial({0, rig.mbox_port, "127.0.0.1"});
        raw->stream->on_connect = [raw] { raw->session->start(); };
        raw->binding =
            std::make_unique<SocketBinding<ClientSession>>(*raw->session, *raw->stream);
        on_data_then(*raw->stream, [raw, &request, &established] {
          if (!raw->sent && raw->session->established()) {
            raw->sent = true;
            established.fetch_add(1, std::memory_order_acq_rel);
            raw->session->send(request);  // big transfer we will interrupt
            raw->binding->flush();
          }
        });
      }
    });
  }

  // Wait only until the storm is mid-flight — some sessions established and
  // pushing data, others still handshaking — then pull the plug.
  for (int waited = 0; waited < 20'000; waited += 5) {
    if (established.load(std::memory_order_acquire) >= kSessions / 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(established.load(std::memory_order_acquire), 1);
  rig.client_group.stop(50 * kMillisecond);  // graceful: bounded drain
  rig.mbox_group.stop(50 * kMillisecond);
  rig.server_group.stop(50 * kMillisecond);
  EXPECT_FALSE(rig.client_group.running());
  EXPECT_FALSE(rig.mbox_group.running());
  EXPECT_FALSE(rig.server_group.running());
  // In-flight state is still inspectable after the orderly stop.
  std::size_t streams_seen = 0;
  for (const auto& per_loop : rig.clients)
    for (const auto& side : per_loop)
      if (side->stream) ++streams_seen;
  EXPECT_EQ(streams_seen, static_cast<std::size_t>(kSessions));
}

}  // namespace
}  // namespace mbtls::mb
