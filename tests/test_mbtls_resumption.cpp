// mbTLS session resumption (§3.5): the primary handshake and every
// secondary handshake are replaced by abbreviated handshakes. Middleboxes
// key their cached secondary-session state by the *primary* session ID.
#include <gtest/gtest.h>

#include "tests/mbtls_test_util.h"

namespace mbtls::mb {
namespace {

using namespace testing;

struct ResumptionRig {
  tls::SessionCache client_cache, server_cache, mbox_cache;
  tls::testing::ServerIdentity server_id = make_identity("resume.example");
  tls::testing::ServerIdentity mbox_id = make_identity("mbox.resume.example");

  ClientSession::Options client_opts(std::uint64_t seed) {
    auto opts = client_options("resume.example", seed);
    opts.tls.session_cache = &client_cache;
    opts.tls.offer_resumption = true;
    return opts;
  }
  ServerSession::Options server_opts(std::uint64_t seed) {
    auto opts = server_options(server_id, seed);
    opts.tls.session_cache = &server_cache;
    return opts;
  }
  Middlebox::Options mbox_opts(Middlebox::Side side) {
    Middlebox::Options opts;
    opts.name = "mbox.resume.example";
    opts.side = side;
    opts.private_key = mbox_id.key;
    opts.certificate_chain = mbox_id.chain;
    opts.session_cache = &mbox_cache;
    return opts;
  }
};

TEST(MbtlsResumption, ClientSideMiddleboxResumes) {
  ResumptionRig rig;

  // Connection 1: full handshakes everywhere, caches populate.
  {
    ClientSession client(rig.client_opts(1));
    ServerSession server(rig.server_opts(2));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(mbox.joined());
    EXPECT_FALSE(client.primary().resumed());
    EXPECT_FALSE(mbox.resumed());
  }
  ASSERT_GT(rig.mbox_cache.size(), 0u);

  // Connection 2: primary and secondary handshakes are all abbreviated.
  {
    ClientSession client(rig.client_opts(11));
    ServerSession server(rig.server_opts(12));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(server.established()) << server.error_message();
    ASSERT_TRUE(mbox.joined());
    EXPECT_TRUE(client.primary().resumed());
    EXPECT_TRUE(server.primary().resumed());
    EXPECT_TRUE(mbox.resumed());

    // Fresh per-hop keys were distributed; data flows.
    client.send(to_bytes(std::string_view("resumed request")));
    chain.pump();
    EXPECT_EQ(to_string(server.take_app_data()), "resumed request");
    server.send(to_bytes(std::string_view("resumed response")));
    chain.pump();
    EXPECT_EQ(to_string(client.take_app_data()), "resumed response");
  }
}

TEST(MbtlsResumption, ServerSideMiddleboxResumes) {
  ResumptionRig rig;
  {
    ClientSession client(rig.client_opts(21));
    ServerSession server(rig.server_opts(22));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kServerSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(mbox.joined());
  }
  {
    ClientSession client(rig.client_opts(31));
    ServerSession server(rig.server_opts(32));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kServerSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(server.established()) << server.error_message();
    ASSERT_TRUE(mbox.joined());
    EXPECT_TRUE(client.primary().resumed());
    EXPECT_TRUE(mbox.resumed());

    client.send(to_bytes(std::string_view("hello again")));
    chain.pump();
    EXPECT_EQ(to_string(server.take_app_data()), "hello again");
  }
}

TEST(MbtlsResumption, AttestedMiddleboxNeedsNoFreshQuoteOnResumption) {
  // §3.5: "A new attestation is not required, because only the enclave
  // knows the key needed to decrypt the session ticket."
  ResumptionRig rig;
  sgx::Platform platform;
  sgx::Enclave& enclave = platform.launch("resumable-proxy-v1");

  auto client_opts = [&](std::uint64_t seed) {
    auto opts = rig.client_opts(seed);
    opts.require_middlebox_attestation = true;
    opts.expected_middlebox_measurement = sgx::measure("resumable-proxy-v1");
    // Resumed secondaries carry no fresh quote; possession of the cached
    // master secret (sealed in the enclave) is the continuity proof.
    opts.approve = [](const MiddleboxDescriptor&) { return true; };
    return opts;
  };
  auto mbox_opts = [&] {
    auto opts = rig.mbox_opts(Middlebox::Side::kClientSide);
    opts.enclave = &enclave;
    return opts;
  };

  {
    ClientSession client(client_opts(41));
    ServerSession server(rig.server_opts(42));
    Middlebox mbox(mbox_opts());
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    EXPECT_TRUE(client.middleboxes()[0].attested);
  }
  {
    ClientSession client(client_opts(51));
    ServerSession server(rig.server_opts(52));
    Middlebox mbox(mbox_opts());
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    EXPECT_TRUE(mbox.resumed());
    // No new quote was generated for the resumed handshake.
    EXPECT_FALSE(client.middleboxes()[0].attested);
  }
}

TEST(MbtlsResumption, UnknownSessionIdFallsBackToFullHandshake) {
  ResumptionRig rig;
  {
    ClientSession client(rig.client_opts(61));
    ServerSession server(rig.server_opts(62));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established());
  }
  // The middlebox lost its cache (e.g. a different instance serves the
  // retry); its sub-handshake falls back to a full handshake even though
  // the primary session resumes.
  rig.mbox_cache.clear();
  {
    ClientSession client(rig.client_opts(71));
    ServerSession server(rig.server_opts(72));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    EXPECT_TRUE(client.primary().resumed());
    EXPECT_FALSE(mbox.resumed());
    EXPECT_TRUE(mbox.joined());

    client.send(to_bytes(std::string_view("mixed-mode data")));
    chain.pump();
    EXPECT_EQ(to_string(server.take_app_data()), "mixed-mode data");
  }
}

TEST(MbtlsResumption, ResumptionIsCheaperEndToEnd) {
  // Sanity check on the performance claim: count bytes on the wire.
  ResumptionRig rig;
  auto run = [&](std::uint64_t seed) {
    ClientSession client(rig.client_opts(seed));
    ServerSession server(rig.server_opts(seed + 1));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    std::size_t wire_bytes = 0;
    client.start();
    for (int i = 0; i < 100; ++i) {
      bool moved = false;
      Bytes a = client.take_output();
      if (!a.empty()) {
        moved = true;
        wire_bytes += a.size();
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
        wire_bytes += c.size();
        mbox.feed_from_server(c);
      }
      Bytes d = mbox.take_to_client();
      if (!d.empty()) {
        moved = true;
        client.feed(d);
      }
      if (!moved) break;
    }
    EXPECT_TRUE(client.established());
    return wire_bytes;
  };
  const std::size_t full = run(81);
  const std::size_t resumed = run(91);
  EXPECT_LT(resumed, full / 2);  // no certificates, no key exchange
}

TEST(MbtlsResumption, EndpointTicketsCoexistWithMiddleboxes) {
  // The client and origin use RFC 5077 tickets end to end; the middlebox's
  // sub-handshake is keyed by session ID. On resumption the primary session
  // resumes by ticket (the echoed session ID is the client's random marker,
  // which the middlebox has never seen), so the middlebox falls back to a
  // full secondary handshake — a correct mixed-mode session.
  ResumptionRig rig;
  const Bytes ticket_key = crypto::Drbg("mb-ticket-key", 0).bytes(32);
  auto copts = [&](std::uint64_t seed) {
    auto o = rig.client_opts(seed);
    o.tls.enable_session_tickets = true;
    return o;
  };
  auto sopts = [&](std::uint64_t seed) {
    auto o = rig.server_opts(seed);
    o.tls.enable_session_tickets = true;
    o.tls.ticket_key = ticket_key;
    return o;
  };
  {
    ClientSession client(copts(201));
    ServerSession server(sopts(202));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(mbox.joined());
  }
  {
    ClientSession client(copts(211));
    ServerSession server(sopts(212));
    Middlebox mbox(rig.mbox_opts(Middlebox::Side::kClientSide));
    Chain chain{.client = &client, .middleboxes = {&mbox}, .server = &server};
    client.start();
    chain.pump();
    ASSERT_TRUE(client.established()) << client.error_message();
    ASSERT_TRUE(server.established()) << server.error_message();
    EXPECT_TRUE(client.primary().resumed());   // by ticket
    EXPECT_TRUE(mbox.joined());                // full secondary handshake
    EXPECT_FALSE(mbox.resumed());

    client.send(to_bytes(std::string_view("ticketed through middlebox")));
    chain.pump();
    EXPECT_EQ(to_string(server.take_app_data()), "ticketed through middlebox");
  }
}

}  // namespace
}  // namespace mbtls::mb
