// Million-user control plane (DESIGN.md "Control plane"): the sharded
// session cache, the deduplicating certificate pool, and the memoized
// attestation-quote verifier — unit semantics, engine integration, and a
// multi-thread hammer that drives every shard concurrently (the TSan stage
// of scripts/check.sh runs this file; the ASan stage exercises the
// wipe-on-evict path for use-after-free).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <thread>

#include "mbtls/transport.h"
#include "net/simulator.h"
#include "sgx/attestation.h"
#include "tests/tls_test_util.h"
#include "tls/cache.h"
#include "tls/ticket.h"
#include "x509/verify.h"

namespace mbtls::mb {
namespace {

using tls::CertPool;
using tls::QuoteVerifyCache;
using tls::testing::make_identity;
using tls::testing::pump;
using tls::testing::test_ca;

tls::SessionState state_with_id(std::uint8_t tag) {
  tls::SessionState s;
  s.session_id = Bytes(32, tag);
  s.master_secret = Bytes(48, static_cast<std::uint8_t>(tag ^ 0xff));
  return s;
}

// ------------------------------------------------- tls::SessionCache

TEST(ShardedSessionCache, StoreLookupByIdAndPeer) {
  tls::SessionCache cache({.shards = 4, .capacity_per_shard = 8});
  EXPECT_EQ(cache.shard_count(), 4u);

  const auto s1 = state_with_id(1);
  cache.store_by_id(s1);
  cache.store_by_peer("origin-a.example", s1);

  const auto by_id = cache.lookup_by_id(s1.session_id);
  ASSERT_TRUE(by_id.has_value());
  EXPECT_EQ(by_id->master_secret, s1.master_secret);
  const auto by_peer = cache.lookup_by_peer("origin-a.example");
  ASSERT_TRUE(by_peer.has_value());
  EXPECT_EQ(by_peer->master_secret, s1.master_secret);

  EXPECT_FALSE(cache.lookup_by_id(Bytes(32, 99)).has_value());
  EXPECT_FALSE(cache.lookup_by_peer("unknown.example").has_value());
  EXPECT_EQ(cache.size(), 2u);  // one per index

  const auto st = cache.stats();
  EXPECT_EQ(st.stores, 2u);
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_DOUBLE_EQ(st.hit_rate(), 0.5);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedSessionCache, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(tls::SessionCache({.shards = 5}).shard_count(), 8u);
  EXPECT_EQ(tls::SessionCache({.shards = 0}).shard_count(), 1u);
  EXPECT_EQ(tls::SessionCache({.shards = 16}).shard_count(), 16u);
}

TEST(ShardedSessionCache, LruEvictionInSingleShard) {
  // One shard of capacity two makes LRU order observable.
  tls::SessionCache cache({.shards = 1, .capacity_per_shard = 2});
  const auto a = state_with_id(1), b = state_with_id(2), c = state_with_id(3);
  cache.store_by_id(a);
  cache.store_by_id(b);
  // Touch a: it becomes most-recent, so inserting c evicts b.
  ASSERT_TRUE(cache.lookup_by_id(a.session_id).has_value());
  cache.store_by_id(c);
  EXPECT_TRUE(cache.lookup_by_id(a.session_id).has_value());
  EXPECT_FALSE(cache.lookup_by_id(b.session_id).has_value());
  EXPECT_TRUE(cache.lookup_by_id(c.session_id).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedSessionCache, OverwriteInPlaceDoesNotGrowOrEvict) {
  tls::SessionCache cache({.shards = 1, .capacity_per_shard = 2});
  auto a = state_with_id(1);
  cache.store_by_id(a);
  a.master_secret = Bytes(48, 0xab);
  cache.store_by_id(a);  // same session ID: replace, not insert
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  const auto got = cache.lookup_by_id(a.session_id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->master_secret, Bytes(48, 0xab));
}

TEST(ShardedSessionCache, EvictionChurnUnderTightCapacity) {
  // Push far more sessions than fit; every eviction runs the wiping
  // destructor path (the ASan job verifies no use-after-free in it) and
  // the cache never exceeds its configured bound.
  tls::SessionCache cache({.shards = 2, .capacity_per_shard = 4});
  crypto::Drbg rng("evict-churn", 0);
  for (int i = 0; i < 256; ++i) {
    tls::SessionState s;
    s.session_id = rng.bytes(32);
    s.master_secret = rng.bytes(48);
    cache.store_by_id(s);
    EXPECT_LE(cache.size(), 2u * 4u);
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.stores, 256u);
  EXPECT_GE(st.evictions, 256u - 8u);
}

TEST(ShardedSessionCache, EngineResumesThroughPolymorphicCache) {
  // The engine resumes through a many-shard server cache and the default
  // client cache alike.
  const auto id = make_identity("ctrl.example");
  tls::SessionCache server_cache({.shards = 8, .capacity_per_shard = 64});
  tls::SessionCache client_cache;

  auto connect = [&](std::uint64_t seed) {
    tls::Config ccfg;
    ccfg.is_client = true;
    ccfg.trust_anchors = {test_ca().root()};
    ccfg.server_name = "ctrl.example";
    ccfg.session_cache = &client_cache;
    ccfg.offer_resumption = true;
    ccfg.rng_seed = seed;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = id.key;
    scfg.certificate_chain = id.chain;
    scfg.session_cache = &server_cache;
    scfg.rng_seed = seed + 1;
    tls::Engine client(ccfg);
    tls::Engine server(scfg);
    client.start();
    pump(client, server);
    EXPECT_TRUE(client.handshake_done()) << client.error_message();
    return client.handshake_done() && client.resumed();
  };

  EXPECT_FALSE(connect(1));
  EXPECT_GT(server_cache.size(), 0u);
  EXPECT_TRUE(connect(11));
  EXPECT_GE(server_cache.stats().hits, 1u);
}

// ---------------------------------------------------------------- CertPool

TEST(CertPool, InternDeduplicatesByDer) {
  CertPool pool(4);
  const auto id_a = make_identity("pool-a.example");
  const auto id_b = make_identity("pool-b.example");
  const Bytes der_a = to_bytes(id_a.chain[0].der());
  const Bytes der_b = to_bytes(id_b.chain[0].der());

  const auto first = pool.intern(der_a);
  const auto again = pool.intern(der_a);
  EXPECT_EQ(first.get(), again.get());  // the same parse, refcounted
  EXPECT_EQ(pool.size(), 1u);

  const auto other = pool.intern(der_b);
  EXPECT_NE(first.get(), other.get());
  EXPECT_EQ(pool.size(), 2u);

  const auto st = pool.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(first->info().subject_cn, "pool-a.example");
}

TEST(CertPool, PurgeUnusedDropsOnlyUnreferencedEntries) {
  CertPool pool(2);
  const auto id_a = make_identity("purge-a.example");
  const auto id_b = make_identity("purge-b.example");
  auto held = pool.intern(id_a.chain[0].der());
  pool.intern(id_b.chain[0].der());  // returned pointer dropped immediately
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.purge_unused(), 1u);  // only the unreferenced one dies
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(held->info().subject_cn, "purge-a.example");
  held.reset();
  EXPECT_EQ(pool.purge_unused(), 1u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(CertPool, GarbageDerThrowsLikeParse) {
  CertPool pool(1);
  EXPECT_THROW(pool.intern(Bytes{0xde, 0xad, 0xbe, 0xef}), DecodeError);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(CertPool, EngineHandshakesShareOneParse) {
  // Two sequential full handshakes against the same origin: the second
  // server Certificate message hits the pool instead of re-parsing.
  const auto id = make_identity("share.example");
  CertPool pool(4);

  auto connect = [&](std::uint64_t seed) {
    tls::Config ccfg;
    ccfg.is_client = true;
    ccfg.trust_anchors = {test_ca().root()};
    ccfg.server_name = "share.example";
    ccfg.cert_pool = &pool;
    ccfg.rng_seed = seed;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = id.key;
    scfg.certificate_chain = id.chain;
    scfg.rng_seed = seed + 1;
    tls::Engine client(ccfg);
    tls::Engine server(scfg);
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done()) << client.error_message();
  };

  connect(21);
  connect(31);
  EXPECT_EQ(pool.size(), 1u);  // one distinct certificate in the fleet
  const auto st = pool.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_GE(st.hits, 1u);
}

// ------------------------------------------------- CertPool signature memo

namespace {

x509::VerifyOptions verify_at(std::int64_t now, std::string hostname) {
  x509::VerifyOptions o;
  o.now = now;
  o.hostname = std::move(hostname);
  return o;
}

/// verify_chain over pooled certificates with the pool's memo attached.
x509::VerifyStatus verify_pooled(CertPool& pool,
                                 const std::vector<std::shared_ptr<const x509::Certificate>>& chain,
                                 std::span<const x509::Certificate> anchors,
                                 const x509::VerifyOptions& opts) {
  std::vector<const x509::Certificate*> ptrs;
  for (const auto& c : chain) ptrs.push_back(c.get());
  return x509::verify_chain(ptrs, anchors, opts,
                            [&pool](const x509::Certificate& cert, const x509::PublicKey& key) {
                              return pool.verify_signature(cert, key);
                            });
}

}  // namespace

TEST(CertPoolMemo, SecondVerifyOfPooledChainMakesNoSignatureCheck) {
  CertPool pool(4);
  const auto id = make_identity("memo.example");
  const std::vector<x509::Certificate> anchors = {test_ca().root()};
  const auto opts = verify_at(1500000000, "memo.example");
  const std::vector<std::shared_ptr<const x509::Certificate>> chain = {
      pool.intern(id.chain[0].der())};

  EXPECT_EQ(verify_pooled(pool, chain, anchors, opts), x509::VerifyStatus::kOk);
  EXPECT_EQ(pool.signature_stats().misses, 1u);  // the one real verification
  EXPECT_EQ(pool.signature_stats().hits, 0u);
  // A later handshake re-interns the same DER and verifies again: memo hit.
  const std::vector<std::shared_ptr<const x509::Certificate>> again = {
      pool.intern(id.chain[0].der())};
  EXPECT_EQ(verify_pooled(pool, again, anchors, opts), x509::VerifyStatus::kOk);
  EXPECT_EQ(pool.signature_stats().misses, 1u);
  EXPECT_EQ(pool.signature_stats().hits, 1u);
  // The memo is not the intern counter: cert_pool hit rate is unchanged.
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
  // Without the hook, the same pointers are verified for real.
  std::vector<const x509::Certificate*> ptrs = {again[0].get()};
  EXPECT_EQ(x509::verify_chain(ptrs, anchors, opts), x509::VerifyStatus::kOk);
  EXPECT_EQ(pool.signature_stats().misses, 1u);
}

TEST(CertPoolMemo, SameNameAnchorWithAnotherKeyStillFails) {
  // A memoized "valid" verdict belongs to the real CA key: an anchor with
  // the same CN and a different key is verified afresh and rejected.
  CertPool pool(4);
  const auto id = make_identity("rogue-anchor.example");
  const auto opts = verify_at(1500000000, "rogue-anchor.example");
  const std::vector<std::shared_ptr<const x509::Certificate>> chain = {
      pool.intern(id.chain[0].der())};
  const std::vector<x509::Certificate> real = {test_ca().root()};
  EXPECT_EQ(verify_pooled(pool, chain, real, opts), x509::VerifyStatus::kOk);
  EXPECT_EQ(verify_pooled(pool, chain, real, opts), x509::VerifyStatus::kOk);  // memo hit

  crypto::Drbg rng("rogue-anchor", 1);
  const auto rogue_ca = x509::CertificateAuthority::create(test_ca().name(),
                                                           x509::KeyType::kEcdsaP256, rng);
  ASSERT_EQ(rogue_ca.root().info().subject_cn, test_ca().root().info().subject_cn);
  const std::vector<x509::Certificate> rogue = {rogue_ca.root()};
  const auto misses = pool.signature_stats().misses;
  EXPECT_EQ(verify_pooled(pool, chain, rogue, opts), x509::VerifyStatus::kBadSignature);
  EXPECT_EQ(pool.signature_stats().misses, misses + 1);  // a real check under the rogue key
  EXPECT_EQ(verify_pooled(pool, chain, rogue, opts), x509::VerifyStatus::kBadSignature);
  EXPECT_EQ(verify_pooled(pool, chain, real, opts), x509::VerifyStatus::kOk);
}

TEST(CertPoolMemo, PerHandshakeChecksStillRunAfterAMemoHit) {
  // Only the signature is memoized: dates and hostname are checked on
  // every verification.
  CertPool pool(4);
  const auto id = make_identity("dated.example");
  const std::vector<x509::Certificate> anchors = {test_ca().root()};
  const std::vector<std::shared_ptr<const x509::Certificate>> chain = {
      pool.intern(id.chain[0].der())};
  EXPECT_EQ(verify_pooled(pool, chain, anchors, verify_at(1500000000, "dated.example")),
            x509::VerifyStatus::kOk);
  EXPECT_EQ(verify_pooled(pool, chain, anchors, verify_at(1500000000, "dated.example")),
            x509::VerifyStatus::kOk);
  ASSERT_EQ(pool.signature_stats().hits, 1u);
  const std::int64_t after_expiry = chain[0]->info().not_after + 1;
  EXPECT_EQ(verify_pooled(pool, chain, anchors, verify_at(after_expiry, "dated.example")),
            x509::VerifyStatus::kExpired);
  EXPECT_EQ(verify_pooled(pool, chain, anchors, verify_at(1500000000, "other.example")),
            x509::VerifyStatus::kHostnameMismatch);
}

TEST(CertPoolMemo, EngineHandshakesVerifyTheLeafOnce) {
  // Two full handshakes against one origin through a pooled client: the
  // leaf's signature under the CA key is verified in the first only.
  const auto id = make_identity("verify-once.example");
  CertPool pool(4);
  for (const std::uint64_t seed : {41u, 51u}) {
    tls::Config ccfg;
    ccfg.is_client = true;
    ccfg.trust_anchors = {test_ca().root()};
    ccfg.server_name = "verify-once.example";
    ccfg.cert_pool = &pool;
    ccfg.rng_seed = seed;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = id.key;
    scfg.certificate_chain = id.chain;
    scfg.rng_seed = seed + 1;
    tls::Engine client(ccfg);
    tls::Engine server(scfg);
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.handshake_done()) << client.error_message();
  }
  EXPECT_EQ(pool.signature_stats().misses, 1u);
  EXPECT_EQ(pool.signature_stats().hits, 1u);
}

// ------------------------------------------------------- QuoteVerifyCache

TEST(QuoteVerifyCache, MemoizesBothVerdicts) {
  QuoteVerifyCache cache(4);
  const Bytes meas = crypto::Drbg("quote-meas", 1).bytes(32);
  const Bytes report(64, 0x42);
  const Bytes sig = sgx::attestation_service_sign(meas, report);

  EXPECT_TRUE(cache.verify(meas, report, sig));   // miss: real ECDSA verify
  EXPECT_TRUE(cache.verify(meas, report, sig));   // hit
  EXPECT_TRUE(cache.verify(meas, report, sig));   // hit
  Bytes bad_sig = sig;
  bad_sig[8] ^= 1;
  EXPECT_FALSE(cache.verify(meas, report, bad_sig));  // miss, cached false
  EXPECT_FALSE(cache.verify(meas, report, bad_sig));  // hit, still false
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QuoteVerifyCache, DistinctReportDataAreDistinctEntries) {
  // The verdict depends on all three inputs: the same measurement with
  // different report data (e.g. a different channel binding) must not
  // share a cache entry.
  QuoteVerifyCache cache(2);
  const Bytes meas = crypto::Drbg("quote-meas2", 2).bytes(32);
  const Bytes r1(64, 1), r2(64, 2);
  EXPECT_TRUE(cache.verify(meas, r1, sgx::attestation_service_sign(meas, r1)));
  EXPECT_TRUE(cache.verify(meas, r2, sgx::attestation_service_sign(meas, r2)));
  // A signature over r1 presented with r2 is a replay and must fail even
  // though (meas, r1, sig) verified fine a moment ago.
  EXPECT_FALSE(cache.verify(meas, r2, sgx::attestation_service_sign(meas, r1)));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(QuoteVerifyCache, CapacityBoundsDistinctQuotes) {
  // Every full handshake's quote binds its own transcript, so verdicts that
  // can never hit again arrive forever: the cache must stay bounded.
  QuoteVerifyCache cache(1);  // one shard: kCapacityPerShard verdicts in all
  const std::size_t capacity = QuoteVerifyCache::kCapacityPerShard;
  const Bytes meas = crypto::Drbg("quote-cap", 4).bytes(32);
  const Bytes garbage_sig(64, 0);  // r = s = 0: rejected before any ECDSA work
  const std::size_t extra = 40;
  for (std::size_t i = 0; i < capacity + extra; ++i) {
    Bytes report(64, 0);
    store_be64(report.data(), i);
    EXPECT_FALSE(cache.verify(meas, report, garbage_sig));
    EXPECT_LE(cache.size(), capacity);
  }
  EXPECT_EQ(cache.size(), capacity);
  EXPECT_EQ(cache.stats().evictions, extra);
  // The newest verdict is still held; the oldest was evicted.
  Bytes newest(64, 0), oldest(64, 0);
  store_be64(newest.data(), capacity + extra - 1);
  const auto misses = cache.stats().misses;
  EXPECT_FALSE(cache.verify(meas, newest, garbage_sig));
  EXPECT_EQ(cache.stats().misses, misses);
  EXPECT_FALSE(cache.verify(meas, oldest, garbage_sig));
  EXPECT_EQ(cache.stats().misses, misses + 1);
}

TEST(QuoteVerifyCache, ForeignQuoteNeverReachesTheVerifier) {
  // The engine checks the measurement (and the transcript binding) before
  // the signature: a quote from the wrong enclave costs no verification
  // and leaves no verdict behind.
  sgx::Platform platform;
  sgx::Enclave& evil = platform.launch("foreign-code-v9");
  sgx::Enclave& good = platform.launch("expected-code-v1");
  const auto id = make_identity("foreign-quote.example");
  QuoteVerifyCache cache(4);
  const auto attest = [&](sgx::Enclave& enclave) {
    tls::Config ccfg;
    ccfg.is_client = true;
    ccfg.trust_anchors = {test_ca().root()};
    ccfg.server_name = "foreign-quote.example";
    ccfg.request_attestation = true;
    ccfg.expected_measurement = sgx::measure("expected-code-v1");
    ccfg.quote_verifier = &cache;
    tls::Config scfg;
    scfg.is_client = false;
    scfg.private_key = id.key;
    scfg.certificate_chain = id.chain;
    scfg.enclave = &enclave;
    tls::Engine client(ccfg);
    tls::Engine server(scfg);
    client.start();
    pump(client, server);
    return client.failed() ? std::optional(client.last_alert()) : std::nullopt;
  };
  EXPECT_EQ(attest(evil), tls::AlertDescription::kBadCertificate);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(attest(good), std::nullopt);
  EXPECT_EQ(cache.size(), 1u);
}

// ----------------------------------------------------- thread shard hammer

TEST(ControlPlaneConcurrency, ThreadsHammerEveryShard) {
  // Every worker slams all three caches plus the rotating ticket keys at
  // once while the main thread rotates mid-flight — the TSan preset build
  // of this test is the data-race proof for the control plane's locking.
  tls::SessionCache sessions({.shards = 8, .capacity_per_shard = 16});
  CertPool certs(8);
  QuoteVerifyCache quotes(8);
  tls::TicketKeyManager keys("hammer-keys", 0);

  // A small set of identities so workers collide on the same pool entries.
  std::vector<Bytes> ders;
  for (int i = 0; i < 4; ++i)
    ders.push_back(to_bytes(make_identity("hammer" + std::to_string(i) + ".example").chain[0].der()));
  const Bytes meas = crypto::Drbg("hammer-meas", 3).bytes(32);
  const Bytes report(64, 7);
  const Bytes sig = sgx::attestation_service_sign(meas, report);

  const int workers =
      std::max(2, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  constexpr int kJobs = 512;
  std::atomic<int> started{0};
  std::atomic<int> ok{0};
  const auto run_job = [&](int job) {
    crypto::Drbg rng("hammer-job", static_cast<std::uint64_t>(job));
    tls::SessionState s;
    s.session_id = rng.bytes(32);
    s.master_secret = rng.bytes(48);
    sessions.store_by_id(s);
    if (!sessions.lookup_by_id(s.session_id).has_value() && sessions.stats().evictions == 0) {
      return;  // only eviction may lose a fresh store
    }
    const auto cert = certs.intern(ders[static_cast<std::size_t>(job) % ders.size()]);
    if (!cert) return;
    if (!quotes.verify(meas, report, sig)) return;
    // Rotations race against this seal/unseal pair: one rotation in between
    // is the stale-but-valid case; a reject means two rotations landed
    // inside the window, so reseal under the new current key.
    bool ticket_ok = false;
    for (int attempt = 0; attempt < 5 && !ticket_ok; ++attempt) {
      const Bytes ticket = keys.seal(s.master_secret);
      const auto opened = keys.unseal(ticket);
      ticket_ok = opened.has_value() && opened->plaintext == s.master_secret;
    }
    if (!ticket_ok) return;
    ok.fetch_add(1, std::memory_order_relaxed);
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (int job = w; job < kJobs; job += workers) {
        started.fetch_add(1, std::memory_order_relaxed);
        run_job(job);
      }
    });
  }
  // One rotation per 128 jobs started races against the seal/unseal pairs.
  for (int r = 1; r <= kJobs / 128; ++r) {
    while (started.load(std::memory_order_relaxed) < r * 128) std::this_thread::yield();
    keys.rotate();
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kJobs);
  EXPECT_EQ(certs.size(), ders.size());
  EXPECT_GE(certs.stats().hits, static_cast<std::uint64_t>(kJobs) - ders.size());
  EXPECT_EQ(quotes.size(), 1u);
  EXPECT_LE(sessions.size(), 8u * 16u);
}

TEST(CertPoolMemoConcurrency, ThreadsVerifyOnePooledChain) {
  // Workers intern and verify one chain at once: the memo's verdict list is
  // read and written under the shard lock (the TSan stage of
  // scripts/check.sh runs this), and every verification succeeds.
  CertPool pool(2);
  const auto id = make_identity("hammer-memo.example");
  const Bytes der = to_bytes(id.chain[0].der());
  const std::vector<x509::Certificate> anchors = {test_ca().root()};
  const auto opts = verify_at(1500000000, "hammer-memo.example");
  const int workers =
      std::max(2, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  constexpr int kPerWorker = 64;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerWorker; ++i) {
        const std::vector<std::shared_ptr<const x509::Certificate>> chain = {pool.intern(der)};
        if (verify_pooled(pool, chain, anchors, opts) == x509::VerifyStatus::kOk)
          ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  const int total = workers * kPerWorker;
  EXPECT_EQ(ok.load(), total);
  const auto st = pool.signature_stats();
  EXPECT_EQ(st.hits + st.misses, static_cast<std::uint64_t>(total));
  EXPECT_GE(st.misses, 1u);  // racing first checks may each verify
  EXPECT_LE(st.misses, static_cast<std::uint64_t>(workers));
  EXPECT_EQ(pool.size(), 1u);
}

// ---------------------------------------------------------------------------
// TicketRotator: scheduler-driven rotation (ROADMAP "rotation driven by the
// timer wheel"). Virtual time on the simulator makes the two-generation
// acceptance window exactly checkable without wall-clock sleeps; on the
// posix backend the same rotator arms timer-wheel slots instead.

TEST(TicketRotator, PeriodicRotationAdvancesGenerationsOnVirtualTime) {
  net::Simulator sim;
  tls::TicketKeyManager keys("rotator-test", 1);
  TicketRotator rotator(sim, keys, 10 * net::kSecond);
  const Bytes gen0_ticket = keys.seal(to_bytes(std::string_view("state-gen0")));

  sim.run_until(15 * net::kSecond);  // first timer fired at t=10s
  EXPECT_EQ(rotator.rotations(), 1u);
  EXPECT_EQ(keys.generation(), 1u);
  // One rotation old: still accepted, but flagged stale so the server
  // reissues under the current key.
  const auto stale = keys.unseal(gen0_ticket);
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(stale->stale);
  EXPECT_EQ(to_string(stale->plaintext), "state-gen0");

  sim.run_until(25 * net::kSecond);  // second timer fired at t=20s
  EXPECT_EQ(rotator.rotations(), 2u);
  EXPECT_EQ(keys.generation(), 2u);
  // Two rotations old: outside the acceptance window, clean reject.
  EXPECT_FALSE(keys.unseal(gen0_ticket).has_value());
}

TEST(TicketRotator, ZeroIntervalArmsNothing) {
  net::Simulator sim;
  tls::TicketKeyManager keys("rotator-test", 2);
  TicketRotator rotator(sim, keys, 0);
  EXPECT_EQ(sim.run(), net::RunStatus::kDrained);
  EXPECT_EQ(keys.generation(), 0u);
  EXPECT_EQ(rotator.rotations(), 0u);
}

TEST(TicketRotator, DestroyedRotatorLeavesArmedTimerInert) {
  net::Simulator sim;
  tls::TicketKeyManager keys("rotator-test", 3);
  { TicketRotator rotator(sim, keys, net::kSecond); }  // armed, then destroyed
  // The weak liveness token expired: the timer fires as a no-op and the
  // queue drains instead of rearming forever.
  EXPECT_EQ(sim.run(), net::RunStatus::kDrained);
  EXPECT_EQ(keys.generation(), 0u);
}

}  // namespace
}  // namespace mbtls::mb
