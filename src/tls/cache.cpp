#include "tls/cache.h"

#include <algorithm>
#include <bit>

#include "crypto/sha2.h"
#include "sgx/attestation.h"

namespace mbtls::tls {

namespace {

/// FNV-1a over the key bytes. Keys are uniform random session IDs, peer-name
/// strings or SHA-256 digests; all spread fine without a keyed hash (no
/// adversarial flooding concern: session IDs are chosen by our own DRBG).
std::size_t fnv1a(ByteView key) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : key) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

// The shard skeleton every cache shares: `n` shards rounded up to a power of
// two, each carrying its own `mu`.
template <typename Shard>
using Shards = std::vector<std::unique_ptr<Shard>>;

template <typename Shard>
Shards<Shard> make_shards(std::size_t n) {
  Shards<Shard> shards(std::bit_ceil(n));  // bit_ceil(0) == 1
  for (auto& shard : shards) shard = std::make_unique<Shard>();
  return shards;
}

template <typename Shard>
Shard& pick(const Shards<Shard>& shards, ByteView key) {
  return *shards[fnv1a(key) & (shards.size() - 1)];
}

/// Runs `f` on every shard under that shard's lock.
template <typename Shard, typename F>
void for_each_locked(const Shards<Shard>& shards, F&& f) {
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lock(shard->mu);
    f(*shard);
  }
}

}  // namespace

CacheStats CacheCounters::snapshot() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
          stores_.load(std::memory_order_relaxed), evictions_.load(std::memory_order_relaxed)};
}

// -------------------------------------------------------------- SessionCache

SessionCache::SessionCache() : SessionCache(Options{}) {}

SessionCache::SessionCache(Options options)
    : shards_(make_shards<Shard>(options.shards)),
      capacity_per_shard_(std::max<std::size_t>(options.capacity_per_shard, 1)) {}

void SessionCache::store_into(Store& store, ByteView key, const SessionState& state) {
  const Bytes k = to_bytes(key);
  auto it = store.index.find(k);
  if (it != store.index.end()) {
    // Overwrite in place; the old SessionState's destructor wipes its
    // secrets during the assignment.
    it->second->state = state;
    store.lru.splice(store.lru.begin(), store.lru, it->second);
    return;
  }
  store.lru.push_front(Entry{k, state});
  store.index[k] = store.lru.begin();
  if (store.index.size() > capacity_per_shard_) {
    Entry& victim = store.lru.back();
    // ~SessionState wipes the master secret and mbTLS key material; the
    // ticket is an attacker-visible wire blob but scrub it anyway so an
    // evicted entry leaves nothing behind.
    secure_wipe(victim.state.ticket);
    store.index.erase(victim.key);
    store.lru.pop_back();
    counters_.evict();
  }
}

std::optional<SessionState> SessionCache::lookup_in(Store& store, ByteView key) const {
  auto it = store.index.find(to_bytes(key));
  if (it == store.index.end()) {
    counters_.miss();
    return std::nullopt;
  }
  store.lru.splice(store.lru.begin(), store.lru, it->second);
  counters_.hit();
  return it->second->state;
}

void SessionCache::store_by_id(const SessionState& state) {
  if (state.session_id.empty()) return;
  Shard& shard = pick(shards_, state.session_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  store_into(shard.by_id, state.session_id, state);
  counters_.store();
}

std::optional<SessionState> SessionCache::lookup_by_id(ByteView session_id) const {
  if (session_id.empty()) return std::nullopt;
  Shard& shard = pick(shards_, session_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return lookup_in(shard.by_id, session_id);
}

void SessionCache::store_by_peer(const std::string& peer, const SessionState& state) {
  // The lookup key is the public peer name, not secret material. (A named
  // Bytes local, not a view: to_bytes of a string_view returns a temporary.)
  const Bytes peer_bytes = to_bytes(std::string_view(peer));
  Shard& shard = pick(shards_, peer_bytes);
  std::lock_guard<std::mutex> lock(shard.mu);
  store_into(shard.by_peer, peer_bytes, state);
  counters_.store();
}

std::optional<SessionState> SessionCache::lookup_by_peer(const std::string& peer) const {
  const Bytes peer_bytes = to_bytes(std::string_view(peer));
  Shard& shard = pick(shards_, peer_bytes);
  std::lock_guard<std::mutex> lock(shard.mu);
  return lookup_in(shard.by_peer, peer_bytes);
}

void SessionCache::clear() {
  // list/map destruction runs ~SessionState on every entry, wiping keys.
  for_each_locked(shards_, [](Shard& shard) {
    for (Store* store : {&shard.by_id, &shard.by_peer}) {
      store->index.clear();
      store->lru.clear();
    }
  });
}

std::size_t SessionCache::size() const {
  std::size_t total = 0;
  for_each_locked(shards_, [&](const Shard& shard) {
    total += shard.by_id.index.size() + shard.by_peer.index.size();
  });
  return total;
}

// ------------------------------------------------------------------ CertPool

CertPool::CertPool(std::size_t shards) : shards_(make_shards<Shard>(shards)) {}

std::shared_ptr<const x509::Certificate> CertPool::intern(ByteView der) {
  const Bytes digest = crypto::Sha256::digest(der);
  Shard& shard = pick(shards_, digest);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_digest.find(digest);
    if (it != shard.by_digest.end()) {
      interns_.hit();
      return it->second.cert;
    }
  }
  // Parse outside the lock: a miss costs a full DER parse + key decode, and
  // holding the shard lock across it would serialize every cold chain that
  // lands on this shard. A racing double-parse publishes once (first wins).
  auto parsed = std::make_shared<const x509::Certificate>(x509::Certificate::parse(der));
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.by_digest.emplace(digest, Entry{std::move(parsed), {}});
  inserted ? interns_.miss() : interns_.hit();
  return it->second.cert;
}

bool CertPool::verify_signature(const x509::Certificate& cert,
                                const x509::PublicKey& issuer_key) {
  const Bytes digest = crypto::Sha256::digest(cert.der());
  const Bytes issuer_spki = issuer_key.spki_der();
  const auto same_issuer = [&](const std::pair<Bytes, bool>& verdict) {
    return verdict.first == issuer_spki;
  };
  Shard& shard = pick(shards_, digest);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_digest.find(digest);
    if (it != shard.by_digest.end()) {
      const auto& verdicts = it->second.verdicts;
      const auto v = std::find_if(verdicts.begin(), verdicts.end(), same_issuer);
      if (v != verdicts.end()) {
        signatures_.hit();
        return v->second;
      }
    }
  }
  // The signature verification runs outside the lock, like intern()'s
  // parse; racing first checks of one pair both verify and agree.
  const bool valid = cert.verify_signature(issuer_key);
  signatures_.miss();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_digest.find(digest);
  if (it == shard.by_digest.end()) return valid;  // not pooled: nothing to remember
  auto& verdicts = it->second.verdicts;
  if (std::any_of(verdicts.begin(), verdicts.end(), same_issuer)) return valid;
  if (verdicts.size() == kVerdictsPerCert) verdicts.erase(verdicts.begin());
  verdicts.emplace_back(issuer_spki, valid);
  return valid;
}

std::size_t CertPool::size() const {
  std::size_t total = 0;
  for_each_locked(shards_, [&](const Shard& shard) { total += shard.by_digest.size(); });
  return total;
}

std::size_t CertPool::purge_unused() {
  std::size_t purged = 0;
  for_each_locked(shards_, [&](Shard& shard) {
    purged += std::erase_if(shard.by_digest,
                            [](const auto& kv) { return kv.second.cert.use_count() == 1; });
  });
  return purged;
}

void CertPool::clear() {
  for_each_locked(shards_, [](Shard& shard) { shard.by_digest.clear(); });
}

// ---------------------------------------------------------- QuoteVerifyCache

QuoteVerifyCache::QuoteVerifyCache(std::size_t shards) : shards_(make_shards<Shard>(shards)) {}

bool QuoteVerifyCache::verify(ByteView measurement, ByteView report_data,
                              ByteView signature) {
  // Entry key covers all three inputs (the verdict depends on all of them);
  // the shard is picked by measurement alone so one enclave build's quotes
  // stay shard-local.
  crypto::Sha256 h;
  h.update(measurement);
  h.update(report_data);
  h.update(signature);
  const Bytes digest = h.finish();
  Shard& shard = pick(shards_, crypto::Sha256::digest(measurement));
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.verdicts.find(digest);
    if (it != shard.verdicts.end()) {
      counters_.hit();
      return it->second;
    }
  }
  // ECDSA verification outside the lock (it dominates the cost).
  const bool ok = sgx::verify_quote(measurement, report_data, signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  counters_.miss();
  if (!shard.verdicts.emplace(digest, ok).second) return ok;
  shard.order.push_back(digest);
  if (shard.order.size() > kCapacityPerShard) {
    shard.verdicts.erase(shard.order.front());
    shard.order.pop_front();
    counters_.evict();
  }
  return ok;
}

std::size_t QuoteVerifyCache::size() const {
  std::size_t total = 0;
  for_each_locked(shards_, [&](const Shard& shard) { total += shard.verdicts.size(); });
  return total;
}

void QuoteVerifyCache::clear() {
  for_each_locked(shards_, [](Shard& shard) {
    shard.verdicts.clear();
    shard.order.clear();
  });
}

}  // namespace mbtls::tls
