#include "mbtls/cache.h"

#include <algorithm>

#include "crypto/sha2.h"
#include "sgx/attestation.h"

namespace mbtls::mb {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// FNV-1a over the key bytes. Keys are either uniform random session IDs or
/// peer-name strings; both spread fine without a keyed hash (no adversarial
/// flooding concern: session IDs are chosen by our own DRBG).
std::size_t fnv1a(ByteView key) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : key) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace

// ------------------------------------------------------- ShardedSessionCache

ShardedSessionCache::ShardedSessionCache() : ShardedSessionCache(Options{}) {}

ShardedSessionCache::ShardedSessionCache(Options options)
    : capacity_per_shard_(options.capacity_per_shard == 0 ? 1 : options.capacity_per_shard) {
  const std::size_t n = round_up_pow2(options.shards == 0 ? 1 : options.shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

ShardedSessionCache::~ShardedSessionCache() = default;  // ~SessionState wipes

ShardedSessionCache::Shard& ShardedSessionCache::shard_for(ByteView key) const {
  return *shards_[fnv1a(key) & (shards_.size() - 1)];
}

void ShardedSessionCache::store_into(Store& store, ByteView key,
                                     const tls::SessionState& state) {
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
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<tls::SessionState> ShardedSessionCache::lookup_in(Store& store,
                                                                ByteView key) const {
  auto it = store.index.find(to_bytes(key));
  if (it == store.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  store.lru.splice(store.lru.begin(), store.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->state;
}

void ShardedSessionCache::store_by_id(const tls::SessionState& state) {
  if (state.session_id.empty()) return;
  Shard& shard = shard_for(state.session_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  store_into(shard.by_id, state.session_id, state);
  stores_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<tls::SessionState> ShardedSessionCache::lookup_by_id(
    ByteView session_id) const {
  if (session_id.empty()) return std::nullopt;
  Shard& shard = shard_for(session_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return lookup_in(shard.by_id, session_id);
}

void ShardedSessionCache::store_by_peer(const std::string& peer,
                                        const tls::SessionState& state) {
  // The lookup key is the public peer name, not secret material. (A named
  // Bytes local, not a view: to_bytes of a string_view returns a temporary.)
  const Bytes peer_bytes = to_bytes(std::string_view(peer));
  Shard& shard = shard_for(peer_bytes);
  std::lock_guard<std::mutex> lock(shard.mu);
  store_into(shard.by_peer, peer_bytes, state);
  stores_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<tls::SessionState> ShardedSessionCache::lookup_by_peer(
    const std::string& peer) const {
  const Bytes peer_bytes = to_bytes(std::string_view(peer));
  Shard& shard = shard_for(peer_bytes);
  std::lock_guard<std::mutex> lock(shard.mu);
  return lookup_in(shard.by_peer, peer_bytes);
}

void ShardedSessionCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // list/map destruction runs ~SessionState on every entry, wiping keys.
    shard->by_id.index.clear();
    shard->by_id.lru.clear();
    shard->by_peer.index.clear();
    shard->by_peer.lru.clear();
  }
}

std::size_t ShardedSessionCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->by_id.index.size() + shard->by_peer.index.size();
  }
  return total;
}

std::vector<std::size_t> ShardedSessionCache::shard_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    sizes.push_back(shard->by_id.index.size());
  }
  return sizes;
}

CacheStats ShardedSessionCache::stats() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
          stores_.load(std::memory_order_relaxed),
          evictions_.load(std::memory_order_relaxed)};
}

// ------------------------------------------------------------------ CertPool

CertPool::CertPool(std::size_t shards) {
  const std::size_t n = round_up_pow2(shards == 0 ? 1 : shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

CertPool::Shard& CertPool::shard_for(ByteView digest) const {
  return *shards_[fnv1a(digest) & (shards_.size() - 1)];
}

std::shared_ptr<const x509::Certificate> CertPool::intern(ByteView der) {
  const Bytes digest = crypto::Sha256::digest(der);
  Shard& shard = shard_for(digest);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_digest.find(digest);
    if (it != shard.by_digest.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.cert;
    }
  }
  // Parse outside the lock: a miss costs a full DER parse + key decode, and
  // holding the shard lock across it would serialize every cold chain that
  // lands on this shard. A racing double-parse publishes once (first wins).
  auto parsed = std::make_shared<const x509::Certificate>(x509::Certificate::parse(der));
  std::lock_guard<std::mutex> lock(shard.mu);
  auto [it, inserted] = shard.by_digest.emplace(digest, Entry{std::move(parsed), {}});
  if (!inserted) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second.cert;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return it->second.cert;
}

bool CertPool::verify_signature(const x509::Certificate& cert,
                                const x509::PublicKey& issuer_key) {
  const Bytes digest = crypto::Sha256::digest(cert.der());
  const Bytes issuer_spki = issuer_key.spki_der();
  const auto same_issuer = [&](const std::pair<Bytes, bool>& verdict) {
    return verdict.first == issuer_spki;
  };
  Shard& shard = shard_for(digest);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_digest.find(digest);
    if (it != shard.by_digest.end()) {
      const auto& verdicts = it->second.verdicts;
      const auto v = std::find_if(verdicts.begin(), verdicts.end(), same_issuer);
      if (v != verdicts.end()) {
        sig_hits_.fetch_add(1, std::memory_order_relaxed);
        return v->second;
      }
    }
  }
  // The signature verification runs outside the lock, like intern()'s
  // parse; racing first checks of one pair both verify and agree.
  const bool valid = cert.verify_signature(issuer_key);
  sig_misses_.fetch_add(1, std::memory_order_relaxed);
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
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->by_digest.size();
  }
  return total;
}

std::size_t CertPool::purge_unused() {
  std::size_t purged = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->by_digest.begin(); it != shard->by_digest.end();) {
      if (it->second.cert.use_count() == 1) {
        it = shard->by_digest.erase(it);
        ++purged;
      } else {
        ++it;
      }
    }
  }
  return purged;
}

void CertPool::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->by_digest.clear();
  }
}

CacheStats CertPool::stats() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
          0, 0};
}

CacheStats CertPool::signature_stats() const {
  return {sig_hits_.load(std::memory_order_relaxed),
          sig_misses_.load(std::memory_order_relaxed), 0, 0};
}

// ---------------------------------------------------------- QuoteVerifyCache

QuoteVerifyCache::QuoteVerifyCache(std::size_t shards) {
  const std::size_t n = round_up_pow2(shards == 0 ? 1 : shards);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

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
  Shard& shard = *shards_[fnv1a(crypto::Sha256::digest(measurement)) & (shards_.size() - 1)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.verdicts.find(digest);
    if (it != shard.verdicts.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // ECDSA verification outside the lock (it dominates the cost).
  const bool ok = sgx::verify_quote(measurement, report_data, signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (!shard.verdicts.emplace(digest, ok).second) return ok;
  shard.order.push_back(digest);
  if (shard.order.size() > kCapacityPerShard) {
    shard.verdicts.erase(shard.order.front());
    shard.order.pop_front();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

std::size_t QuoteVerifyCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->verdicts.size();
  }
  return total;
}

void QuoteVerifyCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->verdicts.clear();
    shard->order.clear();
  }
}

CacheStats QuoteVerifyCache::stats() const {
  return {hits_.load(std::memory_order_relaxed), misses_.load(std::memory_order_relaxed),
          0, evictions_.load(std::memory_order_relaxed)};
}

}  // namespace mbtls::mb
