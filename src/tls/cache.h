// Control-plane caches: the shared, bounded, thread-safe state that
// amortizes per-session work across a fleet of sessions (see DESIGN.md
// "Control plane"). The engine consults each through a nullable Config
// pointer; null means the uncached per-handshake work.
//
//  * SessionCache — resumption state, by session ID (server side) and by
//    peer name (client side), striped over N mutex-guarded LRU shards:
//    concurrent server loops touch disjoint shards and never contend on one
//    global lock, and eviction wipes the dead entry's master secret before
//    the memory returns to the allocator.
//  * CertPool — a deduplicating pool of parsed certificates keyed by the
//    SHA-256 of the DER. A fleet of sessions to the same 500 origins parses
//    each distinct certificate once; every other handshake gets a
//    refcounted pointer to the shared parse. Each pooled certificate also
//    remembers its signature verdict per issuer key, so its signature is
//    verified once, not once per handshake.
//  * QuoteVerifyCache — memoized sgx::verify_quote (Knauth et al.:
//    attestation evidence is reused across connections, so its ECDSA
//    verification is a per-quote cost, not a per-handshake one), bounded
//    per shard.
//
// All three share one shard skeleton (N rounded up to a power of two,
// FNV-1a over the key picks the shard) and one counter block.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "tls/session.h"
#include "util/bytes.h"
#include "x509/certificate.h"

namespace mbtls::tls {

/// Counters every control-plane cache exposes. Snapshot semantics: values
/// are read individually from relaxed atomics; totals may be mid-update
/// with respect to each other, which is fine for metrics.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// The live counters behind a CacheStats: relaxed atomics, so counting
/// never takes a shard lock.
class CacheCounters {
 public:
  void hit() { bump(hits_); }
  void miss() { bump(misses_); }
  void store() { bump(stores_); }
  void evict() { bump(evictions_); }
  CacheStats snapshot() const;

 private:
  static void bump(std::atomic<std::uint64_t>& c) { c.fetch_add(1, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, stores_{0}, evictions_{0};
};

/// Sharded, bounded, thread-safe session cache. Session IDs are uniform
/// random 32-byte strings, so a cheap FNV prefix hash spreads them evenly
/// over shards.
class SessionCache {
 public:
  struct Options {
    std::size_t shards = 16;                // rounded up to a power of two
    std::size_t capacity_per_shard = 4096;  // LRU-evicted beyond this
  };

  SessionCache();
  explicit SessionCache(Options options);

  void store_by_id(const SessionState& state);
  std::optional<SessionState> lookup_by_id(ByteView session_id) const;
  void store_by_peer(const std::string& peer, const SessionState& state);
  std::optional<SessionState> lookup_by_peer(const std::string& peer) const;

  void clear();
  std::size_t size() const;
  std::size_t shard_count() const { return shards_.size(); }
  CacheStats stats() const { return counters_.snapshot(); }

 private:
  struct Entry {
    Bytes key;
    SessionState state;  // dtor wipes master secret + key material
  };
  /// One LRU domain: most-recent at the front, index into the list.
  struct Store {
    std::list<Entry> lru;
    std::map<Bytes, std::list<Entry>::iterator> index;
  };
  struct Shard {
    mutable std::mutex mu;
    Store by_id;
    Store by_peer;
  };

  void store_into(Store& store, ByteView key, const SessionState& state);
  std::optional<SessionState> lookup_in(Store& store, ByteView key) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t capacity_per_shard_;
  mutable CacheCounters counters_;
};

/// Deduplicating pool of parsed certificates, keyed by SHA-256(DER).
/// intern() either returns the existing shared parse (refcounted — entries
/// stay alive while any session still points at them) or parses and
/// publishes a new one. Throws DecodeError exactly like Certificate::parse.
///
/// verify_signature() memoizes Certificate::verify_signature per pooled
/// entry, keyed on the entry's DER digest plus the issuer key's SPKI DER.
/// The verdict is a pure function of those two (the DER fixes the signed
/// bytes, the algorithm and the signature), so both verdicts are kept; a
/// different issuer key under the same name is a different key and is
/// verified afresh. Everything else about a chain (dates, hostname, CA
/// flag, issuer names) is the caller's per-handshake work.
class CertPool {
 public:
  explicit CertPool(std::size_t shards = 16);

  std::shared_ptr<const x509::Certificate> intern(ByteView der);
  /// `cert.verify_signature(issuer_key)`, answered from a memo when `cert`
  /// is pooled and this issuer key was checked against it before.
  bool verify_signature(const x509::Certificate& cert, const x509::PublicKey& issuer_key);

  /// Number of distinct certificates currently pooled.
  std::size_t size() const;
  /// Drop entries no session references anymore; returns how many died.
  std::size_t purge_unused();
  void clear();
  /// intern() hits (shared parse) and misses (fresh parse).
  CacheStats stats() const { return interns_.snapshot(); }
  /// verify_signature() hits (memoized verdict) and misses (a real
  /// signature verification).
  CacheStats signature_stats() const { return signatures_.snapshot(); }

 private:
  /// Issuer keys remembered per certificate. A certificate has one real
  /// issuer; the cap only bounds a peer presenting one leaf under many
  /// forged intermediates.
  static constexpr std::size_t kVerdictsPerCert = 4;
  struct Entry {
    std::shared_ptr<const x509::Certificate> cert;
    std::vector<std::pair<Bytes, bool>> verdicts;  // issuer SPKI DER, valid?
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<Bytes, Entry> by_digest;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  CacheCounters interns_, signatures_;
};

/// Memoized attestation-quote verification, sharded by measurement. Both
/// verdicts are cached: verify_quote is a pure function of
/// (measurement, report_data, signature), so a cached false is as sound as
/// a cached true — and it stops a flood of replayed-garbage quotes from
/// burning an ECDSA verification each. A quote bound to a fresh handshake
/// transcript can never hit again, so each shard keeps at most
/// kCapacityPerShard verdicts and evicts the oldest beyond that.
class QuoteVerifyCache {
 public:
  static constexpr std::size_t kCapacityPerShard = 256;

  explicit QuoteVerifyCache(std::size_t shards = 16);

  bool verify(ByteView measurement, ByteView report_data, ByteView signature);

  std::size_t size() const;
  void clear();
  CacheStats stats() const { return counters_.snapshot(); }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::map<Bytes, bool> verdicts;  // SHA-256(meas || rd || sig) -> verdict
    std::deque<Bytes> order;         // the same keys, oldest first
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  CacheCounters counters_;
};

}  // namespace mbtls::tls
