// Session metrics derived from traces (the analysis half of the tracing
// layer; src/util/trace.h is the emission half).
//
// Two consumers:
//  * CounterSink — a live O(1)-memory sink for long-running harnesses that
//    only want totals (counter deltas plus per-event tallies), no event list.
//  * summarize() & friends — offline reduction of a Recorder's event list
//    into the session-level numbers the paper's evaluation cares about:
//    handshake flights (P7), per-hop keylog fingerprints (P4), record and
//    segment totals, middlebox join/demote/fallback outcomes.
#pragma once

#include <map>

#include "util/trace.h"

namespace mbtls::mb {

/// Accumulating sink: counter totals keyed "actor/name" for explicit
/// counters, event tallies keyed "events/<actor>/<category>.<name>". Never
/// stores events, so it is safe to leave attached for millions of records.
class CounterSink : public trace::Sink {
 public:
  void record(trace::Event e) override;

  const std::map<std::string, double>& totals() const { return totals_; }
  /// Sum of every key whose trailing path component equals `name`.
  double total(std::string_view name) const;
  /// Flat sorted `key value` lines (same format as Recorder::counter_dump).
  std::string dump() const;
  void clear() { totals_.clear(); }

 private:
  std::map<std::string, double> totals_;
};

/// Session-level reduction of a recorded trace.
struct SessionMetrics {
  std::uint64_t records_sealed = 0;
  std::uint64_t records_opened = 0;
  std::uint64_t record_auth_failures = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t taps_fired = 0;
  std::uint64_t losses = 0;
  std::uint64_t handshakes_established = 0;
  std::uint64_t sessions_established = 0;  // mbtls-level "established" events
  std::uint64_t middleboxes_joined = 0;
  std::uint64_t demotions = 0;
  std::uint64_t fallback_redials = 0;
  std::uint64_t failures = 0;
  double reprotected_records = 0;
  double reprotected_bytes = 0;

  /// Flat `key value` lines, sorted, deterministic.
  std::string dump() const;
};

SessionMetrics summarize(const std::vector<trace::Event>& events);

/// Number of handshake flights an actor saw before establishment: the count
/// of "tls"/"flight" events whose actor starts with `actor_prefix`. The
/// paper's P7 invariant is that this matches plain TLS (4 full / 3 resumed).
int flight_count(const std::vector<trace::Event>& events, std::string_view actor_prefix);

/// One hop's key fingerprints from an mbtls "keylog.hop" event.
struct HopKeylog {
  std::string actor;
  std::uint64_t hop = 0;
  std::string c2s;  ///< tls::key_fingerprint of the client→server key
  std::string s2c;
};

/// All keylog.hop events whose actor starts with `actor_prefix`, in emission
/// order. P4 holds iff the fingerprints are pairwise distinct across hops.
std::vector<HopKeylog> hop_keylogs(const std::vector<trace::Event>& events,
                                   std::string_view actor_prefix);

}  // namespace mbtls::mb
