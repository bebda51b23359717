// mbTLS endpoints (§3.4): one session core for both roles, and the client
// and server types built on it.
//
// Client-side and server-side middleboxes are mirror images (Fig. 4). Either
// way the endpoint owns the primary TLS engine plus one secondary engine per
// middlebox. Secondary handshakes ride the same byte stream inside
// Encapsulated records and reuse the primary ClientHello; in them the
// *middlebox* plays the TLS server role and this endpoint the TLS client
// role, whichever end of the primary session it is. Once the primary
// handshake and every secondary handshake complete, the endpoint approves
// each middlebox, generates unique per-hop keys, ships them in
// MBTLSKeyMaterial records over the secondary sessions, and switches its data
// path to the hop adjacent to it.
//
// The client's primary ClientHello carries the MiddleboxSupport extension;
// client-side middleboxes are discovered on path. Server-side middleboxes
// announce themselves with MiddleboxAnnouncement records and work even when
// the primary ClientHello came from a legacy client (P5).
#pragma once

#include <map>

#include "mbtls/types.h"

namespace mbtls::mb {

/// Options both endpoint roles take; ClientSession::Options and
/// ServerSession::Options extend them.
struct EndpointOptions {
  tls::Config tls;  // is_client forced to the session's role
  bool require_middlebox_attestation = false;
  Bytes expected_middlebox_measurement;
  ApprovalCallback approve;  // default: accept every verified middlebox

  /// Handshake deadline in microseconds of virtual time, enforced by the
  /// transport binding (sans-IO sessions have no clock of their own).
  /// 0 disables. A stalled middlebox then yields a fatal alert and a clean
  /// failure instead of a silent hang (or, on the server, a half-open
  /// session whose middlebox died mid-handshake).
  std::uint64_t handshake_timeout = 0;

  /// Structured tracing: propagated to the primary and secondary engines
  /// ("<actor>/primary", "<actor>/sec<N>") and used for session-level
  /// events (hop establishment, keylog fingerprints, fallback). Null =
  /// disabled, zero overhead.
  trace::Sink* trace_sink = nullptr;
  std::string trace_actor;  // defaults to "client" / "server"
};

/// The role-independent endpoint. `is_client` selects only the data
/// direction the endpoint seals in (and opens), which side of each
/// middlebox's key pair the far hop goes to, and whether middlebox
/// announcements are counted.
class EndpointSession {
 public:
  void feed(ByteView transport_bytes);
  Bytes take_output();

  void send(ByteView application_data);
  Bytes take_app_data();
  void close();

  /// Deadline hook, driven off the virtual clock by the transport layer: if
  /// the handshake is still in flight, emit a fatal handshake_failure alert,
  /// fail the session, and return true (no-op otherwise).
  bool handshake_expired();

  /// Explicit watchdog abort: emit a fatal alert (sealed when keys exist)
  /// and fail with `reason`. Idempotent once terminal.
  void abort(const std::string& reason);

  /// The transport died without a close_notify (peer RST, retransmit
  /// exhaustion, mid-handshake FIN). Anything but a cleanly closed session
  /// becomes an explicit failure — never a hang, never a silent truncation.
  void transport_closed();

  SessionStatus status() const { return status_; }
  bool established() const { return status_ == SessionStatus::kEstablished; }
  bool failed() const { return status_ == SessionStatus::kFailed; }
  const std::string& error_message() const { return error_; }

  /// This endpoint's middleboxes in path order (farthest first).
  std::vector<MiddleboxDescriptor> middleboxes() const;

  const tls::Engine& primary() const { return primary_; }

 protected:
  /// `primary` is the role's primary engine config; the core sets its role
  /// and tracing. `fallback_to_direct_tls` only feeds the deadline trace.
  EndpointSession(bool is_client, EndpointOptions&& options, tls::Config primary,
                  bool fallback_to_direct_tls = false);

  /// Emit the primary ClientHello (client role).
  void start();
  std::size_t announcements_seen() const { return announcements_; }

 private:
  struct Secondary {
    std::unique_ptr<tls::Engine> engine;  // null until the ClientHello is known
    MiddleboxDescriptor descriptor;
    bool approved = false;
    std::vector<Bytes> pending_inner;  // records that arrived before the CH
  };

  tls::Config secondary_config(std::uint8_t sub) const;
  tls::HopChannel& outbound() { return is_client_ ? data_path_->c2s : data_path_->s2c; }
  tls::HopChannel& inbound() { return is_client_ ? data_path_->s2c : data_path_->c2s; }

  void handle_record(const tls::Record& record);
  void handle_encapsulated(ByteView payload);
  void handle_data_record(const tls::Record& record);
  void start_pending_secondaries();
  void pump_secondary(std::uint8_t sub, Secondary& sec);
  void drain_primary();
  void maybe_finish_setup();
  void distribute_keys();
  void fail(const std::string& message);
  void emit_fatal_alert(tls::AlertDescription description);

  const bool is_client_;
  const bool fallback_to_direct_tls_;
  EndpointOptions options_;
  trace::Emitter trace_;
  tls::Engine primary_;
  std::map<std::uint8_t, Secondary> secondaries_;
  tls::RecordReader reader_;
  crypto::Drbg hop_rng_;
  Bytes out_;
  Bytes app_in_;
  std::optional<HopDuplex> data_path_;  // hop adjacent to this endpoint
  SessionStatus status_ = SessionStatus::kHandshaking;
  std::string error_;
  std::size_t announcements_ = 0;
};

class ClientSession : public EndpointSession {
 public:
  struct Options : EndpointOptions {
    Options() { trace_actor = "client"; }
    bool announce_mbtls = true;
    std::vector<std::string> known_middleboxes;
    /// P5 degradation path: when the deadline fires, ask the owner to redial
    /// the origin directly with a plain end-to-end TLS session (see
    /// FallbackClient in mbtls/transport.h) instead of giving up for good.
    bool fallback_to_direct_tls = false;
  };

  explicit ClientSession(Options options);

  using EndpointSession::start;
};

class ServerSession : public EndpointSession {
 public:
  struct Options : EndpointOptions {
    Options() { trace_actor = "server"; }
  };

  explicit ServerSession(Options options);

  using EndpointSession::announcements_seen;
};

}  // namespace mbtls::mb
