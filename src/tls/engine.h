// Sans-IO TLS 1.2 engine: client and server state machines.
//
// The engine consumes records (or raw transport bytes) and produces wire
// bytes through an output buffer; it never touches a socket. This is what
// lets the same engine run over in-memory pipes (unit tests, CPU
// microbenchmarks for Figure 5), the simulated network (Figure 6 latency),
// and loopback batches (Figure 7 throughput).
//
// mbTLS integration points (used by src/mbtls, harmless for plain TLS):
//  * extra extensions in the ClientHello (MiddleboxSupport),
//  * construction of a client engine from a *preset* ClientHello — the
//    paper's trick where the primary ClientHello serves double duty as the
//    secondary handshake's ClientHello,
//  * SGX attestation as an optional handshake message bound to the
//    transcript hash,
//  * export of the connection key block + sequence numbers so an endpoint
//    can hand the "bridge" keys to its last middlebox,
//  * a secret sink so session keys land in enclave or untrusted memory,
//    making the Table-1 memory-inspection attacks executable.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "ec/ecdh.h"
#include "sgx/attestation.h"
#include "sgx/enclave.h"
#include "tls/cache.h"
#include "tls/dh.h"
#include "tls/messages.h"
#include "tls/record.h"
#include "tls/session.h"
#include "x509/certificate.h"
#include "x509/verify.h"

namespace mbtls::tls {

class TicketKeyManager;

/// Exported connection protection state (the "bridge key" of Figure 4).
struct ConnectionKeys {
  CipherSuite suite{};
  KeyBlock keys;
  std::uint64_t client_seq = 0;  // next client->server record sequence
  std::uint64_t server_seq = 0;  // next server->client record sequence
};

struct Config {
  bool is_client = true;

  std::vector<CipherSuite> cipher_suites = {
      CipherSuite::kEcdheRsaAes256GcmSha384,   CipherSuite::kEcdheEcdsaAes256GcmSha384,
      CipherSuite::kDheRsaAes256GcmSha384,     CipherSuite::kEcdheRsaAes128GcmSha256,
      CipherSuite::kEcdheEcdsaAes128GcmSha256, CipherSuite::kDheRsaAes128GcmSha256,
  };

  // Local identity (servers need one; clients only for future client auth).
  std::shared_ptr<x509::PrivateKey> private_key;
  std::vector<x509::Certificate> certificate_chain;

  // Peer verification.
  std::vector<x509::Certificate> trust_anchors;
  std::string server_name;            // client: SNI and hostname check
  bool verify_peer_certificate = true;
  std::int64_t now = 1500000000;      // Unix seconds for validity checks

  // Randomness (seeded for reproducibility).
  std::string rng_label = "tls";
  std::uint64_t rng_seed = 0;

  // Session resumption (ID-based, §3.5).
  SessionCache* session_cache = nullptr;
  bool offer_resumption = false;
  // Client-side cache key; defaults to server_name. mbTLS secondary engines
  // have no SNI of their own (the primary ClientHello does double duty), so
  // they key resumption state by subchannel instead.
  std::string resumption_cache_key;

  // Ticket-based resumption (RFC 5077 / §3.5). Servers issue a
  // NewSessionTicket on full handshakes; clients cache and offer it. The
  // ticket is sealed by `ticket_keys`, a process-wide rotating key manager
  // (src/tls/ticket.h; a fixed key is a manager that never rotates), or,
  // when only `enclave` is set, with the enclave's sealing key — the
  // paper's observation that "only the enclave knows the key needed to
  // decrypt the session ticket". With neither, issuing a ticket fails the
  // handshake. Tickets sealed under the manager's previous key still resume
  // but trigger a fresh NewSessionTicket in the abbreviated flight, so
  // clients ride across rotations without ever falling off the fast path.
  bool enable_session_tickets = false;
  TicketKeyManager* ticket_keys = nullptr;

  // Control-plane caches (src/tls/cache.h). Both optional; null = the
  // uncached per-handshake work (parse every chain, verify every quote).
  CertPool* cert_pool = nullptr;
  QuoteVerifyCache* quote_verifier = nullptr;

  // SGX attestation (extended handshake, §3.4).
  sgx::Enclave* enclave = nullptr;     // if set: attest when asked, keys live in enclave
  bool request_attestation = false;    // client: require an attestation quote
  Bytes expected_measurement;          // required MRENCLAVE when requesting

  // mbTLS hooks.
  std::vector<Extension> extra_extensions;  // appended to the ClientHello

  // Where session secrets are registered (enclave memory vs the platform's
  // untrusted memory) so the SGX adversary view reflects reality. Optional.
  sgx::MemoryStore* secret_store = nullptr;
  std::string secret_prefix;

  // Legacy-endpoint behaviour knob: what a non-mbTLS stack does when it sees
  // an unknown record type (paper §3.4 observed both behaviours in the
  // wild). true = ignore the record, false = fatal unexpected_message.
  bool ignore_unknown_record_types = false;

  // mbTLS middleboxes on the server side attest without being asked (the
  // ClientHello they saw came from the *client*, which may be legacy, while
  // the attestation consumer is the *server* endpoint).
  bool attest_unsolicited = false;

  // Structured tracing (src/util/trace.h). When a sink is attached the
  // engine emits handshake message in/out, flight boundary, key derivation
  // (fingerprints only — never raw keys), and record seal/open events under
  // `trace_actor`. Null sink = disabled = one branch per emission site.
  trace::Sink* trace_sink = nullptr;
  std::string trace_actor = "tls";
};

enum class EngineState {
  kIdle,
  kAwaitServerHello,
  kAwaitCertificate,
  kAwaitServerKeyExchange,
  kAwaitServerHelloDone,
  kAwaitClientHello,
  kAwaitClientKeyExchange,
  kAwaitChangeCipherSpec,
  kAwaitFinished,
  kEstablished,
  kClosed,
  kError,
};

class Engine {
 public:
  explicit Engine(Config config);

  /// Scrubs handshake and session key material (pre-master, master, key
  /// block) before the memory is returned to the allocator.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine(Engine&&) = default;
  Engine& operator=(const Engine&) = delete;
  Engine& operator=(Engine&&) = default;

  // ------------------------------------------------------------- lifecycle
  /// Client: emit the ClientHello. No-op for servers.
  void start();

  /// Client-only: adopt `hello` as *our already-sent* ClientHello (the
  /// primary hello doing double duty for a secondary mbTLS handshake).
  /// Nothing is emitted; the engine waits for the ServerHello.
  void start_with_preset_hello(const ClientHello& hello, ByteView raw_message);

  // --------------------------------------------------------------- ingest
  /// Feed raw transport bytes (runs an internal record parser).
  void feed(ByteView transport_bytes);

  /// Feed one complete record (header already stripped; payload may be
  /// encrypted). Used by the mbTLS layer, which demultiplexes records.
  void feed_record(const Record& record);

  // --------------------------------------------------------------- egress
  /// Drain the pending wire bytes.
  Bytes take_output();

  // ------------------------------------------------------------- app data
  void send(ByteView application_data);
  /// Send a record of an arbitrary content type under the session keys
  /// (mbTLS uses this for MBTLSKeyMaterial, type 31). Post-handshake only.
  void send_typed(ContentType type, ByteView data);
  Bytes take_plaintext();

  /// Receiver hook for mbTLS record types (30-32): when set, such records
  /// are decrypted (if protection is active) and handed to the callback
  /// instead of being treated as unknown.
  std::function<void(ContentType, ByteView)> on_typed_record;
  /// Graceful close (close_notify).
  void close();

  // ---------------------------------------------------------------- state
  EngineState state() const { return state_; }
  bool handshake_done() const { return state_ == EngineState::kEstablished; }
  bool failed() const { return state_ == EngineState::kError; }
  AlertDescription last_alert() const { return last_alert_; }
  const std::string& error_message() const { return error_message_; }

  // ---------------------------------------------------------- negotiated
  const SuiteInfo& suite() const;
  bool resumed() const { return resumed_; }
  const Bytes& client_random() const { return client_random_; }
  const Bytes& server_random() const { return server_random_; }
  const Bytes& session_id() const { return session_id_; }
  const Bytes& master_secret() const { return master_secret_; }

  /// The raw ClientHello handshake message (set on both sides). mbTLS
  /// middleboxes and endpoints reuse it for secondary handshakes.
  const Bytes& client_hello_raw() const { return client_hello_raw_; }
  const std::optional<ClientHello>& received_client_hello() const { return parsed_client_hello_; }

  const std::optional<x509::Certificate>& peer_certificate() const { return peer_certificate_; }

  bool peer_attested() const { return peer_attested_; }
  const Bytes& peer_measurement() const { return peer_measurement_; }

  /// Exported bridge keys (valid once established).
  ConnectionKeys connection_keys() const;

  const Config& config() const { return config_; }

  /// Handshake flights seen so far (maximal same-direction runs of
  /// handshake-phase records; 4 on a full handshake, 3 on resumption).
  int flights() const { return flight_; }
  const trace::Emitter& trace() const { return trace_; }

 private:
  // Handshake driving.
  void handle_handshake_message(const HandshakeMsg& msg);
  void handle_client_hello(const HandshakeMsg& msg);
  void handle_server_hello(const HandshakeMsg& msg);
  void handle_certificate(const HandshakeMsg& msg);
  void handle_server_key_exchange(const HandshakeMsg& msg);
  void handle_sgx_attestation(const HandshakeMsg& msg);
  void handle_server_hello_done(const HandshakeMsg& msg);
  void handle_client_key_exchange(const HandshakeMsg& msg);
  void handle_finished(const HandshakeMsg& msg);
  void handle_change_cipher_spec(ByteView payload);
  void handle_alert(ByteView payload);

  // Flights.
  void send_client_hello();
  void send_server_flight();            // SH, Cert, SKE, [Attestation], SHD
  void send_server_resumption_flight(const SessionState& session);
  void send_client_key_exchange_flight();
  void send_ccs_and_finished();
  void maybe_send_attestation();

  // Helpers.
  void emit_record(ContentType type, ByteView payload);
  void emit_handshake(HandshakeType type, ByteView body);
  void append_transcript(ByteView raw_message);
  Bytes transcript_hash() const;
  void activate_read_keys();
  void derive_key_block_once();
  void fail(AlertDescription alert, const std::string& message);
  void finish_handshake();
  void register_secret(const std::string& name, ByteView value);
  Bytes signature_payload(const ServerKeyExchange& ske) const;
  /// Record a handshake flight boundary whenever the traffic direction flips
  /// pre-establishment. Cheap enough to run untraced (two int compares);
  /// emits a "tls flight" event when a sink is attached.
  void note_flight(bool outbound);

  Config config_;
  crypto::Drbg rng_;
  trace::Emitter trace_;
  int flight_ = 0;
  int last_flight_dir_ = 0;  // 0 = none, 1 = outbound, 2 = inbound
  EngineState state_ = EngineState::kIdle;
  AlertDescription last_alert_ = AlertDescription::kCloseNotify;
  std::string error_message_;

  RecordReader reader_;
  HandshakeReassembler reassembler_;
  Bytes output_;
  Bytes plaintext_in_;

  // Negotiated parameters.
  std::optional<SuiteInfo> suite_;
  Bytes client_random_, server_random_, session_id_;
  Bytes pre_master_secret_, master_secret_;
  std::optional<KeyBlock> key_block_;
  bool resumed_ = false;

  // Ticket plumbing.
  Bytes make_ticket(const SessionState& state);
  /// `stale_key`, when non-null, is set if the ticket authenticated under a
  /// rotated (previous-generation) key — resumption proceeds, but the server
  /// reissues a fresh ticket.
  std::optional<SessionState> open_ticket(ByteView ticket, bool* stale_key = nullptr) const;
  void handle_new_session_ticket(const HandshakeMsg& msg);
  std::optional<SessionState> offered_session_;  // what the client hopes to resume
  bool should_issue_ticket_ = false;
  Bytes received_ticket_;

  // Transcript.
  Bytes transcript_;
  Bytes client_hello_raw_;
  std::optional<ClientHello> parsed_client_hello_;
  Bytes attestation_binding_hash_;  // transcript hash at the SKE boundary

  // Key exchange ephemeral state.
  std::optional<ec::EcdhKeyPair> ecdhe_;
  std::optional<DhKeyPair> dhe_;
  std::optional<ServerKeyExchange> received_ske_;

  // Peer identity.
  std::optional<x509::Certificate> peer_certificate_;
  bool peer_attested_ = false;
  Bytes peer_measurement_;
  bool attestation_requested_by_peer_ = false;

  // Record protection.
  std::optional<HopChannel> write_channel_;
  std::optional<HopChannel> read_channel_;
  bool read_protected_ = false;
  bool peer_finished_seen_ = false;
  bool our_finished_sent_ = false;
};

}  // namespace mbtls::tls
