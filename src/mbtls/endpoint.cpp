#include "mbtls/endpoint.h"

namespace mbtls::mb {

namespace {
tls::Config client_primary_config(const ClientSession::Options& options) {
  tls::Config cfg = options.tls;
  if (options.announce_mbtls) {
    tls::MiddleboxSupportExtension ext;
    ext.known_middleboxes = options.known_middleboxes;
    cfg.extra_extensions.push_back({tls::kExtMiddleboxSupport, ext.encode()});
  }
  if (options.require_middlebox_attestation) {
    // Signals on-path middleboxes to include quotes in their secondary
    // handshakes. The origin server simply ignores the unknown extension.
    cfg.extra_extensions.push_back({tls::kExtAttestationRequest, {}});
  }
  return cfg;
}

tls::Config with_role(tls::Config cfg, bool is_client, const EndpointOptions& options) {
  cfg.is_client = is_client;
  cfg.trace_sink = options.trace_sink;
  cfg.trace_actor = options.trace_actor + "/primary";
  return cfg;
}
}  // namespace

ClientSession::ClientSession(Options options)
    : EndpointSession(true, std::move(options), client_primary_config(options),
                      options.fallback_to_direct_tls) {}

ServerSession::ServerSession(Options options)
    : EndpointSession(false, std::move(options), options.tls) {}

// `options` binds by reference, so the role constructors' other arguments
// read it before it is moved from here.
EndpointSession::EndpointSession(bool is_client, EndpointOptions&& options, tls::Config primary,
                                 bool fallback_to_direct_tls)
    : is_client_(is_client),
      fallback_to_direct_tls_(fallback_to_direct_tls),
      options_(std::move(options)),
      trace_(options_.trace_sink, options_.trace_actor),
      primary_(with_role(std::move(primary), is_client, options_)),
      hop_rng_(options_.tls.rng_label + "/hop-keys", options_.tls.rng_seed) {}

void EndpointSession::start() {
  primary_.start();
  drain_primary();
}

void EndpointSession::fail(const std::string& message) {
  if (status_ == SessionStatus::kFailed) return;
  status_ = SessionStatus::kFailed;
  error_ = message;
  trace_.instant("mbtls", "fail", {{"reason", message}});
}

void EndpointSession::emit_fatal_alert(tls::AlertDescription description) {
  const Bytes body{static_cast<std::uint8_t>(tls::AlertLevel::kFatal),
                   static_cast<std::uint8_t>(description)};
  if (data_path_) {
    append(out_, outbound().seal(tls::ContentType::kAlert, body));
  } else {
    // No keys yet: the alert goes out in the clear, like TLS handshake
    // alerts do. Middleboxes relay unrecognized plaintext alerts verbatim.
    append(out_, tls::frame_plaintext_record(tls::ContentType::kAlert, body));
  }
}

bool EndpointSession::handshake_expired() {
  if (status_ != SessionStatus::kHandshaking) return false;
  emit_fatal_alert(tls::AlertDescription::kHandshakeFailure);
  // The transport owner (FallbackClient) performs any direct-TLS redial.
  trace_.instant("mbtls", "deadline.expired", {{"fallback", fallback_to_direct_tls_ ? 1 : 0}});
  fail("handshake deadline exceeded");
  return true;
}

void EndpointSession::abort(const std::string& reason) {
  if (status_ == SessionStatus::kFailed || status_ == SessionStatus::kClosed) return;
  emit_fatal_alert(tls::AlertDescription::kInternalError);
  fail(reason);
}

void EndpointSession::transport_closed() {
  if (status_ == SessionStatus::kClosed || status_ == SessionStatus::kFailed) return;
  fail(status_ == SessionStatus::kHandshaking
           ? "transport closed during handshake"
           : "transport closed without close_notify");
}

void EndpointSession::drain_primary() {
  append(out_, primary_.take_output());
  if (primary_.failed()) fail("primary handshake: " + primary_.error_message());
}

Bytes EndpointSession::take_output() { return std::move(out_); }

void EndpointSession::feed(ByteView transport_bytes) {
  if (status_ == SessionStatus::kFailed) return;
  try {
    reader_.feed(transport_bytes);
    while (auto rec = reader_.next()) {
      handle_record(*rec);
      if (status_ == SessionStatus::kFailed) return;
    }
  } catch (const tls::ProtocolError& e) {
    fail(e.what());
  } catch (const DecodeError& e) {
    fail(e.what());
  }
}

void EndpointSession::handle_record(const tls::Record& record) {
  if (record.type == tls::ContentType::kMbtlsMiddleboxAnnouncement) {
    // Announcements target servers; a client can safely ignore one.
    if (is_client_) return;
    ++announcements_;
    trace_.instant("mbtls", "announce.seen",
                   {{"count", static_cast<std::uint64_t>(announcements_)}});
    return;
  }
  if (record.type == tls::ContentType::kMbtlsEncapsulated) {
    handle_encapsulated(record.payload);
    return;
  }
  if (status_ == SessionStatus::kEstablished || status_ == SessionStatus::kClosed) {
    handle_data_record(record);
    return;
  }
  primary_.feed_record(record);
  drain_primary();
  start_pending_secondaries();
  maybe_finish_setup();
}

void EndpointSession::handle_encapsulated(ByteView payload) {
  auto enc = tls::EncapsulatedRecord::parse(payload);
  if (!enc) {
    fail("malformed Encapsulated record");
    return;
  }
  if (status_ != SessionStatus::kHandshaking) return;
  // A new subchannel is a middlebox announcing itself.
  auto [it, fresh] = secondaries_.try_emplace(enc->subchannel);
  if (fresh) {
    it->second.descriptor.subchannel = enc->subchannel;
    it->second.descriptor.discovered = true;
  }
  it->second.pending_inner.push_back(std::move(enc->inner_record));
  start_pending_secondaries();
  maybe_finish_setup();
}

tls::Config EndpointSession::secondary_config(std::uint8_t sub) const {
  // The one place a secondary engine's config comes from, for both roles:
  // only the fields a preset-hello TLS client uses, and middlebox
  // certificates are verified whatever the primary session's setting (P3).
  const std::string id = std::to_string(sub);
  tls::Config cfg;
  cfg.is_client = true;
  cfg.cipher_suites = options_.tls.cipher_suites;
  cfg.trust_anchors = options_.tls.trust_anchors;
  cfg.verify_peer_certificate = true;
  cfg.now = options_.tls.now;
  cfg.request_attestation = options_.require_middlebox_attestation;
  cfg.expected_measurement = options_.expected_middlebox_measurement;
  cfg.rng_label = options_.tls.rng_label + "/secondary" + id;
  cfg.rng_seed = options_.tls.rng_seed;
  cfg.session_cache = options_.tls.session_cache;
  cfg.cert_pool = options_.tls.cert_pool;
  cfg.quote_verifier = options_.tls.quote_verifier;
  // Secondary sessions resume keyed by subchannel (§3.5): the shared
  // ClientHello carries only the primary session ID, which each middlebox
  // also uses as its cache key.
  cfg.resumption_cache_key = "mbtls-secondary-" + id;
  cfg.secret_store = options_.tls.secret_store;
  cfg.secret_prefix = options_.tls.secret_prefix + "mbox" + id + "/";
  cfg.trace_sink = options_.trace_sink;
  cfg.trace_actor = options_.trace_actor + "/sec" + id;
  return cfg;
}

void EndpointSession::start_pending_secondaries() {
  // Secondary engines need the primary ClientHello; until it is known (a
  // server may see a middlebox's records first), inner records stay buffered.
  // A secondary engine has "already sent" that ClientHello.
  if (!primary_.received_client_hello()) return;
  for (auto& [sub, sec] : secondaries_) {
    if (!sec.engine) {
      tls::Config cfg = secondary_config(sub);
      trace_.instant("mbtls", "secondary.open", {{"subchannel", static_cast<int>(sub)}});
      sec.engine = std::make_unique<tls::Engine>(std::move(cfg));
      sec.engine->start_with_preset_hello(*primary_.received_client_hello(),
                                          primary_.client_hello_raw());
    }
    for (auto& raw : sec.pending_inner) feed_encapsulated(*sec.engine, raw);
    sec.pending_inner.clear();
    pump_secondary(sub, sec);
  }
}

void EndpointSession::pump_secondary(std::uint8_t sub, Secondary& sec) {
  if (!sec.engine) return;
  drain_encapsulated(*sec.engine, sub, out_);
  if (sec.engine->failed()) {
    fail("middlebox handshake (subchannel " + std::to_string(sub) +
         "): " + sec.engine->error_message());
  }
}

void EndpointSession::maybe_finish_setup() {
  if (status_ != SessionStatus::kHandshaking) return;
  if (!primary_.handshake_done()) return;
  for (auto& [sub, sec] : secondaries_) {
    if (!sec.engine || !sec.engine->handshake_done()) return;
  }
  // Approve every middlebox before keying it into the session.
  for (auto& [sub, sec] : secondaries_) {
    if (sec.approved) continue;
    if (sec.engine->peer_certificate())
      sec.descriptor.certificate_cn = sec.engine->peer_certificate()->info().subject_cn;
    sec.descriptor.attested = sec.engine->peer_attested();
    sec.descriptor.measurement = sec.engine->peer_measurement();
    if (options_.approve && !options_.approve(sec.descriptor)) {
      fail("middlebox " + sec.descriptor.certificate_cn + " rejected by policy");
      return;
    }
    sec.approved = true;
    trace_.instant("mbtls", "mbox.approved",
                   {{"subchannel", static_cast<int>(sub)},
                    {"cn", sec.descriptor.certificate_cn},
                    {"attested", sec.descriptor.attested ? 1 : 0}});
  }
  distribute_keys();
}

void EndpointSession::distribute_keys() {
  const auto primary_keys = primary_.connection_keys();
  const std::size_t key_len = primary_.suite().key_len;

  // Path order: ascending subchannel = farthest from this endpoint first.
  // Client-side middleboxes are numbered from the server end (the paper's
  // assignment scheme, §3.4 "Middlebox Discovery"); server-side ones claim
  // IDs in announcement order along the ClientHello's path, i.e. from the
  // client end. hops[0] is the bridge; hops[i] joins mbox i and mbox i+1;
  // the last hop joins the nearest middlebox and this endpoint.
  std::vector<tls::HopKeys> hops;
  hops.push_back(bridge_hop_keys(primary_keys));
  for (std::size_t i = 0; i < secondaries_.size(); ++i)
    hops.push_back(generate_hop_keys(key_len, hop_rng_));

  if (trace_.on()) {
    // Keylog-style events (one per hop, hop 0 = bridge): fingerprints only,
    // never raw key bytes (tools/mbtls-lint: trace-no-secret). Tests assert
    // the paper's P4 (pairwise-unique hop keys) from these alone.
    for (std::size_t i = 0; i < hops.size(); ++i) {
      trace_.instant("mbtls", "keylog.hop",
                     {{"hop", static_cast<std::uint64_t>(i)},
                      {"c2s", tls::key_fingerprint(hops[i].client_to_server_key)},
                      {"s2c", tls::key_fingerprint(hops[i].server_to_client_key)}});
    }
  }

  std::size_t index = 1;
  for (auto& [sub, sec] : secondaries_) {  // std::map iterates ascending
    // hops[index - 1] is on the far side of middlebox `index`: toward the
    // server for a client, toward the client for a server.
    tls::KeyMaterialMsg msg;
    msg.cipher_suite = static_cast<std::uint16_t>(primary_keys.suite);
    msg.toward_server = hops[is_client_ ? index - 1 : index];
    msg.toward_client = hops[is_client_ ? index : index - 1];
    sec.engine->send_typed(tls::ContentType::kMbtlsKeyMaterial, msg.encode());
    pump_secondary(sub, sec);
    ++index;
  }

  data_path_.emplace(hops.back(), key_len);
  if (trace_.on()) data_path_->set_trace(trace_.sub("data"));
  status_ = SessionStatus::kEstablished;
  trace_.instant("mbtls", "established",
                 {{"middleboxes", static_cast<std::uint64_t>(secondaries_.size())},
                  {"flights", primary_.flights()},
                  {"resumed", primary_.resumed() ? 1 : 0}});
}

void EndpointSession::handle_data_record(const tls::Record& record) {
  if (!data_path_) return;
  switch (record.type) {
    case tls::ContentType::kApplicationData: {
      auto opened = inbound().open(record.type, record.payload);
      if (!opened) {
        fail("data record authentication failed");
        return;
      }
      append(app_in_, *opened);
      break;
    }
    case tls::ContentType::kAlert: {
      auto opened = inbound().open(record.type, record.payload);
      if (!opened) {
        fail("alert authentication failed");
        return;
      }
      const auto alert = parse_alert(*opened);
      if (!alert) {
        // Truncated or garbled alert bodies are protocol errors; indexing
        // into them blindly would misread (or overrun) a 1-byte record.
        fail("malformed alert record");
        return;
      }
      if (alert->is_close_notify()) {
        status_ = SessionStatus::kClosed;
      } else if (alert->level == tls::AlertLevel::kFatal) {
        fail(std::string("peer alert: ") + tls::to_string(alert->description));
      }
      break;
    }
    default:
      break;  // renegotiation & friends: not supported, ignored
  }
}

void EndpointSession::send(ByteView application_data) {
  if (status_ != SessionStatus::kEstablished)
    throw std::logic_error(std::string(is_client_ ? "ClientSession" : "ServerSession") +
                           "::send before establishment");
  std::size_t off = 0;
  while (off < application_data.size()) {
    const std::size_t n = std::min(tls::kMaxRecordPayload, application_data.size() - off);
    append(out_, outbound().seal(tls::ContentType::kApplicationData,
                                 application_data.subspan(off, n)));
    off += n;
  }
}

Bytes EndpointSession::take_app_data() { return std::move(app_in_); }

void EndpointSession::close() {
  if (status_ != SessionStatus::kEstablished) return;
  Bytes body{static_cast<std::uint8_t>(tls::AlertLevel::kWarning),
             static_cast<std::uint8_t>(tls::AlertDescription::kCloseNotify)};
  append(out_, outbound().seal(tls::ContentType::kAlert, body));
  status_ = SessionStatus::kClosed;
}

std::vector<MiddleboxDescriptor> EndpointSession::middleboxes() const {
  std::vector<MiddleboxDescriptor> out;
  for (const auto& [sub, sec] : secondaries_) out.push_back(sec.descriptor);
  return out;
}

}  // namespace mbtls::mb
