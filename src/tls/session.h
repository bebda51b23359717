// Session resumption state (§3.5 of the paper) and its ticket encoding,
// with the mbTLS twist that middlebox session state must also carry the
// primary session keys.
#pragma once

#include <optional>

#include "tls/common.h"
#include "util/bytes.h"

namespace mbtls::tls {

struct SessionState {
  Bytes session_id;
  CipherSuite suite{};
  Bytes master_secret;  // lint: secret
  // For mbTLS middlebox resumption: the per-hop key material that was
  // distributed last time (empty for plain TLS sessions).
  Bytes mbtls_key_material;  // lint: secret
  // Client side: the opaque ticket the server issued (RFC 5077), offered in
  // the SessionTicket extension on the next connection. Never serialized
  // into tickets themselves.
  Bytes ticket;

  SessionState() = default;
  SessionState(const SessionState&) = default;
  SessionState(SessionState&&) = default;
  SessionState& operator=(const SessionState&) = default;
  SessionState& operator=(SessionState&&) = default;
  // Cached sessions hold live key material; scrub it whenever an entry dies
  // (cache eviction, ticket decode temporaries, engine teardown).
  ~SessionState() {
    secure_wipe(master_secret);
    secure_wipe(mbtls_key_material);
  }
};

/// Serialize a SessionState into the plaintext of an opaque ticket
/// (RFC 5077 style) and back. The engine seals that plaintext with a
/// TicketKeyManager or, for mbTLS middleboxes, with an SGX enclave's sealing
/// key (§3.5: "only the enclave knows the key needed to decrypt the session
/// ticket"); the caches that hold SessionStates are in tls/cache.h.
Bytes encode_ticket_state(const SessionState& state);
std::optional<SessionState> decode_ticket_state(ByteView data);

}  // namespace mbtls::tls
