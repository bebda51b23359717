// Simplified TCP over the simulated network: 3-way handshake, byte-stream
// sequencing with cumulative ACKs, out-of-order reassembly, go-back-N
// retransmission, FIN teardown, and RST on unexpected segments.
//
// Flow/congestion control are intentionally absent — the experiments measure
// handshake latency and protocol behaviour, not congestion dynamics. The
// paper's prototype likewise ran on uncongested testbed links.
#pragma once

#include <deque>
#include <map>
#include <memory>

#include "net/network.h"

namespace mbtls::net {

class Host;

/// The simulator's reliable byte-stream endpoint (see net/transport.h for
/// the Stream contract and the posix counterpart). Obtained from
/// Host::connect or a listener accept callback. Owned by the Host; pointers
/// stay valid for the Host's lifetime.
class Socket final : public Stream {
 public:
  /// Queue bytes for transmission.
  void send(ByteView data) override;

  /// Half-close: sends FIN after all queued data.
  void close() override;

  /// Abort: sends RST and drops all state.
  void reset() override;

  bool established() const override { return state_ == State::kEstablished; }
  bool closed() const override { return state_ == State::kClosed; }
  /// send() is legal: not closed and no FIN queued. The simulated network
  /// never backpressures, so this only goes false on teardown.
  bool writable() const override { return state_ != State::kClosed && !fin_queued_; }

  /// Terminal error cause; valid once closed() (kNone = clean teardown).
  SocketError error() const override { return error_; }

  NodeId remote_node() const { return remote_node_; }
  Port remote_port() const { return remote_port_; }
  Port local_port() const { return local_port_; }

 private:
  friend class Host;

  enum class State { kSynSent, kSynReceived, kEstablished, kFinWait, kClosed };

  static constexpr std::size_t kMss = 1400;
  static constexpr Time kInitialRto = 200 * kMillisecond;  // doubles per loss
  static constexpr Time kMaxRto = 5 * kSecond;             // backoff ceiling
  static constexpr int kMaxRetransmits = 10;

  explicit Socket(Host& host) : host_(host) {}

  void handle_segment(const Packet& p);
  void transmit_pending();
  void send_segment(TcpFlags flags, std::uint64_t seq, ByteView payload);
  void send_ack();
  void arm_timer();
  void on_timeout();
  void deliver_in_order();
  void fail_connection(SocketError error);
  void become_closed();

  Host& host_;
  State state_ = State::kClosed;
  NodeId remote_node_ = 0;
  Port remote_port_ = 0;
  Port local_port_ = 0;

  std::uint64_t iss_ = 0;       // initial send sequence
  std::uint64_t snd_nxt_ = 0;   // next seq to send
  std::uint64_t snd_una_ = 0;   // oldest unacknowledged
  std::uint64_t rcv_nxt_ = 0;   // next expected from peer

  Bytes send_queue_;            // bytes not yet segmented
  struct Unacked {
    std::uint64_t seq;
    Bytes payload;
    bool fin;
  };
  std::deque<Unacked> unacked_;
  std::map<std::uint64_t, Bytes> out_of_order_;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool peer_fin_seen_ = false;
  int retransmit_count_ = 0;
  Time rto_ = kInitialRto;  // current retransmit timeout (exponential backoff)
  SocketError error_ = SocketError::kNone;
  std::uint64_t timer_generation_ = 0;
};

/// Per-node transport endpoint: owns sockets and listeners, and plugs into
/// the Network's delivery path for its node. Implements the backend-agnostic
/// Transport seam on top of the simulated network.
class Host final : public Transport {
 public:
  Host(Network& network, NodeId node);

  using AcceptHandler = std::function<void(Socket&)>;
  void listen(Port port, AcceptHandler handler);

  /// Open a connection; returns immediately, `on_connect` fires when the
  /// handshake completes.
  Socket& connect(NodeId remote, Port remote_port);

  // Transport seam (net/transport.h). `Endpoint::node` addresses the peer;
  // `Endpoint::address` is ignored on this backend.
  Stream& dial(const Endpoint& remote) override { return connect(remote.node, remote.port); }
  Port listen_stream(Port port, StreamHandler on_accept) override;
  Scheduler& scheduler() override { return simulator(); }

  NodeId node() const { return node_; }
  Network& network() { return network_; }
  Simulator& simulator() { return network_.simulator(); }

 private:
  friend class Socket;

  void handle_packet(const Packet& p);
  Socket& new_socket();

  struct ConnKey {
    Port local_port;
    NodeId remote_node;
    Port remote_port;
    auto operator<=>(const ConnKey&) const = default;
  };

  Network& network_;
  NodeId node_;
  Port next_ephemeral_ = 40000;
  std::map<Port, AcceptHandler> listeners_;
  std::map<ConnKey, Socket*> connections_;
  std::vector<std::unique_ptr<Socket>> sockets_;
  crypto::Drbg isn_rng_;
};

}  // namespace mbtls::net
