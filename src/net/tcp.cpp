#include "net/tcp.h"

#include <stdexcept>

namespace mbtls::net {

namespace {
std::string flags_str(const TcpFlags& f) {
  std::string s;
  if (f.syn) s += 'S';
  if (f.ack) s += 'A';
  if (f.fin) s += 'F';
  if (f.rst) s += 'R';
  return s;
}
}  // namespace

// --------------------------------------------------------------------- Host

Host::Host(Network& network, NodeId node)
    : network_(network), node_(node), isn_rng_("tcp-isn", node) {
  network_.set_delivery_handler(node_, [this](const Packet& p) { handle_packet(p); });
}

void Host::listen(Port port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

Port Host::listen_stream(Port port, StreamHandler on_accept) {
  listen(port, [handler = std::move(on_accept)](Socket& s) { handler(s); });
  return port;
}

Socket& Host::new_socket() {
  sockets_.push_back(std::unique_ptr<Socket>(new Socket(*this)));
  return *sockets_.back();
}

Socket& Host::connect(NodeId remote, Port remote_port) {
  Socket& s = new_socket();
  s.remote_node_ = remote;
  s.remote_port_ = remote_port;
  s.local_port_ = next_ephemeral_++;
  s.iss_ = isn_rng_.u32();
  s.snd_nxt_ = s.iss_;
  s.snd_una_ = s.iss_;
  s.state_ = Socket::State::kSynSent;
  connections_[ConnKey{s.local_port_, remote, remote_port}] = &s;
  s.send_segment(TcpFlags{.syn = true}, s.snd_nxt_, {});
  s.snd_nxt_ += 1;  // SYN consumes a sequence number
  s.unacked_.push_back({s.iss_, {}, false});
  s.arm_timer();
  return s;
}

void Host::handle_packet(const Packet& p) {
  const ConnKey key{p.dst_port, p.src, p.src_port};
  auto it = connections_.find(key);
  if (it != connections_.end()) {
    it->second->handle_segment(p);
    return;
  }
  // New connection?
  if (p.flags.syn && !p.flags.ack) {
    auto lit = listeners_.find(p.dst_port);
    if (lit != listeners_.end()) {
      Socket& s = new_socket();
      s.remote_node_ = p.src;
      s.remote_port_ = p.src_port;
      s.local_port_ = p.dst_port;
      s.iss_ = isn_rng_.u32();
      s.snd_nxt_ = s.iss_;
      s.snd_una_ = s.iss_;
      s.rcv_nxt_ = p.seq + 1;
      s.state_ = Socket::State::kSynReceived;
      connections_[key] = &s;
      // Let the application wire callbacks before any data arrives.
      lit->second(s);
      s.send_segment([]{ TcpFlags f; f.syn = true; f.ack = true; return f; }(), s.snd_nxt_, {});
      s.snd_nxt_ += 1;
      s.unacked_.push_back({s.iss_, {}, false});
      s.arm_timer();
      return;
    }
  }
  if (!p.flags.rst) {
    // No listener / unknown connection: RST.
    Packet rst;
    rst.src = node_;
    rst.dst = p.src;
    rst.src_port = p.dst_port;
    rst.dst_port = p.src_port;
    rst.flags.rst = true;
    rst.seq = p.ack;
    network_.send(std::move(rst));
  }
}

// ------------------------------------------------------------------- Socket

void Socket::send(ByteView data) {
  if (state_ == State::kClosed || fin_queued_)
    throw std::logic_error("Socket::send on closed socket");
  append(send_queue_, data);
  if (state_ == State::kEstablished) transmit_pending();
}

void Socket::close() {
  if (state_ == State::kClosed || fin_queued_) return;
  fin_queued_ = true;
  if (state_ == State::kEstablished) transmit_pending();
}

void Socket::reset() {
  if (state_ == State::kClosed) return;
  send_segment(TcpFlags{.rst = true}, snd_nxt_, {});
  become_closed();
}

void Socket::send_segment(TcpFlags flags, std::uint64_t seq, ByteView payload) {
  Packet p;
  p.src = host_.node_;
  p.dst = remote_node_;
  p.src_port = local_port_;
  p.dst_port = remote_port_;
  p.flags = flags;
  p.seq = seq;
  p.ack = rcv_nxt_;
  p.payload = to_bytes(payload);
  if (host_.network_.trace_on()) {
    host_.network_.node_trace(host_.node_).instant(
        "net", "seg.send",
        {{"to", host_.network_.node_name(remote_node_)},
         {"flags", flags_str(flags)},
         {"seq", seq},
         {"len", static_cast<std::uint64_t>(payload.size())}});
  }
  host_.network_.send(std::move(p));
}

void Socket::send_ack() { send_segment(TcpFlags{.ack = true}, snd_nxt_, {}); }

void Socket::transmit_pending() {
  // Segment everything queued (no window limit; links provide backpressure
  // through serialization delay only).
  std::size_t off = 0;
  while (off < send_queue_.size()) {
    const std::size_t n = std::min(kMss, send_queue_.size() - off);
    const ByteView chunk(send_queue_.data() + off, n);
    send_segment(TcpFlags{.ack = true}, snd_nxt_, chunk);
    unacked_.push_back({snd_nxt_, to_bytes(chunk), false});
    snd_nxt_ += n;
    off += n;
  }
  send_queue_.clear();
  if (fin_queued_ && !fin_sent_) {
    send_segment(TcpFlags{.ack = true, .fin = true}, snd_nxt_, {});
    unacked_.push_back({snd_nxt_, {}, true});
    snd_nxt_ += 1;
    fin_sent_ = true;
    state_ = State::kFinWait;
  }
  if (!unacked_.empty()) arm_timer();
}

void Socket::arm_timer() {
  const std::uint64_t gen = ++timer_generation_;
  host_.simulator().schedule(rto_, [this, gen] {
    if (gen == timer_generation_) on_timeout();
  });
}

void Socket::on_timeout() {
  if (state_ == State::kClosed || unacked_.empty()) return;
  if (++retransmit_count_ > kMaxRetransmits) {
    // The peer is unreachable. Tell it so (best effort) and surface the
    // give-up as an explicit error rather than a silent close.
    send_segment(TcpFlags{.rst = true}, snd_nxt_, {});
    fail_connection(SocketError::kRetransmitExhausted);
    return;
  }
  if (host_.network_.trace_on()) {
    host_.network_.node_trace(host_.node_).instant(
        "net", "retransmit",
        {{"to", host_.network_.node_name(remote_node_)},
         {"attempt", retransmit_count_},
         {"rto_us", static_cast<std::uint64_t>(rto_)},
         {"outstanding", static_cast<std::uint64_t>(unacked_.size())}});
  }
  // Go-back-N: resend everything outstanding.
  for (const auto& seg : unacked_) {
    TcpFlags flags;
    if (seg.fin) {
      flags.fin = flags.ack = true;
    } else if (seg.seq == iss_) {
      flags.syn = true;
      flags.ack = state_ != State::kSynSent;
    } else {
      flags.ack = true;
    }
    send_segment(flags, seg.seq, seg.payload);
  }
  // Exponential backoff: each consecutive loss doubles the wait, so a dead
  // path costs bounded virtual time while a congested one is not hammered.
  rto_ = std::min(rto_ * 2, kMaxRto);
  arm_timer();
}

void Socket::deliver_in_order() {
  for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
    if (it->first > rcv_nxt_) break;
    if (it->first + it->second.size() > rcv_nxt_) {
      const std::size_t skip = rcv_nxt_ - it->first;
      const Bytes data(it->second.begin() + static_cast<std::ptrdiff_t>(skip), it->second.end());
      rcv_nxt_ += data.size();
      if (on_data && !data.empty()) on_data(data);
    }
    it = out_of_order_.erase(it);
  }
}

void Socket::fail_connection(SocketError error) {
  if (state_ == State::kClosed) return;
  error_ = error;
  if (host_.network_.trace_on()) {
    host_.network_.node_trace(host_.node_).instant(
        "net", "sock_error",
        {{"error", error == SocketError::kPeerReset ? "peer_reset" : "retransmit_exhausted"}});
  }
  if (on_error) {
    auto cb = std::move(on_error);
    on_error = nullptr;
    cb(error);
  }
  become_closed();
}

void Socket::become_closed() {
  if (state_ == State::kClosed) return;  // on_close fires exactly once
  state_ = State::kClosed;
  unacked_.clear();
  out_of_order_.clear();
  ++timer_generation_;  // cancel timers
  if (on_close) {
    auto cb = on_close;
    on_close = nullptr;
    cb();
  }
}

void Socket::handle_segment(const Packet& p) {
  if (state_ == State::kClosed) return;
  if (host_.network_.trace_on()) {
    host_.network_.node_trace(host_.node_).instant(
        "net", "seg.recv",
        {{"from", host_.network_.node_name(p.src)},
         {"flags", flags_str(p.flags)},
         {"seq", p.seq},
         {"len", static_cast<std::uint64_t>(p.payload.size())}});
  }
  if (p.flags.rst) {
    fail_connection(SocketError::kPeerReset);
    return;
  }

  // Handshake transitions.
  if (state_ == State::kSynSent) {
    if (p.flags.syn && p.flags.ack && p.ack == iss_ + 1) {
      rcv_nxt_ = p.seq + 1;
      snd_una_ = p.ack;
      unacked_.clear();
      retransmit_count_ = 0;
      state_ = State::kEstablished;
      send_ack();
      if (on_connect) on_connect();
      transmit_pending();
    }
    return;
  }
  if (state_ == State::kSynReceived) {
    if (p.flags.ack && p.ack >= iss_ + 1) {
      snd_una_ = p.ack;
      unacked_.clear();
      retransmit_count_ = 0;
      state_ = State::kEstablished;
      transmit_pending();
      // Fall through: the ACK may carry data.
    } else if (p.flags.syn && !p.flags.ack) {
      // Duplicate SYN (our SYN-ACK was lost): resend.
      send_segment([]{ TcpFlags f; f.syn = true; f.ack = true; return f; }(), iss_, {});
      return;
    } else {
      return;
    }
  }

  // ACK processing.
  if (p.flags.ack && p.ack > snd_una_) {
    snd_una_ = p.ack;
    retransmit_count_ = 0;
    rto_ = kInitialRto;  // forward progress: reset the backoff
    while (!unacked_.empty() &&
           unacked_.front().seq + std::max<std::size_t>(unacked_.front().payload.size(),
                                                        unacked_.front().fin ? 1 : 0) <=
               snd_una_) {
      unacked_.pop_front();
    }
    if (!unacked_.empty())
      arm_timer();
    else
      ++timer_generation_;  // all acked: cancel timer
  }

  // Data processing.
  if (!p.payload.empty()) {
    if (p.seq + p.payload.size() > rcv_nxt_) {
      out_of_order_[p.seq] = p.payload;
      deliver_in_order();
    }
    send_ack();
  }

  // FIN processing (only once all preceding data has arrived). A peer FIN
  // tears the whole connection down, exactly as on the posix backend (where
  // become_closed drops the fd, which emits our FIN): if we haven't FINed
  // yet, answer with one so the active closer also reaches closed() instead
  // of parking in FinWait forever.
  if (p.flags.fin && !peer_fin_seen_ && p.seq <= rcv_nxt_) {
    peer_fin_seen_ = true;
    rcv_nxt_ = p.seq + 1;
    if (!fin_sent_) {
      send_segment(TcpFlags{.ack = true, .fin = true}, snd_nxt_, {});
      fin_sent_ = true;
    } else {
      send_ack();
    }
    become_closed();
  }
}

}  // namespace mbtls::net
