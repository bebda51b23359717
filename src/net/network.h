// Simulated network: nodes, point-to-point links (propagation delay +
// serialization rate + loss), shortest-path routing, and link taps.
//
// Link taps are the adversary/filter hook: a tap sees every packet crossing
// a link and can pass, modify, drop, or inject packets. The Table-1 attack
// harness and the Table-2 on-path filter models are implemented as taps.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "net/simulator.h"
#include "net/transport.h"
#include "util/bytes.h"
#include "util/trace.h"

namespace mbtls::net {

/// TCP segment flags.
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
};

/// The only packet type in the simulation is a TCP segment; the experiments
/// need nothing else.
struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  Port src_port = 0;
  Port dst_port = 0;
  TcpFlags flags;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  Bytes payload;

  std::size_t wire_size() const { return payload.size() + 54; }  // headers
};

struct LinkConfig {
  Time propagation = 0;         // one-way delay
  double bandwidth_bps = 0;     // 0 = infinite
  double loss_rate = 0;         // independent per-packet loss probability
};

/// Action a tap takes on a packet.
enum class TapVerdict { kPass, kDrop };

/// Tap callback: may mutate the packet in place; return kDrop to discard.
/// `a_to_b` tells the direction relative to how the link was added.
using LinkTap = std::function<TapVerdict(Packet& packet, bool a_to_b)>;

class Network {
 public:
  explicit Network(Simulator& sim, std::uint64_t loss_seed = 0);

  NodeId add_node(std::string name);
  const std::string& node_name(NodeId id) const { return names_.at(id); }

  /// Add a bidirectional link.
  void add_link(NodeId a, NodeId b, const LinkConfig& config);

  /// Install a tap on the (a, b) link. Multiple taps run in install order.
  void add_tap(NodeId a, NodeId b, LinkTap tap);

  /// Inject a packet as if it originated at `at_node` (used by attackers to
  /// forge traffic). It is routed normally toward packet.dst.
  void inject(NodeId at_node, Packet packet);

  /// Deliver a packet from its src to its dst across the routed path.
  void send(Packet packet);

  /// Handler invoked when a packet reaches its destination node.
  using DeliveryHandler = std::function<void(const Packet&)>;
  void set_delivery_handler(NodeId node, DeliveryHandler handler);

  /// One-way propagation delay along the routed path (for test assertions).
  Time path_delay(NodeId a, NodeId b) const;

  Simulator& simulator() { return sim_; }

  /// Attach a trace sink: segment send/recv, retransmits, tap verdicts, and
  /// random losses are emitted under "net:<node>" actors. Null (the default)
  /// keeps the forwarding path branch-only. Timestamps come from whatever
  /// clock the sink stamps with — harnesses install the simulator's.
  void set_trace(trace::Sink* sink) { trace_sink_ = sink; }
  bool trace_on() const { return trace_sink_ != nullptr; }
  trace::Emitter node_trace(NodeId id) const {
    return trace::Emitter(trace_sink_, "net:" + names_.at(id));
  }

 private:
  struct Link {
    NodeId a, b;
    LinkConfig config;
    Time next_free_a_to_b = 0;  // serialization bookkeeping per direction
    Time next_free_b_to_a = 0;
    std::vector<LinkTap> taps;
  };

  void forward(Packet packet, NodeId at);
  Link* find_link(NodeId a, NodeId b);
  void recompute_routes();

  Simulator& sim_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::vector<Link*>> adjacency_;       // per node
  std::vector<std::vector<NodeId>> next_hop_;       // routing table
  std::vector<DeliveryHandler> handlers_;
  crypto::Drbg loss_rng_;
  trace::Sink* trace_sink_ = nullptr;
};

}  // namespace mbtls::net
