// Multi-loop posix data plane: N EpollLoop instances on N threads, sharded
// by the kernel.
//
// One EpollLoop on one core tops out around ~1.2 Gbps of reprotected mbTLS
// traffic (BENCH_c10k.json). A LoopGroup is the middlebox's multi-core data
// plane: it adds cores without adding a single cross-thread handoff to the
// data path:
//
//  * Accept sharding is the kernel's job. Every loop binds its own
//    SO_REUSEPORT listener on the same port; the kernel hashes each incoming
//    4-tuple to one listener, so a connection is born on the loop that will
//    own it forever. No shared accept lock, no fd passing.
//  * Loop affinity is an invariant, not a policy. A session's fds (and its
//    bindings, sessions, and DRBGs) live and die on the loop that accepted
//    or dialed them; nothing ever migrates. Everything a loop touches is
//    single-threaded — exactly the discipline EpollLoop already demands —
//    so N loops need no locks beyond what they share deliberately: the
//    process-wide control-plane caches (tls::SessionCache, CertPool,
//    QuoteVerifyCache), which are mutex-striped for exactly this shape.
//  * Outbound dials are assigned, not raced. pick_loop() implements
//    round-robin or least-sessions placement; post_dial() runs the caller's
//    dial-and-wire function on the chosen loop's thread via the eventfd
//    wakeup, so external threads never touch a loop directly.
//  * Stop is graceful. stop(drain_budget) wakes every loop, lets each keep
//    polling until it is idle (or the budget expires — in-flight sessions
//    are reset by loop teardown, never by a race), then joins the threads.
//
// Thread discipline mirrors tests/test_posix_loopback.cpp: wire listeners
// before start(); after start(), reach a loop only through post()/post_dial()
// or from its own callbacks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/posix/epoll_loop.h"

namespace mbtls::net::posix {

class LoopGroup {
 public:
  /// How pick_loop() places outbound dials.
  enum class DialPolicy {
    kRoundRobin,     // deterministic rotation — uniform for uniform sessions
    kLeastSessions,  // lowest open_streams() — adapts to skewed lifetimes
  };

  struct Options {
    std::size_t loops = 2;  // clamped to >= 1
    DialPolicy dial_policy = DialPolicy::kRoundRobin;
  };

  LoopGroup();
  explicit LoopGroup(Options options);
  ~LoopGroup();  // stops and joins if still running
  LoopGroup(const LoopGroup&) = delete;
  LoopGroup& operator=(const LoopGroup&) = delete;

  std::size_t size() const { return loops_.size(); }
  EpollLoop& loop(std::size_t i) { return *loops_[i]; }

  /// Runs on the owning loop's thread for every kernel-sharded accept.
  using GroupAcceptHandler = std::function<void(std::size_t loop_index, Stream&)>;

  /// Bind one SO_REUSEPORT listener per loop on the same port (0 = let the
  /// first loop pick an ephemeral port, then bind the rest to it). Returns
  /// the bound port. Call before start().
  Port listen(Port port, GroupAcceptHandler on_accept);

  /// Pick a loop for the next outbound dial under the configured policy.
  std::size_t pick_loop();

  /// Thread-safe: run `fn` on loop `i`'s thread (its next dispatch round).
  void post(std::size_t i, std::function<void()> fn);

  /// pick_loop() + post(): run `fn(loop, index)` on the chosen loop's
  /// thread — the caller dials and wires its session in there, keeping the
  /// new fds loop-affine from birth. Returns the chosen index.
  std::size_t post_dial(std::function<void(EpollLoop&, std::size_t)> fn);

  /// Spawn one driver thread per loop. `tick`, when set, runs on each
  /// loop's own thread after every dispatch round — the hook a benchmark
  /// uses to refill writable sessions without cross-thread posting.
  void start(std::function<void(std::size_t loop_index)> tick = {});

  /// Graceful stop: request shutdown, wake every loop, and let each drain
  /// (keep polling until idle()) for up to `drain_budget` microseconds of
  /// extra polling before joining. 0 = stop at the next dispatch round.
  void stop(Time drain_budget = 0);

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Kernel-sharded accepts per loop (how balanced SO_REUSEPORT left us).
  std::vector<std::uint64_t> accept_counts() const;

  /// CPU nanoseconds burned by loop `i`'s driver thread so far (sampled on
  /// the thread each round with CLOCK_THREAD_CPUTIME_ID; readable while
  /// running). The busiest loop's delta over a measurement window is the
  /// capacity bottleneck, whatever the host's core count.
  std::uint64_t cpu_nanos_on(std::size_t i) const {
    return cpu_nanos_[i]->load(std::memory_order_relaxed);
  }

 private:
  void drive(std::size_t i, const std::function<void(std::size_t)>& tick);

  std::vector<std::unique_ptr<EpollLoop>> loops_;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> accepted_;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> cpu_nanos_;
  std::vector<std::thread> threads_;
  DialPolicy dial_policy_;
  std::atomic<std::size_t> next_loop_{0};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<Time> drain_budget_{0};
};

}  // namespace mbtls::net::posix
