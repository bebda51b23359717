// C10K/C20K load harness for the posix transport backend: N concurrent
// mbTLS sessions from a client LoopGroup, through a middlebox LoopGroup,
// into a server LoopGroup — 3×L event-loop threads, real TCP over
// 127.0.0.1, with SO_REUSEPORT sharding accepts across the middlebox and
// server loops (net/posix/loop_group.h).
//
// Phase 1 dials every session at once (posted to each client loop so the
// storm itself is loop-affine) and measures time-to-established per session
// (p50/p99 under the resulting connection storm — queueing included, that
// is the point). Phase 2 holds the sessions open and pushes application
// records from every session for a fixed window, with writability-gated
// sending so the bindings' backpressure buffering is on the measured path;
// steady-state goodput is what the server tier decrypts.
//
// Two throughputs are reported per row:
//  * wall_gbps    — decrypted bits / wall-clock window. Honest about this
//                   box, meaningless for scaling claims on a small one.
//  * capacity_gbps — decrypted bits / busiest-loop CPU time over the same
//                   window: the single-core-honest capacity metric (bits
//                   per second of the bottleneck loop, which is what adding
//                   cores buys).
//    The --grid scaling floor (4-loop capacity >= 2.5x 1-loop) is enforced
//    on capacity_gbps; scripts/bench.sh runs it on every full run.
//
//   bench_c10k [--loops L] [--sessions N] [--payload BYTES] [--seconds S]
//              [--quick] [--grid] [--json PATH]
//
// --grid runs the loop grid {1,2,4} at --sessions plus a 10k-session row at
// 4 loops (quick grids shrink to {1,2} x 25 sessions and skip the floor),
// and fails if 4-loop capacity lands under the floor or any handshake fails.
//
// Fd budget: ~4 fds per concurrent session (client 1, middlebox 2, server 1)
// plus 3 per loop per tier (epoll + eventfd wakeup + listener). The harness
// raises RLIMIT_NOFILE to the hard cap, records the effective limit in the
// JSON, and derives a max-concurrent budget from it (with 1/3 headroom for
// in-flight teardown). A row whose --sessions exceeds the budget still runs
// every handshake — as a sliding-window storm: at most `max_concurrent`
// sessions are open at once, and each establishment beyond the window closes
// the finishing session and dials the next. On a box with real ulimit
// headroom the window covers all sessions and the row degenerates to the
// plain hold-everything-open storm; either way 0 failed handshakes is the
// bar, and `max_concurrent` lands in the JSON so the two shapes are
// distinguishable.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "mbtls/cache.h"
#include "mbtls/transport.h"
#include "net/posix/loop_group.h"

namespace mbtls::bench {
namespace {

using namespace mb;
using net::Stream;
using net::posix::EpollLoop;
using net::posix::LoopGroup;

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (idx - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Raise RLIMIT_NOFILE to the hard cap unconditionally and return the
/// effective soft limit; the concurrency budget is derived from it.
rlim_t raise_fd_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
  }
  getrlimit(RLIMIT_NOFILE, &lim);
  return lim.rlim_cur;
}

/// How many sessions can be open at once under `limit`: 4 fds per session
/// (client + 2 middlebox + server) after subtracting the per-loop overhead
/// (epoll + eventfd per loop per tier, SO_REUSEPORT listener per
/// middlebox/server loop), keeping 1/3 headroom for sessions still tearing
/// down when the sliding window has already dialed their replacements.
/// Returns 0 when even a trivial storm does not fit (refuse loudly rather
/// than die mid-storm on EMFILE).
std::size_t concurrent_budget(rlim_t limit, std::size_t loops) {
  const std::size_t overhead = loops * 2 * 3 + loops * 2 + 64;
  if (static_cast<std::size_t>(limit) < overhead + 4 * 16) return 0;
  return (static_cast<std::size_t>(limit) - overhead) / 4 * 2 / 3;
}

struct RowConfig {
  int sessions = 500;
  std::size_t loops = 1;
  std::size_t max_concurrent = 0;  // sliding-window cap; set from the fd budget
  std::size_t payload = 16 * 1024;
  double seconds = 2.0;     // steady-state measurement window
  double warmup_s = 0.25;   // discarded send time before the window
  int wait_limit_ms = 300'000;
};

struct RowResult {
  RowConfig cfg;
  int established = 0;
  int failed = 0;
  double p50 = 0, p99 = 0, mean = 0, ci95 = 0;
  std::uint64_t window_bytes = 0;
  double window_s = 0;
  double wall_gbps = 0;
  double capacity_gbps = 0;
  std::vector<std::uint64_t> mbox_accepts;
  std::size_t cache_entries = 0;
};

struct ClientSlot {
  std::unique_ptr<ClientSession> session;
  std::unique_ptr<SocketBinding<ClientSession>> binding;
  Stream* stream = nullptr;
  Clock::time_point dialed_at{};
  Clock::time_point established_at{};
  bool established = false;
  bool failed = false;
  bool churned = false;  // closed right after establishing to free its window slot
};

RowResult run_row(const RowConfig& cfg, const Identity& server_id, const Identity& mbox_id) {
  RowResult res;
  res.cfg = cfg;
  const std::size_t loops = cfg.loops;
  const int sessions = cfg.sessions;

  // The process-wide control plane every loop shares: mutex-striped caches
  // built for exactly this many-loops-one-process shape (mbtls/cache.h).
  ShardedSessionCache session_cache;
  CertPool cert_pool;

  std::atomic<bool> sending{false};
  std::atomic<int> established{0}, failed{0};
  std::atomic<std::uint64_t> server_bytes{0};

  // --- server tier ----------------------------------------------------------
  struct ServerSlot {
    std::unique_ptr<ServerSession> session;
    std::unique_ptr<SocketBinding<ServerSession>> binding;
  };
  LoopGroup server_group({loops, LoopGroup::DialPolicy::kRoundRobin});
  std::vector<std::vector<std::unique_ptr<ServerSlot>>> server_slots(loops);
  const net::Port server_port =
      server_group.listen(0, [&](std::size_t li, Stream& s) {
        auto slot = std::make_unique<ServerSlot>();
        ServerSession::Options sopts;
        sopts.tls.private_key = server_id.key;
        sopts.tls.certificate_chain = server_id.chain;
        sopts.tls.rng_seed = 7000 + li * 100'000 + server_slots[li].size();
        sopts.tls.session_cache = &session_cache;
        sopts.tls.cert_pool = &cert_pool;
        slot->session = std::make_unique<ServerSession>(std::move(sopts));
        slot->binding = std::make_unique<SocketBinding<ServerSession>>(*slot->session, s);
        ServerSlot* raw = slot.get();
        auto inner = std::move(s.on_data);
        s.on_data = [&server_bytes, raw, inner = std::move(inner)](ByteView d) {
          if (inner) inner(d);
          server_bytes.fetch_add(raw->session->take_app_data().size(),
                                 std::memory_order_relaxed);
        };
        server_slots[li].push_back(std::move(slot));
      });

  // --- middlebox tier -------------------------------------------------------
  // Each loop is a complete middlebox front: its own accepted streams, its
  // own upstream dials (same loop — a session's fds never migrate), its own
  // bindings. Only the striped caches are shared.
  struct MbSlot {
    std::unique_ptr<Middlebox> mbox;
    std::unique_ptr<MiddleboxBinding> binding;
  };
  LoopGroup mbox_group({loops, LoopGroup::DialPolicy::kRoundRobin});
  std::vector<std::vector<std::unique_ptr<MbSlot>>> mb_slots(loops);
  const net::Port mbox_port =
      mbox_group.listen(0, [&](std::size_t li, Stream& down) {
        auto slot = std::make_unique<MbSlot>();
        Middlebox::Options mopts;
        mopts.name = "c10kproxy.example";
        mopts.side = Middlebox::Side::kClientSide;
        mopts.private_key = mbox_id.key;
        mopts.certificate_chain = mbox_id.chain;
        mopts.session_cache = &session_cache;
        slot->mbox = std::make_unique<Middlebox>(std::move(mopts));
        Stream& up = mbox_group.loop(li).dial({0, server_port, "127.0.0.1"});
        slot->binding = std::make_unique<MiddleboxBinding>(*slot->mbox, down, up);
        mb_slots[li].push_back(std::move(slot));
      });

  // --- client tier ----------------------------------------------------------
  // Slots are fully materialized (and loop-assigned via pick_loop) before
  // any thread starts; the dial storm itself is posted so each loop opens
  // its own connections on its own thread.
  LoopGroup client_group({loops, LoopGroup::DialPolicy::kRoundRobin});
  std::vector<std::vector<std::unique_ptr<ClientSlot>>> clients(loops);
  for (int i = 0; i < sessions; ++i) {
    auto slot = std::make_unique<ClientSlot>();
    ClientSession::Options copts;
    copts.tls.trust_anchors = {ca().root()};
    copts.tls.server_name = "c10k.example";
    copts.tls.rng_seed = 9000 + static_cast<std::uint64_t>(i);
    copts.tls.cert_pool = &cert_pool;
    slot->session = std::make_unique<ClientSession>(std::move(copts));
    clients[client_group.pick_loop()].push_back(std::move(slot));
  }

  crypto::Drbg payload_rng("c10k-payload", 1);
  const Bytes chunk = payload_rng.bytes(cfg.payload);

  // Acceptor tiers first, then the clients with their refill tick.
  server_group.start();
  mbox_group.start();
  client_group.start([&](std::size_t li) {
    if (!sending.load(std::memory_order_acquire)) return;
    for (auto& c : clients[li]) {
      if (c->established && c->stream && c->stream->writable() && c->session->established()) {
        c->session->send(chunk);
        c->binding->flush();
      }
    }
  });

  // Phase 1: the dial storm. With max_concurrent >= sessions this is one
  // posted batch per client loop, everything open at once; otherwise it is
  // a sliding window — a session that establishes while undialed slots
  // remain closes itself, and its stream's on_close (fd freed) dials the
  // next slot. All per-slot state is loop-affine: next_dial[li] and the
  // slot vectors are touched only on loop li's thread after start().
  const std::size_t window =
      cfg.max_concurrent == 0 ? static_cast<std::size_t>(sessions) : cfg.max_concurrent;
  std::vector<std::size_t> next_dial(loops, 0);
  // run_row joins every loop thread (LoopGroup::stop) before this frame
  // unwinds, so reference captures of dial_one and the locals are safe.
  std::function<void(std::size_t)> dial_one = [&](std::size_t li) {
    auto& slots = clients[li];
    if (next_dial[li] >= slots.size()) return;
    ClientSlot* raw = slots[next_dial[li]++].get();
    EpollLoop& loop = client_group.loop(li);
    raw->dialed_at = Clock::now();
    raw->stream = &loop.dial({0, mbox_port, "127.0.0.1"});
    raw->stream->on_connect = [raw] { raw->session->start(); };
    raw->binding =
        std::make_unique<SocketBinding<ClientSession>>(*raw->session, *raw->stream);
    auto inner = std::move(raw->stream->on_data);
    raw->stream->on_data = [raw, li, &next_dial, &clients, &established, &failed,
                            inner = std::move(inner)](ByteView d) {
      if (inner) inner(d);
      if (!raw->established && raw->session->established()) {
        raw->established = true;
        raw->established_at = Clock::now();
        established.fetch_add(1, std::memory_order_release);
        // Checked now, not at dial time: only churn while this loop still
        // has undialed slots (loop-affine read of next_dial[li]).
        if (next_dial[li] < clients[li].size()) {
          // Hand the window slot on: orderly close_notify + FIN, then the
          // on_close below dials the replacement once the fd is gone.
          raw->churned = true;
          raw->session->close();
          raw->binding->flush();
          raw->stream->close();
        }
      } else if (!raw->failed && raw->session->failed()) {
        raw->failed = true;
        failed.fetch_add(1, std::memory_order_release);
      }
    };
    auto inner_close = std::move(raw->stream->on_close);
    raw->stream->on_close = [raw, li, &dial_one, inner_close = std::move(inner_close)] {
      if (inner_close) inner_close();
      if (raw->churned) dial_one(li);
    };
  };
  for (std::size_t li = 0; li < loops; ++li) {
    client_group.post(li, [&, li] {
      const std::size_t share = window / loops + (li < window % loops ? 1 : 0);
      const std::size_t initial = std::min(clients[li].size(), std::max<std::size_t>(1, share));
      for (std::size_t j = 0; j < initial; ++j) dial_one(li);
    });
  }

  for (int waited = 0; waited < cfg.wait_limit_ms; waited += 20) {
    if (established.load(std::memory_order_acquire) + failed.load(std::memory_order_acquire) >=
        sessions)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  res.established = established.load(std::memory_order_acquire);
  res.failed = failed.load(std::memory_order_acquire);

  // Phase 2: steady-state window with per-loop CPU accounting. The busiest
  // loop over the window is the capacity bottleneck.
  const std::size_t all_loops = loops * 3;
  std::vector<std::uint64_t> cpu0(all_loops), cpu1(all_loops);
  auto sample_cpus = [&](std::vector<std::uint64_t>& out) {
    for (std::size_t i = 0; i < loops; ++i) {
      out[i] = server_group.cpu_nanos_on(i);
      out[loops + i] = mbox_group.cpu_nanos_on(i);
      out[2 * loops + i] = client_group.cpu_nanos_on(i);
    }
  };
  if (res.established > 0) {
    sending.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(cfg.warmup_s));
    const std::uint64_t bytes0 = server_bytes.load(std::memory_order_relaxed);
    sample_cpus(cpu0);
    const auto w0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds));
    const std::uint64_t bytes1 = server_bytes.load(std::memory_order_relaxed);
    sample_cpus(cpu1);
    const auto w1 = Clock::now();
    sending.store(false, std::memory_order_release);
    res.window_bytes = bytes1 - bytes0;
    res.window_s = std::chrono::duration<double>(w1 - w0).count();
    res.wall_gbps = static_cast<double>(res.window_bytes) * 8.0 / res.window_s / 1e9;
    std::uint64_t busiest_ns = 0;
    for (std::size_t i = 0; i < all_loops; ++i)
      busiest_ns = std::max(busiest_ns, cpu1[i] - cpu0[i]);
    if (busiest_ns > 0)
      res.capacity_gbps = static_cast<double>(res.window_bytes) * 8.0 /
                          (static_cast<double>(busiest_ns) / 1e9) / 1e9;
  }

  client_group.stop();
  mbox_group.stop();
  server_group.stop();

  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(res.established));
  for (const auto& per_loop : clients)
    for (const auto& c : per_loop)
      if (c->established) latencies.push_back(ms_between(c->dialed_at, c->established_at));
  std::sort(latencies.begin(), latencies.end());
  res.p50 = percentile(latencies, 50);
  res.p99 = percentile(latencies, 99);
  const Stats lat_stats = stats_of(latencies);
  res.mean = lat_stats.mean;
  res.ci95 = lat_stats.ci95;
  res.mbox_accepts = mbox_group.accept_counts();
  res.cache_entries = session_cache.size();
  return res;
}

void print_row(const RowResult& r) {
  std::printf("bench_c10k: loops=%zu sessions=%d (window %zu) established=%d failed=%d\n",
              r.cfg.loops, r.cfg.sessions, r.cfg.max_concurrent, r.established, r.failed);
  std::printf("  handshake latency under storm: p50=%.1f ms  p99=%.1f ms  mean=%.1f ms\n",
              r.p50, r.p99, r.mean);
  std::printf("  steady state: wall %.3f Gbps, capacity %.3f Gbps "
              "(%llu bytes over %.2f s, %zu-byte records)\n",
              r.wall_gbps, r.capacity_gbps, static_cast<unsigned long long>(r.window_bytes),
              r.window_s, r.cfg.payload);
  std::printf("  middlebox accepts per loop:");
  for (const std::uint64_t a : r.mbox_accepts)
    std::printf(" %llu", static_cast<unsigned long long>(a));
  std::printf("  (session-cache entries: %zu)\n", r.cache_entries);
}

std::string row_json(const RowResult& r) {
  char buf[1024];
  std::string accepts = "[";
  for (std::size_t i = 0; i < r.mbox_accepts.size(); ++i) {
    accepts += (i ? "," : "") + std::to_string(r.mbox_accepts[i]);
  }
  accepts += "]";
  std::snprintf(buf, sizeof(buf),
                "{\"loops\":%zu,\"sessions\":%d,\"max_concurrent\":%zu,"
                "\"established\":%d,\"failed\":%d,"
                "\"handshake_ms\":{\"p50\":%.3f,\"p99\":%.3f,\"mean\":%.3f,\"ci95\":%.3f},"
                "\"payload_bytes\":%zu,\"window_seconds\":%.3f,\"window_bytes\":%llu,"
                "\"wall_gbps\":%.4f,\"capacity_gbps\":%.4f,"
                "\"mbox_accepts\":%s,\"session_cache_entries\":%zu}",
                r.cfg.loops, r.cfg.sessions, r.cfg.max_concurrent, r.established, r.failed,
                r.p50, r.p99, r.mean,
                r.ci95, r.cfg.payload, r.window_s,
                static_cast<unsigned long long>(r.window_bytes), r.wall_gbps, r.capacity_gbps,
                accepts.c_str(), r.cache_entries);
  return buf;
}

int run(int argc, char** argv) {
  const auto flag = [&](const char* name) {
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == name) return true;
    return false;
  };
  const bool quick = flag("--quick");
  const bool grid = flag("--grid");
  const std::string sessions_s = value_arg(argc, argv, "--sessions");
  const std::string payload_s = value_arg(argc, argv, "--payload");
  const std::string seconds_s = value_arg(argc, argv, "--seconds");
  const std::string loops_s = value_arg(argc, argv, "--loops");

  RowConfig base;
  base.sessions = sessions_s.empty() ? (quick ? 25 : 500) : std::atoi(sessions_s.c_str());
  base.loops = loops_s.empty() ? 1 : static_cast<std::size_t>(std::atol(loops_s.c_str()));
  if (!payload_s.empty()) base.payload = static_cast<std::size_t>(std::atol(payload_s.c_str()));
  base.seconds = seconds_s.empty() ? (quick ? 0.3 : 2.0) : std::atof(seconds_s.c_str());
  if (quick) base.warmup_s = 0.05;

  constexpr double kScalingFloor = 2.5;  // 4-loop capacity vs 1-loop capacity
  constexpr int kBigSessions = 10'000;

  std::vector<RowConfig> rows;
  if (grid) {
    const std::vector<std::size_t> loop_grid = quick ? std::vector<std::size_t>{1, 2}
                                                     : std::vector<std::size_t>{1, 2, 4};
    for (const std::size_t l : loop_grid) {
      RowConfig cfg = base;
      cfg.loops = l;
      rows.push_back(cfg);
    }
    if (!quick) {
      RowConfig big = base;  // the C10K+ row: 10k sessions over 4 loops
      big.loops = 4;
      big.sessions = kBigSessions;
      rows.push_back(big);
    }
  } else {
    rows.push_back(base);
  }

  const rlim_t fd_limit = raise_fd_limit();
  for (RowConfig& cfg : rows) {
    const std::size_t budget = concurrent_budget(fd_limit, cfg.loops);
    if (budget == 0) {
      std::fprintf(stderr,
                   "bench_c10k: RLIMIT_NOFILE=%llu is too small for any storm at --loops %zu\n",
                   static_cast<unsigned long long>(fd_limit), cfg.loops);
      return 2;
    }
    cfg.max_concurrent = std::min(budget, static_cast<std::size_t>(cfg.sessions));
    if (cfg.max_concurrent < static_cast<std::size_t>(cfg.sessions))
      std::printf("bench_c10k: fd limit %llu holds %zu concurrent sessions; "
                  "running %d sessions as a sliding-window storm\n",
                  static_cast<unsigned long long>(fd_limit), cfg.max_concurrent, cfg.sessions);
  }

  // ECDSA identities: cheap enough to sign N times that the transport, not
  // the certificate math, dominates the handshake storm.
  const Identity server_id = make_identity("c10k.example", x509::KeyType::kEcdsaP256);
  const Identity mbox_id = make_identity("c10kproxy.example", x509::KeyType::kEcdsaP256);

  std::vector<RowResult> results;
  bool all_ok = true;
  for (const RowConfig& cfg : rows) {
    results.push_back(run_row(cfg, server_id, mbox_id));
    const RowResult& r = results.back();
    print_row(r);
    if (r.established != r.cfg.sessions || (r.established > 0 && r.window_bytes == 0)) {
      std::fprintf(stderr, "bench_c10k: row loops=%zu sessions=%d FAILED (established=%d)\n",
                   r.cfg.loops, r.cfg.sessions, r.established);
      all_ok = false;
    }
  }

  // The scaling floor: multi-loop sharding must actually buy capacity.
  double scaling_4v1 = 0;
  bool floor_checked = false;
  if (grid && !quick) {
    const RowResult* one = nullptr;
    const RowResult* four = nullptr;
    for (const RowResult& r : results) {
      if (r.cfg.loops == 1 && r.cfg.sessions == base.sessions) one = &r;
      if (r.cfg.loops == 4 && r.cfg.sessions == base.sessions) four = &r;
    }
    if (one && four && one->capacity_gbps > 0) {
      scaling_4v1 = four->capacity_gbps / one->capacity_gbps;
      floor_checked = true;
      std::printf("bench_c10k: capacity scaling 4 loops vs 1 = %.2fx (floor %.1fx)\n",
                  scaling_4v1, kScalingFloor);
      if (scaling_4v1 < kScalingFloor) {
        std::fprintf(stderr, "bench_c10k: scaling floor VIOLATED: %.2fx < %.1fx\n",
                     scaling_4v1, kScalingFloor);
        all_ok = false;
      }
    }
  }

  const std::string json_path = json_arg(argc, argv);
  if (!json_path.empty()) {
    std::string out = "{\"bench\":\"c10k\",\"backend\":\"posix-epoll\",\"fd_limit\":" +
                      std::to_string(static_cast<unsigned long long>(fd_limit));
    if (floor_checked) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), ",\"capacity_scaling_4v1\":%.3f,\"scaling_floor\":%.1f",
                    scaling_4v1, kScalingFloor);
      out += buf;
    }
    out += ",\"rows\":[";
    for (std::size_t i = 0; i < results.size(); ++i)
      out += (i ? "," : "") + row_json(results[i]);
    out += "]}\n";
    if (!write_text_file(json_path, out)) {
      std::fprintf(stderr, "bench_c10k: cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace mbtls::bench

int main(int argc, char** argv) { return mbtls::bench::run(argc, argv); }
