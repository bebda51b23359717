// Socket-level mbTLS benchmark: one process, one LoopGroup loop per tier
// (client, middlebox, server) over real 127.0.0.1 TCP, in the paper's
// deployment — ECDSA P-256 identities, a client-side mb::Middlebox hosted in a
// simulated SGX enclave, clients that require middlebox attestation and share
// one CertPool and one QuoteVerifyCache.
//
// Every run has three measured phases, alternating in kRounds rounds; the
// workload picks the handshake kind and how the run's seconds are split
// between them (see README.md for why):
//   H  open-loop Poisson handshake arrivals (fresh full, or resumed);
//   B  bulk: 64 established sessions stream 16 KiB records client->server,
//      gated by writability and a 16 MiB window over all sessions;
//   E  echo: one 256-byte request in flight at a time, taking turns over
//      the same 64 sessions; the server echoes it. All three loops run on
//      one CPU during this phase.
//
//   sockbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//             [--commit ID]
//
// The last stdout line is the JSON result. With --trace 1 the run attaches a
// CounterSink per tier to the handshake-phase sessions, times spans around
// every call into the sans-IO layers, probes each layer's public functions,
// and prints per-layer metrics instead of end-to-end ones.
#include <malloc.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "crypto/backend.h"
#include "crypto/gcm.h"
#include "ec/ecdh.h"
#include "mbtls/cache.h"
#include "mbtls/metrics.h"
#include "mbtls/transport.h"
#include "net/posix/loop_group.h"
#include "sgx/attestation.h"
#include "sgx/enclave.h"
#include "tls/prf.h"
#include "tls/session.h"
#include "tls/ticket.h"
#include "x509/verify.h"

namespace sockbench {
namespace {

using namespace mbtls;
using mb::ClientSession;
using mb::Middlebox;
using mb::MiddleboxBinding;
using mb::ServerSession;
using mb::SocketBinding;
using net::Stream;
using net::posix::LoopGroup;

using Clock = std::chrono::steady_clock;

/// CPU time of the calling thread. Spans are timed with it, so they compare
/// with the loop threads' CPU time even when a thread is preempted mid-span.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

constexpr std::size_t kRelaySessions = 64;
constexpr std::size_t kBulkRecord = 16384;
constexpr std::size_t kEchoBytes = 256;
// Bulk bytes sent but not yet verified by the server, over all sessions. The
// kernel's socket buffers hold this much, so records seldom pile up in the
// user-space backlogs, whose grown capacity would count in peak_rss_mb.
constexpr std::uint64_t kBulkWindow = 16 << 20;
constexpr std::size_t kResumeIdentities = 512;
constexpr int kSetupRepeats = 5;
constexpr int kRounds = 10;
constexpr const char* kServerName = "origin.example";
constexpr const char* kMboxName = "proxy.example";
constexpr const char* kEnclaveCode = "sockbench-proxy-v1";

struct Workload {
  std::string name;
  bool resumed = false;    // H arrivals resume a primed identity
  double rate = 100;       // H arrivals per second
  double hs_share = 0.5;   // share of --seconds given to H; B and E split the rest
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"full_attested", false, 100, 0.5},
      {"resumed", true, 1000, 0.5},
      {"relay", false, 100, 0.3},
  };
  return all;
}

enum Tier { kClient = 0, kMbox = 1, kServer = 2, kTiers = 3 };
const char* const kTierName[kTiers] = {"client", "mbox", "server"};

// Phase buckets for traced accounting: spans and counts land in the bucket
// of the phase they started in; anything outside H and B+E is not counted.
enum Phase : int { kIdle = 0, kPhaseH = 1, kPhaseD = 2 };

// ------------------------------------------------------------------ tracing

enum SpanName : std::uint8_t {
  kOnData,     // loop dispatch of one received chunk (self = application glue)
  kOnConnect,  // dial completed: session start + flush
  kOnWritable, // backpressure cleared: flush
  kFeed,       // ClientSession/ServerSession::feed, Middlebox::feed_from_*
  kFlush,      // binding flush: take_output + send syscall
  kSend,       // session send (seal one application record)
  kAccept,     // accept handler: build the session (and dial upstream)
  kArrive,     // one handshake arrival: build the client session and dial
  kTick,       // bulk refill after a dispatch round
  kFree,       // freeing a closed session's objects
  kSpanCount
};
const char* const kSpanName[kSpanCount] = {
    "net.on_data", "net.on_connect", "net.on_writable", "mbtls.feed", "net.flush",
    "mbtls.send",  "net.accept",     "gen.arrive",      "gen.tick",   "gen.free"};

/// Per-tier span recorder. Touched only by its tier's loop thread while the
/// loops run; read by the main thread after they are joined.
struct TierTrace {
  static constexpr std::size_t kKeep = 200'000;  // spans kept for the file
  struct Rec {
    std::uint64_t id, parent, session, start, end, cpu;  // start/end: wall ns
    std::uint8_t name;
  };
  struct Open {
    std::uint64_t id, start, cpu_start, child, session;
    std::uint8_t name;
  };

  const std::atomic<int>* phase = nullptr;
  std::vector<Rec> kept;
  std::uint64_t dropped = 0;
  std::uint64_t next_id = 0;
  std::vector<Open> stack;
  int bucket = -1;
  double incl[2][kSpanCount] = {};
  double self[2][kSpanCount] = {};
  std::uint64_t count[2][kSpanCount] = {};
  double top[2] = {};
  std::uint64_t reads[2] = {};
  std::uint64_t rounds[2] = {};
  mb::CounterSink sink;  // trace events of the H-phase sessions

  int current_bucket() const {
    const int p = phase->load(std::memory_order_relaxed);
    return p == kPhaseH ? 0 : p == kPhaseD ? 1 : -1;
  }
  void note_read() {
    if (const int b = current_bucket(); b >= 0) ++reads[b];
  }
  void note_round() {
    if (const int b = current_bucket(); b >= 0) ++rounds[b];
  }
  void begin(std::uint8_t name, std::uint64_t session) {
    if (stack.empty()) bucket = current_bucket();
    stack.push_back({++next_id, now_ns(), thread_cpu_ns(), 0, session, name});
  }
  void end() {
    const Open o = stack.back();
    stack.pop_back();
    const std::uint64_t dur = thread_cpu_ns() - o.cpu_start;
    if (!stack.empty()) {
      stack.back().child += dur;
    } else if (bucket >= 0) {
      top[bucket] += static_cast<double>(dur);
    }
    if (bucket < 0) return;
    incl[bucket][o.name] += static_cast<double>(dur);
    self[bucket][o.name] += static_cast<double>(dur - std::min(dur, o.child));
    ++count[bucket][o.name];
    if (kept.size() < kKeep) {
      kept.push_back(
          {o.id, stack.empty() ? 0 : stack.back().id, o.session, o.start, now_ns(), dur, o.name});
    } else {
      ++dropped;
    }
  }
};

/// RAII span; a null recorder (untraced run) makes it a single branch.
class Span {
 public:
  Span(TierTrace* t, std::uint8_t name, std::uint64_t session) : t_(t) {
    if (t_) t_->begin(name, session);
  }
  ~Span() {
    if (t_) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TierTrace* t_;
};

// ------------------------------------------------------------------ helpers

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (idx - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

bool wait_for(const std::function<bool()>& pred, double timeout_s) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return true;
}

/// Run `fn` on loop 0 of `group` and wait for its result.
template <typename F>
auto on_loop(LoopGroup& group, F fn) -> decltype(fn()) {
  std::promise<decltype(fn())> done;
  auto result = done.get_future();
  group.post(0, [&] { done.set_value(fn()); });
  return result.get();
}

void put_u64le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

struct Identity {
  std::shared_ptr<x509::PrivateKey> key;
  std::vector<x509::Certificate> chain;
};

Identity issue_identity(const x509::CertificateAuthority& ca, const std::string& cn,
                        crypto::Drbg& rng) {
  Identity id;
  id.key = std::make_shared<x509::PrivateKey>(
      x509::PrivateKey::generate(x509::KeyType::kEcdsaP256, rng));
  x509::CertRequest req;
  req.subject_cn = cn;
  req.san_dns = {cn};
  req.not_after = 2524607999;
  req.key = id.key->public_key();
  id.chain = {ca.issue(req, rng)};
  return id;
}


// --------------------------------------------------------------- deployment

/// One client / middlebox / server deployment on three single-loop groups,
/// plus the control plane they share. Per-session state is owned by the loop
/// that created it and freed on that loop once its streams have closed.
class Deployment {
 public:
  enum class Kind { kPrime, kRelay, kMeasured };

  Deployment(const Workload& wl, std::uint64_t seed, bool traced)
      : seed_(seed),
        traced_(traced),
        key_rng_("sockbench/keys", 0),
        ca_(x509::CertificateAuthority::create("Sockbench Root CA", x509::KeyType::kEcdsaP256,
                                               key_rng_)),
        server_id_(issue_identity(ca_, kServerName, key_rng_)),
        mbox_id_(issue_identity(ca_, kMboxName, key_rng_)),
        platform_(seed),
        enclave_(platform_.launch(kEnclaveCode)),
        measurement_(sgx::measure(kEnclaveCode)),
        tickets_("sockbench-tickets", seed),
        id_caches_(wl.resumed ? kResumeIdentities : 0) {
    for (auto& t : traces_) t.phase = &phase_;
    crypto::Drbg inputs("sockbench/payload", seed);
    bulk_buf_ = inputs.bytes(kBulkRecord);
    bulk_chunk_ = bulk_buf_;
    echo_pool_ = inputs.bytes(kEchoBytes * 1024);
    CPU_ZERO(&all_cpus_);
    sched_getaffinity(0, sizeof all_cpus_, &all_cpus_);
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_cpus_)) cpus_.push_back(c);
  }

  ~Deployment() { stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Start the three tiers, open the relay sessions and, for the resumed
  /// workload, run one full handshake per client identity.
  bool setup() {
    server_port_ = server_.listen(0, [this](std::size_t, Stream& s) { server_accept(s); });
    mbox_port_ = mbox_.listen(0, [this](std::size_t, Stream& s) { mbox_accept(s); });
    server_.start([this](std::size_t) { round(kServer); });
    mbox_.start([this](std::size_t) { round(kMbox); });
    client_.start([this](std::size_t) { client_tick(); });
    for (int t = 0; t < kTiers; ++t) {
      cpu_clock_[t] = on_loop(group(t), [] {
        clockid_t clock{};
        pthread_getcpuclockid(pthread_self(), &clock);
        return clock;
      });
    }
    if (!place_loops(-1)) fail_check("could not place the loops");
    client_.post(0, [this] {
      for (std::size_t i = 0; i < kRelaySessions; ++i) arrive(Kind::kRelay, -1, 0);
    });
    if (!wait_for([this] { return relay_ready_.load() == kRelaySessions || failures_.load(); },
                  60)) {
      fail_check("relay sessions did not establish");
    }
    for (std::size_t base = 0; base < id_caches_.size(); base += kRelaySessions) {
      const std::size_t end = std::min(id_caches_.size(), base + kRelaySessions);
      client_.post(0, [this, base, end] {
        for (std::size_t i = base; i < end; ++i) arrive(Kind::kPrime, static_cast<int>(i), 0);
      });
      if (!wait_for([this, end] { return prime_settled_.load() == end; }, 60)) {
        fail_check("priming handshakes did not finish");
        break;
      }
    }
    return failures_.load() == 0;
  }

  void stop() {
    client_.stop();
    mbox_.stop();
    server_.stop();
  }

  // ------------------------------------------------------------ accessors
  LoopGroup& group(int tier) { return tier == kClient ? client_ : tier == kMbox ? mbox_ : server_; }
  /// CPU time of a tier's loop thread, read now. LoopGroup::cpu_nanos_on
  /// is only refreshed after each dispatch round, and in the bulk phase one
  /// round can last long enough to skew a window's delta.
  double cpu_ns(int tier) const {
    timespec ts{};
    clock_gettime(cpu_clock_[tier], &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
  }

  std::atomic<int> phase_{kIdle};
  TierTrace traces_[kTiers];
  TierTrace* tt(int tier) { return traced_ ? &traces_[tier] : nullptr; }

  // Flags the main thread flips between phases.
  std::atomic<bool> bulk_on_{false}, echo_on_{false}, echo_mode_{false};

  // Cross-thread progress counters.
  std::atomic<std::size_t> relay_ready_{0}, prime_settled_{0}, h_settled_{0};
  std::atomic<std::int64_t> h_open_[kTiers] = {};
  std::atomic<std::uint64_t> bulk_sent_bytes_{0}, bulk_sent_records_{0}, server_bulk_bytes_{0};
  std::atomic<std::uint64_t> echo_done_{0};
  std::atomic<std::int64_t> echo_outstanding_{0};
  std::atomic<std::uint64_t> mbox_h_total_{0}, mbox_h_joined_{0}, mbox_h_resumed_{0};
  std::atomic<std::uint64_t> failures_{0}, h_failed_{0}, auth_failures_{0};

  // Client-loop results (read after the loops are joined).
  struct HsSample {
    std::uint64_t sched_ns;
    double latency_ms;
  };
  std::vector<HsSample> hs_latency_;
  std::vector<double> late_ms_;  // generator thread: post time - scheduled time
  std::uint64_t hs_resumed_ = 0;
  struct EchoSample {
    std::uint64_t done_ns;
    double rtt_us;
  };
  std::vector<EchoSample> echo_rtts_;

  // Control plane.
  mb::ShardedSessionCache server_cache_, mbox_cache_;
  mb::CertPool cert_pool_;
  mb::QuoteVerifyCache quotes_;

  void post_arrival(int identity, std::uint64_t sched_ns) {
    client_.post(0, [this, identity, sched_ns] { arrive(Kind::kMeasured, identity, sched_ns); });
  }

  void start_echo() {
    echo_on_.store(true);
    client_.post(0, [this] {
      send_echo(*relay_[0]);
    });
  }

  /// Sum of a middlebox counter over the live sessions (read on its loop).
  std::uint64_t mbox_sum(std::uint64_t (Middlebox::*counter)() const) {
    return on_loop(mbox_, [this, counter] {
      std::uint64_t total = 0;
      for (auto& [id, slot] : mboxes_) total += ((*slot->mbox).*counter)();
      return total;
    });
  }

  /// Every live middlebox session joined (checked on its loop).
  bool all_live_joined() {
    return on_loop(mbox_, [this] {
      for (auto& [id, slot] : mboxes_)
        if (!slot->mbox->joined()) return false;
      return true;
    });
  }

  /// Place the tiers' loop threads. With k >= 0, all three run on the k-th
  /// CPU this process may use (modulo their count) until the next call: the
  /// echo phase runs on one CPU, so that its RTT is the tiers' work and not
  /// how fast the host wakes an idle vCPU, and the CPU changes every round.
  /// With k < 0, tier t moves to the t-th CPU and may then run on any; the
  /// kernel leaves threads that wake each other on one CPU, and bulk started
  /// that way runs at half speed until it spreads them (README.md).
  bool place_loops(int k) {
    bool ok = true;
    for (int t = 0; t < kTiers; ++t) {
      const std::size_t cpu = static_cast<std::size_t>(k >= 0 ? k : t) % cpus_.size();
      ok &= on_loop(group(t), [this, cpu, k] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[cpu], &one);
        return sched_setaffinity(0, sizeof one, &one) == 0 &&
               (k >= 0 || sched_setaffinity(0, sizeof all_cpus_, &all_cpus_) == 0);
      });
    }
    return ok;
  }

  void fail_check(const std::string& what) {
    if (failures_.fetch_add(1) < 5) std::fprintf(stderr, "sockbench: check failed: %s\n", what.c_str());
  }

  tls::TicketKeyManager::Stats ticket_stats() const { return tickets_.stats(); }

  // Inputs the probes reuse with the exact shapes the sessions use.
  const x509::CertificateAuthority& ca() const { return ca_; }
  const Identity& server_identity() const { return server_id_; }
  const Identity& mbox_identity() const { return mbox_id_; }
  const sgx::Enclave& enclave() const { return enclave_; }

 private:
  struct ClientSlot {
    std::uint64_t id = 0;
    Kind kind = Kind::kMeasured;
    std::uint64_t sched_ns = 0;
    std::unique_ptr<ClientSession> session;
    std::unique_ptr<SocketBinding<ClientSession>> binding;
    Stream* stream = nullptr;
    bool established = false;
    bool failed = false;
    std::uint64_t relay_index = 0;
    std::uint64_t bulk_seq = 0;
    std::uint64_t echo_seq = 0;
    std::uint64_t echo_sent_ns = 0;
    Bytes echo_req, echo_got;
  };
  struct MboxSlot {
    std::uint64_t id = 0;
    bool measured = false;
    std::unique_ptr<Middlebox> mbox;
    std::unique_ptr<MiddleboxBinding> binding;
    Stream* down = nullptr;
    Stream* up = nullptr;
    int closed = 0;
  };
  struct ServerSlot {
    std::uint64_t id = 0;
    bool measured = false;
    std::unique_ptr<ServerSession> session;
    std::unique_ptr<SocketBinding<ServerSession>> binding;
    Stream* stream = nullptr;
    std::uint64_t bulk_pos = 0;
  };

  static void unhook(Stream& s) {
    s.on_connect = nullptr;
    s.on_data = nullptr;
    s.on_close = nullptr;
    s.on_error = nullptr;
    s.on_writable = nullptr;
  }

  /// Wrap the binding's connect/writable hooks in spans (traced runs only).
  void span_hooks(Stream& s, int tier, std::uint64_t id) {
    if (!traced_) return;
    if (s.on_connect) {
      s.on_connect = [this, tier, id, inner = std::move(s.on_connect)] {
        Span sp(tt(tier), kOnConnect, id);
        inner();
      };
    }
    s.on_writable = [this, tier, id, inner = std::move(s.on_writable)] {
      Span sp(tt(tier), kOnWritable, id);
      if (inner) inner();
    };
  }

  void round(int tier) {
    if (TierTrace* t = tt(tier)) t->note_round();
  }

  // ---------------------------------------------------------------- client

  void arrive(Kind kind, int identity, std::uint64_t sched_ns) {
    TierTrace* t = tt(kClient);
    const std::uint64_t id = ++next_client_id_;
    Span sp(t, kArrive, id);
    auto slot = std::make_unique<ClientSlot>();
    ClientSlot* raw = slot.get();
    raw->id = id;
    raw->kind = kind;
    raw->sched_ns = sched_ns;
    ClientSession::Options o;
    o.tls.trust_anchors = {ca_.root()};
    o.tls.server_name = kServerName;
    o.tls.rng_label = "sockbench-client";
    o.tls.rng_seed = seed_ * 100'000'000ull + id;
    o.tls.cert_pool = &cert_pool_;
    o.tls.quote_verifier = &quotes_;
    o.require_middlebox_attestation = true;
    o.expected_middlebox_measurement = measurement_;
    if (identity >= 0) {
      o.tls.session_cache = &id_caches_[static_cast<std::size_t>(identity)];
      o.tls.offer_resumption = true;
    }
    if (t && kind == Kind::kMeasured) {
      o.trace_sink = &t->sink;
      o.trace_actor = "client";
    }
    raw->session = std::make_unique<ClientSession>(std::move(o));
    Stream& s = client_.loop(0).dial({0, mbox_port_, "127.0.0.1"});
    raw->stream = &s;
    s.on_connect = [raw] { raw->session->start(); };
    raw->binding = std::make_unique<SocketBinding<ClientSession>>(*raw->session, s);
    span_hooks(s, kClient, id);
    s.on_data = [this, raw](ByteView d) { client_data(*raw, d); };
    s.on_close = [this, raw, inner = std::move(s.on_close)] {
      if (inner) inner();
      client_closed(*raw);
    };
    if (kind == Kind::kMeasured) h_open_[kClient].fetch_add(1);
    if (kind == Kind::kRelay) {
      raw->relay_index = relay_.size();
      relay_.push_back(raw);
    }
    clients_.emplace(id, std::move(slot));
  }

  void client_data(ClientSlot& slot, ByteView d) {
    TierTrace* t = tt(kClient);
    Span sp(t, kOnData, slot.id);
    if (t) t->note_read();
    {
      Span f(t, kFeed, slot.id);
      slot.session->feed(d);
    }
    {
      Span f(t, kFlush, slot.id);
      slot.binding->flush();
    }
    ClientSession& cs = *slot.session;
    if (!slot.established && !slot.failed) {
      if (cs.established()) {
        client_established(slot);
      } else if (cs.failed()) {
        client_failed(slot, cs.error_message());
        slot.stream->close();
      }
    }
    if (slot.kind == Kind::kRelay && slot.established) {
      const Bytes app = cs.take_app_data();
      if (!app.empty()) echo_bytes(slot, app);
    }
  }

  void client_established(ClientSlot& slot) {
    slot.established = true;
    ClientSession& cs = *slot.session;
    const bool resumed = cs.primary().resumed();
    const auto boxes = cs.middleboxes();
    // A resumed secondary carries no fresh quote (§3.5): the cached master
    // secret came from an attested handshake.
    if (boxes.size() != 1 || !(boxes[0].attested || resumed))
      fail_check("handshake established without an attested middlebox");
    if (slot.kind == Kind::kMeasured) {
      hs_latency_.push_back({slot.sched_ns, static_cast<double>(now_ns() - slot.sched_ns) / 1e6});
      if (resumed) ++hs_resumed_;
    }
    if (slot.kind == Kind::kRelay) {
      relay_ready_.fetch_add(1);
      return;
    }
    cs.close();  // close_notify, then FIN
    {
      Span f(tt(kClient), kFlush, slot.id);
      slot.binding->flush();
    }
    slot.stream->close();
  }

  void client_failed(ClientSlot& slot, const std::string& why) {
    slot.failed = true;
    fail_check("client session failed: " + why);
    if (slot.kind == Kind::kMeasured) {
      hs_latency_.push_back({slot.sched_ns, std::numeric_limits<double>::infinity()});
      h_failed_.fetch_add(1);
    }
  }

  void client_closed(ClientSlot& slot) {
    if (!slot.established && !slot.failed) client_failed(slot, "transport closed in handshake");
    if (slot.kind == Kind::kRelay) fail_check("relay session closed during the run");
    const std::uint64_t id = slot.id;
    client_.loop(0).post([this, id] { free_client(id); });
  }

  void free_client(std::uint64_t id) {
    Span sp(tt(kClient), kFree, id);
    const auto it = clients_.find(id);
    const Kind kind = it->second->kind;
    unhook(*it->second->stream);
    clients_.erase(it);
    if (kind == Kind::kMeasured) {
      h_open_[kClient].fetch_sub(1);
      h_settled_.fetch_add(1);
    } else if (kind == Kind::kPrime) {
      prime_settled_.fetch_add(1);
    }
  }

  void client_tick() {
    TierTrace* t = tt(kClient);
    if (t) t->note_round();
    if (!bulk_on_.load(std::memory_order_acquire)) return;
    Span sp(t, kTick, 0);
    // Up to four records per writable session per round: enough to keep the
    // pipeline full, while writability (the binding's backpressure) and the
    // bulk window gate it.
    for (ClientSlot* s : relay_) {
      for (int k = 0; k < 4 && s->stream->writable() && bulk_in_flight() < kBulkWindow; ++k) {
        put_u64le(bulk_buf_.data(), s->bulk_seq++);
        {
          Span a(t, kSend, s->id);
          s->session->send(bulk_buf_);
        }
        {
          Span a(t, kFlush, s->id);
          s->binding->flush();
        }
        bulk_sent_records_.fetch_add(1, std::memory_order_relaxed);
        bulk_sent_bytes_.fetch_add(kBulkRecord, std::memory_order_release);
      }
    }
  }

  std::uint64_t bulk_in_flight() const {
    return bulk_sent_bytes_.load(std::memory_order_relaxed) -
           server_bulk_bytes_.load(std::memory_order_relaxed);
  }

  void send_echo(ClientSlot& s) {
    TierTrace* t = tt(kClient);
    const std::size_t pool_slots = echo_pool_.size() / kEchoBytes;
    const std::size_t pick = (s.relay_index * 131 + s.echo_seq) % pool_slots;
    s.echo_req.assign(echo_pool_.begin() + static_cast<std::ptrdiff_t>(pick * kEchoBytes),
                      echo_pool_.begin() + static_cast<std::ptrdiff_t>((pick + 1) * kEchoBytes));
    put_u64le(s.echo_req.data(), (s.relay_index << 40) | s.echo_seq);
    ++s.echo_seq;
    s.echo_got.clear();
    echo_outstanding_.fetch_add(1);
    s.echo_sent_ns = now_ns();
    {
      Span a(t, kSend, s.id);
      s.session->send(s.echo_req);
    }
    Span f(t, kFlush, s.id);
    s.binding->flush();
  }

  void echo_bytes(ClientSlot& s, const Bytes& app) {
    append(s.echo_got, app);
    if (s.echo_got.size() < kEchoBytes) return;
    const std::uint64_t t = now_ns();
    if (s.echo_got.size() != kEchoBytes || !equal(s.echo_got, s.echo_req))
      fail_check("echo reply does not match its request");
    echo_rtts_.push_back({t, static_cast<double>(t - s.echo_sent_ns) / 1e3});
    echo_done_.fetch_add(1, std::memory_order_relaxed);
    echo_outstanding_.fetch_sub(1);
    if (echo_on_.load(std::memory_order_acquire))
      send_echo(*relay_[(s.relay_index + 1) % relay_.size()]);
  }

  // ---------------------------------------------------------------- mbox

  void mbox_accept(Stream& down) {
    TierTrace* t = tt(kMbox);
    const std::uint64_t id = ++next_mbox_id_;
    Span sp(t, kAccept, id);
    auto slot = std::make_unique<MboxSlot>();
    MboxSlot* raw = slot.get();
    raw->id = id;
    raw->measured = phase_.load() == kPhaseH;
    Middlebox::Options o;
    o.name = kMboxName;
    o.side = Middlebox::Side::kClientSide;
    o.private_key = mbox_id_.key;
    o.certificate_chain = mbox_id_.chain;
    o.enclave = &enclave_;
    o.session_cache = &mbox_cache_;
    if (t && raw->measured) {
      o.trace_sink = &t->sink;
      o.trace_actor = "mbox";
    }
    raw->mbox = std::make_unique<Middlebox>(std::move(o));
    Stream& up = mbox_.loop(0).dial({0, server_port_, "127.0.0.1"});
    raw->down = &down;
    raw->up = &up;
    raw->binding = std::make_unique<MiddleboxBinding>(*raw->mbox, down, up);
    span_hooks(down, kMbox, id);
    span_hooks(up, kMbox, id);
    for (const bool from_client : {true, false}) {
      Stream& s = from_client ? down : up;
      s.on_data = [this, raw, from_client](ByteView d) {
        TierTrace* tr = tt(kMbox);
        Span on(tr, kOnData, raw->id);
        if (tr) tr->note_read();
        {
          Span f(tr, kFeed, raw->id);
          if (from_client) {
            raw->mbox->feed_from_client(d);
          } else {
            raw->mbox->feed_from_server(d);
          }
        }
        Span f(tr, kFlush, raw->id);
        raw->binding->flush();
      };
      s.on_close = [this, raw, inner = std::move(s.on_close)] {
        if (inner) inner();
        if (++raw->closed == 2) mbox_done(*raw);
      };
    }
    if (raw->measured) h_open_[kMbox].fetch_add(1);
    mboxes_.emplace(id, std::move(slot));
  }

  void mbox_done(MboxSlot& slot) {
    const Middlebox& m = *slot.mbox;
    if (!m.joined()) fail_check("middlebox session ended without joining");
    auth_failures_.fetch_add(m.auth_failures());
    if (slot.measured) {
      mbox_h_total_.fetch_add(1);
      if (m.joined()) mbox_h_joined_.fetch_add(1);
      if (m.resumed()) mbox_h_resumed_.fetch_add(1);
    }
    const std::uint64_t id = slot.id;
    mbox_.loop(0).post([this, id] {
      Span sp(tt(kMbox), kFree, id);
      const auto it = mboxes_.find(id);
      const bool measured = it->second->measured;
      unhook(*it->second->down);
      unhook(*it->second->up);
      mboxes_.erase(it);
      if (measured) h_open_[kMbox].fetch_sub(1);
    });
  }

  // ---------------------------------------------------------------- server

  void server_accept(Stream& s) {
    TierTrace* t = tt(kServer);
    const std::uint64_t id = ++next_server_id_;
    Span sp(t, kAccept, id);
    auto slot = std::make_unique<ServerSlot>();
    ServerSlot* raw = slot.get();
    raw->id = id;
    raw->measured = phase_.load() == kPhaseH;
    ServerSession::Options o;
    o.tls.private_key = server_id_.key;
    o.tls.certificate_chain = server_id_.chain;
    o.tls.rng_label = "sockbench-server";
    o.tls.rng_seed = seed_ * 100'000'000ull + id;
    o.tls.session_cache = &server_cache_;
    o.tls.enable_session_tickets = true;
    o.tls.ticket_keys = &tickets_;
    if (t && raw->measured) {
      o.trace_sink = &t->sink;
      o.trace_actor = "server";
    }
    raw->session = std::make_unique<ServerSession>(std::move(o));
    raw->stream = &s;
    raw->binding = std::make_unique<SocketBinding<ServerSession>>(*raw->session, s);
    span_hooks(s, kServer, id);
    s.on_data = [this, raw](ByteView d) { server_data(*raw, d); };
    s.on_close = [this, raw, inner = std::move(s.on_close)] {
      if (inner) inner();
      const std::uint64_t sid = raw->id;
      server_.loop(0).post([this, sid] {
        Span fsp(tt(kServer), kFree, sid);
        const auto it = servers_.find(sid);
        const bool measured = it->second->measured;
        unhook(*it->second->stream);
        servers_.erase(it);
        if (measured) h_open_[kServer].fetch_sub(1);
      });
    };
    if (raw->measured) h_open_[kServer].fetch_add(1);
    servers_.emplace(id, std::move(slot));
  }

  void server_data(ServerSlot& slot, ByteView d) {
    TierTrace* t = tt(kServer);
    Span on(t, kOnData, slot.id);
    if (t) t->note_read();
    {
      Span f(t, kFeed, slot.id);
      slot.session->feed(d);
    }
    if (slot.session->established()) {
      const Bytes app = slot.session->take_app_data();
      if (!app.empty()) {
        if (echo_mode_.load(std::memory_order_acquire)) {
          Span a(t, kSend, slot.id);
          slot.session->send(app);
        } else {
          verify_bulk(slot, app);
        }
      }
    }
    Span f(t, kFlush, slot.id);
    slot.binding->flush();
  }

  /// Bulk bytes must equal the sent stream byte for byte: record k is the
  /// seeded chunk with its first 8 bytes replaced by k.
  void verify_bulk(ServerSlot& slot, const Bytes& app) {
    std::size_t i = 0;
    bool ok = true;
    while (i < app.size()) {
      const std::uint64_t rec = slot.bulk_pos / kBulkRecord;
      const std::size_t off = static_cast<std::size_t>(slot.bulk_pos % kBulkRecord);
      const std::size_t n = std::min(app.size() - i, kBulkRecord - off);
      std::uint8_t head[8];
      put_u64le(head, rec);
      std::size_t j = 0;
      for (; j < n && off + j < 8; ++j) ok &= app[i + j] == head[off + j];
      ok &= std::equal(app.begin() + static_cast<std::ptrdiff_t>(i + j),
                       app.begin() + static_cast<std::ptrdiff_t>(i + n),
                       bulk_chunk_.begin() + static_cast<std::ptrdiff_t>(off + j));
      i += n;
      slot.bulk_pos += n;
    }
    if (!ok) fail_check("bulk bytes differ from the sent stream");
    server_bulk_bytes_.fetch_add(app.size(), std::memory_order_release);
  }

  std::uint64_t seed_;
  bool traced_;
  crypto::Drbg key_rng_;
  x509::CertificateAuthority ca_;
  Identity server_id_, mbox_id_;
  sgx::Platform platform_;
  sgx::Enclave& enclave_;
  Bytes measurement_;
  tls::TicketKeyManager tickets_;
  std::vector<tls::SessionCache> id_caches_;  // one per resuming client identity
  Bytes bulk_buf_, bulk_chunk_, echo_pool_;

  // Loop-owned session state: each map is touched only by its tier's loop.
  std::unordered_map<std::uint64_t, std::unique_ptr<ClientSlot>> clients_;
  std::vector<ClientSlot*> relay_;
  std::unordered_map<std::uint64_t, std::unique_ptr<MboxSlot>> mboxes_;
  std::unordered_map<std::uint64_t, std::unique_ptr<ServerSlot>> servers_;
  std::uint64_t next_client_id_ = 0, next_mbox_id_ = 0, next_server_id_ = 0;

  // Declared last: destroyed (stopped and joined) before the state above.
  LoopGroup server_{{1, LoopGroup::DialPolicy::kRoundRobin}};
  LoopGroup mbox_{{1, LoopGroup::DialPolicy::kRoundRobin}};
  LoopGroup client_{{1, LoopGroup::DialPolicy::kRoundRobin}};
  net::Port server_port_ = 0, mbox_port_ = 0;
  clockid_t cpu_clock_[kTiers] = {};
  cpu_set_t all_cpus_;
  std::vector<int> cpus_;  // the CPUs in all_cpus_
};

// ------------------------------------------------------------------ probes

/// Median over five batches of the per-call time of `fn`, in microseconds.
double probe_us(const std::function<void()>& fn, int iters) {
  fn();  // warm caches and lazy tables
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < iters; ++i) fn();
    batches.push_back(static_cast<double>(now_ns() - t0) / 1e3 / iters);
  }
  return median(batches);
}

/// A connected 127.0.0.1 TCP pair, for the syscall probes.
struct LoopbackPair {
  int a = -1, b = -1;
  LoopbackPair() {
    const int l = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (l < 0 || ::bind(l, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(l, 1) != 0 || ::getsockname(l, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      if (l >= 0) ::close(l);
      return;
    }
    a = ::socket(AF_INET, SOCK_STREAM, 0);
    if (a >= 0 && ::connect(a, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      b = ::accept(l, nullptr, nullptr);
    ::close(l);
    const int one = 1;
    if (a >= 0) ::setsockopt(a, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~LoopbackPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  LoopbackPair(const LoopbackPair&) = delete;
  LoopbackPair& operator=(const LoopbackPair&) = delete;
  bool ok() const { return a >= 0 && b >= 0; }
};

/// One recv() of a waiting 256-byte chunk, and one empty epoll_wait(0).
std::pair<double, double> probe_net_us() {
  LoopbackPair pair;
  if (!pair.ok()) return {0, 0};
  std::uint8_t buf[kEchoBytes] = {};
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::uint64_t total = 0;
    for (int i = 0; i < 2000; ++i) {
      if (::send(pair.a, buf, sizeof(buf), 0) != static_cast<ssize_t>(sizeof(buf))) return {0, 0};
      std::this_thread::yield();
      const std::uint64_t t0 = now_ns();
      if (::recv(pair.b, buf, sizeof(buf), MSG_WAITALL) != static_cast<ssize_t>(sizeof(buf)))
        return {0, 0};
      total += now_ns() - t0;
    }
    batches.push_back(static_cast<double>(total) / 1e3 / 2000);
  }
  const double recv_us = median(batches);
  const int ep = ::epoll_create1(0);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ::epoll_ctl(ep, EPOLL_CTL_ADD, pair.b, &ev);
  epoll_event out[64];
  const double poll_us = probe_us([&] { (void)::epoll_wait(ep, out, 64, 0); }, 5000);
  ::close(ep);
  return {recv_us, poll_us};
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Direct calls into each layer's public functions, with the shapes the
/// sessions use (P-256, SHA-384 signatures, AES-256-GCM, 48-byte masters).
void add_probes(Deployment& d, Metrics& m, double& recv_us, double& poll_us) {
  crypto::Drbg rng("sockbench/probes", 1);
  const auto peer = ec::ecdh_generate(rng);
  const auto ours = ec::ecdh_generate(rng);
  m.push_back({"ec.ecdh_generate_us", {probe_us([&] { (void)ec::ecdh_generate(rng); }, 40), "us"}});
  m.push_back({"ec.ecdh_shared_us",
               {probe_us([&] { (void)ec::ecdh_shared_secret(ours, peer.public_point); }, 40), "us"}});
  const Bytes ske = rng.bytes(165);  // randoms + ECDHE params, as signed in the SKE
  const x509::PrivateKey& key = *d.mbox_identity().key;
  const Bytes sig = key.sign(crypto::HashAlgo::kSha384, ske, rng);
  const x509::PublicKey pub = key.public_key();
  m.push_back({"ec.ecdsa_sign_us",
               {probe_us([&] { (void)key.sign(crypto::HashAlgo::kSha384, ske, rng); }, 40), "us"}});
  m.push_back({"ec.ecdsa_verify_us",
               {probe_us([&] { (void)pub.verify(crypto::HashAlgo::kSha384, ske, sig); }, 40), "us"}});
  const std::vector<x509::Certificate> anchors = {d.ca().root()};
  x509::VerifyOptions vo;
  vo.now = 1500000000;
  vo.hostname = kServerName;
  m.push_back({"x509.verify_chain_us",
               {probe_us([&] { (void)x509::verify_chain(d.server_identity().chain, anchors, vo); },
                         40),
                "us"}});
  const Bytes report = rng.bytes(48);
  const auto quote = d.enclave().quote(report);
  m.push_back({"sgx.quote_sign_us", {probe_us([&] { (void)d.enclave().quote(report); }, 40), "us"}});
  m.push_back({"sgx.verify_quote_us",
               {probe_us([&] {
                  (void)sgx::verify_quote(quote.measurement, quote.report_data, quote.signature);
                }, 40),
                "us"}});
  const Bytes pre = rng.bytes(32), cr = rng.bytes(32), sr = rng.bytes(32);
  m.push_back({"tls.prf_master_us",
               {probe_us([&] {
                  (void)tls::derive_master_secret(crypto::HashAlgo::kSha384, pre, cr, sr);
                }, 400),
                "us"}});
  tls::SessionState state;
  state.session_id = rng.bytes(32);
  state.suite = tls::CipherSuite::kEcdheEcdsaAes256GcmSha384;
  state.master_secret = rng.bytes(48);
  const Bytes plain = tls::encode_ticket_state(state);
  tls::TicketKeyManager keys("sockbench-probe-tickets", 1);
  const Bytes ticket = keys.seal(plain);
  m.push_back({"tls.ticket_seal_us", {probe_us([&] { (void)keys.seal(plain); }, 2000), "us"}});
  m.push_back({"tls.ticket_unseal_us", {probe_us([&] { (void)keys.unseal(ticket); }, 2000), "us"}});
  const crypto::AesGcm gcm(rng.bytes(32));
  const Bytes iv = rng.bytes(12), aad = rng.bytes(13);
  for (const std::size_t n : {kEchoBytes, kBulkRecord}) {
    const Bytes pt = rng.bytes(n);
    Bytes ct(n + 16), back(n);
    gcm.seal_into(iv, aad, pt, ct);
    const int iters = n == kEchoBytes ? 20000 : 400;
    const double seal = probe_us([&] { gcm.seal_into(iv, aad, pt, ct); }, iters);
    const double open = probe_us([&] { (void)gcm.open_into(iv, aad, ct, back); }, iters);
    m.push_back({"crypto.gcm_seal_ns_per_byte." + std::to_string(n),
                 {seal * 1e3 / static_cast<double>(n), "ns/B"}});
    m.push_back({"crypto.gcm_open_ns_per_byte." + std::to_string(n),
                 {open * 1e3 / static_cast<double>(n), "ns/B"}});
  }
  std::tie(recv_us, poll_us) = probe_net_us();
  m.push_back({"net.recv_us", {recv_us, "us"}});
  m.push_back({"net.poll_us", {poll_us, "us"}});
}

// ------------------------------------------------------------------ output

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    out += (i ? ", \"" : "\"") + m[i].first + "\": {\"value\": " + json_number(m[i].second.first) +
           ", \"unit\": \"" + m[i].second.second + "\"}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// The process's peak RSS (VmHWM) since start or since reset_peak_rss().
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  }
  return 0;
}

/// Return freed heap to the kernel and restart the peak from the current
/// RSS, so the next peak_rss_mb() covers only what runs in between.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Host CPU time stolen from this VM and total CPU time, in clock ticks
/// (the "cpu" line of /proc/stat).
std::pair<double, double> steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {}, total = 0;
  in >> cpu;
  for (double& x : v) {
    in >> x;
    total += x;
  }
  return {v[7], total};
}

double hit_rate(const mb::CacheStats& a, const mb::CacheStats& b) {
  const double hits = static_cast<double>(b.hits - a.hits);
  const double total = hits + static_cast<double>(b.misses - a.misses);
  return total == 0 ? 0 : hits / total;
}

void write_spans(const std::string& path, Deployment& d, std::uint64_t origin_ns) {
  std::ofstream out(path);
  out << "tier,id,parent,session,name,start_ns,end_ns,cpu_ns\n";
  for (int t = 0; t < kTiers; ++t) {
    for (const auto& r : d.traces_[t].kept) {
      out << kTierName[t] << ',' << r.id << ',' << r.parent << ',' << r.session << ','
          << kSpanName[r.name] << ',' << (r.start - origin_ns) << ',' << (r.end - origin_ns)
          << ',' << r.cpu << '\n';
    }
  }
}

// ------------------------------------------------------------------ the run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  std::string commit = "unknown";
};

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const auto& w : workloads())
    if (w.name == args.workload) wl = &w;
  if (!wl || args.seconds <= 0) {
    std::fprintf(stderr, "sockbench: unknown workload '%s' or bad --seconds\n",
                 args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace;
  const double h_s = args.seconds * wl->hs_share;
  const double data_s = (args.seconds - h_s) / 2;  // each of bulk and echo

  std::printf("stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"commit\": \"%s\", \"cpu_model\": \"%s\", \"nproc\": %u, "
              "\"cpu_features\": \"%s\", \"crypto_backend\": \"%s\"}\n",
              wl->name.c_str(), static_cast<unsigned long long>(args.seed),
              json_number(args.seconds).c_str(), traced ? 1 : 0,
              json_escape(args.commit).c_str(), json_escape(cpu_model()).c_str(),
              std::thread::hardware_concurrency(),
              json_escape(crypto::cpu_feature_string()).c_str(), crypto::active_backend_name());

  // Set-up, several times: the last deployment is the one measured.
  std::vector<double> setup_times;
  std::unique_ptr<Deployment> dep;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::uint64_t t0 = now_ns();
    auto candidate = std::make_unique<Deployment>(*wl, args.seed, traced);
    const bool ok = candidate->setup();
    setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!ok) {
      std::fprintf(stderr, "sockbench: set-up failed\n");
      return 1;
    }
    if (k + 1 == kSetupRepeats) dep = std::move(candidate);
  }
  Deployment& d = *dep;
  const std::uint64_t origin_ns = now_ns();
  auto cpu = [&d] {
    std::array<double, kTiers> c{};
    for (int t = 0; t < kTiers; ++t) c[t] = d.cpu_ns(t);
    return c;
  };
  bool drained = true;
  const auto sleep_until_ns = [](std::uint64_t t) {
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t)));
  };

  // Arrival offsets over all of H, and the resume picks, from the seed.
  std::vector<double> offsets;
  {
    crypto::Drbg arrivals("sockbench/arrivals", args.seed);
    for (double t = 0;;) {
      t += -std::log(1.0 - arrivals.real()) / wl->rate;
      if (t >= h_s) break;
      offsets.push_back(t);
    }
  }
  crypto::Drbg picks("sockbench/resume-picks", args.seed);
  const std::uint64_t arrivals = offsets.size();

  // The phases alternate in kRounds rounds of H, B and E, each round taking
  // 1/kRounds of every phase's seconds. A metric is the median of its
  // per-round values, so a host slowdown of a few seconds moves a few rounds
  // of every phase instead of one phase as a whole.
  const double h_round = h_s / kRounds, d_round = data_s / kRounds;
  const double warm = std::min(0.1, d_round / 4);
  struct Window {
    std::uint64_t t0, t1;
  };
  std::vector<Window> h_windows, echo_windows;
  std::vector<double> goodput, capacity, per_echo;
  std::array<std::vector<double>, kTiers> cpu_per_hs;
  std::array<double, kTiers> cpu_h{}, cpu_d{}, busy_h{}, busy_b{}, busy_e{};
  double wall_h = 0, wall_b = 0, wall_e = 0;
  double rss_h = 0, rss_run = 0;
  const auto server_c0 = d.server_cache_.stats(), mbox_c0 = d.mbox_cache_.stats();
  const auto cert_c0 = d.cert_pool_.stats(), quote_c0 = d.quotes_.stats();
  const auto tickets0 = d.ticket_stats();
  const std::uint64_t rec0 = d.mbox_sum(&Middlebox::records_reprotected);
  const auto steal0 = steal_ticks();
  std::size_t next = 0;
  for (int r = 0; r < kRounds; ++r) {
    // H: open-loop Poisson arrivals, each timed from its scheduled time.
    rss_run = std::max(rss_run, peak_rss_mb());
    reset_peak_rss();
    d.phase_.store(kPhaseH);
    const auto h0 = cpu();
    const std::uint64_t failed0 = d.h_failed_.load();
    const std::size_t first = next;
    const std::uint64_t h_start = now_ns() + 1'000'000;
    for (; next < offsets.size() && offsets[next] < h_round * (r + 1); ++next) {
      const auto sched =
          h_start + static_cast<std::uint64_t>((offsets[next] - h_round * r) * 1e9);
      sleep_until_ns(sched);
      const int identity =
          wl->resumed ? static_cast<int>(picks.uniform(kResumeIdentities)) : -1;
      d.late_ms_.push_back(static_cast<double>(now_ns() - sched) / 1e6);
      d.post_arrival(identity, sched);
    }
    sleep_until_ns(h_start + static_cast<std::uint64_t>(h_round * 1e9));
    drained &= wait_for([&] {
      return d.h_settled_.load() == next && d.h_open_[kMbox].load() == 0 &&
             d.h_open_[kServer].load() == 0;
    }, 60);
    const auto h1 = cpu();
    const std::uint64_t h_end = now_ns();
    rss_h = std::max(rss_h, peak_rss_mb());
    h_windows.push_back({h_start, h_start + static_cast<std::uint64_t>(h_round * 1e9)});
    const double ok = static_cast<double>(next - first) -
                      static_cast<double>(d.h_failed_.load() - failed0);
    for (int t = 0; t < kTiers; ++t) {
      cpu_h[t] += h1[t] - h0[t];
      cpu_per_hs[t].push_back((h1[t] - h0[t]) / 1e6 / std::max(1.0, ok));
    }
    wall_h += static_cast<double>(h_end - h_start) / 1e9;

    // B: bulk gated by writability and the window; E: one echo in flight.
    d.phase_.store(kPhaseD);
    if (!d.place_loops(-1)) d.fail_check("could not place the loops");
    const auto d0 = cpu();
    d.bulk_on_.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(warm));
    const std::uint64_t b0 = d.server_bulk_bytes_.load(), tb0 = now_ns();
    const auto cb0 = cpu();
    sleep_until_ns(tb0 + static_cast<std::uint64_t>((d_round - warm) * 1e9));
    const std::uint64_t b1 = d.server_bulk_bytes_.load(), tb1 = now_ns();
    const auto cb1 = cpu();
    d.bulk_on_.store(false, std::memory_order_release);
    // A tick that read bulk_on_ before the store may still be sending; let it
    // finish, or a record it sent but has not counted yet could pass for
    // drained and reach the server in echo mode.
    on_loop(d.group(kClient), [] { return 0; });
    drained &= wait_for(
        [&] { return d.server_bulk_bytes_.load() == d.bulk_sent_bytes_.load(); }, 60);
    const double bits = static_cast<double>(b1 - b0) * 8;
    goodput.push_back(bits / static_cast<double>(tb1 - tb0));  // bits per ns = Gbit/s
    capacity.push_back(bits / (cb1[kMbox] - cb0[kMbox]));
    if (b1 == b0) d.fail_check("bulk made no progress");

    if (!d.place_loops(r)) d.fail_check("could not place the loops");
    d.echo_mode_.store(true, std::memory_order_release);
    d.start_echo();
    std::this_thread::sleep_for(std::chrono::duration<double>(warm));
    const std::uint64_t e0 = d.echo_done_.load(), te0 = now_ns();
    const auto ce0 = cpu();
    sleep_until_ns(te0 + static_cast<std::uint64_t>((d_round - warm) * 1e9));
    const std::uint64_t e1 = d.echo_done_.load(), te1 = now_ns();
    const auto ce1 = cpu();
    d.echo_on_.store(false, std::memory_order_release);
    drained &= wait_for([&] { return d.echo_outstanding_.load() == 0; }, 60);
    d.echo_mode_.store(false, std::memory_order_release);
    if (!d.place_loops(-1)) d.fail_check("could not place the loops");
    const auto d1 = cpu();
    d.phase_.store(kIdle);
    echo_windows.push_back({te0, te1});
    per_echo.push_back((ce1[kMbox] - ce0[kMbox]) / 1e3 /
                       static_cast<double>(std::max<std::uint64_t>(1, e1 - e0)));
    if (e1 == e0) d.fail_check("echo made no progress");
    for (int t = 0; t < kTiers; ++t) {
      cpu_d[t] += d1[t] - d0[t];
      busy_h[t] += h1[t] - h0[t];
      busy_b[t] += cb1[t] - cb0[t];
      busy_e[t] += ce1[t] - ce0[t];
    }
    wall_b += static_cast<double>(tb1 - tb0) / 1e9;
    wall_e += static_cast<double>(te1 - te0) / 1e9;
  }
  const auto steal1 = steal_ticks();
  const auto server_c1 = d.server_cache_.stats(), mbox_c1 = d.mbox_cache_.stats();
  const auto cert_c1 = d.cert_pool_.stats(), quote_c1 = d.quotes_.stats();
  const auto tickets1 = d.ticket_stats();
  const std::uint64_t rec1 = d.mbox_sum(&Middlebox::records_reprotected);
  const std::uint64_t live_auth_failures = d.mbox_sum(&Middlebox::auth_failures);
  const bool relay_joined = d.all_live_joined();
  d.stop();  // joins the loops: their results are safe to read below

  // ---- checks
  if (!drained) d.fail_check("a phase did not drain within 60 s");
  if (!relay_joined) d.fail_check("a relay middlebox is not joined");
  if (d.mbox_h_total_.load() != arrivals || d.mbox_h_joined_.load() != arrivals)
    d.fail_check("not every handshake had a joined middlebox");
  const std::uint64_t auth_failures = d.auth_failures_.load() + live_auth_failures;
  if (auth_failures != 0) d.fail_check("middlebox record authentication failures");

  const double established = static_cast<double>(arrivals - d.h_failed_.load());
  std::vector<double> rtt_p50, rtt_p99, hs_p50, hs_p99;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<double> rtts, lat;
    for (const auto& e : d.echo_rtts_)
      if (e.done_ns >= echo_windows[r].t0 && e.done_ns < echo_windows[r].t1)
        rtts.push_back(e.rtt_us);
    for (const auto& h : d.hs_latency_)
      if (h.sched_ns >= h_windows[r].t0 && h.sched_ns < h_windows[r].t1)
        lat.push_back(h.latency_ms);
    rtt_p50.push_back(percentile(rtts, 50));
    rtt_p99.push_back(percentile(rtts, 99));
    hs_p50.push_back(percentile(lat, 50));
    hs_p99.push_back(percentile(lat, 99));
  }

  Metrics e2e;
  e2e.push_back({"setup_s", {median(setup_times), "s"}});
  e2e.push_back({"peak_rss_mb", {rss_h, "MB"}});
  for (int t = 0; t < kTiers; ++t) {
    e2e.push_back({std::string(kTierName[t]) + "_cpu_ms_per_handshake",
                   {median(cpu_per_hs[t]), "ms"}});
  }
  e2e.push_back({"relay_goodput_gbps", {median(goodput), "Gbit/s"}});
  e2e.push_back({"mbox_capacity_gbps", {median(capacity), "Gbit/s"}});
  e2e.push_back({"echo_rtt_p50_us", {median(rtt_p50), "us"}});
  e2e.push_back({"mbox_cpu_us_per_echo", {median(per_echo), "us"}});
  // Latency percentiles that wait on thread wakeups follow the host's steal
  // time too closely to gate a change on (README.md); they are printed on
  // their own line and reported as per-layer metrics of a traced run.
  Metrics latency;
  latency.push_back({"handshake_p50_ms", {median(hs_p50), "ms"}});
  latency.push_back({"handshake_p99_ms", {median(hs_p99), "ms"}});
  latency.push_back({"echo_rtt_p99_us", {median(rtt_p99), "us"}});

  std::printf("sockbench: %s seed=%llu  %d rounds | H %.1f s: %llu arrivals at %.0f/s, "
              "%llu failed, %llu resumed | bulk %.1f s: %llu records | echo %.1f s: %llu "
              "echoes\n",
              wl->name.c_str(), static_cast<unsigned long long>(args.seed), kRounds, h_s,
              static_cast<unsigned long long>(arrivals), wl->rate,
              static_cast<unsigned long long>(d.h_failed_.load()),
              static_cast<unsigned long long>(d.hs_resumed_), data_s,
              static_cast<unsigned long long>(d.bulk_sent_records_.load()), data_s,
              static_cast<unsigned long long>(d.echo_done_.load()));
  std::printf("loop busy %% (client/mbox/server): H %.0f/%.0f/%.0f  bulk %.0f/%.0f/%.0f  "
              "echo %.0f/%.0f/%.0f\n",
              busy_h[0] / 1e7 / wall_h, busy_h[1] / 1e7 / wall_h, busy_h[2] / 1e7 / wall_h,
              busy_b[0] / 1e7 / wall_b, busy_b[1] / 1e7 / wall_b, busy_b[2] / 1e7 / wall_b,
              busy_e[0] / 1e7 / wall_e, busy_e[1] / 1e7 / wall_e, busy_e[2] / 1e7 / wall_e);
  std::printf("host steal during the rounds: %.1f%% of all CPU time; generator late p99 %.2f ms\n",
              100 * (steal1.first - steal0.first) / (steal1.second - steal0.second),
              percentile(d.late_ms_, 99));
  std::printf("peak RSS MB: H rounds %.1f, whole run %.1f\n", rss_h,
              std::max(rss_run, peak_rss_mb()));
  const std::uint64_t attempted = arrivals + d.bulk_sent_records_.load() + d.echo_done_.load();
  const std::uint64_t failed = d.failures_.load();
  const bool correct = failed == 0;

  std::printf("latency %s\n", metrics_json(latency).c_str());
  Metrics out = e2e;
  if (traced) {
    Metrics traced_e2e = e2e;
    traced_e2e.insert(traced_e2e.end(), latency.begin(), latency.end());
    std::printf("traced_e2e %s\n", metrics_json(traced_e2e).c_str());
    out.clear();
    double recv_us = 0, poll_us = 0;
    add_probes(d, out, recv_us, poll_us);
    const double records = static_cast<double>(rec1 - rec0);
    // Handshakes each tier completed, from its trace events.
    const char* const done_event[kTiers] = {"events/client/mbtls.established",
                                            "events/mbox/mbtls.joined",
                                            "events/server/mbtls.established"};
    double n_hs[kTiers] = {};
    for (int t = 0; t < kTiers; ++t) {
      const auto& totals = d.traces_[t].sink.totals();
      if (const auto it = totals.find(done_event[t]); it != totals.end()) n_hs[t] = it->second;
    }
    for (int t = 0; t < kTiers; ++t) {
      const TierTrace& tr = d.traces_[t];
      const std::string tier = kTierName[t];
      const double cpu_hs = cpu_h[t], cpu_data = cpu_d[t];
      const double hs = std::max(1.0, n_hs[t]);
      out.push_back({"net.self_us_per_handshake." + tier, {(cpu_hs - tr.top[0]) / hs / 1e3, "us"}});
      out.push_back({"net.self_us_per_record." + tier, {(cpu_data - tr.top[1]) / records / 1e3, "us"}});
      out.push_back({"net.flush_us_per_handshake." + tier,
                     {(tr.incl[0][kFlush] + tr.incl[0][kOnWritable]) / hs / 1e3, "us"}});
      out.push_back({"net.flush_us_per_record." + tier,
                     {(tr.incl[1][kFlush] + tr.incl[1][kOnWritable]) / records / 1e3, "us"}});
      out.push_back({"net.reads_per_record." + tier,
                     {static_cast<double>(tr.reads[1]) / records, "count"}});
      out.push_back({"mbtls.feed_us_per_handshake." + tier, {tr.incl[0][kFeed] / hs / 1e3, "us"}});
      out.push_back({"mbtls.handshakes_traced." + tier, {n_hs[t], "count"}});
      // Loop CPU = spans + probe cost x op count + unexplained remainder.
      const double loop = cpu_hs + cpu_data;
      const double spans = tr.top[0] + tr.top[1];
      const double net_est = static_cast<double>(tr.reads[0] + tr.reads[1]) * recv_us * 1e3 +
                             static_cast<double>(tr.rounds[0] + tr.rounds[1]) * poll_us * 1e3;
      const double unexplained = loop - spans - net_est;
      out.push_back({"attrib.unexplained_fraction." + tier, {unexplained / loop, "fraction"}});
      std::printf("attrib %-6s loop_cpu=%.1f ms = spans %.1f ms + net probes %.1f ms "
                  "(%llu reads, %llu rounds) + unexplained %.1f ms\n",
                  tier.c_str(), loop / 1e6, spans / 1e6, net_est / 1e6,
                  static_cast<unsigned long long>(tr.reads[0] + tr.reads[1]),
                  static_cast<unsigned long long>(tr.rounds[0] + tr.rounds[1]), unexplained / 1e6);
      for (int b = 0; b < 2; ++b) {
        for (int n = 0; n < kSpanCount; ++n) {
          if (tr.count[b][n] == 0) continue;
          std::printf("span %-6s %-2s %-16s count=%-9llu incl=%10.1f ms self=%10.1f ms\n",
                      tier.c_str(), b == 0 ? "H" : "BE", kSpanName[n],
                      static_cast<unsigned long long>(tr.count[b][n]), tr.incl[b][n] / 1e6,
                      tr.self[b][n] / 1e6);
        }
      }
    }
    out.push_back({"mbtls.feed_us_per_record.mbox",
                   {d.traces_[kMbox].incl[1][kFeed] / records / 1e3, "us"}});
    out.push_back({"mbtls.records_reprotected", {records, "count"}});
    out.push_back({"mbtls.auth_failures", {static_cast<double>(auth_failures), "count"}});
    out.push_back({"mbtls.joined_fraction",
                   {static_cast<double>(d.mbox_h_joined_.load()) / static_cast<double>(arrivals),
                    "fraction"}});
    out.push_back({"mbtls.resumed_fraction",
                   {static_cast<double>(d.hs_resumed_) / established, "fraction"}});
    out.push_back({"mbtls.mbox_resumed_fraction",
                   {static_cast<double>(d.mbox_h_resumed_.load()) /
                        static_cast<double>(std::max<std::uint64_t>(1, d.mbox_h_total_.load())),
                    "fraction"}});
    out.push_back({"cache.session_hit_rate.mbox", {hit_rate(mbox_c0, mbox_c1), "fraction"}});
    out.push_back({"cache.session_hit_rate.server", {hit_rate(server_c0, server_c1), "fraction"}});
    out.push_back({"cache.cert_pool_hit_rate", {hit_rate(cert_c0, cert_c1), "fraction"}});
    out.push_back({"cache.quote_hit_rate", {hit_rate(quote_c0, quote_c1), "fraction"}});
    out.push_back({"tls.ticket_seals", {static_cast<double>(tickets1.seals - tickets0.seals), "count"}});
    out.push_back({"tls.ticket_unseals",
                   {static_cast<double>(tickets1.unseal_current + tickets1.unseal_stale -
                                        tickets0.unseal_current - tickets0.unseal_stale),
                    "count"}});
    out.push_back({"gen.late_ms_p99", {percentile(d.late_ms_, 99), "ms"}});
    std::uint64_t kept = 0, dropped = 0;
    for (const auto& tr : d.traces_) {
      kept += tr.kept.size();
      dropped += tr.dropped;
    }
    if (!args.spans.empty()) write_spans(args.spans, d, origin_ns);
    std::printf("spans: %llu kept%s%s, %llu beyond the per-tier cap counted but not kept\n",
                static_cast<unsigned long long>(kept), args.spans.empty() ? "" : " in ",
                args.spans.c_str(), static_cast<unsigned long long>(dropped));
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sockbench

int main(int argc, char** argv) {
  sockbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      std::fprintf(stderr, "sockbench: unknown argument %s\n", flag.c_str());
      return 2;
    }
  }
  try {
    return sockbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sockbench: %s\n", e.what());
    return 1;
  }
}
