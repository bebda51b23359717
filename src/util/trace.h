// Structured tracing: zero-overhead-when-disabled event emission for the
// net / tls / mbtls layers, plus in-memory sinks and exporters.
//
// Model
// -----
// An instrumented component holds a `trace::Emitter` by value (a sink pointer
// plus an actor label). With no sink attached the emitter is a null pointer
// and every emission site reduces to one predictable branch; hot paths guard
// with `if (em.on())` so argument rendering is never paid for a disabled
// trace. When a sink is attached, emitters produce `Event`s — instants,
// span begin/end pairs, and counters — and the sink timestamps them.
//
// Timestamps come from the sink's clock. Harnesses that drive the discrete
// event simulator install `[&] { return sim.now(); }` so every event carries
// the virtual-microsecond time; sans-IO components (the TLS engine) need no
// clock of their own — with no clock installed the recorder stamps a
// deterministic sequence number instead. Either way the same DRBG seed and
// the same chaos taps reproduce a byte-identical trace.
//
// Exporters: `Recorder::chrome_trace_json()` emits Chrome trace-event JSON
// (load in chrome://tracing or Perfetto; actors map to threads) and
// `Recorder::counter_dump()` emits a flat, sorted `key value` listing of
// counter totals and per-event tallies.
//
// Key material must never reach a sink. Emit `tls::key_fingerprint(...)`
// digests instead; tools/mbtls-lint rule `trace-no-secret` enforces this.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mbtls::trace {

/// Chrome trace-event phases we emit.
enum class Phase : char {
  kInstant = 'i',
  kBegin = 'B',
  kEnd = 'E',
  kCounter = 'C',
};

/// One key/value pair attached to an event. Values are pre-rendered; numeric
/// values are remembered so the JSON exporter can emit them unquoted.
struct Arg {
  std::string name;
  std::string value;
  bool numeric = false;

  Arg(std::string k, std::string v) : name(std::move(k)), value(std::move(v)) {}
  Arg(std::string k, const char* v) : name(std::move(k)), value(v) {}
  Arg(std::string k, std::string_view v) : name(std::move(k)), value(v) {}
  Arg(std::string k, std::uint64_t v)
      : name(std::move(k)), value(std::to_string(v)), numeric(true) {}
  Arg(std::string k, int v)
      : name(std::move(k)), value(std::to_string(v)), numeric(true) {}
};

using Args = std::vector<Arg>;

struct Event {
  std::uint64_t ts = 0;  ///< stamped by the sink (virtual µs, or a sequence number)
  Phase phase = Phase::kInstant;
  std::string actor;     ///< emitting party, e.g. "client" or "mbox:cache/primary"
  std::string category;  ///< layer: "net", "tls", "mbtls"
  std::string name;
  double delta = 0;      ///< kCounter only: amount added to the counter
  Args args;
};

/// Receives events from emitters. Implementations must not retain references
/// into the event past the call (they get a copy by value anyway).
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void record(Event e) = 0;
};

/// Value-type handle instrumented components hold. Default-constructed it is
/// disabled: `on()` is false and every emit call is a single branch.
class Emitter {
 public:
  Emitter() = default;
  Emitter(Sink* sink, std::string actor)
      : sink_(sink), actor_(std::move(actor)) {}

  bool on() const { return sink_ != nullptr; }
  Sink* sink() const { return sink_; }
  const std::string& actor() const { return actor_; }

  /// Derive an emitter for a sub-component; shares the sink, extends the
  /// actor label ("client" -> "client/primary").
  Emitter sub(std::string_view suffix) const {
    if (!sink_) return {};
    std::string actor = actor_;
    actor += '/';
    actor += suffix;
    return Emitter(sink_, std::move(actor));
  }

  void instant(std::string_view category, std::string_view name,
               Args args = {}) const {
    if (sink_) emit(Phase::kInstant, category, name, 0, std::move(args));
  }
  void begin(std::string_view category, std::string_view name,
             Args args = {}) const {
    if (sink_) emit(Phase::kBegin, category, name, 0, std::move(args));
  }
  void end(std::string_view category, std::string_view name) const {
    if (sink_) emit(Phase::kEnd, category, name, 0, {});
  }
  /// Add `delta` to the counter `name` (category "counter" in exports).
  void counter(std::string_view name, double delta) const {
    if (sink_) emit(Phase::kCounter, "counter", name, delta, {});
  }

 private:
  void emit(Phase phase, std::string_view category, std::string_view name,
            double delta, Args args) const;

  Sink* sink_ = nullptr;
  std::string actor_;
};

/// In-memory sink: keeps the full event list and exports Chrome-trace JSON /
/// a flat counter dump (counter totals are summed at export).
class Recorder : public Sink {
 public:
  using Clock = std::function<std::uint64_t()>;

  /// Install the timestamp source (e.g. the simulator's virtual clock).
  /// Without a clock, events are stamped with a sequence number.
  void set_clock(Clock clock) { clock_ = std::move(clock); }

  void record(Event e) override;

  const std::vector<Event>& events() const { return events_; }
  void clear();

  /// Chrome trace-event JSON ("traceEvents" array; actors become threads).
  std::string chrome_trace_json() const;
  /// Flat `key value` lines: counter totals plus per-event-name tallies,
  /// sorted, deterministic.
  std::string counter_dump() const;

 private:
  Clock clock_;
  std::uint64_t seq_ = 0;
  std::vector<Event> events_;
};

/// Fan-out sink, e.g. a Recorder plus a live counter aggregator.
class TeeSink : public Sink {
 public:
  explicit TeeSink(std::vector<Sink*> sinks) : sinks_(std::move(sinks)) {}
  void record(Event e) override {
    for (std::size_t i = 0; i + 1 < sinks_.size(); ++i) sinks_[i]->record(e);
    if (!sinks_.empty()) sinks_.back()->record(std::move(e));
  }

 private:
  std::vector<Sink*> sinks_;
};

/// JSON string escaping shared by exporters.
std::string json_escape(std::string_view s);

/// Render a double without trailing noise: integral values print as
/// integers, everything else with enough digits to round-trip.
std::string format_number(double v);

}  // namespace mbtls::trace
