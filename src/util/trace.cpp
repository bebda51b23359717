#include "util/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>

namespace mbtls::trace {

void Emitter::emit(Phase phase, std::string_view category,
                   std::string_view name, double delta, Args args) const {
  Event e;
  e.phase = phase;
  e.actor = actor_;
  e.category = std::string(category);
  e.name = std::string(name);
  e.delta = delta;
  e.args = std::move(args);
  sink_->record(std::move(e));
}

void Recorder::record(Event e) {
  e.ts = clock_ ? clock_() : seq_;
  ++seq_;
  events_.push_back(std::move(e));
}

void Recorder::clear() {
  seq_ = 0;
  events_.clear();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

// Stable actor -> Chrome tid mapping, in order of first appearance.
std::vector<std::string> actor_order(const std::vector<Event>& events) {
  std::vector<std::string> actors;
  for (const Event& e : events) {
    if (std::find(actors.begin(), actors.end(), e.actor) == actors.end()) {
      actors.push_back(e.actor);
    }
  }
  return actors;
}

}  // namespace

std::string Recorder::chrome_trace_json() const {
  const std::vector<std::string> actors = actor_order(events_);
  auto tid_of = [&](const std::string& actor) {
    return static_cast<int>(
        std::find(actors.begin(), actors.end(), actor) - actors.begin());
  };

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };
  for (std::size_t i = 0; i < actors.size(); ++i) {
    sep();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(i);
    out += ",\"args\":{\"name\":\"";
    out += json_escape(actors[i]);
    out += "\"}}";
  }
  for (const Event& e : events_) {
    sep();
    out += "{\"name\":\"";
    out += json_escape(e.name);
    out += "\",\"cat\":\"";
    out += json_escape(e.category);
    out += "\",\"ph\":\"";
    out += static_cast<char>(e.phase);
    out += "\",\"ts\":";
    out += std::to_string(e.ts);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(tid_of(e.actor));
    if (e.phase == Phase::kInstant) out += ",\"s\":\"t\"";
    if (e.phase == Phase::kCounter) {
      out += ",\"args\":{\"value\":";
      out += format_number(e.delta);
      out += "}}";
      continue;
    }
    if (!e.args.empty()) {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) out += ',';
        out += '"';
        out += json_escape(e.args[i].name);
        out += "\":";
        if (e.args[i].numeric) {
          out += e.args[i].value;
        } else {
          out += '"';
          out += json_escape(e.args[i].value);
          out += '"';
        }
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string Recorder::counter_dump() const {
  // Explicit counter totals plus a tally of every non-counter event name,
  // both keyed "actor/name" and emitted in sorted order.
  std::map<std::string, double> lines;
  for (const Event& e : events_) {
    if (e.phase == Phase::kCounter) {
      lines[e.actor + "/" + e.name] += e.delta;
      continue;
    }
    if (e.phase == Phase::kEnd) continue;  // count spans once, at begin
    lines["events/" + e.actor + "/" + e.category + "." + e.name] += 1;
  }
  std::string out;
  for (const auto& [key, value] : lines) {
    out += key;
    out += ' ';
    out += format_number(value);
    out += '\n';
  }
  return out;
}

}  // namespace mbtls::trace
