#include "obs/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>

namespace dynagg {
namespace obs {
namespace {

/// Minimal JSON string escaping for experiment names (quotes, backslashes,
/// control characters; everything else passes through).
std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Human-readable span name: kernel phases use their phase name; trial and
/// round spans are labelled with their index.
std::string SpanName(const SpanEvent& event, const TrialTelemetry& unit) {
  char buf[48];
  switch (event.kind) {
    case SpanEvent::kTrial:
      std::snprintf(buf, sizeof(buf), "trial %d", unit.trial);
      return buf;
    case SpanEvent::kRound:
      std::snprintf(buf, sizeof(buf), "round %d", event.round);
      return buf;
    case SpanEvent::kPhase:
      return PhaseName(static_cast<Phase>(event.phase));
  }
  return "span";
}

const char* SpanCategory(const SpanEvent& event) {
  switch (event.kind) {
    case SpanEvent::kTrial:
      return "trial";
    case SpanEvent::kRound:
      return "round";
    case SpanEvent::kPhase:
      return "phase";
  }
  return "span";
}

}  // namespace

std::string RenderChromeTrace(const std::vector<ProcessProfile>& processes) {
  // Shift all timestamps so the earliest span starts at t = 0.
  int64_t epoch = std::numeric_limits<int64_t>::max();
  for (const ProcessProfile& process : processes) {
    for (const TrialTelemetry& unit : process.units) {
      for (const SpanEvent& event : unit.events) {
        epoch = std::min(epoch, event.start_ns);
      }
    }
  }
  if (epoch == std::numeric_limits<int64_t>::max()) epoch = 0;

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto append = [&](const std::string& event_json) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += event_json;
  };

  char buf[256];
  for (size_t p = 0; p < processes.size(); ++p) {
    const ProcessProfile& process = processes[p];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %zu, "
                  "\"tid\": 0, \"args\": {\"name\": \"%s\"}}",
                  p, EscapeJson(process.name).c_str());
    append(buf);
    std::set<int> workers;
    for (const TrialTelemetry& unit : process.units) {
      if (!unit.events.empty()) workers.insert(unit.worker);
    }
    for (const int worker : workers) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %zu, "
                    "\"tid\": %d, \"args\": {\"name\": \"worker %d\"}}",
                    p, worker, worker);
      append(buf);
    }
    for (const TrialTelemetry& unit : process.units) {
      for (const SpanEvent& event : unit.events) {
        std::snprintf(
            buf, sizeof(buf),
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": %zu, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"unit\": %d, \"round\": %d}}",
            SpanName(event, unit).c_str(), SpanCategory(event), p,
            unit.worker, static_cast<double>(event.start_ns - epoch) / 1e3,
            static_cast<double>(event.dur_ns) / 1e3, unit.unit, event.round);
        append(buf);
      }
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace obs
}  // namespace dynagg
