// Helpers shared by the two benchmark harnesses. Everything here uses only
// the scenario layer's stable entry points (spec parsing, validation,
// RunExperiment and the table renderer), so it compiles against any
// refactor of the layers beneath them.

#ifndef DYNAGG_E2EBENCH_HARNESS_UTIL_H_
#define DYNAGG_E2EBENCH_HARNESS_UTIL_H_

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/executor.h"
#include "scenario/result.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/trial.h"

namespace e2e {

/// `--key=value` command-line flags.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        std::fprintf(stderr, "bad argument '%s' (expected --key=value)\n",
                     arg.c_str());
        std::exit(2);
      }
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  double Num(const std::string& key) const {
    return std::strtod(Str(key).c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Parses the single-experiment spec `text` and pins its seed; trials = 1,
/// so RunExperiment's one unit replays exactly `seed`.
inline dynagg::Result<dynagg::scenario::ScenarioSpec> ParseSpec(
    const std::string& text, uint64_t seed) {
  DYNAGG_ASSIGN_OR_RETURN(auto specs,
                          dynagg::scenario::ParseScenarioFile(text, "bench"));
  if (specs.size() != 1) {
    return dynagg::Status::InvalidArgument(
        "benchmark workloads hold exactly one experiment");
  }
  specs[0].seed = seed;
  specs[0].trials = 1;
  return specs[0];
}

/// The summary table's single row as name -> value.
inline std::map<std::string, double> SummaryRow(
    const std::vector<dynagg::scenario::ResultTable>& tables) {
  std::map<std::string, double> row;
  for (const auto& t : tables) {
    if (t.label != "summary" || t.table.num_rows() != 1) continue;
    for (size_t c = 0; c < t.table.columns().size(); ++c) {
      row[t.table.columns()[c]] = t.table.row(0)[c];
    }
  }
  return row;
}

/// FNV-1a digest of the CSV rendering: equal digests mean byte-identical
/// result tables.
inline std::string TableDigest(
    const std::vector<dynagg::scenario::ResultTable>& tables) {
  const auto text = dynagg::scenario::RenderTables(tables, "bench", "csv");
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text.ok() ? *text : std::string("<error>")) {
    h = (h ^ c) * 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A finite double at full precision; non-finite values become JSON null
/// so the caller's correctness checks see them.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonObject(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) out += ",";
    out += JsonString(k) + ":" + JsonNumber(v);
  }
  return out + "}";
}

/// The closing record both harnesses print: peak memory and the build.
inline void PrintEnd(const std::string& extra_fields) {
  std::printf("{\"kind\":\"end\",\"peak_rss_mb\":%s,\"build_type\":%s,"
              "\"compiler\":%s%s}\n",
              JsonNumber(PeakRssMb()).c_str(),
              JsonString(E2E_BUILD_TYPE).c_str(),
              JsonString(E2E_COMPILER).c_str(), extra_fields.c_str());
}

}  // namespace e2e

#endif  // DYNAGG_E2EBENCH_HARNESS_UTIL_H_
