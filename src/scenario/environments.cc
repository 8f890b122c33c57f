// Builtin environment catalog: uniform, spatial, random-graph, haggle,
// crawdad.
//
// Each environment is a parse function, which reads every env.* key it
// consumes (allowlisted, so typos fail loudly) into typed params, and a
// build step making one trial's environment from those params.
// RegisterEnvironment wires the pair into an EnvironmentDef: the parse is
// the `--dry-run` validator and the first step of every build, and
// provides_trace follows from what the build returns. Stochastic
// environments derive their seeds from the trial seed so trials stay
// independent and the parallel executor deterministic; the crawdad
// environment replays an external contact table instead (env.trace_file),
// so every trial observes the same real-world trace.

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "common/rng.h"
#include "env/crawdad.h"
#include "env/haggle_gen.h"
#include "env/random_graph_env.h"
#include "env/spatial_env.h"
#include "env/trace_env.h"
#include "env/uniform_env.h"
#include "scenario/swarm_registration.h"
#include "scenario/trial.h"

namespace dynagg {
namespace scenario {
namespace {

/// What a build returns: an environment, or the contact trace of a
/// trace-playback environment.
using EnvPtr = std::unique_ptr<Environment>;
using TracePtr = std::shared_ptr<const ContactTrace>;

/// How trace playback advances under the rounds driver, shared by the
/// trace environments: env.gossip_seconds of trace time per round, and the
/// env.group_window_minutes "nearby" window that labels groups.
struct TracePacing {
  double gossip_seconds = 30.0;
  double group_window_minutes = 10.0;
};

Result<TracePacing> ParseTracePacing(const ScenarioSpec& spec) {
  TracePacing pacing;
  DYNAGG_ASSIGN_OR_RETURN(pacing.gossip_seconds,
                          spec.ParamDouble("env.gossip_seconds", 30.0));
  DYNAGG_ASSIGN_OR_RETURN(pacing.group_window_minutes,
                          spec.ParamDouble("env.group_window_minutes", 10.0));
  if (pacing.gossip_seconds <= 0) {
    return Status::InvalidArgument("env.gossip_seconds must be > 0");
  }
  // env.gossip_seconds paces round-driven playback (advance_period); the
  // event-driven trace driver ticks on the top-level gossip_period, so an
  // explicit value there would be silently dead.
  if (spec.driver == "trace" && spec.HasParam("env.gossip_seconds")) {
    return Status::InvalidArgument(
        "env.gossip_seconds paces the rounds driver; under driver = trace "
        "set the top-level gossip_period instead");
  }
  return pacing;
}

/// Registers environment `name`. `parse` (Result<Params> from a
/// ScenarioSpec) reads and range-checks every env.* key the environment
/// consumes: it is the `--dry-run` validator and the first step of every
/// build. `build` (from the trial context and the Params) returns a
/// Result<EnvPtr>, or a Result<TracePtr> for trace playback: the trace is
/// then played back by a TraceEnvironment paced by the Params' TracePacing,
/// and the environment provides_trace.
template <typename Parse, typename Build>
void RegisterEnvironment(Registry<EnvironmentDef>& registry,
                         const std::string& name, Parse parse, Build build) {
  using Params =
      std::decay_t<decltype(*parse(std::declval<const ScenarioSpec&>()))>;
  using Built = std::decay_t<decltype(*build(
      std::declval<const TrialContext&>(), std::declval<const Params&>()))>;
  constexpr bool kTrace = std::is_same_v<Built, TracePtr>;
  static_assert(kTrace || std::is_same_v<Built, EnvPtr>);
  EnvironmentDef def;
  def.make = [parse, build](const TrialContext& ctx) -> Result<EnvHandle> {
    DYNAGG_ASSIGN_OR_RETURN(const Params params, parse(*ctx.spec));
    DYNAGG_ASSIGN_OR_RETURN(Built built, build(ctx, params));
    EnvHandle handle;
    if constexpr (kTrace) {
      handle.trace = std::move(built);
      handle.group_window = FromMinutes(params.pacing.group_window_minutes);
      handle.env = std::make_unique<TraceEnvironment>(*handle.trace,
                                                      handle.group_window);
      handle.advance_period = FromSeconds(params.pacing.gossip_seconds);
    } else {
      handle.env = std::move(built);
    }
    return handle;
  };
  def.provides_trace = kTrace;
  def.validate = SpecValidator(parse);
  DYNAGG_CHECK(registry.Register(name, std::move(def)).ok());
}

Result<int> ParseUniformSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams("env.", {}));
  if (spec.hosts <= 0) {
    return Status::InvalidArgument(
        "uniform environment requires hosts > 0");
  }
  return spec.hosts;
}

Result<EnvPtr> BuildUniform(const TrialContext&, int hosts) {
  return EnvPtr(std::make_unique<UniformEnvironment>(hosts));
}

struct SpatialSpec {
  int width = 0;
  int height = 0;
  int max_distance = 0;
};

Result<SpatialSpec> ParseSpatialSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(
      spec.CheckParams("env.", {"width", "height", "max_distance"}));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t width,
                          spec.ParamInt("env.width", 0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t height,
                          spec.ParamInt("env.height", 0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t max_distance,
                          spec.ParamInt("env.max_distance", 0));
  if (width <= 0 || height <= 0) {
    return Status::InvalidArgument(
        "spatial environment requires env.width > 0 and env.height > 0");
  }
  // The grid has one host per cell; an explicit hosts must agree.
  if (spec.hosts > 0 && spec.hosts != width * height) {
    return Status::InvalidArgument(
        "hosts = " + std::to_string(spec.hosts) +
        " does not match the environment's intrinsic size " +
        std::to_string(width * height));
  }
  return SpatialSpec{static_cast<int>(width), static_cast<int>(height),
                     static_cast<int>(max_distance)};
}

Result<EnvPtr> BuildSpatial(const TrialContext&, const SpatialSpec& grid) {
  return EnvPtr(std::make_unique<SpatialGridEnvironment>(
      grid.width, grid.height, grid.max_distance));
}

struct RandomGraphSpec {
  int hosts = 0;
  int degree = 8;
  uint64_t seed_stream = 0x9a17;
};

Result<RandomGraphSpec> ParseRandomGraphSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(
      spec.CheckParams("env.", {"degree", "seed_stream"}));
  if (spec.hosts <= 0) {
    return Status::InvalidArgument(
        "random-graph environment requires hosts > 0");
  }
  DYNAGG_ASSIGN_OR_RETURN(const int64_t degree,
                          spec.ParamInt("env.degree", 8));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t stream,
                          spec.ParamInt("env.seed_stream", 0x9a17));
  if (degree < 1) {
    return Status::InvalidArgument("env.degree must be >= 1");
  }
  // The configuration model pairs `degree` distinct stubs per vertex; at
  // degree >= hosts it cannot even allocate them.
  if (degree >= spec.hosts) {
    return Status::InvalidArgument(
        "env.degree = " + std::to_string(degree) +
        " must be below hosts = " + std::to_string(spec.hosts) +
        " (each host needs that many distinct neighbors)");
  }
  return RandomGraphSpec{spec.hosts, static_cast<int>(degree),
                         static_cast<uint64_t>(stream)};
}

Result<EnvPtr> BuildRandomGraph(const TrialContext& ctx,
                                const RandomGraphSpec& g) {
  return EnvPtr(std::make_unique<RandomGraphEnvironment>(
      g.hosts, g.degree, DeriveSeed(ctx.trial_seed, g.seed_stream)));
}

struct HaggleSpec {
  /// The env.dataset preset with env.hours applied.
  HaggleGenParams gen;
  /// Set: the trace seed derives from the trial seed on this stream
  /// (independent trials, the default). Unset: gen.seed is pinned by
  /// env.trace_seed — `preset` keeps the dataset preset's fixed seed
  /// (every trial and sweep unit replays the SAME trace, the legacy fig11
  /// convention), an integer pins it explicitly.
  std::optional<uint64_t> seed_stream;
  TracePacing pacing;
};

Result<HaggleSpec> ParseHaggleSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "env.",
      {"dataset", "hours", "gossip_seconds", "group_window_minutes",
       "seed_stream", "trace_seed"}));
  HaggleSpec out;
  DYNAGG_ASSIGN_OR_RETURN(const int64_t dataset,
                          spec.ParamInt("env.dataset", 1));
  if (dataset < 1 || dataset > 3) {
    return Status::InvalidArgument("env.dataset must be 1, 2 or 3");
  }
  out.gen = dataset == 1   ? HaggleDataset1()
            : dataset == 2 ? HaggleDataset2()
                           : HaggleDataset3();
  DYNAGG_ASSIGN_OR_RETURN(const double hours,
                          spec.ParamDouble("env.hours", 0.0));
  if (hours > 0) out.gen.duration_hours = hours;
  DYNAGG_ASSIGN_OR_RETURN(const int64_t stream,
                          spec.ParamInt("env.seed_stream", 0x7a5e));
  DYNAGG_ASSIGN_OR_RETURN(out.pacing, ParseTracePacing(spec));
  DYNAGG_ASSIGN_OR_RETURN(const std::string trace_seed,
                          spec.ParamString("env.trace_seed", ""));
  if (trace_seed.empty()) {
    out.seed_stream = static_cast<uint64_t>(stream);
  } else if (trace_seed != "preset") {
    DYNAGG_ASSIGN_OR_RETURN(const int64_t fixed,
                            spec.ParamInt("env.trace_seed", 0));
    out.gen.seed = static_cast<uint64_t>(fixed);
  }
  return out;
}

Result<TracePtr> BuildHaggle(const TrialContext& ctx,
                             const HaggleSpec& haggle) {
  HaggleGenParams gen = haggle.gen;
  if (haggle.seed_stream) {
    gen.seed = DeriveSeed(ctx.trial_seed, *haggle.seed_stream);
  }
  return std::make_shared<const ContactTrace>(GenerateHaggleTrace(gen));
}

/// Reads and parses a CRAWDAD contact table, memoizing the immutable
/// result per (path, options): the trace does not depend on the trial
/// seed, so an experiment's trials and sweep units — which instantiate the
/// environment once each, possibly from several executor threads — share
/// one parse instead of re-reading a potentially multi-megabyte table per
/// trial.
Result<TracePtr> LoadCrawdadTrace(const std::string& trace_file,
                                  const CrawdadOptions& options) {
  static std::mutex mutex;
  static std::map<std::string, TracePtr>& cache =
      *new std::map<std::string, TracePtr>();
  char options_key[64];
  std::snprintf(options_key, sizeof(options_key), "|%.17g|%d|%d",
                options.min_duration_seconds, options.max_devices,
                options.rebase_time ? 1 : 0);
  const std::string key = trace_file + options_key;
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  // Read + parse outside the lock; a racing duplicate parse is harmless.
  std::ifstream in(trace_file, std::ios::binary);
  if (!in) {
    return Status::NotFound("crawdad: cannot open env.trace_file '" +
                            trace_file + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::Corruption("crawdad: error reading '" + trace_file + "'");
  }
  DYNAGG_ASSIGN_OR_RETURN(ContactTrace trace,
                          ParseCrawdadContacts(text.str(), options));
  if (trace.num_devices() == 0) {
    return Status::InvalidArgument("crawdad: '" + trace_file +
                                   "' contains no usable contacts");
  }
  auto shared = std::make_shared<const ContactTrace>(std::move(trace));
  std::lock_guard<std::mutex> lock(mutex);
  return cache.emplace(key, std::move(shared)).first->second;
}

/// CRAWDAD-format contact-table playback (env/crawdad.h): env.trace_file
/// replayed exactly like the synthetic haggle environment — round-paced
/// via env.gossip_seconds under driver = rounds, event-driven under
/// driver = trace. The file is read at trial execution time (once per
/// distinct table; see LoadCrawdadTrace); --dry-run validates the spec
/// without touching it.
struct CrawdadSpec {
  std::string trace_file;
  CrawdadOptions options;
  TracePacing pacing;
};

Result<CrawdadSpec> ParseCrawdadSpec(const ScenarioSpec& spec) {
  DYNAGG_RETURN_IF_ERROR(spec.CheckParams(
      "env.", {"trace_file", "min_duration_seconds", "max_devices",
               "gossip_seconds", "group_window_minutes"}));
  CrawdadSpec out;
  DYNAGG_ASSIGN_OR_RETURN(out.trace_file,
                          spec.ParamString("env.trace_file", ""));
  if (out.trace_file.empty()) {
    return Status::InvalidArgument(
        "crawdad environment requires env.trace_file");
  }
  DYNAGG_ASSIGN_OR_RETURN(out.options.min_duration_seconds,
                          spec.ParamDouble("env.min_duration_seconds", 0.0));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t max_devices,
                          spec.ParamInt("env.max_devices", 0));
  if (out.options.min_duration_seconds < 0 || max_devices < 0) {
    return Status::InvalidArgument(
        "env.min_duration_seconds and env.max_devices must be >= 0");
  }
  out.options.max_devices = static_cast<int>(max_devices);
  DYNAGG_ASSIGN_OR_RETURN(out.pacing, ParseTracePacing(spec));
  return out;
}

Result<TracePtr> BuildCrawdad(const TrialContext&, const CrawdadSpec& file) {
  return LoadCrawdadTrace(file.trace_file, file.options);
}

}  // namespace

namespace internal {

void RegisterBuiltinEnvironments(Registry<EnvironmentDef>& registry) {
  RegisterEnvironment(registry, "uniform", ParseUniformSpec, BuildUniform);
  RegisterEnvironment(registry, "spatial", ParseSpatialSpec, BuildSpatial);
  RegisterEnvironment(registry, "random-graph", ParseRandomGraphSpec,
                      BuildRandomGraph);
  RegisterEnvironment(registry, "haggle", ParseHaggleSpec, BuildHaggle);
  RegisterEnvironment(registry, "crawdad", ParseCrawdadSpec, BuildCrawdad);
}

}  // namespace internal
}  // namespace scenario
}  // namespace dynagg
