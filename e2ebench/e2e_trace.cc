// Traced harness: per-layer timings from outside the program.
//
//   e2e_trace --spec=FILE --seed=N --seconds=S --trace-out=FILE
//
// Each iteration i takes trial seed TrialSeed(N, i) and
//   1. drives one trial layer by layer through the public calls of the
//      scenario, env, agg/stream, sim and net modules, with a span around
//      every call (the replica of the rounds or async driver);
//   2. probes the round kernel and the join hook on the trial's final
//      environment and population;
//   3. runs RunExperiment on the same seed twice, telemetry off and
//      summary, in alternating order.
// It then checks that the replica's records equal RunExperiment's bit for
// bit and that the two RunExperiment tables are byte-identical, and prints
//   {"kind":"iteration",...,"layers":{...}}
// with this iteration's per-layer values. Iterations repeat until S seconds
// have passed (at least two). The spans (name, start, end, parent, trial)
// are kept in memory and written as Chrome trace-event JSON at exit.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "harness_util.h"
#include "net/inflight_queue.h"
#include "net/message.h"
#include "net/network_model.h"
#include "scenario/async_driver.h"
#include "scenario/config.h"
#include "scenario/executor.h"
#include "scenario/trial.h"
#include "sim/churn.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace {

using dynagg::HostId;
using dynagg::Population;
using dynagg::Result;
using dynagg::Rng;
using dynagg::Status;
using namespace dynagg::scenario;  // NOLINT: the harness drives this layer

using Layers = std::map<std::string, double>;

// ---------------------------------------------------------------- spans ---

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index into the span list, -1 = root
  int trial;
};

/// In-memory span store. Per-name totals are kept for the current trial so
/// layer metrics are read straight off the spans.
class Tracer {
 public:
  void NewTrial(int trial) {
    trial_ = trial;
    totals_.clear();
  }
  int Begin(const char* name, int parent) {
    spans_.push_back({name, e2e::NowNs(), 0, parent, trial_});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    Span& s = spans_[id];
    s.end_ns = e2e::NowNs();
    auto& [ns, calls] = totals_[s.name];
    ns += s.end_ns - s.start_ns;
    ++calls;
  }
  /// Total nanoseconds of this trial's spans named `name`.
  double Ns(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : static_cast<double>(it->second.first);
  }
  double Duration(int id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns);
  }
  /// Share of span `id` covered by its direct children, in percent.
  double ChildCoverPct(int id) const {
    double covered = 0.0;
    for (size_t k = id + 1; k < spans_.size(); ++k) {
      if (spans_[k].parent == id) covered += Duration(static_cast<int>(k));
    }
    return 100.0 * covered / Duration(id);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::map<std::string, std::pair<int64_t, int64_t>> totals_;
  int trial_ = 0;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
  ~SpanScope() { tracer_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Writes the spans as Chrome trace-event JSON (opens in Perfetto): one
/// thread track per trial, complete events with the parent span in args.
bool WriteChromeTrace(const std::string& path, const std::string& process,
                      const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
               "\"args\":{\"name\":%s}}",
               e2e::JsonString(process).c_str());
  for (size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"trial\":%d}}",
                 s.name, s.trial, (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, k, s.parent, s.trial);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// -------------------------------------------------------------- replica ---

/// One trial's objects, kept alive after the replica so the probes run on
/// its final environment and population. Not movable: the swarm's hooks
/// and ctx point into it.
struct Replica {
  ScenarioSpec spec;
  TrialContext ctx;
  ProtocolDef def;
  EnvHandle env;
  SwarmHandle swarm;
  std::optional<Population> pop;
  Recorder rec;
  Layers layers;

  Replica() = default;
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;
};

double PerUnit(double total, double units) {
  return units > 0 ? total / units : 0.0;
}

/// The rounds driver's trial (scenario/drivers.cc DriveRounds) for the
/// metric subset the benchmark workloads record: rms_tail_mean, final_rms
/// and the swarm's finish-hook selectors, without failure plans.
Status ReplicaRounds(Replica& r, Tracer& tr, int trial_span) {
  const ScenarioSpec& spec = r.spec;
  std::optional<SpanScope> setup(std::in_place, tr, "sim.setup", trial_span);
  DYNAGG_ASSIGN_OR_RETURN(const MetricFlags metrics,
                          ClassifyDriverMetrics(spec, r.def.extra_metrics));
  DYNAGG_ASSIGN_OR_RETURN(const RecordConfig cfg,
                          ParseRecordConfig(spec, r.def.extra_record_keys));
  DYNAGG_ASSIGN_OR_RETURN(const FailureConfig fail, ParseFailureConfig(spec));
  if (metrics.rms || metrics.convergence || metrics.bandwidth ||
      metrics.final_error_cdf || metrics.recovery || metrics.gossip_bytes ||
      !metrics.rms_at.empty() || !metrics.rounds_below.empty() ||
      !metrics.rel_error_hosts.empty() ||
      !metrics.final_error_quantiles.empty() || cfg.relative ||
      fail.kind != FailureConfig::Kind::kNone ||
      fail.pin_alive != dynagg::kInvalidHost ||
      spec.intra_round_threads > 1 || r.def.run_custom) {
    return Status::InvalidArgument(
        "the replica covers rms_tail_mean, final_rms and finish-hook "
        "records of swarm protocols without failure plans");
  }
  const int n = r.env.env->num_hosts();
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t round_stream,
                          RoundStream(spec, r.ctx, n));
  DYNAGG_ASSIGN_OR_RETURN(const ChurnConfig churn, ParseChurnConfig(spec));
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t churn_stream,
                          ChurnStream(spec, r.ctx, n));
  Rng churn_rng(dynagg::DeriveSeed(r.ctx.trial_seed, churn_stream));
  std::optional<dynagg::ChurnPlan> plan;
  {
    SpanScope s(tr, "sim.churn_plan", setup->id());
    DYNAGG_ASSIGN_OR_RETURN(plan,
                            BuildChurnPlan(churn, n, spec.rounds, churn_rng));
  }
  const int initial = churn.enabled && churn.initial >= 0 ? churn.initial : n;
  if (initial < n) {
    r.pop.emplace(n, initial);
  } else {
    r.pop.emplace(n);
  }
  Population& pop = *r.pop;
  Rng rng(dynagg::DeriveSeed(r.ctx.trial_seed, round_stream));
  // Stream workloads: rounds before workload.rounds take arrivals, the
  // rest only merge.
  DYNAGG_ASSIGN_OR_RETURN(const int64_t arrival_rounds,
                          spec.ParamInt("workload.rounds", 0));
  const bool stream = spec.HasParam("workload.kind");
  setup.reset();

  dynagg::RunningStat tail;
  double last_rms = 0.0;
  double host_rounds = 0.0, arrival_host_rounds = 0.0, evaluated = 0.0;
  int64_t joins = 0, rebirths = 0;
  for (int round = 0; round < spec.rounds; ++round) {
    SpanScope round_span(tr, "sim.round", trial_span);
    if (r.env.advance_period > 0) {
      r.env.env->AdvanceTo(static_cast<dynagg::SimTime>(round + 1) *
                           r.env.advance_period);
    }
    if (!plan->empty()) {
      SpanScope s(tr, "sim.churn_apply", round_span.id());
      const auto delta = plan->Apply(round, &pop, r.swarm.on_join);
      joins += delta.joins;
      rebirths += delta.rebirths;
    }
    const bool arriving = stream && round < arrival_rounds;
    host_rounds += pop.num_alive();
    if (arriving) arrival_host_rounds += pop.num_alive();
    {
      SpanScope s(tr,
                  !stream    ? "agg.round"
                  : arriving ? "stream.arrival_round"
                             : "stream.merge_round",
                  round_span.id());
      r.swarm.run_round(*r.env.env, pop, rng);
    }
    if (!metrics.NeedsRoundEvaluation()) continue;
    double truth = 0.0, rms = 0.0;
    {
      SpanScope s(tr, "sim.truth", round_span.id());
      truth = r.swarm.truth(pop);
    }
    {
      SpanScope s(tr, "sim.rms", round_span.id());
      rms = dynagg::RmsDeviationOverAlive(pop, truth, r.swarm.estimate);
    }
    evaluated += pop.num_alive();
    if (metrics.tail_mean && round >= cfg.from) tail.Add(rms);
    last_rms = rms;
  }
  {
    SpanScope s(tr, stream ? "stream.score" : "agg.finish", trial_span);
    if (metrics.tail_mean) r.rec.AddScalar("rms_tail_mean", tail.mean());
    if (metrics.final_rms) r.rec.AddScalar("final_rms", last_rms);
    if (r.swarm.finish) DYNAGG_RETURN_IF_ERROR(r.swarm.finish(r.ctx, r.rec));
  }

  Layers& l = r.layers;
  const double round_ns = tr.Ns("agg.round") +
                          tr.Ns("stream.arrival_round") +
                          tr.Ns("stream.merge_round");
  l["agg.round_ns_per_host"] = PerUnit(round_ns, host_rounds);
  l["sim.truth_ns_per_host"] = PerUnit(tr.Ns("sim.truth"), evaluated);
  l["sim.rms_ns_per_host"] = PerUnit(tr.Ns("sim.rms"), evaluated);
  l["sim.churn_apply_ms_per_round"] =
      tr.Ns("sim.churn_apply") / 1e6 / spec.rounds;
  l["sim.churn_joins"] = static_cast<double>(joins);
  l["sim.churn_rebirths"] = static_cast<double>(rebirths);
  l["stream.arrival_round_ns_per_host"] =
      PerUnit(tr.Ns("stream.arrival_round"), arrival_host_rounds);
  l["stream.merge_round_ns_per_host"] =
      PerUnit(tr.Ns("stream.merge_round"), host_rounds - arrival_host_rounds);
  l["stream.score_ns_per_host"] =
      PerUnit(tr.Ns("stream.score"), stream ? pop.num_alive() : 0);
  l["stream.sketch_bytes"] = stream ? r.swarm.state_bytes : 0.0;
  l["sim.record_ns"] =
      tr.Ns("sim.truth") + tr.Ns("sim.rms") + tr.Ns("stream.score") +
      tr.Ns("agg.finish");
  return Status::OK();
}

/// The async driver's trial (scenario/async_driver.cc) for rms_tail_mean,
/// final_rms and delivery_rate. Gossip tick k and the metric sample both
/// fire at (k + 1) * gossip_period, tick first; in-flight messages due by
/// then are delivered before each. Deciding a whole wave before queueing
/// it keeps the driver's order: each decision is a pure function of the
/// message index.
Status ReplicaAsync(Replica& r, Tracer& tr, int trial_span) {
  const ScenarioSpec& spec = r.spec;
  std::optional<SpanScope> setup(std::in_place, tr, "sim.setup", trial_span);
  DYNAGG_RETURN_IF_ERROR(ValidateAsyncSpec(spec, r.def));
  DYNAGG_ASSIGN_OR_RETURN(const dynagg::net::NetworkParams net_params,
                          ParseNetworkParams(spec));
  DYNAGG_ASSIGN_OR_RETURN(const int64_t record_from,
                          spec.ParamInt("record.from", 0));
  if (MetricRequested(spec, "rms") || MetricRequested(spec, "bandwidth") ||
      MetricRequested(spec, "gossip_bytes")) {
    return Status::InvalidArgument(
        "the async replica covers rms_tail_mean, final_rms and "
        "delivery_rate");
  }
  const bool want_tail = MetricRequested(spec, "rms_tail_mean");
  const int n = r.env.env->num_hosts();
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t round_stream,
                          RoundStream(spec, r.ctx, n));
  DYNAGG_ASSIGN_OR_RETURN(const uint64_t message_stream,
                          MessageStream(spec, r.ctx, n));
  const dynagg::SimTime period = dynagg::FromSeconds(
      spec.gossip_period > 0 ? spec.gossip_period : 30.0);
  const int ticks = spec.rounds;
  r.pop.emplace(n);
  Population& pop = *r.pop;
  Rng rng(dynagg::DeriveSeed(r.ctx.trial_seed, round_stream));
  dynagg::net::NetworkModel model(
      net_params, dynagg::DeriveSeed(r.ctx.trial_seed, message_stream));
  dynagg::net::InFlightQueue inflight;
  inflight.Reserve(static_cast<size_t>(n));
  std::vector<dynagg::net::Message> wave;
  std::vector<dynagg::net::NetworkModel::Delivery> decisions;
  setup.reset();

  int64_t sent = 0, queued = 0, delivered = 0;
  uint64_t message_index = 0;
  size_t inflight_peak = 0;
  const auto drain = [&](dynagg::SimTime t, int parent) {
    SpanScope s(tr, "net.deliver", parent);
    while (inflight.HasDueBy(t)) {
      r.swarm.async_deliver(inflight.Top());
      ++delivered;
      inflight.Pop();
    }
  };
  const auto rms_now = [&](int parent) {
    double truth = 0.0;
    {
      SpanScope s(tr, "sim.truth", parent);
      truth = r.swarm.truth(pop);
    }
    SpanScope s(tr, "sim.rms", parent);
    return dynagg::RmsDeviationOverAlive(pop, truth, r.swarm.estimate);
  };
  dynagg::RunningStat tail;
  for (int k = 0; k < ticks; ++k) {
    SpanScope round_span(tr, "sim.round", trial_span);
    const dynagg::SimTime now = static_cast<dynagg::SimTime>(k + 1) * period;
    drain(now, round_span.id());
    if (r.env.advance_period > 0) {
      r.env.env->AdvanceTo(static_cast<dynagg::SimTime>(k + 1) *
                           r.env.advance_period);
    }
    {
      SpanScope s(tr, "net.tick", round_span.id());
      wave.clear();
      r.swarm.async_tick(*r.env.env, pop, rng, &wave);
    }
    sent += static_cast<int64_t>(wave.size());
    {
      SpanScope s(tr, "net.decide", round_span.id());
      decisions.resize(wave.size());
      for (auto& d : decisions) d = model.Decide(message_index++);
    }
    {
      SpanScope s(tr, "net.queue", round_span.id());
      for (size_t j = 0; j < wave.size(); ++j) {
        if (decisions[j].dropped) continue;
        inflight.Push(now + decisions[j].delay, wave[j]);
        ++queued;
      }
    }
    inflight_peak = std::max(inflight_peak, inflight.size());
    drain(now, round_span.id());
    if (want_tail) {
      const double rms = rms_now(round_span.id());
      if (k >= record_from) tail.Add(rms);
    }
  }
  drain(INT64_MAX, trial_span);
  {
    SpanScope s(tr, "agg.finish", trial_span);
    if (want_tail) r.rec.AddScalar("rms_tail_mean", tail.mean());
    if (MetricRequested(spec, "final_rms")) {
      r.rec.AddScalar("final_rms", rms_now(s.id()));
    }
    if (MetricRequested(spec, "delivery_rate")) {
      r.rec.AddScalar("delivery_rate",
                      sent > 0 ? static_cast<double>(delivered) /
                                     static_cast<double>(sent)
                               : 1.0);
    }
  }

  Layers& l = r.layers;
  const double host_ticks = static_cast<double>(n) * ticks;
  const double samples = want_tail ? host_ticks : 0.0;
  l["agg.round_ns_per_host"] =
      PerUnit(tr.Ns("net.tick") + tr.Ns("net.deliver"), host_ticks);
  l["net.tick_ns_per_host"] = PerUnit(tr.Ns("net.tick"), host_ticks);
  l["net.decide_ns_per_msg"] = PerUnit(tr.Ns("net.decide"), sent);
  l["net.queue_ns_per_msg"] = PerUnit(tr.Ns("net.queue"), queued);
  l["net.deliver_ns_per_msg"] = PerUnit(tr.Ns("net.deliver"), delivered);
  l["net.sample_ns_per_host"] =
      PerUnit(tr.Ns("sim.truth") + tr.Ns("sim.rms"), samples);
  l["net.msgs_sent"] = static_cast<double>(sent);
  l["net.delivery_ratio"] = PerUnit(delivered, sent);
  l["net.inflight_peak"] = static_cast<double>(inflight_peak);
  l["sim.truth_ns_per_host"] = PerUnit(tr.Ns("sim.truth"), samples);
  l["sim.rms_ns_per_host"] = PerUnit(tr.Ns("sim.rms"), samples);
  l["sim.record_ns"] =
      tr.Ns("sim.truth") + tr.Ns("sim.rms") + tr.Ns("agg.finish");
  return Status::OK();
}

/// Runs the replica trial under a root span whose id lands in `*trial_span`.
Status RunReplica(const std::string& text, uint64_t seed, Tracer& tr,
                  Replica& r, int* trial_span) {
  SpanScope trial(tr, "trial", -1);
  *trial_span = trial.id();
  {
    SpanScope s(tr, "scenario.parse", trial.id());
    DYNAGG_ASSIGN_OR_RETURN(r.spec, e2e::ParseSpec(text, seed));
  }
  {
    SpanScope s(tr, "scenario.validate", trial.id());
    DYNAGG_RETURN_IF_ERROR(ValidateExperiment(r.spec));
  }
  r.ctx.spec = &r.spec;
  r.ctx.trial_seed = seed;
  DYNAGG_ASSIGN_OR_RETURN(r.def, ProtocolRegistry().Find(r.spec.protocol));
  {
    SpanScope s(tr, "env.build", trial.id());
    DYNAGG_ASSIGN_OR_RETURN(r.env, MakeEnvironment(r.ctx));
  }
  {
    SpanScope s(tr, "agg.build", trial.id());
    DYNAGG_ASSIGN_OR_RETURN(r.swarm, r.def.make_swarm(r.ctx, r.env));
  }
  const Status st = r.spec.driver == "async" ? ReplicaAsync(r, tr, trial.id())
                                             : ReplicaRounds(r, tr, trial.id());
  DYNAGG_RETURN_IF_ERROR(st);
  Layers& l = r.layers;
  l["scenario.parse_ms"] =
      (tr.Ns("scenario.parse") + tr.Ns("scenario.validate")) / 1e6;
  l["env.build_ms"] = tr.Ns("env.build") / 1e6;
  l["agg.build_ms"] = tr.Ns("agg.build") / 1e6;
  l["agg.state_bytes_per_host"] = r.swarm.state_bytes;
  return Status::OK();
}

// --------------------------------------------------------------- probes ---

volatile double g_sink = 0.0;

template <typename Fn>
double MedianNs(int reps, Fn&& fn) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = e2e::NowNs();
    fn();
    ns.push_back(static_cast<double>(e2e::NowNs() - t0));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Times the env layer's batched partner planning, the round kernel's
/// fused push apply and its deposit scatter (with a push-sum payload of two
/// doubles), and the swarm's join hook, on the trial's final environment
/// and population.
void RunProbes(Replica& r, uint64_t seed, Tracer& tr, Layers& l) {
  SpanScope probes(tr, "probes", -1);
  const dynagg::Environment& env = *r.env.env;
  const Population& pop = *r.pop;
  const int n = env.num_hosts();
  constexpr int kReps = 5;
  dynagg::RoundKernel kernel;
  Rng rng(dynagg::DeriveSeed(seed, 0x70726f6265ull /* "probe" */));
  {
    SpanScope s(tr, "probe.plan", probes.id());
    const double ns =
        MedianNs(kReps, [&] { kernel.PlanPushRound(env, pop, rng); });
    l["env.plan_ns_per_slot"] = PerUnit(ns, kernel.plan().size());
  }
  struct Payload {
    double mass;
    double weight;
  };
  std::vector<double> mass(n, 1.0), weight(n, 1.0), in_mass(n), in_weight(n);
  const auto deposit = [&](HostId dst, const Payload& p) {
    in_mass[dst] += p.mass;
    in_weight[dst] += p.weight;
  };
  const double slots = static_cast<double>(kernel.plan().size());
  {
    SpanScope s(tr, "probe.apply", probes.id());
    const double ns = MedianNs(kReps, [&] {
      kernel.ForEachPushSlot(
          [&](HostId i) {
            const Payload half{mass[i] * 0.5, weight[i] * 0.5};
            in_mass[i] += half.mass;
            in_weight[i] += half.weight;
            return half;
          },
          deposit,
          [&](HostId dst) {
            __builtin_prefetch(&in_mass[dst]);
            __builtin_prefetch(&in_weight[dst]);
          });
    });
    l["agg.apply_ns_per_slot"] = PerUnit(ns, slots);
  }
  {
    SpanScope s(tr, "probe.scatter", probes.id());
    std::vector<Payload> payloads(kernel.plan().size(), Payload{0.5, 0.5});
    const double ns = MedianNs(kReps, [&] {
      kernel.ScatterDeposits(payloads, /*self_echo=*/true, n, deposit);
    });
    l["agg.scatter_ns_per_slot"] = PerUnit(ns, slots);
  }
  g_sink = in_mass[0] + in_weight[n - 1];
  // The join hook resets one host's state; after the trial it is free to
  // run on any id.
  double join_ns = 0.0;
  if (r.swarm.on_join) {
    SpanScope s(tr, "probe.join", probes.id());
    const int count = std::min(n, 1024);
    const int64_t t0 = e2e::NowNs();
    for (int k = 0; k < count; ++k) {
      r.swarm.on_join(static_cast<HostId>(static_cast<int64_t>(k) * n / count));
    }
    join_ns = static_cast<double>(e2e::NowNs() - t0) / count;
  }
  l["agg.join_ns"] = join_ns;
}

// ------------------------------------------------------------ telemetry ---

struct TimedRun {
  std::string digest;
  std::map<std::string, double> summary;
  std::map<std::string, double> telemetry;
  double wall_ns = 0.0;
};

Result<TimedRun> RunTimed(const ScenarioSpec& spec, const char* mode) {
  RunOptions options;
  options.threads = 1;
  options.telemetry = mode;
  ExperimentTelemetry telemetry;
  const int64_t t0 = e2e::NowNs();
  DYNAGG_ASSIGN_OR_RETURN(const auto tables,
                          RunExperiment(spec, options, &telemetry));
  TimedRun run;
  run.wall_ns = static_cast<double>(e2e::NowNs() - t0);
  run.digest = e2e::TableDigest(tables);
  run.summary = e2e::SummaryRow(tables);
  for (const ResultTable& t : telemetry.summary) {
    for (size_t c = 0; c < t.table.columns().size(); ++c) {
      run.telemetry[t.table.columns()[c]] = t.table.row(0)[c];
    }
  }
  return run;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Whether the replica's scalars equal RunExperiment's summary row, bit for
/// bit, under the same names.
bool Faithful(const dynagg::scenario::RecordBatch& batch,
              const std::map<std::string, double>& summary) {
  if (batch.scalars.size() != summary.size()) return false;
  for (const auto& s : batch.scalars) {
    const auto it = summary.find(s.name);
    if (it == summary.end() || !SameBits(s.value, it->second)) return false;
  }
  return true;
}

double Col(const std::map<std::string, double>& row, const std::string& k) {
  const auto it = row.find(k);
  return it == row.end() ? 0.0 : it->second;
}

/// One iteration; returns the error text ("" on success).
std::string Iterate(const std::string& text, uint64_t seed, int index,
                    Tracer& tr, bool* faithful, bool* identical,
                    std::string* digest,
                    std::map<std::string, double>* scalars, Layers* layers) {
  tr.NewTrial(index);
  auto r = std::make_unique<Replica>();
  int trial_span = -1;
  const Status st = RunReplica(text, seed, tr, *r, &trial_span);
  if (!st.ok()) return "replica: " + st.ToString();
  Layers l = r->layers;
  l["obs.trace_cover_pct"] = tr.ChildCoverPct(trial_span);
  l["sim.record_share"] = l["sim.record_ns"] / tr.Duration(trial_span);
  l.erase("sim.record_ns");
  RunProbes(*r, seed, tr, l);
  const dynagg::scenario::RecordBatch batch = r->rec.TakeBatch();
  r.reset();

  const Result<ScenarioSpec> spec = e2e::ParseSpec(text, seed);
  if (!spec.ok()) return spec.status().ToString();
  // Alternate which mode runs first so drift over the run cancels.
  const bool off_first = index % 2 == 0;
  Result<TimedRun> first = RunTimed(*spec, off_first ? "off" : "summary");
  if (!first.ok()) return first.status().ToString();
  Result<TimedRun> second = RunTimed(*spec, off_first ? "summary" : "off");
  if (!second.ok()) return second.status().ToString();
  const TimedRun& off = off_first ? *first : *second;
  const TimedRun& on = off_first ? *second : *first;

  *identical = off.digest == on.digest;
  *digest = off.digest;
  *faithful = Faithful(batch, off.summary);
  *scalars = off.summary;
  const auto& t = on.telemetry;
  l["obs.telemetry_overhead_pct"] =
      100.0 * (on.wall_ns - off.wall_ns) / off.wall_ns;
  l["obs.span_cover_pct"] = Col(t, "span_cover_pct");
  l["obs.setup_ms"] = Col(t, "setup_ms");
  l["obs.plan_ms"] = Col(t, "plan_ms");
  l["obs.apply_ms"] = Col(t, "apply_ms");
  l["obs.scatter_ms"] = Col(t, "scatter_ms");
  l["obs.record_ms"] = Col(t, "record_ms");
  l["sim.deposit_bytes"] = Col(t, "deposit_bytes");
  const double hits = Col(t, "plan_cache_hits");
  const double rebuilds = Col(t, "plan_cache_rebuilds");
  l["env.plan_cache_hit_ratio"] = PerUnit(hits, hits + rebuilds);
  *layers = std::move(l);
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Flags flags(argc, argv);
  const std::string text = e2e::ReadFile(flags.Str("spec"));
  const uint64_t base = static_cast<uint64_t>(flags.Num("seed"));
  const double seconds = flags.Num("seconds");
  const std::string trace_out = flags.Str("trace-out");
  const int64_t start = e2e::NowNs();
  Tracer tracer;
  std::string name = "bench";
  if (const auto spec = e2e::ParseSpec(text, base); spec.ok()) {
    name = spec->name;
  }

  for (int i = 0;; ++i) {
    const uint64_t seed = dynagg::scenario::TrialSeed(base, i);
    bool faithful = false, identical = false;
    std::string digest;
    std::map<std::string, double> scalars;
    Layers layers;
    const std::string error = Iterate(text, seed, i, tracer, &faithful,
                                      &identical, &digest, &scalars, &layers);
    std::printf(
        "{\"kind\":\"iteration\",\"index\":%d,\"seed\":%llu,\"error\":%s,"
        "\"faithful\":%s,\"tables_identical\":%s,\"digest\":\"%s\","
        "\"scalars\":%s,\"layers\":%s}\n",
        i, static_cast<unsigned long long>(seed),
        e2e::JsonString(error).c_str(), faithful ? "true" : "false",
        identical ? "true" : "false", digest.c_str(),
        e2e::JsonObject(scalars).c_str(), e2e::JsonObject(layers).c_str());
    std::fflush(stdout);
    const double elapsed = static_cast<double>(e2e::NowNs() - start) * 1e-9;
    if (i >= 1 && elapsed >= seconds) break;
  }
  if (!WriteChromeTrace(trace_out, name, tracer.spans())) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }
  e2e::PrintEnd(",\"spans\":" + std::to_string(tracer.spans().size()));
  return 0;
}
