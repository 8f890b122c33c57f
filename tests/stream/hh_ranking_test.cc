// Heavy-hitter scoring against a full-sort reference. The finish hook
// ranks only the prefix of each host's key estimates that a precision or
// recall selector reads; these tests run a stream swarm built through the
// protocol registry, score it with the hook, and recompute every hh_*
// record from the same final state (host_state / host_weight / hash() /
// TruthCounts()) with a full std::sort. The records must agree bit for
// bit: on estimate ties (broken by key), at k = 1, k = m and k > m (k
// clamps to m), with several selectors of different k in one spec, with
// only unranked selectors, and for both sketch kinds.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "scenario/spec.h"
#include "scenario/trial.h"
#include "sim/population.h"
#include "stream/freq_sketch.h"
#include "stream/stream_swarm.h"

namespace dynagg {
namespace scenario {
namespace {

using stream::SketchKind;
using stream::StreamSketchSwarm;

/// One trial's objects; the swarm's hooks point into it, so it is not
/// movable.
struct Trial {
  ScenarioSpec spec;
  TrialContext ctx;
  EnvHandle env;
  SwarmHandle handle;
  const StreamSketchSwarm* swarm = nullptr;
  std::vector<ScalarRecord> scalars;  // the finish hook's records

  Trial() = default;
  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;
};

/// Builds the spec's stream swarm from the registry, runs its rounds and
/// calls the finish hook.
std::unique_ptr<Trial> RunTrial(const std::string& text) {
  auto t = std::make_unique<Trial>();
  const auto specs = ParseScenarioFile(text);
  EXPECT_TRUE(specs.ok()) << specs.status().ToString();
  if (!specs.ok()) return nullptr;
  t->spec = (*specs)[0];
  t->ctx.spec = &t->spec;
  t->ctx.trial_seed = t->spec.seed;
  const auto def = ProtocolRegistry().Find(t->spec.protocol);
  EXPECT_TRUE(def.ok()) << def.status().ToString();
  auto env = MakeEnvironment(t->ctx);
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  if (!def.ok() || !env.ok()) return nullptr;
  t->env = std::move(env).value();
  auto handle = def->make_swarm(t->ctx, t->env);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  if (!handle.ok()) return nullptr;
  t->handle = std::move(handle).value();
  // The stream factory's keepalive owns the StreamSketchSwarm itself.
  t->swarm = static_cast<const StreamSketchSwarm*>(t->handle.keepalive.get());

  const int n = t->env.env->num_hosts();
  Population pop(n);
  Rng rng(DeriveSeed(t->spec.seed, 1));
  for (int round = 0; round < t->spec.rounds; ++round) {
    t->handle.run_round(*t->env.env, pop, rng);
  }
  Recorder rec;
  const Status st = t->handle.finish(t->ctx, rec);
  EXPECT_TRUE(st.ok()) << st.ToString();
  t->scalars = rec.batch().scalars;
  return t;
}

/// Every distinct key the stream produced, so tests can pick k = m.
int DistinctKeys(const Trial& t) {
  return static_cast<int>(t.swarm->TruthCounts().size());
}

/// The finish hook's scoring, restated with a full sort of every host's
/// estimates. Returns the hh_* and hh_frontier records in spec order.
std::vector<ScalarRecord> FullSortReference(const Trial& t) {
  const StreamSketchSwarm& swarm = *t.swarm;
  std::vector<std::pair<uint64_t, double>> truth(swarm.TruthCounts().begin(),
                                                 swarm.TruthCounts().end());
  std::sort(truth.begin(), truth.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  const int m = static_cast<int>(truth.size());
  const int n = swarm.size();
  const int depth = swarm.hash().depth();

  // est[id][j]: host id's estimate of truth[j]'s key; rank[id] orders all
  // m keys by (estimate desc, key asc).
  std::vector<std::vector<double>> est(n, std::vector<double>(m));
  std::vector<std::vector<int>> rank(n, std::vector<int>(m));
  for (HostId id = 0; id < n; ++id) {
    const double* host = swarm.host_state(id);
    const double weight = swarm.host_weight(id);
    const double scale =
        weight > 0.0 ? static_cast<double>(n) / weight : 0.0;
    for (int j = 0; j < m; ++j) {
      const uint64_t key = truth[j].first;
      double raw;
      if (swarm.kind() == SketchKind::kCountMin) {
        raw = host[swarm.hash().Slot(0, key)];
        for (int r = 1; r < depth; ++r) {
          raw = std::min(raw, host[swarm.hash().Slot(r, key)]);
        }
      } else {
        double rows[64];
        for (int r = 0; r < depth; ++r) {
          rows[r] = swarm.hash().Sign(r, key) *
                    host[swarm.hash().Slot(r, key)];
        }
        raw = stream::MedianOfRows(rows, depth);
      }
      est[id][j] = scale * raw;
    }
    std::vector<int>& order = rank[id];
    std::iota(order.begin(), order.end(), 0);
    const std::vector<double>& e = est[id];
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return e[a] != e[b] ? e[a] > e[b] : truth[a].first < truth[b].first;
    });
  }

  std::vector<ScalarRecord> out;
  for (const MetricSpec& metric : t.spec.metrics) {
    if (metric.name == "hh_frontier") {
      double sum = 0.0;
      for (HostId id = 0; id < n; ++id) {
        double err = 0.0;
        for (int j = 0; j < m; ++j) {
          err += std::abs(est[id][j] - truth[j].second);
        }
        sum += err / swarm.TruthTotal();
      }
      out.push_back({"hh_frontier", sum / n});
      continue;
    }
    if (metric.name != "hh_precision" && metric.name != "hh_recall" &&
        metric.name != "hh_weighted_err") {
      continue;
    }
    const int k = std::min(std::stoi(metric.arg), m);
    double sum = 0.0;
    for (HostId id = 0; id < n; ++id) {
      if (metric.name == "hh_weighted_err") {
        double err = 0.0;
        double mass = 0.0;
        for (int j = 0; j < k; ++j) {
          err += std::abs(est[id][j] - truth[j].second);
          mass += truth[j].second;
        }
        sum += err / mass;
        continue;
      }
      int t_size = k;
      while (t_size < m && truth[t_size].second >= truth[k - 1].second) {
        ++t_size;
      }
      int inter = 0;
      for (int j = 0; j < k; ++j) {
        if (rank[id][j] < t_size) ++inter;
      }
      sum += metric.name == "hh_precision"
                 ? static_cast<double>(inter) / k
                 : static_cast<double>(inter) / t_size;
    }
    out.push_back({metric.name + "_" + metric.arg, sum / n});
  }
  return out;
}

/// The hook's hh_* / hh_frontier records must equal the reference's, in
/// the same order and bit for bit.
void ExpectMatchesReference(const Trial& t) {
  std::vector<ScalarRecord> got;
  for (const ScalarRecord& r : t.scalars) {
    if (r.name != "sketch_bytes") got.push_back(r);
  }
  const std::vector<ScalarRecord> want = FullSortReference(t);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].value, want[i].value) << want[i].name;
  }
}

double Scalar(const Trial& t, const std::string& name) {
  for (const ScalarRecord& r : t.scalars) {
    if (r.name == name) return r.value;
  }
  ADD_FAILURE() << "missing record " << name;
  return std::nan("");
}

/// A spec over protocol `protocol` with `extra` appended.
std::string Spec(const std::string& protocol, const std::string& extra) {
  return "name = hh_rank\nprotocol = " + protocol +
         "\nhosts = 24\nrounds = 8\nseed = 17\n" + extra;
}

class HhRankingTest : public testing::TestWithParam<const char*> {};

TEST_P(HhRankingTest, TiedEstimatesBreakByKey) {
  // Eight Zipf keys in a two-cell, one-row sketch: keys sharing a cell
  // have equal estimates on every host but unequal true counts (low key
  // ids are the frequent ones), so which tied keys make the top k, and
  // with them precision and recall, is decided by the key tie-break.
  const auto t = RunTrial(Spec(GetParam(),
                               "workload.kind = zipf\nworkload.skew = 1.5\n"
                               "workload.keys = 8\nworkload.batch = 4\n"
                               "workload.rounds = 4\n"
                               "protocol.width = 2\nprotocol.depth = 1\n"
                               "record = hh_precision(1), hh_precision(2), "
                               "hh_recall(3)\n"));
  ASSERT_NE(t, nullptr);
  // The workload really does produce tied estimates.
  const auto& truth = t->swarm->TruthCounts();
  ASSERT_GT(truth.size(), 2u);
  std::vector<double> est;
  for (const auto& [key, count] : truth) {
    est.push_back(t->swarm->KeyEstimate(0, key));
  }
  std::sort(est.begin(), est.end());
  EXPECT_NE(std::adjacent_find(est.begin(), est.end()), est.end());
  ExpectMatchesReference(*t);
}

TEST_P(HhRankingTest, KClampsAtAndBeyondTheDistinctKeys) {
  const std::string base =
      "workload.kind = zipf\nworkload.keys = 40\nworkload.batch = 3\n"
      "workload.rounds = 3\nprotocol.width = 16\nprotocol.depth = 3\n";
  // Probe m, the number of distinct keys this stream yields.
  const auto probe =
      RunTrial(Spec(GetParam(), base + "record = hh_precision(1)\n"));
  ASSERT_NE(probe, nullptr);
  const int m = DistinctKeys(*probe);
  ASSERT_GT(m, 1);
  const std::string at = std::to_string(m);
  const std::string beyond = std::to_string(m + 7);
  const auto t = RunTrial(Spec(
      GetParam(), base + "record = hh_precision(1), hh_recall(1), "
                         "hh_precision(" + at + "), hh_recall(" + at +
                         "), hh_precision(" + beyond + "), hh_recall(" +
                         beyond + "), hh_weighted_err(" + beyond + ")\n"));
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(DistinctKeys(*t), m);
  ExpectMatchesReference(*t);
  // Ranking every key recovers the whole key set, and k > m reads as m.
  EXPECT_EQ(Scalar(*t, "hh_precision_" + at), 1.0);
  EXPECT_EQ(Scalar(*t, "hh_recall_" + at), 1.0);
  EXPECT_EQ(Scalar(*t, "hh_precision_" + beyond), 1.0);
  EXPECT_EQ(Scalar(*t, "hh_recall_" + beyond), 1.0);
}

TEST_P(HhRankingTest, SelectorsOfDifferentKShareOneRanking) {
  const auto t = RunTrial(Spec(
      GetParam(),
      "workload.kind = zipf\nworkload.keys = 4096\nworkload.skew = 1.2\n"
      "workload.batch = 8\nworkload.rounds = 5\n"
      "protocol.width = 64\nprotocol.depth = 3\n"
      "record = hh_recall(12), sketch_bytes, hh_precision(3), hh_frontier, "
      "hh_weighted_err(5), hh_precision(12), hh_recall(3)\n"));
  ASSERT_NE(t, nullptr);
  ExpectMatchesReference(*t);
  // Column order is the spec's record order.
  std::vector<std::string> names;
  for (const ScalarRecord& r : t->scalars) names.push_back(r.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "sketch_bytes", "hh_recall_12", "hh_precision_3",
                       "hh_frontier", "hh_weighted_err_5", "hh_precision_12",
                       "hh_recall_3"}));
}

TEST_P(HhRankingTest, UnrankedSelectorsAloneMatchTheReference) {
  // hh_weighted_err and hh_frontier read the estimates in truth order
  // only, so this spec ranks nothing; its records must still equal both
  // the reference and the same selectors scored beside a ranked one.
  const std::string base =
      "workload.kind = zipf\nworkload.keys = 2048\nworkload.batch = 8\n"
      "workload.rounds = 4\nprotocol.width = 32\nprotocol.depth = 2\n";
  const auto alone = RunTrial(
      Spec(GetParam(), base + "record = hh_weighted_err(8), hh_frontier\n"));
  const auto ranked = RunTrial(Spec(
      GetParam(),
      base + "record = hh_weighted_err(8), hh_frontier, hh_precision(8)\n"));
  ASSERT_NE(alone, nullptr);
  ASSERT_NE(ranked, nullptr);
  ExpectMatchesReference(*alone);
  EXPECT_EQ(Scalar(*alone, "hh_weighted_err_8"),
            Scalar(*ranked, "hh_weighted_err_8"));
  EXPECT_EQ(Scalar(*alone, "hh_frontier"), Scalar(*ranked, "hh_frontier"));
}

INSTANTIATE_TEST_SUITE_P(BothSketches, HhRankingTest,
                         testing::Values("count-min", "count-sketch-freq"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param) == "count-min"
                                      ? "CountMin"
                                      : "CountSketchFreq";
                         });

}  // namespace
}  // namespace scenario
}  // namespace dynagg
