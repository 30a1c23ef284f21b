// Shared pieces of the benchmark: run options, the report every workload
// fills, the monotonic clock, sample statistics, the span tracer and the
// timing wrappers the traced run puts around controllers and predictors.
//
// Everything here sits outside the program: the benchmark times calls into
// the public functions of net, predict, core, sim, qoe, serve and fleet,
// and never reaches into their internals.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "abr/controller.hpp"
#include "core/cost_model.hpp"
#include "core/soda_controller.hpp"
#include "predict/predictor.hpp"

namespace sodabench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test scale: tiny inputs and a short timed phase, every check run.
  bool quick = false;
  // Where the traced run writes its spans (empty: do not write).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Sample quantile by linear interpolation between order statistics (the
// "inclusive" definition; q = 0.5 is the median). Empty input gives 0.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// The timed figures use the fast end of a repeated unit's timings, its 5th
// percentile, rather than the median. On a shared host, work on the other
// hyperthread of the same core slows this one by up to 1.7x for seconds at
// a time; which share of a run that hits varies from run to run, and the
// median follows it. The fast end is the unit's own cost whenever the run
// saw the core uncontended at all.
inline constexpr double kFastQuantile = 0.05;

inline double FastTime(std::vector<double> samples) {
  return Quantile(std::move(samples), kFastQuantile);
}

// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();

// A count and a time sum for a call made once per decision: kept as an
// aggregate instead of one span per call.
struct Aggregate {
  std::uint64_t count = 0;
  std::int64_t ns = 0;
  [[nodiscard]] double MeanNs() const {
    return count > 0 ? static_cast<double>(ns) / static_cast<double>(count)
                     : 0.0;
  }
};

// In-memory span recorder. A span holds a name, a start, an end and the
// span open around it when it began (-1 at the top level). Spans stay in
// memory until WriteJson at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  int Begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNs(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  Aggregate& Agg(const std::string& name) { return aggregates_[name]; }
  [[nodiscard]] const std::vector<Span>& Spans() const { return spans_; }

  // Writes {"manifest": ..., "aggregates": ..., "spans": [...]}.
  bool WriteJson(const std::string& path,
                 const std::vector<std::pair<std::string, std::string>>&
                     manifest) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, Aggregate> aggregates_;
};

// RAII span; a null tracer records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// What one run hands back to main(): the operation counts, the metric set
// of the requested mode, failed output checks and the workload parameters
// that go into the run manifest.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> check_failures;
  std::vector<std::pair<std::string, std::string>> params;
  // Names of the output checks that ran (the self-test requires each one).
  std::vector<std::string> checks_run;
  // Spans and aggregates of the traced half of a --trace 1 run.
  Tracer tracer;

  void Check(const std::string& name, bool ok, const std::string& detail) {
    if (std::find(checks_run.begin(), checks_run.end(), name) ==
        checks_run.end()) {
      checks_run.push_back(name);
    }
    if (!ok) check_failures.push_back(name + ": " + detail);
  }
  void Param(const std::string& key, const std::string& value) {
    params.emplace_back(key, value);
  }
  void Param(const std::string& key, double value) {
    params.emplace_back(key, std::to_string(value));
  }
  void E2e(const char* name, double value, const char* unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const char* name, double value, const char* unit) {
    per_layer.push_back({name, value, unit});
  }
};

// Per-decision counters a traced controller adds to.
struct ControllerTally {
  Aggregate choose;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t from_table = 0;
};

// Times ChooseRung around any controller and folds its DecisionStats into a
// tally. Decisions are unchanged: the wrapper only forwards.
class TracedController final : public soda::abr::Controller {
 public:
  TracedController(soda::abr::ControllerPtr inner, ControllerTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  [[nodiscard]] soda::media::Rung ChooseRung(
      const soda::abr::Context& context) override {
    const std::int64_t t0 = NowNs();
    const soda::media::Rung rung = inner_->ChooseRung(context);
    tally_->choose.ns += NowNs() - t0;
    ++tally_->choose.count;
    const soda::abr::DecisionStats stats = inner_->LastDecisionStats();
    tally_->nodes_expanded += static_cast<std::uint64_t>(stats.nodes_expanded);
    tally_->from_table += stats.from_table ? 1 : 0;
    return rung;
  }
  void Reset() override { inner_->Reset(); }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }
  [[nodiscard]] soda::abr::DecisionStats LastDecisionStats() const override {
    return inner_->LastDecisionStats();
  }

 private:
  soda::abr::ControllerPtr inner_;
  ControllerTally* tally_;
};

struct PredictorTally {
  Aggregate update;   // Observe
  Aggregate predict;  // PredictHorizon
};

class TracedPredictor final : public soda::predict::ThroughputPredictor {
 public:
  TracedPredictor(soda::predict::PredictorPtr inner, PredictorTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  void Observe(const soda::predict::DownloadObservation& observation) override {
    const std::int64_t t0 = NowNs();
    inner_->Observe(observation);
    tally_->update.ns += NowNs() - t0;
    ++tally_->update.count;
  }
  [[nodiscard]] std::vector<double> PredictHorizon(double now_s, int horizon,
                                                   double dt_s) override {
    const std::int64_t t0 = NowNs();
    std::vector<double> out = inner_->PredictHorizon(now_s, horizon, dt_s);
    tally_->predict.ns += NowNs() - t0;
    ++tally_->predict.count;
    return out;
  }
  void Reset() override { inner_->Reset(); }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }

 private:
  soda::predict::PredictorPtr inner_;
  PredictorTally* tally_;
};

// The cost-model configuration a table-serving path derives from its
// planner configuration and stream geometry (as CachedDecisionController,
// serve::DecisionService and fleet::RunFleet do): the benchmark's own
// references and table keys are built from it.
inline soda::core::CostModelConfig TableModelConfig(
    const soda::core::SodaConfig& base, double segment_s, double max_buffer_s) {
  soda::core::CostModelConfig mc;
  mc.weights = base.weights;
  mc.dt_s = segment_s;
  mc.max_buffer_s = max_buffer_s;
  mc.target_buffer_s =
      base.target_buffer_s.value_or(base.target_fraction * max_buffer_s);
  mc.distortion = base.distortion;
  return mc;
}

// splitmix64: derives independent sub-seeds from the run seed.
inline std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

inline std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t salt) {
  return Mix(seed ^ Mix(salt));
}

// Set-up is repeated at least kSetupRepeats times and for at least
// kSetupSeconds, and setup_s is the fast end of the repeats (FastTime), as
// every other timed figure is. A short set-up gets more repeats, spread
// over a second: contention on a shared host comes and goes, and the fast
// end needs some repeats outside it.
inline constexpr int kSetupRepeats = 3;
inline constexpr double kSetupSeconds = 1.0;

inline bool SetupRepeatsLeft(int done, std::int64_t start_ns, bool quick) {
  return done < kSetupRepeats ||
         (!quick && SecondsSince(start_ns) < kSetupSeconds);
}

// Workload entry points (one source file each).
void RunCorpus(const RunOptions& options, Report& report);
void RunServe(const RunOptions& options, Report& report);
void RunFleet(const RunOptions& options, Report& report);
void RunSharedLink(const RunOptions& options, Report& report);

}  // namespace sodabench
