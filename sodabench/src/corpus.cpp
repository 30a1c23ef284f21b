// corpus: a Puffer-like trace corpus replayed in closed loop through
// qoe::EvaluateControllerOn with the EMA predictor, one thread. Each round
// takes the next chunk of the corpus through two passes: the exact `soda`
// controller (MonotonicSolver on every segment), then the table-served
// `soda-cached-q`. A pass's rate is the corpus chunks' sessions over the
// sum of each chunk's fast pass time (FastTime), so every chunk weighs the
// same however many times the run reached it.
#include <cmath>
#include <memory>

#include "core/batch_lookup.hpp"
#include "core/decision_table.hpp"
#include "core/quantized_table.hpp"
#include "core/registry.hpp"
#include "harness.hpp"
#include "media/bitrate_ladder.hpp"
#include "media/video_model.hpp"
#include "net/dataset.hpp"
#include "predict/ema.hpp"
#include "qoe/eval.hpp"
#include "sim/session.hpp"
#include "util/rng.hpp"

namespace sodabench {
namespace {

using namespace soda;

constexpr double kBeta = 10.0;   // rebuffering weight of the QoE score
constexpr double kGamma = 1.0;   // switching weight of the QoE score
// Largest |mean QoE(soda-cached-q) - mean QoE(soda)| accepted on a corpus:
// the table differs from the solver only by its grid (48 buffer x 64
// throughput points), whose resolution moves a decision by at most one rung
// near cell edges.
constexpr double kTableQoeBound = 0.02;

struct Pass {
  Pass(const char* controller_name, const char* span_name)
      : controller(controller_name), span(span_name) {}

  const char* controller;
  const char* span;
  // Per chunk: the pass durations of every round that reached it, and the
  // per-session results of the first of them (for the output checks).
  std::vector<std::vector<double>> times;
  std::vector<std::vector<qoe::QoeMetrics>> results;
  std::vector<double> aggregate_qoe;
  std::vector<std::uint64_t> decisions;
  ControllerTally controller_tally;
  PredictorTally predictor_tally;
  double total_s = 0.0;
  std::uint64_t total_decisions = 0;
};

struct Phase {
  Pass exact{"soda", "qoe.evaluate.soda"};
  Pass table{"soda-cached-q", "qoe.evaluate.soda-cached-q"};
};

// Sessions per second over the chunks the phase reached, each chunk timed
// by the fast end of its passes.
double PassRate(const Pass& pass, std::size_t chunk) {
  double seconds = 0.0;
  std::size_t sessions = 0;
  for (const auto& times : pass.times) {
    if (times.empty()) continue;
    seconds += FastTime(times);
    sessions += chunk;
  }
  return seconds > 0.0 ? static_cast<double>(sessions) / seconds : 0.0;
}

double CombinedDecisionRate(const Phase& phase) {
  double seconds = 0.0;
  double decisions = 0.0;
  for (std::size_t c = 0; c < phase.exact.times.size(); ++c) {
    if (phase.exact.times[c].empty() || phase.table.times[c].empty()) continue;
    seconds += FastTime(phase.exact.times[c]) + FastTime(phase.table.times[c]);
    decisions += static_cast<double>(phase.exact.decisions[c] +
                                     phase.table.decisions[c]);
  }
  return seconds > 0.0 ? decisions / seconds : 0.0;
}

class Corpus {
 public:
  Corpus(const RunOptions& options, Report& report)
      : options_(options),
        report_(report),
        ladder_(media::YoutubeHfr4kLadder()),
        video_(ladder_, {.segment_seconds = 2.0}),
        corpus_size_(options.quick ? 24 : 600),
        chunk_(options.quick ? 8 : 25) {
    config_.sim.max_buffer_s = 20.0;
    config_.sim.live = true;
    config_.sim.live_latency_s = 20.0;
    config_.threads = 1;
    config_.base_seed = options.seed;
    config_.weights.beta = kBeta;
    config_.weights.gamma = kGamma;
    config_.utility = [u = media::NormalizedLogUtility(ladder_)](double mbps) {
      return u.At(mbps);
    };
    report.Param("corpus.dataset", "puffer");
    report.Param("corpus.sessions", std::to_string(corpus_size_));
    report.Param("corpus.chunk_sessions", std::to_string(chunk_));
    report.Param("corpus.session_s", "600");
    report.Param("corpus.ladder", "youtube-hfr-4k");
    report.Param("corpus.predictor", "ema");
  }

  void Run() {
    Setup();
    Phase untraced;
    Phase traced;
    RunPhase(options_.seconds, options_.trace ? &report_.tracer : nullptr,
             untraced, traced);
    if (options_.trace) {
      ReportLayers(untraced, traced);
    } else {
      report_.E2e("setup_s", FastTime(setup_s_), "s");
      report_.E2e("decisions_per_s", CombinedDecisionRate(untraced), "1/s");
      report_.E2e("first_pass_per_s", PassRate(untraced.exact, chunk_), "1/s");
      report_.E2e("second_pass_per_s", PassRate(untraced.table, chunk_), "1/s");
    }
    Check(untraced);
  }

 private:
  // Input generation and the cold table build, repeated with the table
  // caches emptied each time; setup_s is their fast end.
  void Setup() {
    Tracer* tracer = options_.trace ? &report_.tracer : nullptr;
    const std::int64_t setup_start = NowNs();
    for (int rep = 0; SetupRepeatsLeft(rep, setup_start, options_.quick); ++rep) {
      ScopedSpan setup_span(tracer, "setup");
      core::ClearBatchKernelCacheForTesting();
      core::ClearQuantizedTableCacheForTesting();
      core::ClearDecisionTableCacheForTesting();
      const std::int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "net.trace_gen");
        Rng rng(SubSeed(options_.seed, 1));
        const net::DatasetEmulator emulator(net::DatasetKind::kPuffer);
        corpus_ = emulator.MakeSessions(corpus_size_, rng);
      }
      const std::int64_t t1 = NowNs();
      {
        // The first decision of a table controller builds (or adopts) the
        // exact table, its quantized copy and the batch kernel.
        ScopedSpan span(tracer, "core.table_build");
        abr::ControllerPtr controller = core::MakeController("soda-cached-q");
        predict::EmaPredictor predictor;
        abr::Context context;
        context.max_buffer_s = config_.sim.max_buffer_s;
        context.video = &video_;
        context.predictor = &predictor;
        (void)controller->ChooseRung(context);
      }
      const std::int64_t t2 = NowNs();
      gen_s_.push_back(static_cast<double>(t1 - t0) * 1e-9);
      build_s_.push_back(static_cast<double>(t2 - t1) * 1e-9);
      setup_s_.push_back(static_cast<double>(t2 - t0) * 1e-9);
    }
    report_.Param("setup_repeats", std::to_string(setup_s_.size()));
    chunks_ = corpus_size_ / chunk_;
  }

  void RunPass(Pass& pass, std::size_t c, Tracer* tracer) {
    std::vector<std::size_t> indices(chunk_);
    for (std::size_t k = 0; k < chunk_; ++k) indices[k] = c * chunk_ + k;
    const std::string name = pass.controller;
    qoe::ControllerFactory make_controller;
    qoe::TracePredictorFactory make_predictor;
    if (tracer != nullptr) {
      make_controller = [&pass, name] {
        return abr::ControllerPtr(std::make_unique<TracedController>(
            core::MakeController(name), &pass.controller_tally));
      };
      make_predictor = [&pass](const net::ThroughputTrace&) {
        return predict::PredictorPtr(std::make_unique<TracedPredictor>(
            std::make_unique<predict::EmaPredictor>(), &pass.predictor_tally));
      };
    } else {
      make_controller = [name] { return core::MakeController(name); };
      make_predictor = [](const net::ThroughputTrace&) {
        return predict::PredictorPtr(std::make_unique<predict::EmaPredictor>());
      };
    }
    const std::int64_t t0 = NowNs();
    qoe::EvalResult result;
    {
      ScopedSpan span(tracer, pass.span);
      result = qoe::EvaluateControllerOn(corpus_, indices, make_controller,
                                         make_predictor, video_, config_);
    }
    const double seconds = SecondsSince(t0);
    pass.times[c].push_back(seconds);
    pass.total_s += seconds;
    std::uint64_t decisions = 0;
    for (const qoe::QoeMetrics& m : result.per_session) {
      decisions += static_cast<std::uint64_t>(m.segment_count);
    }
    pass.total_decisions += decisions;
    if (pass.results[c].empty()) {
      pass.results[c] = result.per_session;
      pass.aggregate_qoe[c] = result.aggregate.qoe.Mean();
      pass.decisions[c] = decisions;
    }
  }

  // The timed phase: whole rounds until `seconds` have passed. With a
  // tracer, every second sweep over the corpus is traced and the others are
  // not, so both halves see the same chunks and the same machine; the
  // per-layer figures come from the traced sweeps, and the ratio of the
  // two is the tracing overhead.
  void RunPhase(double seconds, Tracer* trace_to, Phase& untraced,
                Phase& traced) {
    for (Phase* phase : {&untraced, &traced}) {
      for (Pass* pass : {&phase->exact, &phase->table}) {
        pass->times.assign(chunks_, {});
        pass->results.assign(chunks_, {});
        pass->aggregate_qoe.assign(chunks_, 0.0);
        pass->decisions.assign(chunks_, 0);
      }
    }
    const std::int64_t start = NowNs();
    std::size_t round = 0;
    do {
      const std::size_t c = round % chunks_;
      const bool traced_sweep = trace_to != nullptr && (round / chunks_) % 2 == 1;
      Tracer* tracer = traced_sweep ? trace_to : nullptr;
      Phase& phase = traced_sweep ? traced : untraced;
      ScopedSpan span(tracer, "round");
      RunPass(phase.exact, c, tracer);
      RunPass(phase.table, c, tracer);
      report_.attempted += 2 * chunk_;
      ++round;
    } while (SecondsSince(start) < seconds);
  }

  void ReportLayers(const Phase& untraced, const Phase& traced) {
    const Pass& exact = traced.exact;
    const Pass& table = traced.table;
    const ControllerTally& solver = exact.controller_tally;
    const ControllerTally& cached = table.controller_tally;
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    report_.Layer("net.trace_gen_s", FastTime(gen_s_), "s");
    report_.Layer("core.table_build_s", FastTime(build_s_), "s");
    report_.Layer("core.solver.choose_us", solver.choose.MeanNs() / 1000.0, "us");
    report_.Layer("core.solver.nodes_per_decision",
                  ratio(static_cast<double>(solver.nodes_expanded),
                        static_cast<double>(solver.choose.count)),
                  "count");
    report_.Layer("core.cached.choose_ns", cached.choose.MeanNs(), "ns");
    report_.Layer("core.cached.table_hit_ratio",
                  ratio(static_cast<double>(cached.from_table),
                        static_cast<double>(cached.choose.count)),
                  "ratio");
    Aggregate updates = exact.predictor_tally.update;
    updates.count += table.predictor_tally.update.count;
    updates.ns += table.predictor_tally.update.ns;
    report_.Layer("predict.ema.update_ns", updates.MeanNs(), "ns");
    // Session self time on the table pass: what is left of the pass once
    // the controller's and the predictor's own time is taken out.
    const double other_ns =
        static_cast<double>(cached.choose.ns + table.predictor_tally.update.ns +
                            table.predictor_tally.predict.ns);
    report_.Layer("sim.session.self_ns_per_decision",
                  ratio(table.total_s * 1e9 - other_ns,
                        static_cast<double>(table.total_decisions)),
                  "ns");
    report_.Layer("trace.overhead_ratio",
                  ratio(CombinedDecisionRate(untraced), CombinedDecisionRate(traced)),
                  "ratio");
    Tracer& tracer = report_.tracer;
    for (const auto& [name, tally] :
         {std::pair{"core.solver.choose", &solver},
          std::pair{"core.cached.choose", &cached}}) {
      Aggregate& agg = tracer.Agg(name);
      agg.count += tally->choose.count;
      agg.ns += tally->choose.ns;
    }
    tracer.Agg("predict.ema.update") = updates;
  }

  // Output checks, computed apart from the program: the QoE formula and
  // means are recomputed here, a sample of sessions is replayed through
  // sim::RunSession and scored by this file's own arithmetic, and the table
  // controller must stay within kTableQoeBound of the exact one.
  void Check(const Phase& phase) {
    const auto formula = [](const qoe::QoeMetrics& m) {
      return m.mean_utility - kBeta * m.rebuffer_ratio - kGamma * m.switch_rate;
    };
    double mean[2] = {0.0, 0.0};
    std::size_t sessions = 0;
    int p = 0;
    for (const Pass* pass : {&phase.exact, &phase.table}) {
      double sum = 0.0;
      std::size_t n = 0;
      for (std::size_t c = 0; c < chunks_; ++c) {
        if (pass->results[c].empty()) continue;
        double chunk_sum = 0.0;
        for (const qoe::QoeMetrics& m : pass->results[c]) {
          report_.Check("corpus.qoe_formula",
                        std::abs(m.qoe - formula(m)) <= 1e-9,
                        "reported QoE differs from utility - 10*rebuffer - switch");
          report_.Check("corpus.value_ranges",
                        m.segment_count > 0 && m.mean_utility >= 0.0 &&
                            m.mean_utility <= 1.0 && m.rebuffer_ratio >= 0.0 &&
                            m.rebuffer_ratio <= 1.0 && m.switch_rate >= 0.0 &&
                            m.switch_rate <= 1.0 && std::isfinite(m.qoe),
                        "a session metric is out of range");
          chunk_sum += formula(m);
        }
        const double chunk_mean =
            chunk_sum / static_cast<double>(pass->results[c].size());
        report_.Check("corpus.mean_qoe",
                      std::abs(chunk_mean - pass->aggregate_qoe[c]) <= 1e-9,
                      "aggregate QoE mean differs from the recomputed mean");
        sum += chunk_sum;
        n += pass->results[c].size();
      }
      mean[p++] = n > 0 ? sum / static_cast<double>(n) : 0.0;
      sessions = n;
    }
    report_.Check("corpus.table_vs_exact_qoe",
                  sessions > 0 && std::abs(mean[1] - mean[0]) <= kTableQoeBound,
                  "soda-cached-q mean QoE " + std::to_string(mean[1]) +
                      " vs soda " + std::to_string(mean[0]));

    // Independent replay of the first sessions of chunk 0.
    const double log_min = std::log(ladder_.MinMbps());
    const double log_span = std::log(ladder_.MaxMbps()) - log_min;
    const std::size_t sample = std::min<std::size_t>(4, chunk_);
    for (const Pass* pass : {&phase.exact, &phase.table}) {
      for (std::size_t k = 0; k < sample; ++k) {
        abr::ControllerPtr controller = core::MakeController(pass->controller);
        predict::EmaPredictor predictor;
        const sim::SessionLog log = sim::RunSession(
            corpus_[k], *controller, predictor, video_, config_.sim);
        double utility = 0.0;
        int switches = 0;
        for (std::size_t s = 0; s < log.segments.size(); ++s) {
          const double b = log.segments[s].bitrate_mbps;
          utility += std::clamp((std::log(b) - log_min) / log_span, 0.0, 1.0);
          if (s > 0 && log.segments[s].rung != log.segments[s - 1].rung) {
            ++switches;
          }
        }
        const double n = static_cast<double>(log.segments.size());
        const qoe::QoeMetrics& m = pass->results[0][k];
        const bool ok =
            n > 1 && std::abs(utility / n - m.mean_utility) <= 1e-9 &&
            std::abs(log.total_rebuffer_s / log.session_s - m.rebuffer_ratio) <=
                1e-9 &&
            std::abs(switches / (n - 1.0) - m.switch_rate) <= 1e-9;
        report_.Check("corpus.independent_replay", ok,
                      std::string(pass->controller) + " session " +
                          std::to_string(k) + " differs from its replay");
      }
    }
  }

  const RunOptions& options_;
  Report& report_;
  media::BitrateLadder ladder_;
  media::VideoModel video_;
  qoe::EvalConfig config_;
  std::size_t corpus_size_;
  std::size_t chunk_;
  std::size_t chunks_ = 0;
  std::vector<net::ThroughputTrace> corpus_;
  std::vector<double> setup_s_, gen_s_, build_s_;
};

}  // namespace

void RunCorpus(const RunOptions& options, Report& report) {
  Corpus(options, report).Run();
}

}  // namespace sodabench
