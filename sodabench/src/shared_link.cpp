// shared-link: sim::BuildFairnessRoster then sim::RunSharedLink (the two
// halves of sim::RunFairnessWorkload) with `soda-cached` players. Each
// round runs many small rosters, below the incremental engine's fused-scan
// crossover (sim::kSharedLinkScanCrossover players), and a few large ones
// above it. A roster is consumed by the run, so every round rebuilds its
// rosters first; roster building is set-up work and stays out of the
// timed figures. Every round runs the same rosters, so a pass is timed by
// the fast end of its rounds (FastTime).
#include <cmath>
#include <cstring>
#include <utility>

#include "core/batch_lookup.hpp"
#include "core/decision_table.hpp"
#include "core/quantized_table.hpp"
#include "harness.hpp"
#include "media/bitrate_ladder.hpp"
#include "media/video_model.hpp"
#include "sim/fairness.hpp"
#include "sim/shared_link.hpp"

namespace sodabench {
namespace {

using namespace soda;

struct RosterSpec {
  sim::FairnessWorkloadConfig config;
  bool small = true;
};

struct Outcome {
  std::int64_t events = 0;
  std::uint64_t decisions = 0;
  std::uint64_t digest = 0;  // over every segment record of every player
};

struct PassStats {
  std::vector<double> times;         // per round, all rosters of the pass
  std::vector<double> reference_s;   // traced rounds: kReference on the same
  std::vector<Outcome> first;        // per roster, from the first round
  std::int64_t events = 0;           // per round
  std::uint64_t decisions = 0;       // per round
  bool repeat_identical = true;
};

struct Phase {
  PassStats small;
  PassStats large;
  std::vector<double> build_ms;
  std::uint64_t rounds = 0;
};

std::uint64_t Bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

std::uint64_t Digest(const sim::SharedLinkResult& result) {
  std::uint64_t h = 0;
  for (const sim::SessionLog& log : result.logs) {
    h = Mix(h ^ Bits(log.session_s) ^ Mix(Bits(log.total_rebuffer_s)));
    for (const sim::SegmentRecord& s : log.segments) {
      h = Mix(h ^ static_cast<std::uint64_t>(s.rung) ^ Mix(Bits(s.request_s)) ^
              Mix(Bits(s.download_s) + Bits(s.rebuffer_s)) ^ Bits(s.size_mb));
    }
  }
  return h;
}

class SharedLink {
 public:
  SharedLink(const RunOptions& options, Report& report)
      : options_(options),
        report_(report),
        video_(media::YoutubeHfr4kLadder(), {.segment_seconds = 2.0}) {
    const std::size_t small_rosters = options.quick ? 3 : 32;
    const std::size_t large_rosters = options.quick ? 1 : 2;
    const std::size_t small_players = 16;
    const std::size_t large_players = options.quick ? 64 : 256;
    for (std::size_t r = 0; r < small_rosters + large_rosters; ++r) {
      RosterSpec spec;
      spec.small = r < small_rosters;
      spec.config.players = spec.small ? small_players : large_players;
      spec.config.base_seed = SubSeed(options.seed, 100 + r);
      spec.config.controller = "soda-cached";
      spec.config.predictor = "ema";
      specs_.push_back(spec);
    }
    report.Param("shared_link.small_rosters",
                 std::to_string(small_rosters) + " x " + std::to_string(small_players));
    report.Param("shared_link.large_rosters",
                 std::to_string(large_rosters) + " x " + std::to_string(large_players));
    report.Param("shared_link.crossover", std::to_string(sim::kSharedLinkScanCrossover));
    report.Param("shared_link.session_s", specs_[0].config.session_s);
    report.Param("shared_link.capacity_per_player_mbps",
                 specs_[0].config.capacity_per_player_mbps);
    report.Param("shared_link.controller", "soda-cached");
  }

  void Run() {
    Setup();
    Phase untraced;
    Phase traced;
    const std::int64_t start = NowNs();
    std::uint64_t round = 0;
    do {
      const bool traced_round = options_.trace && round % 2 == 1;
      Tracer* tracer = traced_round ? &report_.tracer : nullptr;
      RunRound(traced_round ? traced : untraced, tracer);
      ++round;
    } while (SecondsSince(start) < options_.seconds);

    if (options_.trace) {
      ReportLayers(untraced, traced);
    } else {
      const PassStats& s = untraced.small;
      const PassStats& l = untraced.large;
      report_.E2e("setup_s", FastTime(setup_s_), "s");
      report_.E2e("decisions_per_s",
                  static_cast<double>(s.decisions + l.decisions) /
                      (FastTime(s.times) + FastTime(l.times)),
                  "1/s");
      report_.E2e("first_pass_per_s",
                  static_cast<double>(s.decisions) / FastTime(s.times), "1/s");
      report_.E2e("second_pass_per_s",
                  static_cast<double>(l.decisions) / FastTime(l.times), "1/s");
    }
    Check(untraced, traced);
  }

 private:
  sim::SharedLinkConfig LinkConfig(const sim::FairnessWorkloadConfig& c,
                                   sim::SharedLinkEngine engine) const {
    sim::SharedLinkConfig link;
    link.session_s = c.session_s;
    link.link_capacity_mbps =
        c.capacity_per_player_mbps * static_cast<double>(c.players);
    link.engine = engine;
    link.hybrid_scan_max_players = c.hybrid_scan_max_players;
    return link;
  }

  std::vector<std::vector<sim::SharedLinkPlayer>> BuildRosters(Tracer* tracer) {
    ScopedSpan span(tracer, "sim.fairness.build_roster");
    std::vector<std::vector<sim::SharedLinkPlayer>> rosters;
    rosters.reserve(specs_.size());
    for (const RosterSpec& spec : specs_) {
      rosters.push_back(sim::BuildFairnessRoster(spec.config, 1));
    }
    return rosters;
  }

  // The cold table build (the first decision of a `soda-cached` player on
  // an empty cache builds the table) and the first round's rosters;
  // repeated with emptied caches, setup_s is their fast end.
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
        ScopedSpan span(tracer, "core.table_build");
        sim::FairnessWorkloadConfig one = specs_[0].config;
        one.players = 1;
        one.session_s = 4.0;
        one.join_window_s = 0.0;
        (void)sim::RunSharedLink(sim::BuildFairnessRoster(one, 1), video_,
                                 LinkConfig(one, sim::SharedLinkEngine::kIncremental));
      }
      const std::int64_t t1 = NowNs();
      rosters_ = BuildRosters(tracer);
      rosters_ready_ = true;
      build_s_.push_back(static_cast<double>(t1 - t0) * 1e-9);
      setup_s_.push_back(SecondsSince(t0));
    }
    report_.Param("setup_repeats", std::to_string(setup_s_.size()));
  }

  void RunRound(Phase& phase, Tracer* tracer) {
    ScopedSpan round_span(tracer, "round");
    if (!rosters_ready_) {
      const std::int64_t t0 = NowNs();
      rosters_ = BuildRosters(tracer);
      phase.build_ms.push_back(SecondsSince(t0) * 1e3);
    }
    rosters_ready_ = false;
    const bool first_round = rounds_++ == 0;
    for (const bool small : {true, false}) {
      PassStats& pass = small ? phase.small : phase.large;
      if (pass.first.empty()) pass.first.resize(specs_.size());
      std::int64_t events = 0;
      std::uint64_t decisions = 0;
      const std::int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, small ? "sim.shared_link.small" : "sim.shared_link.large");
        for (std::size_t r = 0; r < specs_.size(); ++r) {
          if (specs_[r].small != small) continue;
          const sim::SharedLinkResult result = sim::RunSharedLink(
              std::move(rosters_[r]), video_,
              LinkConfig(specs_[r].config, sim::SharedLinkEngine::kIncremental));
          Outcome o{result.events, 0, 0};
          for (const sim::SessionLog& log : result.logs) {
            o.decisions += static_cast<std::uint64_t>(log.SegmentCount());
          }
          if (phase.rounds == 0) {
            o.digest = Digest(result);
            pass.first[r] = o;
            CheckResult(specs_[r].config, result);
            // Kept for the kReference comparison: the first small and the
            // first large roster.
            if (first_round && (r == 0 || (!small && first_results_.size() == 1))) {
              first_results_.emplace_back(r, result.logs);
            }
          } else if (o.events != pass.first[r].events ||
                     o.decisions != pass.first[r].decisions) {
            pass.repeat_identical = false;
          }
          events += o.events;
          decisions += o.decisions;
          report_.attempted += specs_[r].config.players;
        }
      }
      pass.times.push_back(SecondsSince(t0));
      pass.events = events;
      pass.decisions = decisions;
    }
    if (tracer != nullptr) TimeReference(phase, tracer);
    ++phase.rounds;
  }

  // Traced rounds: the small rosters again on the kReference engine, for
  // the incremental engine's speed relative to its oracle.
  void TimeReference(Phase& phase, Tracer* tracer) {
    std::vector<std::vector<sim::SharedLinkPlayer>> rosters;
    for (const RosterSpec& spec : specs_) {
      rosters.push_back(spec.small ? sim::BuildFairnessRoster(spec.config, 1)
                                   : std::vector<sim::SharedLinkPlayer>{});
    }
    ScopedSpan span(tracer, "sim.shared_link.small.reference");
    const std::int64_t t0 = NowNs();
    for (std::size_t r = 0; r < specs_.size(); ++r) {
      if (!specs_[r].small) continue;
      (void)sim::RunSharedLink(std::move(rosters[r]), video_,
                               LinkConfig(specs_[r].config,
                                          sim::SharedLinkEngine::kReference));
    }
    phase.small.reference_s.push_back(SecondsSince(t0));
  }

  // Capacity and fairness bounds that hold for any correct run.
  void CheckResult(const sim::FairnessWorkloadConfig& c,
                   const sim::SharedLinkResult& result) {
    double megabits = 0.0;
    std::vector<double> bitrates;
    for (const sim::SessionLog& log : result.logs) {
      for (const sim::SegmentRecord& s : log.segments) megabits += s.size_mb;
      if (log.session_s > 0.0 && !log.segments.empty()) {
        double sum = 0.0;
        for (const sim::SegmentRecord& s : log.segments) sum += s.bitrate_mbps;
        bitrates.push_back(sum / static_cast<double>(log.segments.size()));
      }
    }
    const double capacity_mb =
        c.capacity_per_player_mbps * static_cast<double>(c.players) * c.session_s;
    report_.Check("shared_link.capacity", megabits <= capacity_mb * (1.0 + 1e-9),
                  std::to_string(megabits) + " Mb delivered over a " +
                      std::to_string(capacity_mb) + " Mb link-time budget");
    double sum = 0.0, sum_sq = 0.0;
    for (const double b : bitrates) {
      sum += b;
      sum_sq += b * b;
    }
    const double jain =
        sum_sq > 0.0 ? sum * sum / (static_cast<double>(bitrates.size()) * sum_sq)
                     : 0.0;
    report_.Check("shared_link.jain",
                  jain > 0.0 && jain <= 1.0 + 1e-12 && result.bitrate_fairness > 0.0 &&
                      result.bitrate_fairness <= 1.0 + 1e-12,
                  "Jain index outside (0, 1]: " + std::to_string(jain));
  }

  void ReportLayers(const Phase& untraced, const Phase& traced) {
    const auto ns_per_event = [](const PassStats& p) {
      return FastTime(p.times) * 1e9 / static_cast<double>(p.events);
    };
    std::vector<double> build_ms = untraced.build_ms;
    build_ms.insert(build_ms.end(), traced.build_ms.begin(), traced.build_ms.end());
    report_.Layer("core.table_build_s", FastTime(build_s_), "s");
    report_.Layer("sim.fairness.roster_build_ms", FastTime(build_ms), "ms");
    report_.Layer("sim.shared_link.small.ns_per_event", ns_per_event(traced.small), "ns");
    report_.Layer("sim.shared_link.large.ns_per_event", ns_per_event(traced.large), "ns");
    report_.Layer("sim.shared_link.small.reference_ratio",
                  FastTime(traced.small.times) / FastTime(traced.small.reference_s),
                  "ratio");
    report_.Layer("sim.shared_link.events",
                  static_cast<double>(traced.small.events + traced.large.events),
                  "count");
    report_.Layer("trace.overhead_ratio",
                  (FastTime(traced.small.times) + FastTime(traced.large.times)) /
                      (FastTime(untraced.small.times) + FastTime(untraced.large.times)),
                  "ratio");
  }

  void Check(const Phase& untraced, const Phase& traced) {
    bool repeat = untraced.small.repeat_identical && untraced.large.repeat_identical;
    if (traced.rounds > 0) {
      repeat = repeat && traced.small.repeat_identical &&
               traced.large.repeat_identical;
      for (std::size_t r = 0; r < specs_.size(); ++r) {
        const PassStats& a = specs_[r].small ? untraced.small : untraced.large;
        const PassStats& b = specs_[r].small ? traced.small : traced.large;
        repeat = repeat && a.first[r].digest == b.first[r].digest;
      }
    }
    report_.Check("shared_link.repeat_identical", repeat,
                  "a repeated roster gave a different result");

    // kReference, the engine kept as the oracle, must reproduce the first
    // small and the first large roster exactly.
    bool identical = first_results_.size() == 2;
    for (const auto& [r, logs] : first_results_) {
      const sim::SharedLinkResult reference = sim::RunSharedLink(
          sim::BuildFairnessRoster(specs_[r].config, 1), video_,
          LinkConfig(specs_[r].config, sim::SharedLinkEngine::kReference));
      sim::SharedLinkResult incremental;
      incremental.logs = logs;
      identical = identical && Digest(reference) == Digest(incremental) &&
                  reference.logs.size() == logs.size();
    }
    report_.Check("shared_link.reference_identical", identical,
                  "kReference and kIncremental disagree");
  }

  const RunOptions& options_;
  Report& report_;
  media::VideoModel video_;
  std::vector<RosterSpec> specs_;
  std::vector<std::vector<sim::SharedLinkPlayer>> rosters_;
  bool rosters_ready_ = false;
  std::uint64_t rounds_ = 0;
  std::vector<std::pair<std::size_t, std::vector<sim::SessionLog>>> first_results_;
  std::vector<double> setup_s_, build_s_;
};

}  // namespace

void RunSharedLink(const RunOptions& options, Report& report) {
  SharedLink(options, report).Run();
}

}  // namespace sodabench
