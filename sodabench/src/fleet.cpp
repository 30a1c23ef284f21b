// fleet: fleet::RunFleet on one thread, two passes per round over the same
// population: open-loop (no regions: the barrier-free path), then
// region-coupled, with pools small enough that some ticks congest (the
// two-phase tick). Every round runs the same two configurations, so the
// round times are directly comparable and a pass is timed by the fast end
// of its rounds (FastTime).
//
// Scale: FleetConfig's default population, 50000 users over 600 s on its
// default 64 shards. About 20000 sessions are live at the peak, so a shard's
// per-tick LookupBatch holds a few hundred sessions (several of the kernel's
// 64-session blocks) and the SoA arenas (several MB) do not fit in the
// core's private caches, as in the fleet's larger runs. A smaller
// population leaves per-shard batches below one block and the arenas
// cache-resident, a case the fleet does not run at scale.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <span>
#include <stdexcept>

#include "core/batch_lookup.hpp"
#include "core/cost_model.hpp"
#include "core/decision_table.hpp"
#include "core/quantized_table.hpp"
#include "fleet/fleet.hpp"
#include "fleet/session_arena.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace sodabench {
namespace {

using namespace soda;

constexpr int kRegions = 4;
constexpr std::size_t kKernelInputs = 1 << 16;
// Regional pool per user of the population, below the peak regional
// demand: the later ticks of the growing population congest (about 40% of
// the region-ticks).
constexpr double kRegionMbpsPerUser = 3.2;

struct PassStats {
  std::vector<double> times;
  fleet::FleetSummary first;  // the first round's summary
  bool repeat_identical = true;
};

struct Phase {
  PassStats open;
  PassStats coupled;
  std::uint64_t rounds = 0;
  std::vector<double> kernel_ns;  // traced rounds: ns per lookup
};

fleet::FleetSummary WithoutArenaBytes(fleet::FleetSummary s) {
  s.arena_bytes = 0;
  return s;
}

class Fleet {
 public:
  Fleet(const RunOptions& options, Report& report)
      : options_(options), report_(report) {
    open_.base_seed = SubSeed(options.seed, 3);
    open_.users = options.quick ? 1500 : 50000;
    open_.arrival.horizon_s = options.quick ? 120.0 : 600.0;
    coupled_ = open_;
    coupled_.regions = fleet::MakeUniformRegions(
        kRegions,
        options.quick ? 2000.0
                      : kRegionMbpsPerUser * static_cast<double>(open_.users) / kRegions,
        0.2);
    report.Param("fleet.users", std::to_string(open_.users));
    report.Param("fleet.horizon_s", open_.arrival.horizon_s);
    report.Param("fleet.shards", std::to_string(open_.shards));
    report.Param("fleet.regions", std::to_string(kRegions) + " x " +
                                      std::to_string(coupled_.regions[0].capacity_mbps) +
                                      " Mbps, diurnal 0.2");
    report.Param("fleet.threads", "1");
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
      Phase& phase = traced_round ? traced : untraced;
      ScopedSpan span(tracer, "round");
      RunPass(open_, phase.open, phase.rounds == 0, tracer, "fleet.run.open");
      RunPass(coupled_, phase.coupled, phase.rounds == 0, tracer,
              "fleet.run.coupled");
      report_.attempted += untraced.open.first.decisions +
                           untraced.coupled.first.decisions;
      if (traced_round) TimeKernel(untraced.open.first, phase);
      ++phase.rounds;
      ++round;
    } while (SecondsSince(start) < options_.seconds);

    const auto rate = [](const PassStats& p) {
      return static_cast<double>(p.first.decisions) / FastTime(p.times);
    };
    if (options_.trace) {
      ReportLayers(untraced, traced);
    } else {
      const double decisions = static_cast<double>(untraced.open.first.decisions +
                                                   untraced.coupled.first.decisions);
      report_.E2e("setup_s", FastTime(setup_s_), "s");
      report_.E2e("decisions_per_s",
                  decisions / (FastTime(untraced.open.times) +
                               FastTime(untraced.coupled.times)),
                  "1/s");
      report_.E2e("first_pass_per_s", rate(untraced.open), "1/s");
      report_.E2e("second_pass_per_s", rate(untraced.coupled), "1/s");
    }
    Check(untraced, traced);
  }

 private:
  // The cold table build (a minimal fleet run adopts nothing and builds
  // the exact table, its quantized copy and the batch kernel) and the
  // fleet-shaped kernel inputs; repeated with emptied caches, setup_s is
  // their fast end.
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
        fleet::FleetConfig tiny = open_;
        tiny.users = 16;
        tiny.arrival.horizon_s = 8.0;
        (void)fleet::RunFleet(tiny, 1);
      }
      const std::int64_t t1 = NowNs();
      {
        ScopedSpan span(tracer, "kernel_inputs");
        MakeKernelInputs();
      }
      build_s_.push_back(static_cast<double>(t1 - t0) * 1e-9);
      setup_s_.push_back(SecondsSince(t0));
    }
    report_.Param("setup_repeats", std::to_string(setup_s_.size()));
  }

  // The fleet's table geometry, keyed as every table-serving path keys it.
  std::string TableKey() const {
    const auto& cc = open_.controller;
    const core::CostModelConfig mc =
        TableModelConfig(cc.base, open_.segment_seconds, open_.max_buffer_s);
    return core::DecisionTableKey(open_.ladder, mc, cc.base, cc.buffer_points,
                                  cc.throughput_points, cc.min_mbps,
                                  cc.max_mbps);
  }

  // Inputs shaped like the fleet's: buffers over [0, max buffer], forecasts
  // log-normal around the population median, any previous rung.
  void MakeKernelInputs() {
    const std::size_t n = options_.quick ? 4096 : kKernelInputs;
    Rng rng(SubSeed(options_.seed, 4));
    buffer_.resize(n);
    mbps_.resize(n);
    prev_.resize(n);
    rungs_.resize(n);
    const int rung_count = open_.ladder.Count();
    for (std::size_t i = 0; i < n; ++i) {
      buffer_[i] = rng.Uniform(0.0, open_.max_buffer_s);
      mbps_[i] = std::exp(std::log(open_.median_mbps) +
                          open_.session_log_sigma * rng.Gaussian());
      prev_[i] = static_cast<std::int16_t>(
          static_cast<int>(rng.UniformInt(static_cast<std::uint64_t>(rung_count) + 1)) - 1);
    }
    // The fleet run in Setup() built the table under this key; a miss
    // means the key derivation here has drifted from the fleet's.
    const std::string key = TableKey();
    const core::DecisionTablePtr exact =
        core::SharedDecisionTable(key, []() -> core::DecisionTable {
          throw std::runtime_error("fleet table not cached under its key");
        });
    kernel_ = core::SharedBatchKernel(
        key,
        core::SharedQuantizedTable(
            key, [&] { return core::QuantizeDecisionTable(*exact); }),
        open_.controller.lookup);
  }

  void RunPass(const fleet::FleetConfig& config, PassStats& pass, bool first,
               Tracer* tracer, const char* span_name) {
    const std::int64_t t0 = NowNs();
    fleet::FleetSummary summary;
    {
      ScopedSpan span(tracer, span_name);
      summary = fleet::RunFleet(config, 1);
    }
    pass.times.push_back(SecondsSince(t0));
    if (first) {
      pass.first = summary;
    } else if (!(summary == pass.first)) {
      pass.repeat_identical = false;
    }
  }

  // LookupBatch over the kernel inputs in calls of the size the fleet makes:
  // one call per shard and tick over the shard's live sessions, so the
  // mean call holds decisions / (ticks x shards) inputs.
  void TimeKernel(const fleet::FleetSummary& open, Phase& phase) {
    const std::uint64_t calls = static_cast<std::uint64_t>(open.ticks) *
                                static_cast<std::uint64_t>(open_.shards);
    const std::size_t batch = std::clamp<std::size_t>(
        static_cast<std::size_t>(open.decisions / std::max<std::uint64_t>(calls, 1)),
        1, buffer_.size());
    if (kernel_batch_ == 0) {
      kernel_batch_ = batch;
      report_.Param("fleet.kernel_batch", std::to_string(batch));
    }
    const std::span<const double> buffer(buffer_), mbps(mbps_);
    const std::span<const std::int16_t> prev(prev_);
    const std::span<std::int16_t> rungs(rungs_);
    ScopedSpan span(&report_.tracer, "core.kernel.lookup_batch");
    const std::int64_t t0 = NowNs();
    for (std::size_t at = 0; at < buffer_.size(); at += batch) {
      const std::size_t n = std::min(batch, buffer_.size() - at);
      kernel_->LookupBatch(buffer.subspan(at, n), mbps.subspan(at, n),
                           prev.subspan(at, n), rungs.subspan(at, n));
    }
    phase.kernel_ns.push_back(static_cast<double>(NowNs() - t0) /
                              static_cast<double>(buffer_.size()));
  }

  void ReportLayers(const Phase& untraced, const Phase& traced) {
    const auto ns_per = [](const PassStats& p) {
      return FastTime(p.times) * 1e9 / static_cast<double>(p.first.decisions);
    };
    const fleet::FleetSummary& open = traced.open.first;
    const fleet::FleetSummary& coupled = traced.coupled.first;
    std::int64_t congested = 0;
    for (const fleet::RegionStats& r : coupled.regions) congested += r.congested_ticks;
    report_.Layer("core.table_build_s", FastTime(build_s_), "s");
    report_.Layer("fleet.open.ns_per_decision", ns_per(traced.open), "ns");
    report_.Layer("fleet.coupled.ns_per_decision", ns_per(traced.coupled), "ns");
    report_.Layer("core.kernel.ns_per_lookup", FastTime(traced.kernel_ns), "ns");
    report_.Layer("fleet.peak_live", static_cast<double>(open.peak_live), "count");
    report_.Layer("fleet.live_state_mb",
                  static_cast<double>(open.live_state_bytes) / 1048576.0, "MB");
    report_.Layer("fleet.arena_mb",
                  static_cast<double>(open.arena_bytes) / 1048576.0, "MB");
    report_.Layer("fleet.clamped_lookups",
                  static_cast<double>(open.clamped_lookups + coupled.clamped_lookups),
                  "count");
    report_.Layer("fleet.congested_ticks", static_cast<double>(congested), "count");
    const double round_untraced =
        FastTime(untraced.open.times) + FastTime(untraced.coupled.times);
    const double round_traced = FastTime(traced.open.times) + FastTime(traced.coupled.times);
    report_.Layer("trace.overhead_ratio", round_traced / round_untraced, "ratio");
  }

  void CheckSummary(const char* pass, const fleet::FleetSummary& s) {
    const std::string p = std::string(pass) + ": ";
    report_.Check("fleet.started_identity",
                  s.sessions_started == s.sessions_ended + s.live_at_end,
                  p + "started != ended + live at end");
    report_.Check("fleet.ended_identity",
                  s.sessions_ended == s.sessions_completed + s.sessions_abandoned,
                  p + "ended != completed + abandoned");
    report_.Check("fleet.qoe_histogram",
                  std::accumulate(s.qoe_hist.begin(), s.qoe_hist.end(),
                                  std::uint64_t{0}) == s.sessions_ended,
                  p + "QoE histogram does not sum to ended sessions");
    report_.Check("fleet.live_state_bytes",
                  s.live_state_bytes ==
                      s.peak_live * fleet::SessionArena::kBytesPerSession,
                  p + "live_state_bytes != peak_live x kBytesPerSession");
  }

  void Check(const Phase& untraced, const Phase& traced) {
    CheckSummary("open", untraced.open.first);
    CheckSummary("coupled", untraced.coupled.first);
    const fleet::FleetSummary& c = untraced.coupled.first;
    fleet::RegionStats sum;
    std::int64_t congested = 0;
    for (const fleet::RegionStats& r : c.regions) {
      sum.sessions_started += r.sessions_started;
      sum.sessions_ended += r.sessions_ended;
      sum.sessions_abandoned += r.sessions_abandoned;
      sum.live_at_end += r.live_at_end;
      sum.qoe_fp += r.qoe_fp;
      for (std::size_t b = 0; b < fleet::kQoeHistBuckets; ++b) {
        sum.qoe_hist[b] += r.qoe_hist[b];
      }
      congested += r.congested_ticks;
    }
    report_.Check("fleet.region_totals",
                  c.regions.size() == kRegions &&
                      sum.sessions_started == c.sessions_started &&
                      sum.sessions_ended == c.sessions_ended &&
                      sum.sessions_abandoned == c.sessions_abandoned &&
                      sum.live_at_end == c.live_at_end && sum.qoe_fp == c.qoe_fp &&
                      sum.qoe_hist == c.qoe_hist,
                  "regions do not sum to the fleet totals");
    report_.Check("fleet.coupling_engaged", congested > 0,
                  "no tick congested in the coupled pass");
    bool repeat = untraced.open.repeat_identical &&
                  untraced.coupled.repeat_identical;
    if (traced.rounds > 0) {
      repeat = repeat && traced.open.repeat_identical &&
               traced.coupled.repeat_identical &&
               traced.open.first == untraced.open.first &&
               traced.coupled.first == untraced.coupled.first;
    }
    report_.Check("fleet.repeat_identical", repeat,
                  "a repeated round gave a different FleetSummary");

    // A smaller population at 1 thread and 64 shards, then at 2 threads
    // and 37 shards: the summaries must be identical (arena_bytes aside).
    bool invariant = true;
    for (const fleet::FleetConfig* base : {&open_, &coupled_}) {
      fleet::FleetConfig a = *base;
      a.users = base->users / 4;
      fleet::FleetConfig b = a;
      b.shards = 37;
      invariant = invariant && WithoutArenaBytes(fleet::RunFleet(a, 1)) ==
                                   WithoutArenaBytes(fleet::RunFleet(b, 2));
    }
    report_.Check("fleet.thread_shard_identical", invariant,
                  "2 threads / 37 shards changed the FleetSummary");
    if (untraced.open.first.sessions_completed == 0) {
      std::printf("note: fleet sessions_completed is 0 by construction "
                  "(abandonment is checked before completion)\n");
    }
  }

  const RunOptions& options_;
  Report& report_;
  fleet::FleetConfig open_;
  fleet::FleetConfig coupled_;
  std::vector<double> setup_s_, build_s_;
  core::BatchKernelPtr kernel_;
  std::size_t kernel_batch_ = 0;
  std::vector<double> buffer_, mbps_;
  std::vector<std::int16_t> prev_, rungs_;
};

}  // namespace

void RunFleet(const RunOptions& options, Report& report) {
  Fleet(options, report).Run();
}

}  // namespace sodabench
