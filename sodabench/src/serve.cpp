// serve: one client thread drives a serve::DecisionService in closed loop,
// one batch outstanding at a time. Three tenants with different ladders and
// buffer sizes share the service; their sessions are interleaved in every
// batch. Each step is one DecideBatch over every live session, one
// DecideOne per hostile session, then one IngestBatch of the resulting
// feedback. Sessions end and new ones start throughout: half of the
// departing clients call RemoveSession, the other half vanish and are left
// to the idle-session TTL, and SweepIdleSessions runs every kSweepEvery
// steps.
//
// Hostile input: a fixed set of sessions (independent of the seed) each
// received one NaN or one +inf throughput sample during set-up. They are
// decided one by one with DecideOne on every step. A NaN sample passes the
// service's `mbps <= 0.0` ingest guard and poisons the session's EMA, so
// every later decision for it throws std::invalid_argument; those decisions
// are the run's failed operations. The +inf sessions are served by the
// exact-solver fallback on every step.
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/batch_lookup.hpp"
#include "core/cost_model.hpp"
#include "core/decision_table.hpp"
#include "core/quantized_table.hpp"
#include "core/soda_controller.hpp"
#include "core/solver.hpp"
#include "harness.hpp"
#include "media/bitrate_ladder.hpp"
#include "net/dataset.hpp"
#include "obs/metrics.hpp"
#include "predict/ema.hpp"
#include "serve/decision_service.hpp"
#include "util/rng.hpp"

namespace sodabench {
namespace {

using namespace soda;

constexpr double kSegmentS = 2.0;     // virtual time per step
constexpr double kTtlS = 20.0;        // idle-session TTL
constexpr int kSweepEvery = 16;       // steps between SweepIdleSessions
constexpr int kHostilePerKind = 4;    // NaN sessions and +inf sessions
constexpr int kSampleEvery = 40;      // every 40th session is re-derived
constexpr int kReplayEvery = 8;       // traced run: DecideOne replay cadence
constexpr const char* kNanError = "predicted throughput must be positive";

struct TenantSpec {
  const char* name;
  media::BitrateLadder ladder;
  double max_buffer_s;
};

// The benchmark's own reference for one tenant: the cost model and solver
// derived from the tenant configuration the way CachedDecisionController
// derives them, and an exact table built from them here, apart from the
// service's table cache.
struct Reference {
  Reference(const media::BitrateLadder& ladder, const core::CostModelConfig& mc,
            const core::SolverConfig& sc)
      : model(ladder, mc), solver(model, sc) {}
  core::CostModel model;
  core::MonotonicSolver solver;
  core::DecisionTable exact;
  int horizon = 1;
};

struct Slot {
  std::string id;
  serve::TenantId tenant = 0;
  const net::ThroughputTrace* trace = nullptr;
  double clock_s = 0.0;
  double buffer_s = 0.0;
  int steps_left = 0;
  bool vanish = false;
  // Sampled sessions only: the benchmark's own predictor fed the same
  // feedback, and the last rung the client fetched.
  std::unique_ptr<predict::EmaPredictor> predictor;
  media::Rung prev_rung = -1;
};

struct PhaseStats {
  std::uint64_t decisions = 0;
  std::uint64_t table_served = 0;
  std::uint64_t shadow_checks = 0;
  // Per step: time inside DecideBatch and the hostile DecideOne calls,
  // time inside IngestBatch, and events folded per second of the latter.
  std::vector<double> decide_s;
  std::vector<double> ingest_s;
  std::vector<double> ingest_rate;
  std::vector<double> batch_s;  // DecideBatch alone
  std::vector<double> sweep_s;
  Aggregate one_table;     // DecideOne replays served from the table
  Aggregate one_fallback;  // ... and by the exact-solver fallback
};

class Serve {
 public:
  Serve(const RunOptions& options, Report& report)
      : options_(options),
        report_(report),
        live_(options.quick ? 60 : 3000),
        trace_pool_(options.quick ? 12 : 600),
        rng_(SubSeed(options.seed, 2)) {
    specs_.push_back({"youtube-hfr-4k", media::YoutubeHfr4kLadder(), 20.0});
    specs_.push_back({"prime-video", media::PrimeVideoProductionLadder(), 30.0});
    specs_.push_back({"puffer", media::PufferPrototypeLadder(), 15.0});
    report.Param("serve.live_sessions", std::to_string(live_));
    report.Param("serve.tenants", "youtube-hfr-4k/20s,prime-video/30s,puffer/15s");
    report.Param("serve.trace_pool", std::to_string(trace_pool_));
    report.Param("serve.hostile_sessions",
                 std::to_string(2 * kHostilePerKind) + " (NaN and +inf)");
    report.Param("serve.ttl_s", kTtlS);
    report.Param("serve.sweep_every_steps", std::to_string(kSweepEvery));
    report.Param("serve.threads", "1");
  }

  void Run() {
    Setup();
    PhaseStats untraced;
    PhaseStats traced;
    RunPhase(options_.seconds, options_.trace ? &report_.tracer : nullptr,
             untraced, traced);
    if (options_.trace) {
      ReportLayers(untraced, traced);
    } else {
      report_.E2e("setup_s", FastTime(setup_s_), "s");
      // Every step decides the same number of requests.
      const double per_step = static_cast<double>(live_ + hostile_.size());
      report_.E2e("decisions_per_s", per_step / FastTime(untraced.decide_s),
                  "1/s");
      report_.E2e("first_pass_per_s", per_step / FastTime(StepTimes(untraced)),
                  "1/s");
      report_.E2e("second_pass_per_s",
                  Quantile(untraced.ingest_rate, 1.0 - kFastQuantile), "1/s");
    }
    FinalChecks();
  }

 private:
  // Trace generation, service construction, cold tenant registration and
  // session start-up; repeated with emptied table caches, setup_s is their
  // fast end. The last repetition's service is the one the run drives.
  void Setup() {
    Tracer* tracer = options_.trace ? &report_.tracer : nullptr;
    const std::int64_t setup_start = NowNs();
    for (int rep = 0; SetupRepeatsLeft(rep, setup_start, options_.quick); ++rep) {
      ScopedSpan setup_span(tracer, "setup");
      core::ClearBatchKernelCacheForTesting();
      core::ClearQuantizedTableCacheForTesting();
      core::ClearDecisionTableCacheForTesting();
      service_.reset();
      slots_.clear();
      hostile_.clear();
      rng_ = Rng(SubSeed(options_.seed, 2));
      next_session_ = 0;
      const std::int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "net.trace_gen");
        Rng rng(SubSeed(options_.seed, 1));
        const net::DatasetEmulator emulator(net::DatasetKind::kPuffer);
        traces_ = emulator.MakeSessions(trace_pool_, rng);
      }
      const std::int64_t t1 = NowNs();
      serve::ServeConfig config;
      config.base_seed = options_.seed;
      config.session_ttl_s = kTtlS;
      service_ = std::make_unique<serve::DecisionService>(config);
      {
        ScopedSpan span(tracer, "serve.register_tenant");
        tenants_.clear();
        for (const TenantSpec& spec : specs_) {
          serve::TenantConfig tenant(spec.ladder);
          tenant.segment_seconds = kSegmentS;
          tenant.max_buffer_s = spec.max_buffer_s;
          tenants_.push_back(service_->RegisterTenant(tenant));
        }
      }
      const std::int64_t t2 = NowNs();
      {
        ScopedSpan span(tracer, "serve.session_start");
        StartSessions();
      }
      const std::int64_t t3 = NowNs();
      gen_s_.push_back(static_cast<double>(t1 - t0) * 1e-9);
      register_s_.push_back(static_cast<double>(t2 - t1) * 1e-9);
      setup_s_.push_back(static_cast<double>(t3 - t0) * 1e-9);
    }
    report_.Param("setup_repeats", std::to_string(setup_s_.size()));
    // Registration again with every table already cached: the difference
    // to the cold registration is the tables' build time.
    serve::DecisionService warm;
    const std::int64_t t0 = NowNs();
    for (const TenantSpec& spec : specs_) {
      serve::TenantConfig tenant(spec.ladder);
      tenant.segment_seconds = kSegmentS;
      tenant.max_buffer_s = spec.max_buffer_s;
      (void)warm.RegisterTenant(tenant);
    }
    warm_register_s_ = SecondsSince(t0);
    BuildReferences();
  }

  void BuildReferences() {
    references_.clear();
    for (std::size_t t = 0; t < specs_.size(); ++t) {
      const core::SodaConfig& base = controller_.base;
      const core::CostModelConfig mc =
          TableModelConfig(base, kSegmentS, specs_[t].max_buffer_s);
      core::SolverConfig sc;
      sc.hard_buffer_constraints = base.hard_buffer_constraints;
      sc.tail_intervals = base.tail_intervals;
      auto ref = std::make_unique<Reference>(specs_[t].ladder, mc, sc);
      ref->horizon = core::ClampedSodaHorizon(base, kSegmentS);
      ref->exact = core::BuildDecisionTable(
          ref->model, ref->solver, base, controller_.buffer_points,
          controller_.throughput_points, controller_.min_mbps,
          controller_.max_mbps);
      references_.push_back(std::move(ref));
    }
  }

  void NewSession(Slot& slot, double now_s) {
    const std::uint64_t k = next_session_++;
    slot.tenant = tenants_[rng_.UniformInt(tenants_.size())];
    slot.id = "t" + std::to_string(slot.tenant) + "-s" + std::to_string(k);
    slot.trace = &traces_[rng_.UniformInt(traces_.size())];
    slot.clock_s = rng_.Uniform(0.0, slot.trace->DurationS());
    slot.buffer_s = 0.0;
    slot.steps_left = 50 + static_cast<int>(rng_.UniformInt(351));
    slot.vanish = rng_.Chance(0.5);
    slot.prev_rung = -1;
    slot.predictor = k % kSampleEvery == 0
                         ? std::make_unique<predict::EmaPredictor>()
                         : nullptr;
    serve::SessionEvent start;
    start.type = serve::EventType::kStartup;
    start.tenant = slot.tenant;
    start.session_id = slot.id;
    start.now_s = now_s;
    events_.push_back(start);
  }

  void StartSessions() {
    slots_ = std::vector<Slot>(live_);
    events_.clear();
    for (Slot& slot : slots_) NewSession(slot, 0.0);
    // Hostile sessions: three clean downloads, then one NaN or +inf sample.
    for (int h = 0; h < 2 * kHostilePerKind; ++h) {
      hostile_.push_back((h < kHostilePerKind ? "hostile-nan-" : "hostile-inf-") +
                         std::to_string(h % kHostilePerKind));
    }
    for (std::size_t h = 0; h < hostile_.size(); ++h) {
      serve::SessionEvent e;
      e.tenant = tenants_[0];
      e.session_id = hostile_[h];
      e.type = serve::EventType::kStartup;
      events_.push_back(e);
      for (int s = 0; s < 3; ++s) {
        e.type = serve::EventType::kSegmentDownloaded;
        e.rung = 2;
        e.duration_s = 1.0;
        e.megabits = 12.0;
        events_.push_back(e);
      }
      e.type = serve::EventType::kThroughputSample;
      e.duration_s = 1.0;
      e.mbps = h < kHostilePerKind ? std::numeric_limits<double>::quiet_NaN()
                                   : std::numeric_limits<double>::infinity();
      events_.push_back(e);
    }
    service_->IngestBatch(events_);
    requests_.resize(live_);
    decisions_.resize(live_);
  }

  // Expected decision for a sampled session, from the benchmark's own
  // predictor and the tenant's exact table or the exact solver.
  media::Rung Expected(const Slot& slot, float* predicted) const {
    const Reference& ref = *references_[slot.tenant];
    const double w = slot.predictor->PredictHorizon(0.0, 1, kSegmentS).front();
    *predicted = static_cast<float>(w);
    const core::CachedControllerConfig& cc = controller_;
    if (w >= cc.min_mbps && w <= cc.max_mbps && slot.buffer_s >= 0.0 &&
        slot.buffer_s <= specs_[slot.tenant].max_buffer_s) {
      return core::LookupDecision(ref.exact, cc.lookup, slot.buffer_s,
                                  specs_[slot.tenant].max_buffer_s, w,
                                  slot.prev_rung);
    }
    const std::vector<double> predictions(static_cast<std::size_t>(ref.horizon), w);
    return core::DecideSoda(ref.model, ref.solver, cc.base, predictions,
                            slot.buffer_s, slot.prev_rung, {});
  }

  void VerifySampled() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      if (!slot.predictor) continue;
      float predicted = 0.0f;
      const media::Rung expected = Expected(slot, &predicted);
      ++reference_checked_;
      if (expected != decisions_[i].rung || predicted != decisions_[i].predicted_mbps) {
        ++reference_mismatches_;
      }
    }
  }

  void Feedback(double now_s) {
    events_.clear();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.steps_left-- <= 0) {
        if (!slot.vanish) (void)service_->RemoveSession(slot.tenant, slot.id);
        NewSession(slot, now_s);
        continue;
      }
      const media::BitrateLadder& ladder = specs_[slot.tenant].ladder;
      const double max_buffer_s = specs_[slot.tenant].max_buffer_s;
      const media::Rung rung = decisions_[i].rung;
      const double megabits = ladder.BitrateMbps(rung) * kSegmentS;
      const double mbps = slot.trace->ThroughputAt(slot.clock_s);
      const double download_s = mbps > 0.0 ? megabits / mbps : 4.0 * kSegmentS;
      serve::SessionEvent down;
      down.type = serve::EventType::kSegmentDownloaded;
      down.tenant = slot.tenant;
      down.session_id = slot.id;
      down.now_s = now_s;
      down.rung = rung;
      down.duration_s = download_s;
      down.megabits = megabits;
      events_.push_back(down);
      const double stall = std::max(download_s - slot.buffer_s, 0.0);
      if (stall > 0.0) {
        serve::SessionEvent rebuffer = down;
        rebuffer.type = serve::EventType::kRebuffer;
        rebuffer.duration_s = stall;
        events_.push_back(rebuffer);
      }
      if (slot.predictor) {
        slot.predictor->Observe({slot.clock_s, download_s, megabits});
        slot.prev_rung = rung;
      }
      slot.buffer_s =
          std::min(std::max(slot.buffer_s - download_s, 0.0) + kSegmentS,
                   max_buffer_s);
      slot.clock_s += download_s + stall;
      if (slot.clock_s > slot.trace->DurationS()) slot.clock_s = 0.0;
    }
    // Keep-alive for the hostile sessions (a zero-rate sample is ignored by
    // the EMA but refreshes the session against the TTL).
    for (const std::string& id : hostile_) {
      serve::SessionEvent keepalive;
      keepalive.type = serve::EventType::kThroughputSample;
      keepalive.tenant = tenants_[0];
      keepalive.session_id = id;
      keepalive.now_s = now_s;
      events_.push_back(keepalive);
    }
  }

  // Decide plus ingest time of every step: the closed loop's service time.
  static std::vector<double> StepTimes(const PhaseStats& s) {
    std::vector<double> out(s.decide_s.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = s.decide_s[i] + s.ingest_s[i];
    return out;
  }

  // Returns the time spent inside DecideOne.
  double DecideHostile(PhaseStats& stats, Tracer* tracer) {
    double decide_s = 0.0;
    ScopedSpan span(tracer, "serve.decide_one.hostile");
    for (std::size_t h = 0; h < hostile_.size(); ++h) {
      serve::DecisionRequest request;
      request.tenant = tenants_[0];
      request.session_id = hostile_[h];
      request.buffer_s = 10.0;
      const bool nan_session = h < static_cast<std::size_t>(kHostilePerKind);
      const std::int64_t t0 = NowNs();
      try {
        const serve::Decision d = service_->DecideOne(request);
        decide_s += SecondsSince(t0);
        const int rungs = specs_[0].ladder.Count();
        if (d.rung < 0 || d.rung >= rungs) ++hostile_unexpected_;
        stats.table_served += d.from_table ? 1 : 0;
      } catch (const std::invalid_argument& e) {
        decide_s += SecondsSince(t0);
        ++report_.failed;
        if (!nan_session || std::string(e.what()).find(kNanError) == std::string::npos) {
          ++hostile_unexpected_;
        }
      }
      ++stats.decisions;
      ++report_.attempted;
    }
    return decide_s;
  }

  // Traced run only: DecideOne replayed on the batch's own requests (state
  // is unchanged between the two), timed and split by the Decision flags.
  void ReplayOne(PhaseStats& stats, Tracer* tracer) {
    ScopedSpan span(tracer, "serve.decide_one.replay");
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const std::int64_t t0 = NowNs();
      const serve::Decision d = service_->DecideOne(requests_[i]);
      const std::int64_t ns = NowNs() - t0;
      Aggregate& agg = d.solver_fallback ? stats.one_fallback : stats.one_table;
      agg.ns += ns;
      ++agg.count;
      if (d.rung != decisions_[i].rung) ++batch_one_mismatches_;
    }
  }

  // The timed phase. With a tracer, every second step is traced and the
  // others are not, so both halves see the same machine and session state;
  // per-layer figures come from the traced steps, and the ratio of the two
  // is the tracing overhead.
  void RunPhase(double seconds, Tracer* trace_to, PhaseStats& untraced,
                PhaseStats& traced) {
    const std::int64_t start = NowNs();
    do {
      Tracer* tracer = trace_to != nullptr && step_ % 2 == 1 ? trace_to : nullptr;
      PhaseStats& stats = tracer != nullptr ? traced : untraced;
      ScopedSpan step_span(tracer, "step");
      const double now_s = static_cast<double>(step_) * kSegmentS;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        requests_[i].tenant = slots_[i].tenant;
        requests_[i].session_id = slots_[i].id;
        requests_[i].buffer_s = slots_[i].buffer_s;
      }
      std::int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "serve.decide_batch");
        service_->DecideBatch(requests_, decisions_, 1);
      }
      const double batch_s = SecondsSince(t0);
      stats.batch_s.push_back(batch_s);
      stats.decisions += requests_.size();
      report_.attempted += requests_.size();
      for (const serve::Decision& d : decisions_) {
        stats.table_served += d.from_table ? 1 : 0;
        stats.shadow_checks += d.shadow_checked ? 1 : 0;
        shadow_mismatches_ += d.shadow_mismatch ? 1 : 0;
      }
      stats.decide_s.push_back(batch_s + DecideHostile(stats, tracer));
      if (tracer != nullptr && step_ % kReplayEvery == 1) ReplayOne(stats, tracer);
      VerifySampled();

      Feedback(now_s);
      t0 = NowNs();
      {
        ScopedSpan span(tracer, "serve.ingest_batch");
        service_->IngestBatch(events_);
      }
      const double ingest_s = SecondsSince(t0);
      stats.ingest_s.push_back(ingest_s);
      stats.ingest_rate.push_back(static_cast<double>(events_.size()) / ingest_s);
      if (step_ % kSweepEvery == kSweepEvery - 1) {
        t0 = NowNs();
        {
          ScopedSpan span(tracer, "serve.sweep");
          (void)service_->SweepIdleSessions(now_s);
        }
        stats.sweep_s.push_back(SecondsSince(t0));
      }
      ++step_;
    } while (SecondsSince(start) < seconds);
  }

  void ReportLayers(const PhaseStats& untraced, const PhaseStats& traced) {
    report_.Layer("net.trace_gen_s", FastTime(gen_s_), "s");
    report_.Layer("core.table_build_s",
                  std::max(FastTime(register_s_) - warm_register_s_, 0.0), "s");
    report_.Layer("serve.register_tenant_s", FastTime(register_s_), "s");
    report_.Layer("serve.decide_batch_p50_us", Quantile(traced.batch_s, 0.5) * 1e6, "us");
    report_.Layer("serve.decide_batch_p99_us", Quantile(traced.batch_s, 0.99) * 1e6, "us");
    report_.Layer("serve.table_hit_ratio",
                  static_cast<double>(traced.table_served) /
                      static_cast<double>(traced.decisions),
                  "ratio");
    report_.Layer("serve.decide_one_table_ns", traced.one_table.MeanNs(), "ns");
    report_.Layer("serve.decide_one_fallback_us",
                  traced.one_fallback.MeanNs() / 1000.0, "us");
    report_.Layer("serve.shadow_checks", static_cast<double>(traced.shadow_checks),
                  "count");
    report_.Layer("serve.ingest_batch_p50_us",
                  Quantile(traced.ingest_s, 0.5) * 1e6, "us");
    report_.Layer("serve.sweep_ms", Median(traced.sweep_s) * 1e3, "ms");
    report_.Layer("serve.active_sessions",
                  static_cast<double>(service_->ActiveSessions()), "count");
    report_.Layer("trace.overhead_ratio",
                  FastTime(StepTimes(traced)) / FastTime(StepTimes(untraced)),
                  "ratio");
    report_.tracer.Agg("serve.decide_one.table") = traced.one_table;
    report_.tracer.Agg("serve.decide_one.fallback") = traced.one_fallback;
  }

  void FinalChecks() {
    // The last batch once more, one request at a time: DecideOne and
    // DecideBatch must agree (state has not changed since the batch).
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      requests_[i].tenant = slots_[i].tenant;
      requests_[i].session_id = slots_[i].id;
      requests_[i].buffer_s = slots_[i].buffer_s;
    }
    service_->DecideBatch(requests_, decisions_, 1);
    VerifySampled();
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      if (service_->DecideOne(requests_[i]).rung != decisions_[i].rung) {
        ++batch_one_mismatches_;
      }
    }
    report_.Check("serve.reference_decisions",
                  reference_checked_ > 0 && reference_mismatches_ == 0 &&
                      batch_one_mismatches_ == 0,
                  std::to_string(reference_mismatches_) + " of " +
                      std::to_string(reference_checked_) +
                      " sampled decisions differ from the reference, " +
                      std::to_string(batch_one_mismatches_) +
                      " DecideOne/DecideBatch disagreements");
    const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
    const auto it = snapshot.counters.find("serve.shadow_mismatches");
    const std::uint64_t counted = it != snapshot.counters.end() ? it->second : 0;
    report_.Check("serve.shadow_mismatches",
                  shadow_mismatches_ == 0 && counted == 0,
                  std::to_string(counted) + " shadow mismatches");
    // A hostile decision either succeeds with a rung of its ladder or, for
    // a NaN session, fails with the poisoned-EMA fault; anything else is
    // wrong. (Once ingest rejects non-finite samples, the NaN sessions
    // succeed and `failed` drops to 0.)
    report_.Check("serve.hostile_failures", hostile_unexpected_ == 0,
                  std::to_string(hostile_unexpected_) +
                      " hostile decisions failed otherwise than with the NaN "
                      "fault, or returned a rung outside the ladder");
    bool sizes_ok = decisions_.size() == live_;
    for (std::size_t i = 0; i < decisions_.size(); ++i) {
      const int rungs = specs_[slots_[i].tenant].ladder.Count();
      sizes_ok = sizes_ok && decisions_[i].rung >= 0 && decisions_[i].rung < rungs;
    }
    report_.Check("serve.batch_size", sizes_ok,
                  "a batch decision is missing or out of its ladder");
  }

  const RunOptions& options_;
  Report& report_;
  const std::size_t live_;
  const std::size_t trace_pool_;
  Rng rng_;
  std::vector<TenantSpec> specs_;
  // Every tenant runs the default controller configuration.
  const core::CachedControllerConfig controller_{};
  std::vector<net::ThroughputTrace> traces_;
  std::unique_ptr<serve::DecisionService> service_;
  std::vector<serve::TenantId> tenants_;
  std::vector<std::unique_ptr<Reference>> references_;
  std::vector<Slot> slots_;
  std::vector<std::string> hostile_;
  std::vector<serve::SessionEvent> events_;
  std::vector<serve::DecisionRequest> requests_;
  std::vector<serve::Decision> decisions_;
  std::uint64_t next_session_ = 0;
  std::uint64_t step_ = 0;
  std::uint64_t reference_checked_ = 0;
  std::uint64_t reference_mismatches_ = 0;
  std::uint64_t batch_one_mismatches_ = 0;
  std::uint64_t shadow_mismatches_ = 0;
  std::uint64_t hostile_unexpected_ = 0;
  std::vector<double> setup_s_, gen_s_, register_s_;
  double warm_register_s_ = 0.0;
};

}  // namespace

void RunServe(const RunOptions& options, Report& report) {
  Serve(options, report).Run();
}

}  // namespace sodabench
