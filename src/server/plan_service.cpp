#include "server/plan_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "analysis/config_lint.hpp"
#include "analysis/problem_lint.hpp"
#include "core/multiphase.hpp"
#include "core/problem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/server_lint.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace gaplan::serve {

const char* to_string(RequestState s) noexcept {
  switch (s) {
    case RequestState::kQueued: return "queued";
    case RequestState::kPlanning: return "planning";
    case RequestState::kDone: return "done";
    case RequestState::kFailed: return "failed";
    case RequestState::kTimedOut: return "timed-out";
    case RequestState::kCancelled: return "cancelled";
    case RequestState::kRejected: return "rejected";
  }
  return "?";
}

namespace detail {

/// Type-erased incremental planning run: one GA phase per run_phase() call,
/// so the scheduler can interleave cancellation, deadlines, and yields at
/// phase boundaries without knowing the domain type.
class JobBase {
 public:
  virtual ~JobBase() = default;
  /// Runs the next phase. Returns true when the run is finished (valid plan
  /// found, or the phase budget is exhausted). `ctx` is the enclosing worker
  /// slice's span, passed explicitly (no thread-local ambient context — the
  /// job migrates between workers across yields): the phase span and its
  /// generation children parent under it in the run journal.
  virtual bool run_phase(obs::SpanContext ctx) = 0;
  virtual CachedPlan take_result() = 0;
};

/// A served run: the problem, its Rng and the core multi-phase driver
/// (core/multiphase.hpp), stepped one phase per run_phase() call. The Rng is
/// seeded and advanced exactly as run_multiphase(problem, cfg, seed) does, so
/// the finished plan is that direct run's plan — the property the plan cache
/// relies on (and tests assert).
template <ga::PlanningProblem P>
class Job final : public JobBase {
 public:
  Job(P problem, const ga::GaConfig& cfg, std::uint64_t seed,
      util::ThreadPool* pool)
      : problem_(std::move(problem)),
        rng_(seed),
        run_(problem_, cfg, problem_.initial_state(), pool) {}
  Job(const Job&) = delete;  // run_ points at problem_
  Job& operator=(const Job&) = delete;

  bool run_phase(obs::SpanContext ctx) override {
    run_.step(rng_, ctx);
    return run_.done();
  }

  CachedPlan take_result() override {
    ga::MultiPhaseResult<typename P::StateT> r = run_.take_result();
    CachedPlan out;
    out.plan_cost = ga::plan_cost(problem_, problem_.initial_state(), r.plan);
    out.plan = std::move(r.plan);
    out.valid = r.valid;
    out.goal_fitness = r.goal_fitness;
    out.phases_run = r.phases_run;
    out.generations_total = r.generations_total;
    return out;
  }

 private:
  P problem_;  ///< declared before run_, which points at it
  util::Rng rng_;
  ga::MultiPhaseRun<P> run_;
};

std::unique_ptr<JobBase> make_job(const ProblemSpec& spec,
                                  const ga::GaConfig& cfg, std::uint64_t seed,
                                  util::ThreadPool* pool) {
  return with_problem(spec, [&](auto problem) -> std::unique_ptr<JobBase> {
    return std::make_unique<Job<decltype(problem)>>(std::move(problem), cfg,
                                                    seed, pool);
  });
}

analysis::Report lint_spec_problem(const ProblemSpec& spec) {
  return with_problem(spec, [&](const auto& problem) {
    return analysis::lint_problem(problem, spec.text());
  });
}

/// One admitted request's full lifecycle. Guarded by PlanService::mu_ except
/// where noted: `job` and the Job's internals are touched only by the worker
/// that holds the record in kPlanning state, and `cancel_requested` is an
/// atomic read outside the lock on the planning hot path.
struct Record {
  PlanRequest req;
  ga::GaConfig cfg;  ///< tuned_config(req.problem, req.config)
  std::uint64_t id = 0;
  int priority = 0;
  std::uint64_t seq = 0;  ///< current queue sequence (updated on re-queue)
  RequestState state = RequestState::kQueued;
  bool cached = false;
  Fingerprint fp;
  double deadline_ms = 0.0;  ///< resolved budget; 0 = none
  double submit_ms = 0.0;
  double start_ms = -1.0;  ///< first dequeue; < 0 while never scheduled
  double finish_ms = 0.0;
  double plan_ms = 0.0;  ///< accumulated time actually planning
  /// Request-scoped trace context: trace id + the root span's id, minted at
  /// admission and carried through queue, cache, slices, phases, and
  /// generations. Invalid (all-zero) when tracing was off at admission.
  obs::SpanContext ctx;
  double enqueue_ms = 0.0;      ///< last (re-)enqueue; start of a queue segment
  double queue_wait_ms = 0.0;   ///< total queued time across segments
  double cache_probe_ms = 0.0;  ///< submit probe + dequeue re-probes
  std::size_t slices = 0;       ///< worker slices consumed
  std::size_t yields = 0;
  std::atomic<bool> cancel_requested{false};
  std::unique_ptr<JobBase> job;
  CachedPlan result;
  std::string detail;
};

}  // namespace detail

namespace {

void trace_request(const char* op, const detail::Record& r) {
  if (!obs::trace_enabled()) return;
  obs::TraceEvent("server")
      .in(r.ctx)  // annotation on the request's root span
      .f("op", op)
      .f("req", r.id)
      .f("state", std::string_view(to_string(r.state)))
      .f("problem", r.req.problem.text())
      .f("priority", r.priority)
      .f("client", r.req.client)
      .f("cached", r.cached)
      .emit();
}

/// Emits the cache-probe span under the request's root span. The probe ran
/// just before this call (dur_ms = `probe_ms`), so the implied start
/// (emission ts - dur) stays inside the root span's bounds.
void trace_cache_probe(const detail::Record& r, double probe_ms, bool hit) {
  if (!r.ctx.valid()) return;
  obs::TraceEvent("cache_probe")
      .f("trace", r.ctx.trace)
      .f("span", obs::next_span_id())
      .f("parent", r.ctx.span)
      .f("req", r.id)
      .f("hit", hit)
      .f("dur_ms", probe_ms)
      .emit();
}

double resolve_deadline(const ServerConfig& cfg, double requested) {
  double d = requested > 0.0 ? requested : cfg.default_deadline_ms;
  if (cfg.max_deadline_ms > 0.0 && (d <= 0.0 || d > cfg.max_deadline_ms)) {
    d = cfg.max_deadline_ms;
  }
  return d;
}

}  // namespace

PlanService::PlanService(ServerConfig cfg)
    : cfg_(cfg), cache_(cfg.cache_capacity, cfg.cache_shards) {
  enforce_server_config(cfg_, "server");
  if (cfg_.ga_threads > 1) {
    eval_pool_ = std::make_unique<util::ThreadPool>(cfg_.ga_threads);
  }
  pool_ = std::make_unique<util::ThreadPool>(cfg_.workers);
  obs::gauge("server.queue_capacity").set(static_cast<std::int64_t>(cfg_.queue_capacity));
}

PlanService::~PlanService() { shutdown(/*drain_first=*/false); }

Fingerprint PlanService::fingerprint(const PlanRequest& req) {
  FingerprintHasher h;
  req.problem.mix_into(h);
  mix_config(h, tuned_config(req.problem, req.config));
  h.mix(req.seed);
  return h.digest();
}

std::optional<CachedPlan> PlanService::cache_lookup(const Fingerprint& fp) {
  return cache_.lookup(fp);
}

void PlanService::cache_insert(const Fingerprint& fp, CachedPlan plan) {
  cache_.insert(fp, std::move(plan));
}

bool PlanService::cache_remove(const Fingerprint& fp) {
  return cache_.remove(fp);
}

void PlanService::set_cache_listener(CacheListener listener) {
  util::MutexLock lock(mu_);
  cache_listener_ = std::move(listener);
}

SubmitOutcome PlanService::submit(PlanRequest req) {
  static obs::Counter& c_submitted = obs::counter("server.submitted");
  static obs::Counter& c_rejected = obs::counter("server.rejected");
  static obs::Counter& c_admitted = obs::counter("server.admitted");
  static obs::Gauge& g_depth = obs::gauge("server.queue_depth");
  static obs::Histogram& h_probe =
      obs::histogram("server.cache_probe_ms", obs::latency_buckets_ms());
  c_submitted.inc();

  // The request's span tree roots here: the admission timestamp and trace
  // context are fixed before any gate runs, so every child span (lint, cache
  // probe, queue waits, slices) lands inside the root's [submit, finish]
  // bounds. ctx is invalid (and costs nothing downstream) while tracing is
  // off.
  const double submit_now = obs::monotonic_ms();
  // A request carrying a remote trace id (router dispatch) joins that trace
  // instead of starting a fresh one, so one distributed request reassembles
  // under a single trace across the per-process journals.
  const obs::SpanContext ctx =
      (req.trace != 0 && obs::trace_enabled())
          ? obs::SpanContext{req.trace, obs::next_span_id()}
          : obs::new_trace_context();

  req.config = tuned_config(req.problem, req.config);

  SubmitOutcome out;
  const auto reject = [&](std::string reason) {
    {
      util::MutexLock lock(mu_);
      ++submitted_;
      ++rejected_;
    }
    c_rejected.inc();
    if (obs::trace_enabled()) {
      obs::TraceEvent("server")
          .f("op", "reject")
          .f("reason", reason)
          .f("problem", req.problem.text())
          .f("priority", req.priority)
          .f("client", req.client)
          .emit();
    }
    out.accepted = false;
    out.state = RequestState::kRejected;
    out.reason = std::move(reason);
    return out;
  };

  // Admission gate 1: lint. A request that would run with a broken GaConfig
  // (or an inconsistent problem) is rejected before it can occupy a slot.
  analysis::Report gate = analysis::lint_config(req.config);
  gate.merge(detail::lint_spec_problem(req.problem));
  if (gate.has_errors()) {
    gate.emit_to_journal("server");
    out.diagnostics = std::move(gate);
    return reject("lint");
  }

  FingerprintHasher h;
  req.problem.mix_into(h);
  mix_config(h, req.config);  // already tuned above
  h.mix(req.seed);
  const Fingerprint fp = h.digest();
  if (ctx.valid()) {
    // Admission so far (config tuning, lint, fingerprint) as a span of its
    // own under the root, ending here.
    obs::TraceEvent("admit")
        .f("trace", ctx.trace)
        .f("span", obs::next_span_id())
        .f("parent", ctx.span)
        .f("dur_ms", obs::monotonic_ms() - submit_now)
        .emit();
  }

  // Admission gate 2: the plan cache. A warm hit completes inside submit()
  // without touching the queue.
  util::Timer probe_timer;
  std::optional<CachedPlan> hit = cache_.lookup(fp);
  const double probe_ms = probe_timer.millis();
  h_probe.observe(probe_ms);
  if (hit) {
    util::MutexLock lock(mu_);
    ++submitted_;
    if (stopping_) {
      ++rejected_;
      lock.unlock();
      c_rejected.inc();
      out.accepted = false;
      out.state = RequestState::kRejected;
      out.reason = "shutting-down";
      return out;
    }
    ++admitted_;
    auto rec = std::make_unique<detail::Record>();
    detail::Record& r = *rec;
    r.req = std::move(req);
    r.cfg = r.req.config;
    r.id = next_id_++;
    r.priority = r.req.priority;
    r.fp = fp;
    r.ctx = ctx;
    r.submit_ms = submit_now;
    r.start_ms = r.submit_ms;
    r.cached = true;
    r.cache_probe_ms = probe_ms;
    r.result = std::move(*hit);
    records_.emplace(r.id, std::move(rec));
    trace_request("submit", r);
    trace_cache_probe(r, probe_ms, /*hit=*/true);
    finish_locked(r, RequestState::kDone, {});
    lock.unlock();
    c_admitted.inc();
    out.accepted = true;
    out.id = r.id;
    out.state = RequestState::kDone;
    return out;
  }

  // Admission gate 3: the bounded priority queue.
  util::MutexLock lock(mu_);
  ++submitted_;
  if (stopping_) {
    ++rejected_;
    lock.unlock();
    c_rejected.inc();
    out.accepted = false;
    out.state = RequestState::kRejected;
    out.reason = "shutting-down";
    return out;
  }
  if (queue_.size() >= cfg_.queue_capacity) {
    ++rejected_;
    lock.unlock();
    c_rejected.inc();
    if (obs::trace_enabled()) {
      obs::TraceEvent("server")
          .f("op", "reject")
          .f("reason", "queue-full")
          .f("problem", req.problem.text())
          .f("priority", req.priority)
          .f("client", req.client)
          .emit();
    }
    out.accepted = false;
    out.state = RequestState::kRejected;
    out.reason = "queue-full";
    return out;
  }
  if (cfg_.shed_depth > 0 && queue_.size() >= cfg_.shed_depth &&
      req.priority <= 0) {
    ++rejected_;
    lock.unlock();
    c_rejected.inc();
    if (obs::trace_enabled()) {
      obs::TraceEvent("server")
          .f("op", "reject")
          .f("reason", "shed")
          .f("problem", req.problem.text())
          .f("priority", req.priority)
          .f("client", req.client)
          .emit();
    }
    out.accepted = false;
    out.state = RequestState::kRejected;
    out.reason = "shed";
    return out;
  }

  ++admitted_;
  auto rec = std::make_unique<detail::Record>();
  detail::Record& r = *rec;
  r.req = std::move(req);
  r.cfg = r.req.config;
  r.id = next_id_++;
  r.priority = r.req.priority;
  r.seq = next_seq_++;
  r.fp = fp;
  r.ctx = ctx;
  r.deadline_ms = resolve_deadline(cfg_, r.req.deadline_ms);
  r.submit_ms = submit_now;
  r.cache_probe_ms = probe_ms;
  r.state = RequestState::kQueued;
  records_.emplace(r.id, std::move(rec));
  trace_cache_probe(r, probe_ms, /*hit=*/false);
  r.enqueue_ms = obs::monotonic_ms();
  queue_.insert(QKey{r.priority, r.seq, r.id});
  g_depth.set(static_cast<std::int64_t>(queue_.size()));
  obs::gauge("server.queue_depth_max")
      .set_max(static_cast<std::int64_t>(queue_.size()));
  ensure_workers_locked();
  trace_request("submit", r);
  lock.unlock();

  c_admitted.inc();
  out.accepted = true;
  out.id = r.id;
  out.state = RequestState::kQueued;
  return out;
}

void PlanService::ensure_workers_locked() {
  // Spawn one scheduler loop per queued request until cfg_.workers loops
  // exist. Loops already running will drain the rest; a loop exits when the
  // queue is empty.
  while (active_workers_ < cfg_.workers &&
         queue_.size() > active_workers_ - planning_) {
    auto fut = pool_->try_submit([this] { worker_main(); });
    if (!fut) break;  // pool shutting down
    ++active_workers_;
  }
}

void PlanService::worker_main() {
  static obs::Gauge& g_depth = obs::gauge("server.queue_depth");
  static obs::Gauge& g_planning = obs::gauge("server.planning");
  static obs::Counter& c_yields = obs::counter("server.yields");
  static obs::Histogram& h_queue_wait =
      obs::histogram("server.queue_wait_ms", obs::latency_buckets_ms());
  static obs::Histogram& h_slice =
      obs::histogram("server.slice_ms", obs::latency_buckets_ms());
  static obs::Histogram& h_probe =
      obs::histogram("server.cache_probe_ms", obs::latency_buckets_ms());

  util::MutexLock lock(mu_);
  while (!queue_.empty()) {
    const QKey key = *queue_.begin();
    queue_.erase(queue_.begin());
    g_depth.set(static_cast<std::int64_t>(queue_.size()));
    detail::Record& r = *records_.at(key.id);

    const double now = obs::monotonic_ms();
    // One queue segment ends here. The first segment is the admission wait;
    // later ones (enqueue_ms reset on yield) are yield-preemption waits —
    // analyze_trace.py attributes them separately via the "seg" index.
    const double waited = now - r.enqueue_ms;
    r.queue_wait_ms += waited;
    h_queue_wait.observe(waited);
    if (r.ctx.valid()) {
      obs::TraceEvent("queue_wait")
          .f("trace", r.ctx.trace)
          .f("span", obs::next_span_id())
          .f("parent", r.ctx.span)
          .f("req", r.id)
          .f("seg", r.yields)  // 0 = admission wait, k = wait after yield k
          .f("dur_ms", waited)
          .emit();
    }
    if (r.cancel_requested.load(std::memory_order_relaxed)) {
      finish_locked(r, RequestState::kCancelled, "cancelled in queue");
      continue;
    }
    if (r.deadline_ms > 0.0 && now - r.submit_ms > r.deadline_ms) {
      finish_locked(r, RequestState::kTimedOut, "deadline expired in queue");
      continue;
    }
    if (r.start_ms < 0.0) r.start_ms = now;
    r.state = RequestState::kPlanning;
    ++planning_;
    g_planning.set(static_cast<std::int64_t>(planning_));
    lock.unlock();

    // Dequeue-time cache re-probe: an identical request may have completed
    // while this one queued.
    {
      util::Timer probe_timer;
      std::optional<CachedPlan> hit = cache_.lookup(r.fp);
      const double probe_ms = probe_timer.millis();
      h_probe.observe(probe_ms);
      trace_cache_probe(r, probe_ms, hit.has_value());
      if (hit) {
        lock.lock();
        r.cache_probe_ms += probe_ms;
        r.cached = true;
        r.result = std::move(*hit);
        finish_locked(r, RequestState::kDone, {});
        continue;
      }
      lock.lock();
      r.cache_probe_ms += probe_ms;
      lock.unlock();
    }

    if (!r.job) {
      try {
        // Building the problem and its engine; the span closes (during
        // unwinding, too) before the lock is re-acquired.
        obs::ScopedSpan setup_span("job_setup", r.ctx);
        setup_span.f("req", r.id);
        r.job = detail::make_job(r.req.problem, r.cfg, r.req.seed,
                                 eval_pool_.get());
      } catch (const std::exception& e) {
        lock.lock();
        finish_locked(r, RequestState::kFailed, e.what());
        continue;
      }
    }

    // Slice loop: run cfg_.slice_phases GA phases, then reconsider
    // cancellation, the deadline, and whether to yield the slot.
    for (;;) {
      if (r.cancel_requested.load(std::memory_order_relaxed)) {
        lock.lock();
        finish_locked(r, RequestState::kCancelled, "cancelled while planning");
        break;
      }
      if (r.deadline_ms > 0.0 &&
          obs::monotonic_ms() - r.submit_ms > r.deadline_ms) {
        lock.lock();
        finish_locked(r, RequestState::kTimedOut,
                      "deadline expired while planning");
        break;
      }

      util::Timer slice_timer;
      bool finished = false;
      bool failed = false;
      std::string fail_reason;
      std::size_t phases_in_slice = 0;
      {
        // The slice span parents this slot occupancy's phases (and their
        // generations); it closes before the lock is re-acquired so it never
        // outlasts the request's terminal event.
        obs::ScopedSpan slice_span("slice", r.ctx);
        slice_span.f("req", r.id).f("slice", r.slices);
        try {
          for (std::size_t s = 0; s < cfg_.slice_phases && !finished; ++s) {
            finished = r.job->run_phase(slice_span.context());
            ++phases_in_slice;
          }
        } catch (const std::exception& e) {
          failed = true;
          fail_reason = e.what();
        }
        slice_span.f("phases", phases_in_slice).f("finished", finished);
      }
      const double slice_ms = slice_timer.millis();
      h_slice.observe(slice_ms);

      if (failed) {
        lock.lock();
        r.plan_ms += slice_ms;
        ++r.slices;
        finish_locked(r, RequestState::kFailed, std::move(fail_reason));
        break;
      }
      if (finished) {
        CachedPlan result;
        {
          // The publish span: result, cache insert and listener, between
          // the last slice and the terminal transition.
          obs::ScopedSpan publish_span("publish", r.ctx);
          publish_span.f("req", r.id);
          result = r.job->take_result();
          std::vector<Fingerprint> evicted;
          cache_.insert(r.fp, result, &evicted);
          // Fire the cache listener with no locks held (r's fields are still
          // worker-owned). The brief mu_ acquisition only copies the
          // callback.
          CacheListener listener;
          {
            util::MutexLock listener_lock(mu_);
            listener = cache_listener_;
          }
          if (listener) {
            CacheEvent ins;
            ins.kind = CacheEvent::Kind::kInsert;
            ins.fp = r.fp;
            ins.plan = result;
            listener(ins);
            for (const Fingerprint& efp : evicted) {
              CacheEvent del;
              del.kind = CacheEvent::Kind::kEvict;
              del.fp = efp;
              listener(del);
            }
          }
        }
        lock.lock();
        r.plan_ms += slice_ms;
        ++r.slices;
        r.result = std::move(result);
        r.job.reset();
        finish_locked(r, RequestState::kDone, {});
        break;
      }

      lock.lock();
      r.plan_ms += slice_ms;
      ++r.slices;
      // Yield between phases when equal- or higher-priority work waits:
      // re-queue with a fresh sequence number (fair round-robin among
      // equals) and let this loop pick the best candidate.
      if (!queue_.empty() && queue_.begin()->priority >= r.priority) {
        r.state = RequestState::kQueued;
        r.seq = next_seq_++;
        ++r.yields;
        ++yields_;
        --planning_;
        g_planning.set(static_cast<std::int64_t>(planning_));
        r.enqueue_ms = obs::monotonic_ms();
        queue_.insert(QKey{r.priority, r.seq, r.id});
        g_depth.set(static_cast<std::int64_t>(queue_.size()));
        c_yields.inc();
        trace_request("yield", r);
        break;
      }
      lock.unlock();
    }
    // All slice-loop exits re-acquired the lock.
  }
  --active_workers_;
  cv_done_.notify_all();
}

void PlanService::finish_locked(detail::Record& r, RequestState state,
                                std::string detail_text) {
  static obs::Counter& c_completed = obs::counter("server.completed");
  static obs::Counter& c_failed = obs::counter("server.failed");
  static obs::Counter& c_timed_out = obs::counter("server.timed_out");
  static obs::Counter& c_cancelled = obs::counter("server.cancelled");
  static obs::Gauge& g_planning = obs::gauge("server.planning");
  static obs::Histogram& h_total =
      obs::histogram("server.latency_ms", obs::latency_buckets_ms());
  static obs::Histogram& h_plan =
      obs::histogram("server.plan_ms", obs::latency_buckets_ms());

  if (r.state == RequestState::kPlanning) {
    --planning_;
    g_planning.set(static_cast<std::int64_t>(planning_));
  }
  r.state = state;
  r.detail = std::move(detail_text);
  r.finish_ms = obs::monotonic_ms();
  switch (state) {
    case RequestState::kDone:
      ++completed_;
      c_completed.inc();
      break;
    case RequestState::kFailed:
      ++failed_;
      c_failed.inc();
      break;
    case RequestState::kTimedOut:
      ++timed_out_;
      c_timed_out.inc();
      break;
    case RequestState::kCancelled:
      ++cancelled_;
      c_cancelled.inc();
      break;
    default:
      break;
  }
  h_total.observe(r.finish_ms - r.submit_ms);
  h_plan.observe(r.plan_ms);
  if (obs::trace_enabled()) {
    // The request's root span: trace + own span id, no parent. Its dur_ms
    // spans admission -> terminal, so every child (cache_probe, queue_wait
    // segments, slices, phases, generations) nests inside it; this is also
    // the tree's single terminal event (check_trace.py asserts exactly one
    // per trace).
    obs::TraceEvent ev("server");
    if (r.ctx.valid()) ev.f("trace", r.ctx.trace).f("span", r.ctx.span);
    // A router-dispatched request records the router's span as an
    // annotation (not `parent`: that span lives in another process's
    // journal, and parents must resolve within one journal).
    if (r.req.parent_span != 0) ev.f("remote_parent", r.req.parent_span);
    ev.f("op", "complete")
        .f("req", r.id)
        .f("state", std::string_view(to_string(r.state)))
        .f("cached", r.cached)
        .f("valid", r.result.valid)
        .f("yields", r.yields)
        .f("slices", r.slices)
        .f("queue_ms", (r.start_ms >= 0.0 ? r.start_ms : r.finish_ms) - r.submit_ms)
        .f("queue_wait_ms", r.queue_wait_ms)
        .f("cache_probe_ms", r.cache_probe_ms)
        .f("plan_ms", r.plan_ms)
        .f("dur_ms", r.finish_ms - r.submit_ms)
        .emit();
  }
  cv_done_.notify_all();
}

RequestStatus PlanService::status_locked(const detail::Record& r) const {
  RequestStatus st;
  st.id = r.id;
  st.state = r.state;
  st.cached = r.cached;
  st.yields = r.yields;
  st.slices = r.slices;
  st.queue_wait_ms = r.queue_wait_ms;
  st.cache_probe_ms = r.cache_probe_ms;
  st.trace_id = r.ctx.trace;
  st.detail = r.detail;
  st.plan_ms = r.plan_ms;
  const double now = obs::monotonic_ms();
  const bool terminal = is_terminal(r.state);
  const double end = terminal ? r.finish_ms : now;
  st.queue_ms = (r.start_ms >= 0.0 ? r.start_ms : end) - r.submit_ms;
  st.total_ms = end - r.submit_ms;
  if (r.state == RequestState::kDone) {
    st.plan_valid = r.result.valid;
    st.plan = r.result.plan;
    st.plan_cost = r.result.plan_cost;
    st.goal_fitness = r.result.goal_fitness;
    st.phases_run = r.result.phases_run;
    st.generations_total = r.result.generations_total;
  }
  return st;
}

std::optional<RequestStatus> PlanService::status(std::uint64_t id) const {
  util::MutexLock lock(mu_);
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  return status_locked(*it->second);
}

std::optional<RequestStatus> PlanService::wait(std::uint64_t id,
                                               double timeout_ms) {
  util::MutexLock lock(mu_);
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  detail::Record* r = it->second.get();
  // Explicit predicate loops (not the lambda overloads) so the thread-safety
  // analysis can see the guarded reads happen under mu_.
  if (timeout_ms < 0.0) {
    while (!is_terminal(r->state)) cv_done_.wait(lock);
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms));
    while (!is_terminal(r->state)) {
      if (!cv_done_.wait_until(lock, deadline)) break;  // timed out
    }
  }
  return status_locked(*r);
}

bool PlanService::cancel(std::uint64_t id) {
  static obs::Gauge& g_depth = obs::gauge("server.queue_depth");
  util::MutexLock lock(mu_);
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  detail::Record& r = *it->second;
  if (is_terminal(r.state)) return false;
  r.cancel_requested.store(true, std::memory_order_relaxed);
  trace_request("cancel", r);
  if (r.state == RequestState::kQueued) {
    queue_.erase(QKey{r.priority, r.seq, r.id});
    g_depth.set(static_cast<std::int64_t>(queue_.size()));
    finish_locked(r, RequestState::kCancelled, "cancelled by client");
  }
  return true;
}

ServiceSnapshot PlanService::snapshot() const {
  ServiceSnapshot s;
  {
    util::MutexLock lock(mu_);
    s.submitted = submitted_;
    s.admitted = admitted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.failed = failed_;
    s.timed_out = timed_out_;
    s.cancelled = cancelled_;
    s.yields = yields_;
    s.queue_depth = queue_.size();
    s.planning = planning_;
  }
  s.cache = cache_.stats();
  const obs::MetricsSnapshot m = obs::snapshot_metrics();
  if (const auto* h = m.find_histogram("server.queue_wait_ms")) s.queue_wait_ms = *h;
  if (const auto* h = m.find_histogram("server.slice_ms")) s.slice_ms = *h;
  if (const auto* h = m.find_histogram("server.cache_probe_ms")) s.cache_probe_ms = *h;
  return s;
}

void PlanService::drain() {
  util::MutexLock lock(mu_);
  while (!queue_.empty() || planning_ != 0) cv_done_.wait(lock);
  if (obs::trace_enabled()) {
    obs::TraceEvent("server").f("op", "drain").f("completed", completed_).emit();
  }
}

void PlanService::shutdown(bool drain_first) {
  static obs::Gauge& g_depth = obs::gauge("server.queue_depth");
  util::MutexLock lock(mu_);
  const bool was_stopping = stopping_;
  stopping_ = true;
  if (!drain_first) {
    while (!queue_.empty()) {
      const QKey key = *queue_.begin();
      queue_.erase(queue_.begin());
      finish_locked(*records_.at(key.id), RequestState::kCancelled,
                    "service shutdown");
    }
    g_depth.set(0);
    for (auto& [id, rec] : records_) {
      if (rec->state == RequestState::kPlanning) {
        rec->cancel_requested.store(true, std::memory_order_relaxed);
      }
    }
  }
  while (!queue_.empty() || planning_ != 0) cv_done_.wait(lock);
  lock.unlock();
  if (!was_stopping && obs::trace_enabled()) {
    obs::TraceEvent("server")
        .f("op", "shutdown")
        .f("drained", drain_first)
        .emit();
  }
}

}  // namespace gaplan::serve
