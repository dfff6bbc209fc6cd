//===- Server.cpp ---------------------------------------------------------===//

#include "service/Server.h"

#include "cache/CacheConfig.h"
#include "frontend/Elaborate.h"
#include "suite/Benchmarks.h"
#include "support/Diagnostics.h"
#include "support/FlightRecorder.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/PerfCounters.h"
#include "support/Progress.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

using namespace se2gis;

namespace {

double msBetween(std::chrono::steady_clock::time_point From,
                 std::chrono::steady_clock::time_point To) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             To - From)
      .count();
}

} // namespace

Server::Server(ServiceConfig C)
    : Config(std::move(C)), Queue(Config.MaxQueue),
      Frames("service",
             {[this](const JsonValue &Req) { return handleRequest(Req); },
              [this] { return renderMetrics(); },
              [this] { drainQueue(Config.DrainTimeoutMs); }}) {}

Server::~Server() = default;

bool Server::start(std::string &Error) {
  if (!Frames.listen(Config.Listen, Config.MetricsAddr, Error))
    return false;

  // Warm shared state before the first job: every worker then hits the
  // same process-wide caches, and the persistent segments are loaded once.
  configureCache(Config.Base.Cache);
  configureLogging(Config.Base.Log);
  if (!Config.Base.TracePath.empty())
    traceConfigure(Config.Base.TracePath);

  // The flight recorder is always on; a flight dir additionally arms
  // fatal-signal dumps and per-job timeout/cancel dumps.
  if (!Config.FlightDir.empty()) {
    flightSetDumpPrefix(Config.FlightDir + "/flight-fatal");
    flightInstallCrashHandler();
  }

  WorkerCount = Config.Workers
                    ? Config.Workers
                    : std::max(1u, ThreadPool::defaultConcurrency() / 2);
  // Tell the inner-parallelism clamp how wide the outer pool is (DESIGN.md
  // "Service model": outer × inner ≤ hardware_concurrency).
  setOuterWorkerCount(WorkerCount);

  logf(LogLevel::Info, "service",
       "listening on %s (%u workers, queue bound %zu, default budget %lld ms)",
       addr().str().c_str(), WorkerCount, Config.MaxQueue,
       static_cast<long long>(Config.Base.Algo.TimeoutMs));

  for (unsigned I = 0; I < WorkerCount; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  Frames.start();
  return true;
}

std::string Server::renderMetrics() {
  PrometheusWriter W;
  QueueStats QS = Queue.stats();
  W.gauge("se2gis_queue_depth", "jobs queued, not yet running",
          static_cast<double>(QS.QueueDepth));
  W.gauge("se2gis_jobs_in_flight", "jobs currently running",
          static_cast<double>(QS.InFlight));
  W.gauge("se2gis_workers", "worker threads", WorkerCount);
  W.gauge("se2gis_draining", "1 while the daemon is draining",
          QS.Draining ? 1 : 0);
  W.counter("se2gis_jobs_submitted_total", "jobs admitted to the queue",
            static_cast<double>(QS.Submitted));
  W.counter("se2gis_jobs_cancelled_total", "jobs cancelled",
            static_cast<double>(QS.Cancelled));
  W.counter("se2gis_jobs_rejected_total",
            "submissions refused (overloaded or draining)",
            static_cast<double>(QS.Rejected));
  for (size_t V = 0; V < 4; ++V)
    W.counter("se2gis_jobs_done_total", "completed jobs by verdict",
              static_cast<double>(QS.DoneByVerdict[V]),
              {{"verdict", verdictName(static_cast<Verdict>(V))}});
  W.histogram("se2gis_job_latency_seconds",
              "job wall time from admission to terminal state",
              JobLatency.snapshot());
  writeProcessMetrics(W, snapshotPerf());
  return W.str();
}

JsonValue Server::handleRequest(const JsonValue &Req) {
  std::string Method = Req.getString("method");
  if (Method == "submit")
    return handleSubmit(Req);
  if (Method == "status")
    return handleStatus(Req, /*WithResult=*/false);
  if (Method == "result")
    return handleStatus(Req, /*WithResult=*/true);
  if (Method == "cancel")
    return handleCancel(Req);
  if (Method == "stats")
    return handleStats();
  if (Method == "metrics") {
    JsonValue Resp = makeOkResponse();
    Resp.set("content_type", JsonValue::str("text/plain; version=0.0.4"));
    Resp.set("body", JsonValue::str(renderMetrics()));
    return Resp;
  }
  if (Method == "drain")
    return handleDrain(Req);
  if (Method == "ping") {
    JsonValue Resp = makeOkResponse();
    Resp.set("pong", JsonValue::boolean(true));
    Resp.set("proto", JsonValue::number(std::int64_t(1)));
    return Resp;
  }
  if (Method.empty())
    return makeErrorResponse(ErrorCode::BadRequest,
                             "request carries no method field");
  return makeErrorResponse(ErrorCode::UnknownMethod,
                           "unknown method '" + Method + "'");
}

JsonValue Server::handleSubmit(const JsonValue &Req) {
  JobSpec Spec;
  std::string Benchmark = Req.getString("benchmark");
  std::string Source = Req.getString("source");
  if (Benchmark.empty() == Source.empty())
    return makeErrorResponse(
        ErrorCode::BadRequest,
        "submit needs exactly one of 'benchmark' or 'source'");

  std::string AlgoName = Req.getString("algo", "se2gis");
  auto Algo = parseAlgorithmName(AlgoName);
  if (!Algo)
    return makeErrorResponse(ErrorCode::BadRequest,
                             "unknown algorithm '" + AlgoName + "'");
  Spec.Algorithm = *Algo;

  std::int64_t TimeoutMs = Req.getInt("timeout_ms", -1);
  if (TimeoutMs < 0)
    TimeoutMs = Config.Base.Algo.TimeoutMs;
  Spec.TimeoutMs = TimeoutMs;
  std::int64_t Priority = Req.getInt("priority", 0);
  if (Priority > 1000)
    Priority = 1000;
  if (Priority < -1000)
    Priority = -1000;
  Spec.Priority = static_cast<int>(Priority);

  // Elaborate on the connection thread so a broken problem is a synchronous
  // typed error, and workers only ever see loadable jobs.
  try {
    if (!Benchmark.empty()) {
      const BenchmarkDef *Def = findBenchmark(Benchmark);
      if (!Def)
        return makeErrorResponse(ErrorCode::NotFound,
                                 "no benchmark named '" + Benchmark +
                                     "' (se2gis list --json enumerates them)");
      Spec.Benchmark = Benchmark;
      Spec.Label = Benchmark;
      Spec.Prob = std::make_shared<const Problem>(loadBenchmark(*Def));
    } else {
      Spec.Label = "inline";
      Spec.Prob = std::make_shared<const Problem>(loadProblem(Source));
    }
  } catch (const UserError &E) {
    return makeErrorResponse(ErrorCode::BadRequest, E.what());
  }

  std::string Label = Spec.Label;
  std::string Id;
  switch (Queue.submit(std::move(Spec), Id, threadRequestId())) {
  case AdmitStatus::Admitted:
    break;
  case AdmitStatus::QueueFull:
    Queue.countRejected();
    return makeErrorResponse(ErrorCode::Overloaded,
                             "queue at capacity; retry later");
  case AdmitStatus::Draining:
    Queue.countRejected();
    return makeErrorResponse(ErrorCode::Draining,
                             "daemon is draining; no new work admitted");
  }
  logf(LogLevel::Info, "service", "%s submitted (%s, %s, budget %lld ms)",
       Id.c_str(), Label.c_str(), AlgoName.c_str(),
       static_cast<long long>(TimeoutMs));
  JsonValue Resp = makeOkResponse();
  Resp.set("job", JsonValue::str(Id));
  Resp.set("state", JsonValue::str(jobStateName(JobState::Queued)));
  return Resp;
}

namespace {

/// Renders a running job's live progress board as the `progress` object of
/// status/stats replies (round, candidate, lemmas, channel states).
JsonValue progressJson(const ProgressSnapshot &P) {
  JsonValue Prog = JsonValue::object();
  if (P.Algorithm[0])
    Prog.set("algorithm", JsonValue::str(P.Algorithm));
  if (P.Activity[0])
    Prog.set("activity", JsonValue::str(P.Activity));
  Prog.set("round", JsonValue::number(std::int64_t(P.Round)));
  Prog.set("refinements", JsonValue::number(std::int64_t(P.Refinements)));
  Prog.set("coarsenings", JsonValue::number(std::int64_t(P.Coarsenings)));
  Prog.set("lemmas", JsonValue::number(std::int64_t(P.Lemmas)));
  Prog.set("candidate_size", JsonValue::number(std::int64_t(P.CandidateSize)));
  if (P.Terms)
    Prog.set("terms", JsonValue::number(std::int64_t(P.Terms)));
  if (P.WitnessState[0])
    Prog.set("witness_channel", JsonValue::str(P.WitnessState));
  if (P.ChcState[0]) {
    JsonValue Chc = JsonValue::object();
    Chc.set("state", JsonValue::str(P.ChcState));
    Chc.set("rung", JsonValue::number(std::int64_t(P.ChcRung)));
    Chc.set("clauses", JsonValue::number(std::int64_t(P.ChcClauses)));
    Prog.set("chc_channel", std::move(Chc));
  }
  // Process-wide SMT cache hit rate at read time: with concurrent jobs the
  // counters are shared, so this is fleet context, not per-job accounting.
  PerfSnapshot Perf = snapshotPerf();
  std::uint64_t Hits = Perf.get(PerfCounter::CacheSmtHits);
  std::uint64_t Touches = Hits + Perf.get(PerfCounter::CacheSmtMisses);
  Prog.set("cache_smt_hit_rate",
           JsonValue::number(Touches ? static_cast<double>(Hits) /
                                           static_cast<double>(Touches)
                                     : 0.0));
  return Prog;
}

} // namespace

JsonValue Server::jobStateJson(const Job &J, bool WithResult) const {
  JsonValue Resp = makeOkResponse();
  Resp.set("job", JsonValue::str(J.Id));
  Resp.set("state", JsonValue::str(jobStateName(J.State)));
  Resp.set("label", JsonValue::str(J.Spec.Label));
  Resp.set("algorithm", JsonValue::str(algorithmName(J.Spec.Algorithm)));
  Resp.set("priority", JsonValue::number(std::int64_t(J.Spec.Priority)));
  if (J.Rid)
    Resp.set("submit_rid", JsonValue::number(std::int64_t(J.Rid)));
  if (J.State == JobState::Running && J.Progress)
    Resp.set("progress", progressJson(J.Progress->read()));
  if (J.State == JobState::Done || J.State == JobState::Cancelled) {
    // A job cancelled while still queued never started; its queue time is
    // its whole life.
    bool Started = J.StartAt.time_since_epoch().count() != 0;
    Resp.set("queue_ms", JsonValue::number(msBetween(
                             J.SubmitAt, Started ? J.StartAt : J.EndAt)));
    Resp.set("total_ms", JsonValue::number(msBetween(J.SubmitAt, J.EndAt)));
  }
  if (J.State == JobState::Done) {
    Resp.set("verdict", JsonValue::str(verdictName(J.Result.V)));
    Resp.set("elapsed_ms", JsonValue::number(J.Result.Stats.ElapsedMs));
    if (J.Result.Ev.Source != VerdictSource::None) {
      Resp.set("evidence",
               JsonValue::str(verdictSourceName(J.Result.Ev.Source)));
      Resp.set("evidence_channel", JsonValue::str(J.Result.Ev.Channel));
    }
    if (WithResult) {
      Resp.set("steps", JsonValue::str(J.Result.Stats.Steps));
      if (!J.Result.Detail.empty())
        Resp.set("detail", JsonValue::str(J.Result.Detail));
      if (J.Result.V == Verdict::Realizable && J.Spec.Prob)
        Resp.set("solution", JsonValue::str(solutionToString(
                                 *J.Spec.Prob, J.Result.Solution)));
    }
  }
  return Resp;
}

JsonValue Server::handleStatus(const JsonValue &Req, bool WithResult) {
  std::string Id = Req.getString("job");
  if (Id.empty())
    return makeErrorResponse(ErrorCode::BadRequest, "missing 'job' field");
  std::unique_ptr<Job> J = Queue.query(Id);
  if (!J)
    return makeErrorResponse(ErrorCode::NotFound, "no job '" + Id + "'");
  return jobStateJson(*J, WithResult);
}

JsonValue Server::handleCancel(const JsonValue &Req) {
  std::string Id = Req.getString("job");
  if (Id.empty())
    return makeErrorResponse(ErrorCode::BadRequest, "missing 'job' field");
  if (!Queue.cancel(Id))
    return makeErrorResponse(ErrorCode::NotFound, "no job '" + Id + "'");
  std::unique_ptr<Job> J = Queue.query(Id);
  JsonValue Resp = makeOkResponse();
  Resp.set("job", JsonValue::str(Id));
  Resp.set("state", JsonValue::str(jobStateName(J->State)));
  return Resp;
}

JsonValue Server::handleStats() {
  QueueStats QS = Queue.stats();
  PerfSnapshot Perf = snapshotPerf();
  JsonValue Resp = makeOkResponse();
  Resp.set("listen", JsonValue::str(addr().str()));
  Resp.set("workers", JsonValue::number(std::int64_t(WorkerCount)));
  Resp.set("queue_depth", JsonValue::number(std::int64_t(QS.QueueDepth)));
  Resp.set("in_flight", JsonValue::number(std::int64_t(QS.InFlight)));
  Resp.set("submitted", JsonValue::number(std::int64_t(QS.Submitted)));
  Resp.set("completed", JsonValue::number(std::int64_t(QS.Completed)));
  Resp.set("cancelled", JsonValue::number(std::int64_t(QS.Cancelled)));
  Resp.set("rejected", JsonValue::number(std::int64_t(QS.Rejected)));
  Resp.set("draining", JsonValue::boolean(QS.Draining));

  JsonValue ByVerdict = JsonValue::object();
  for (size_t V = 0; V < 4; ++V)
    ByVerdict.set(verdictName(static_cast<Verdict>(V)),
                  JsonValue::number(std::int64_t(QS.DoneByVerdict[V])));
  Resp.set("done_by_verdict", std::move(ByVerdict));

  // Live introspection: one entry per running job, with its progress board.
  JsonValue Running = JsonValue::array();
  for (const std::unique_ptr<Job> &J : Queue.runningJobs()) {
    JsonValue Entry = JsonValue::object();
    Entry.set("job", JsonValue::str(J->Id));
    Entry.set("label", JsonValue::str(J->Spec.Label));
    Entry.set("running_ms", JsonValue::number(msBetween(
                                J->StartAt, std::chrono::steady_clock::now())));
    if (J->Progress)
      Entry.set("progress", progressJson(J->Progress->read()));
    Running.push(std::move(Entry));
  }
  Resp.set("running", std::move(Running));

  JsonValue Cache = JsonValue::object();
  std::uint64_t Hits = Perf.get(PerfCounter::CacheSmtHits);
  std::uint64_t Misses = Perf.get(PerfCounter::CacheSmtMisses);
  Cache.set("mode", JsonValue::str(cacheModeName(cacheMode())));
  Cache.set("smt_hits", JsonValue::number(std::int64_t(Hits)));
  Cache.set("smt_misses", JsonValue::number(std::int64_t(Misses)));
  Cache.set("smt_hit_rate",
            JsonValue::number(Hits + Misses
                                  ? static_cast<double>(Hits) /
                                        static_cast<double>(Hits + Misses)
                                  : 0.0));
  Cache.set("sge_hits",
            JsonValue::number(std::int64_t(Perf.get(PerfCounter::CacheSgeHits))));
  Cache.set("bytes_written", JsonValue::number(std::int64_t(
                                 Perf.get(PerfCounter::CacheBytesWritten))));
  Resp.set("cache", std::move(Cache));

  HistogramSnapshot JobHist = JobLatency.snapshot();
  JsonValue Lat = JsonValue::object();
  Lat.set("count", JsonValue::number(std::int64_t(JobHist.Count)));
  Lat.set("p50_ms", JsonValue::number(JobHist.quantileMs(0.50)));
  Lat.set("p90_ms", JsonValue::number(JobHist.quantileMs(0.90)));
  Lat.set("p99_ms", JsonValue::number(JobHist.quantileMs(0.99)));
  Lat.set("max_ms", JsonValue::number(JobHist.maxMs()));
  Resp.set("job_latency", std::move(Lat));

  const HistogramSnapshot &Smt = Perf.hist(PerfHistogram::SmtCheckNs);
  JsonValue SmtLat = JsonValue::object();
  SmtLat.set("count", JsonValue::number(std::int64_t(Smt.Count)));
  SmtLat.set("p50_ms", JsonValue::number(Smt.quantileMs(0.50)));
  SmtLat.set("p99_ms", JsonValue::number(Smt.quantileMs(0.99)));
  Resp.set("smt_latency", std::move(SmtLat));
  return Resp;
}

JsonValue Server::handleDrain(const JsonValue &Req) {
  std::int64_t DeadlineMs = Req.getInt("deadline_ms", Config.DrainTimeoutMs);
  if (DeadlineMs <= 0)
    DeadlineMs = Config.DrainTimeoutMs;
  // Only the first drain's deadline counts; a concurrent drain waits for
  // that one and reports the same final stats.
  Frames.drain([&] { drainQueue(DeadlineMs); });
  JsonValue Resp = makeOkResponse();
  Resp.set("drained", JsonValue::boolean(true));
  Resp.set("completed", JsonValue::number(std::int64_t(DrainStats.Completed)));
  Resp.set("cancelled", JsonValue::number(std::int64_t(DrainStats.Cancelled)));
  Resp.set("rejected", JsonValue::number(std::int64_t(DrainStats.Rejected)));
  return Resp;
}

void Server::drainQueue(std::int64_t DeadlineMs) {
  logf(LogLevel::Info, "service",
       "drain: admission closed, waiting up to %lld ms for in-flight work",
       static_cast<long long>(DeadlineMs));
  Queue.beginDrain();
  if (!Queue.waitIdle(DeadlineMs)) {
    logf(LogLevel::Warn, "service",
         "drain: deadline expired, cancelling remaining jobs");
    Queue.cancelAll();
    // Cancellation is cooperative; the running jobs observe it at their
    // next poll point. Give them a bounded grace period rather than
    // waiting forever on a wedged job.
    Queue.waitIdle(5000);
  }
  Queue.shutdown();

  // Flush (fsync) the persistent store *after* the last job completed, so
  // a drain-then-restart never replays a torn tail that was reported
  // flushed.
  flushCache();
  if (!Config.Base.TracePath.empty())
    traceFlush();

  DrainStats = Queue.stats();
  logf(LogLevel::Info, "service",
       "drain: done (%llu completed, %llu cancelled, %llu rejected)",
       static_cast<unsigned long long>(DrainStats.Completed),
       static_cast<unsigned long long>(DrainStats.Cancelled),
       static_cast<unsigned long long>(DrainStats.Rejected));
}

void Server::workerLoop() {
  while (std::shared_ptr<Job> J = Queue.pop())
    runJob(J);
}

void Server::runJob(const std::shared_ptr<Job> &J) {
  // Re-bind the submitting request's id on this worker thread and install
  // the job's progress board: everything the run logs, traces, or records
  // correlates back to the request, and the solver's publish points become
  // live (they publish through the thread-local board pointer).
  RequestIdScope RidScope(J->Rid);
  ProgressBoardScope BoardScope(J->Progress.get());
  progressPublish([&](ProgressSnapshot &P) {
    progressSetStr(P.Algorithm, algorithmName(J->Spec.Algorithm));
    progressSetStr(P.Activity, "starting");
    P.UpdatedNs = detail::traceNowNs();
  });
  flightRecord(FlightKind::Mark, "job.start", detail::traceNowNs(), 0,
               J->Seq, J->Spec.Label.c_str());

  TraceSpan Span("service.job", "service");
  Span.arg("job", J->Id);
  Span.arg("label", J->Spec.Label);
  Span.arg("algorithm", algorithmName(J->Spec.Algorithm));
  SolverConfig Cfg = Config.Base;
  Cfg.Algo.TimeoutMs = J->Spec.TimeoutMs;
  Cfg.Algo.Token = J->Token;
  Cfg.Verbose = false;

  SynthesisTask Task(J->Spec.Prob, J->Spec.Algorithm);
  Outcome R = Task.run(Cfg); // never throws; failures become Verdict::Failed

  Span.arg("verdict", verdictName(R.V));
  flightRecord(FlightKind::Mark, "job.done", detail::traceNowNs(), 0, J->Seq,
               verdictName(R.V));
  logf(LogLevel::Info, "service", "%s %s %s (%.1f ms)", J->Id.c_str(),
       J->Spec.Label.c_str(), verdictName(R.V), R.Stats.ElapsedMs);

  // A Timeout verdict or a mid-run cancellation ships its post-mortem: the
  // rings still hold the job's last moments at this point.
  if (!Config.FlightDir.empty() &&
      (R.V == Verdict::Timeout || J->Token.cancelRequested())) {
    std::string Path = Config.FlightDir + "/flight-" + J->Id + ".json";
    if (flightDumpToFile(Path))
      logf(LogLevel::Info, "service", "%s flight dump: %s", J->Id.c_str(),
           Path.c_str());
    else
      logf(LogLevel::Warn, "service", "%s flight dump failed: %s",
           J->Id.c_str(), Path.c_str());
  }

  Queue.complete(J, std::move(R));
  JobLatency.recordNs(static_cast<std::uint64_t>(
      msBetween(J->SubmitAt, std::chrono::steady_clock::now()) * 1e6));
}

void Server::run() {
  Frames.run();
  for (std::thread &W : WorkerThreads)
    if (W.joinable())
      W.join();
}
