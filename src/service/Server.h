//===- Server.h - The synthesis daemon core ---------------------*- C++-*-===//
///
/// \file
/// The long-running multi-client synthesis service. One process hosts:
///
///  - a FrameServer (FrameServer.h): the listeners, one thread per client
///    speaking the framed JSON protocol (Protocol.h) — requests on a
///    connection are handled in order, while distinct connections are
///    fully concurrent —, the plain-HTTP metrics listener, and drain-once,
///  - a bounded worker pool popping jobs off the \c JobQueue and running
///    them as ordinary \c SynthesisTask s under per-job deadlines mapped
///    onto the CancellationToken/Deadline machinery,
///  - the process-wide shared state every worker benefits from: the
///    sharded memoization caches (src/cache/) stay warm across jobs and
///    clients, and the perf/trace registries (src/support/) feed the
///    live `stats` response (queue depth, in-flight, cache hit rates,
///    latency quantiles).
///
/// Graceful drain (protocol `drain` request or SIGINT/SIGTERM): stop
/// admitting (typed `draining` rejections), let in-flight jobs finish
/// under the drain deadline — cancel whatever remains past it —, flush
/// the persistent cache store (fsync'd, see DiskStore::sync), stop the
/// accept loop, join everything, exit 0.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SERVICE_SERVER_H
#define SE2GIS_SERVICE_SERVER_H

#include "service/FrameServer.h"
#include "service/JobQueue.h"
#include "support/Histogram.h"

#include <memory>
#include <thread>
#include <vector>

namespace se2gis {

/// Daemon configuration (tools/se2gis_served.cpp builds one from flags +
/// SolverConfig::fromEnv).
struct ServiceConfig {
  /// Listen address ("unix:<path>" or "tcp:<host>:<port>"; tcp port 0
  /// binds an ephemeral port, reported by Server::addr after start).
  std::string Listen = "unix:./se2gis.sock";
  /// Worker threads. 0 = auto: max(1, hardware_concurrency / 2), leaving
  /// headroom for each job's inner parallelism (portfolio members run two
  /// algorithm threads per job — the oversubscription formula is in
  /// DESIGN.md "Service model").
  unsigned Workers = 0;
  /// Admission control: maximum queued (not yet running) jobs.
  std::size_t MaxQueue = 64;
  /// Budget for in-flight work during a drain before it is cancelled.
  std::int64_t DrainTimeoutMs = 10000;
  /// Optional plain-HTTP metrics listener ("unix:<path>" or
  /// "tcp:<host>:<port>"; "" = off). Any GET returns the Prometheus text
  /// exposition, so a stock Prometheus can scrape the daemon directly —
  /// the same text the frame-protocol `metrics` method returns.
  std::string MetricsAddr;
  /// Directory for flight-recorder dumps ("" = no job dumps): a job that
  /// ends in Timeout or is cancelled while running writes
  /// `<dir>/flight-<jobid>.json`; fatal signals/fatalError write
  /// `<dir>/flight-fatal.<pid>.json`.
  std::string FlightDir;
  /// Base solver configuration every job runs under (cache mode/dir, log
  /// level, trace path, seed, unrealizability channels). Its
  /// Algo.TimeoutMs is the budget of a submit that carries no timeout_ms;
  /// a job's own timeout and token replace the base's.
  SolverConfig Base;
};

class Server {
public:
  explicit Server(ServiceConfig Config);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listen socket, starts workers and the accept loop.
  /// \returns false with a diagnostic on bind/parse failure.
  bool start(std::string &Error);

  /// Blocks until the server has fully drained and every thread joined.
  void run();

  /// Initiates a drain from outside the protocol (signal handlers write a
  /// byte to an internal pipe; this is the async-signal-safe entry).
  void requestDrainAsync() { Frames.requestDrainAsync(); }

  /// The bound address (with the real port for tcp:*:0). Valid after
  /// start().
  const ServiceAddr &addr() const { return Frames.addr(); }

  /// The bound metrics address (valid after start() when configured).
  const ServiceAddr &metricsAddr() const { return Frames.metricsAddr(); }

  unsigned workers() const { return WorkerCount; }

  /// Renders the full Prometheus exposition (process + service families).
  /// Public so tests can assert on the text without a socket.
  std::string renderMetrics();

private:
  void workerLoop();
  void runJob(const std::shared_ptr<Job> &J);

  /// The drain body (run once, through Frames.drain): close admission,
  /// wait up to \p DeadlineMs for in-flight work, cancel the rest, flush
  /// the persistent store, and record the final stats in DrainStats.
  void drainQueue(std::int64_t DeadlineMs);

  JsonValue handleRequest(const JsonValue &Req);
  JsonValue handleSubmit(const JsonValue &Req);
  JsonValue handleStatus(const JsonValue &Req, bool WithResult);
  JsonValue handleCancel(const JsonValue &Req);
  JsonValue handleStats();
  JsonValue handleDrain(const JsonValue &Req);
  JsonValue jobStateJson(const Job &J, bool WithResult) const;

  const ServiceConfig Config;
  unsigned WorkerCount = 0;
  JobQueue Queue;
  /// Wall time queued→terminal, for the stats response's quantiles.
  LatencyHistogram JobLatency;
  std::vector<std::thread> WorkerThreads;
  /// Written by the drain body, read after Frames.drain returned.
  QueueStats DrainStats;
  /// Declared last: destroyed first, while the hooks' targets still exist.
  FrameServer Frames;
};

} // namespace se2gis

#endif // SE2GIS_SERVICE_SERVER_H
