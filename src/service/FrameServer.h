//===- FrameServer.h - The socket core shared by both daemons ---*- C++-*-===//
///
/// \file
/// The part of a daemon that is about sockets, not about its methods:
/// se2gis_served (Server.h) and se2gis_cached (CacheDaemon.h) each hold
/// one FrameServer and supply only their method dispatch, their
/// Prometheus text, and their drain body (\c FrameServer::Hooks).
///
///  - One accept thread polls the frame listener, the optional plain-HTTP
///    metrics listener, and a wake pipe. Every accepted fd gets its own
///    connection thread.
///  - A frame connection answers requests in order: a typed
///    `parse_error` / `bad_request` / `oversized_frame` error, or the
///    daemon's handler. Each frame gets a request id, bound on the thread
///    for the handling (log lines, spans, flight events) and echoed as
///    `rid`.
///  - A metrics connection is one HTTP exchange: any GET is answered with
///    the exposition and the connection closed.
///  - Finished connection threads are joined by the accept thread on its
///    next wake-up, so thread stacks stay bounded by the live connections.
///  - Drain runs once: the first caller runs the drain body, concurrent
///    callers block until that body returned. Then the accept thread
///    stops, and run() stops reading on every connection and joins it.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SERVICE_FRAMESERVER_H
#define SE2GIS_SERVICE_FRAMESERVER_H

#include "service/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

namespace se2gis {

class FrameServer {
public:
  struct Hooks {
    /// Answers one request object; the `rid` field is added afterwards.
    std::function<JsonValue(const JsonValue &Req)> Handle;
    /// The Prometheus text served on the metrics listener.
    std::function<std::string()> RenderMetrics;
    /// The drain body of a signal-initiated drain (requestDrainAsync).
    std::function<void()> Drain;
  };

  /// \p Component tags the log lines ("service", "cached").
  FrameServer(const char *Component, Hooks H);
  ~FrameServer();

  FrameServer(const FrameServer &) = delete;
  FrameServer &operator=(const FrameServer &) = delete;

  /// Parses and binds \p Listen and, when non-empty, \p MetricsAddr, and
  /// ignores SIGPIPE (a client hanging up mid-response must be a failed
  /// write, not a dead daemon). \returns false with a diagnostic.
  bool listen(const std::string &Listen, const std::string &MetricsAddr,
              std::string &Error);

  /// Starts the accept thread. Call after listen() succeeded.
  void start();

  /// Blocks until drained: joins the accept thread, closes the listeners,
  /// stops reading on every live connection (SHUT_RD: an in-progress
  /// response still reaches its client) and joins its thread.
  void run();

  /// Async-signal-safe drain trigger: one byte to the wake pipe; the
  /// accept thread then runs drain(Hooks::Drain).
  void requestDrainAsync();

  /// Runs \p Body if no drain has started yet, then stops the accept
  /// thread. A concurrent or later caller does not run its body; it
  /// blocks until the first body has returned.
  void drain(const std::function<void()> &Body);

  /// True from the moment a drain starts.
  bool draining() const { return Draining.load(std::memory_order_acquire); }

  const ServiceAddr &addr() const { return BoundAddr; }
  const ServiceAddr &metricsAddr() const { return MetricsBoundAddr; }

  /// Connection threads not yet joined (live, or finished since the
  /// accept thread last woke).
  std::size_t connectionThreads();

private:
  struct Connection {
    int Fd = -1; ///< -1 once the thread has finished serving (reapable)
    std::thread Thread;
  };

  void acceptLoop();
  void acceptOne(int ListenOn, bool Http);
  void serveFrames(int Fd);
  void serveHttp(int Fd);
  void reapFinished();
  void wake(char Byte);

  const char *Component;
  Hooks H;
  ServiceAddr BoundAddr;
  ServiceAddr MetricsBoundAddr;
  int ListenFd = -1;
  int MetricsFd = -1;
  int WakePipe[2] = {-1, -1};
  std::atomic<std::uint64_t> NextRid{1};
  std::atomic<bool> Stop{false};
  std::atomic<bool> Draining{false};

  std::mutex ConnMutex;
  std::list<Connection> Conns;

  std::mutex DrainMutex;
  std::condition_variable DrainCv;
  bool DrainDone = false;

  std::thread AcceptThread;
};

} // namespace se2gis

#endif // SE2GIS_SERVICE_FRAMESERVER_H
