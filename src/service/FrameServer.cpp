//===- FrameServer.cpp ----------------------------------------------------===//

#include "service/FrameServer.h"

#include "support/Log.h"

#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <system_error>
#include <unistd.h>

using namespace se2gis;

FrameServer::FrameServer(const char *Component, Hooks H)
    : Component(Component), H(std::move(H)) {}

FrameServer::~FrameServer() {
  closeFd(ListenFd);
  closeFd(MetricsFd);
  closeFd(WakePipe[0]);
  closeFd(WakePipe[1]);
  if (BoundAddr.IsUnix && !BoundAddr.Path.empty())
    ::unlink(BoundAddr.Path.c_str());
  if (MetricsBoundAddr.IsUnix && !MetricsBoundAddr.Path.empty())
    ::unlink(MetricsBoundAddr.Path.c_str());
}

bool FrameServer::listen(const std::string &Listen,
                         const std::string &MetricsAddr, std::string &Error) {
  if (!parseServiceAddr(Listen, BoundAddr, Error))
    return false;
  if (::pipe(WakePipe) != 0) {
    Error = "cannot create wake pipe";
    return false;
  }
  ListenFd = listenOn(BoundAddr, Error);
  if (ListenFd < 0)
    return false;
  ::signal(SIGPIPE, SIG_IGN);
  if (MetricsAddr.empty())
    return true;
  if (!parseServiceAddr(MetricsAddr, MetricsBoundAddr, Error))
    return false;
  MetricsFd = listenOn(MetricsBoundAddr, Error);
  return MetricsFd >= 0;
}

void FrameServer::start() {
  if (MetricsFd >= 0)
    logf(LogLevel::Info, Component, "metrics listener on %s",
         MetricsBoundAddr.str().c_str());
  AcceptThread = std::thread([this] { acceptLoop(); });
}

void FrameServer::wake(char Byte) {
  if (WakePipe[1] >= 0) {
    [[maybe_unused]] ssize_t W = ::write(WakePipe[1], &Byte, 1);
  }
}

void FrameServer::requestDrainAsync() { wake('d'); }

void FrameServer::drain(const std::function<void()> &Body) {
  if (Draining.exchange(true, std::memory_order_acq_rel)) {
    std::unique_lock<std::mutex> Lock(DrainMutex);
    DrainCv.wait(Lock, [this] { return DrainDone; });
    return;
  }
  if (Body)
    Body();
  Stop.store(true, std::memory_order_release);
  wake('w'); // out of poll(), so run() can join the accept thread
  {
    std::lock_guard<std::mutex> Lock(DrainMutex);
    DrainDone = true;
  }
  DrainCv.notify_all();
}

void FrameServer::acceptLoop() {
  while (!Stop.load(std::memory_order_acquire)) {
    // A -1 fd (no metrics listener) is skipped by poll().
    pollfd Fds[3] = {{WakePipe[0], POLLIN, 0},
                     {ListenFd, POLLIN, 0},
                     {MetricsFd, POLLIN, 0}};
    if (::poll(Fds, 3, -1) < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    reapFinished();
    if (Fds[0].revents & POLLIN) {
      char B = 0;
      [[maybe_unused]] ssize_t R = ::read(WakePipe[0], &B, 1);
      if (B == 'd') {
        drain(H.Drain); // a signal-initiated drain runs on this thread
        break;
      }
      continue; // plain wake: re-check Stop
    }
    if (Fds[1].revents & POLLIN)
      acceptOne(ListenFd, /*Http=*/false);
    if (Fds[2].revents & POLLIN)
      acceptOne(MetricsFd, /*Http=*/true);
  }
}

void FrameServer::acceptOne(int ListenOn, bool Http) {
  int Fd = ::accept(ListenOn, nullptr, nullptr);
  if (Fd < 0)
    return;
  std::lock_guard<std::mutex> Lock(ConnMutex);
  if (Stop.load(std::memory_order_acquire)) {
    closeFd(Fd);
    return;
  }
  auto It = Conns.emplace(Conns.end());
  It->Fd = Fd;
  try {
    It->Thread = std::thread([this, It, Fd, Http] {
      if (Http)
        serveHttp(Fd);
      else
        serveFrames(Fd);
      // Deregister before closing: once Fd is -1, run()'s shutdown sweep
      // can no longer touch it, so the close cannot race a shutdown() on
      // a recycled descriptor number. Closing here (not in run()) gives
      // the peer of a dead conversation its EOF immediately.
      {
        std::lock_guard<std::mutex> Lock(ConnMutex);
        It->Fd = -1;
      }
      closeFd(Fd);
    });
  } catch (const std::system_error &E) {
    Conns.erase(It);
    closeFd(Fd);
    logf(LogLevel::Warn, Component,
         "cannot start a connection thread (%s); connection closed",
         E.what());
  }
}

void FrameServer::reapFinished() {
  std::list<Connection> Finished;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (auto It = Conns.begin(); It != Conns.end();) {
      auto Next = std::next(It);
      if (It->Fd < 0)
        Finished.splice(Finished.end(), Conns, It);
      It = Next;
    }
  }
  for (Connection &C : Finished)
    C.Thread.join();
}

std::size_t FrameServer::connectionThreads() {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  return Conns.size();
}

void FrameServer::serveFrames(int Fd) {
  std::string Payload;
  while (true) {
    FrameStatus St = readFrame(Fd, Payload);
    if (St == FrameStatus::Eof || St == FrameStatus::Truncated ||
        St == FrameStatus::IoError)
      break;
    if (St == FrameStatus::Oversized) {
      // The announced length cannot be trusted, so the stream cannot be
      // resynchronized: answer with the typed error and hang up.
      writeFrame(Fd, makeErrorResponse(ErrorCode::OversizedFrame,
                                       "frame exceeds the protocol bound")
                         .dump());
      break;
    }
    // Mint the request id at admission and bind it for the whole handling
    // of this frame: log lines, span args, and flight events produced on
    // this thread all carry it, and the response echoes it.
    std::uint64_t Rid = NextRid.fetch_add(1, std::memory_order_relaxed);
    RequestIdScope RidScope(Rid);
    JsonValue Req;
    std::string ParseError;
    JsonValue Resp;
    if (!JsonValue::parse(Payload, Req, ParseError))
      Resp = makeErrorResponse(ErrorCode::ParseError, ParseError);
    else if (!Req.isObject())
      Resp = makeErrorResponse(ErrorCode::BadRequest,
                               "request must be a JSON object");
    else {
      try {
        Resp = H.Handle(Req);
      } catch (const std::exception &E) {
        // A handler failure is this request's typed error, not the end of
        // the daemon (an exception escaping this thread would terminate).
        Resp = makeErrorResponse(ErrorCode::Internal, E.what());
      }
    }
    Resp.set("rid", JsonValue::number(static_cast<std::int64_t>(Rid)));
    if (!writeFrame(Fd, Resp.dump()))
      break;
  }
}

void FrameServer::serveHttp(int Fd) {
  // Read the request until the header terminator (the path is ignored:
  // every route serves the exposition), bounded in size and time so a
  // stuck client only costs its own thread.
  std::string Req;
  char Buf[1024];
  while (Req.size() < 16384 && Req.find("\r\n\r\n") == std::string::npos) {
    pollfd P = {Fd, POLLIN, 0};
    if (::poll(&P, 1, 2000) <= 0 || !(P.revents & POLLIN))
      break;
    ssize_t R = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (R <= 0)
      break;
    Req.append(Buf, static_cast<std::size_t>(R));
  }
  if (Req.find('\n') == std::string::npos)
    return;
  std::string Body = H.RenderMetrics();
  std::string Resp = "HTTP/1.0 200 OK\r\n"
                     "Content-Type: text/plain; version=0.0.4; "
                     "charset=utf-8\r\n"
                     "Content-Length: " +
                     std::to_string(Body.size()) +
                     "\r\n"
                     "Connection: close\r\n\r\n" +
                     Body;
  for (std::size_t Off = 0; Off < Resp.size();) {
    ssize_t W = ::send(Fd, Resp.data() + Off, Resp.size() - Off, 0);
    if (W <= 0)
      break;
    Off += static_cast<std::size_t>(W);
  }
}

void FrameServer::run() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  // Close the listeners now, not at destruction: a bound-but-unaccepted
  // socket keeps letting clients connect into the backlog, where they
  // would wait on a daemon that will never serve them.
  closeFd(ListenFd);
  ListenFd = -1;
  closeFd(MetricsFd);
  MetricsFd = -1;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (const Connection &C : Conns)
      if (C.Fd >= 0)
        ::shutdown(C.Fd, SHUT_RD);
  }
  // The accept thread is gone, so nothing inserts any more; connection
  // threads only clear their own entry's Fd, under the lock.
  for (Connection &C : Conns)
    C.Thread.join();
  Conns.clear();
}
