//===- FrameServerTest.cpp - The daemons' shared socket core --------------===//
//
// Covers src/service/FrameServer: drain runs its body once while every
// concurrent caller waits for it, finished connection threads are joined
// rather than kept until shutdown, a throwing handler becomes a typed
// `internal` error, and the metrics listener answers a plain HTTP GET.
// The daemon-level tests pin the same properties through se2gis_cached's
// and se2gis_served's cores: sequential connections must not grow the
// address space by a thread stack each, and concurrent cache drains must
// all report the synced store.
//
//===----------------------------------------------------------------------===//

#include "cachenet/CacheDaemon.h"
#include "service/Client.h"
#include "service/FrameServer.h"
#include "service/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/socket.h>

using namespace se2gis;

namespace {

namespace fs = std::filesystem;

/// A fresh scratch directory for sockets and stores, removed on scope exit.
struct ScratchDir {
  std::string Path;
  ScratchDir() {
    Path = (fs::temp_directory_path() /
            ("se2gis-frameserver-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() { fs::remove_all(Path); }
};

/// The process's virtual size in KiB (VmSize in /proc/self/status), or -1
/// where that file does not exist.
long vmSizeKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmSize:", 0) == 0)
      return std::stol(Line.substr(7));
  return -1;
}

/// Opens \p N connections one after another, each answering one `ping`
/// before it is closed.
void pingSequentially(const std::string &Addr, int N) {
  for (int I = 0; I < N; ++I) {
    std::string Error;
    auto C = ServiceClient::connect(Addr, Error, 2000, 5000);
    ASSERT_NE(C, nullptr) << Error;
    JsonValue Resp;
    ASSERT_TRUE(C->call("ping", Resp, Error)) << Error;
    ASSERT_TRUE(Resp.getBool("ok"));
  }
}

/// Bound on the address-space growth of 256 sequential connections. A
/// leaked connection thread keeps its stack mapped (2-8 MiB each), so
/// leaking all of them grows VmSize by 512 MiB or more.
constexpr long kLeakBoundKb = 128 * 1024;
constexpr int kSequentialConnections = 256;

FrameServer::Hooks pingHooks() {
  return {[](const JsonValue &) {
            return makeOkResponse().set("pong", JsonValue::boolean(true));
          },
          [] { return std::string("frame_server_test_up 1\n"); },
          {}};
}

} // namespace

TEST(FrameServer, DrainRunsOnceAndConcurrentCallersWaitForIt) {
  ScratchDir Dir;
  FrameServer S("test", pingHooks());
  std::string Error;
  ASSERT_TRUE(S.listen("unix:" + Dir.Path + "/f.sock", "", Error)) << Error;
  S.start();
  std::thread Runner([&S] { S.run(); });

  // A latch the first drain body blocks on until the test releases it.
  std::mutex M;
  std::condition_variable Cv;
  bool Entered = false, Released = false;
  std::atomic<int> Bodies{0};
  std::thread First([&] {
    S.drain([&] {
      Bodies.fetch_add(1);
      std::unique_lock<std::mutex> Lock(M);
      Entered = true;
      Cv.notify_all();
      Cv.wait(Lock, [&] { return Released; });
    });
  });
  {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Entered; });
  }
  EXPECT_TRUE(S.draining());

  std::atomic<bool> SecondReturned{false};
  std::thread Second([&] {
    S.drain([&] { Bodies.fetch_add(1); });
    SecondReturned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(SecondReturned.load())
      << "a concurrent drain returned before the drain body finished";

  {
    std::lock_guard<std::mutex> Lock(M);
    Released = true;
  }
  Cv.notify_all();
  First.join();
  Second.join();
  Runner.join(); // the drain stopped the accept thread
  EXPECT_TRUE(SecondReturned.load());
  EXPECT_EQ(Bodies.load(), 1);
}

TEST(FrameServer, FinishedConnectionThreadsAreJoined) {
  ScratchDir Dir;
  FrameServer S("test", pingHooks());
  std::string Error;
  ASSERT_TRUE(S.listen("unix:" + Dir.Path + "/f.sock", "", Error)) << Error;
  S.start();
  std::thread Runner([&S] { S.run(); });

  pingSequentially(S.addr().str(), 200);
  // Each accept joins the threads finished before it, so at most the last
  // connection's thread (and none of the 199 before it) is left.
  EXPECT_LE(S.connectionThreads(), 2u);

  // A connection still open keeps its thread; the drain sweep ends it.
  auto Open = ServiceClient::connect(S.addr().str(), Error, 2000, 5000);
  ASSERT_NE(Open, nullptr) << Error;
  JsonValue Resp;
  ASSERT_TRUE(Open->call("ping", Resp, Error)) << Error;
  EXPECT_GE(S.connectionThreads(), 1u);
  S.drain({});
  Runner.join();
  EXPECT_EQ(S.connectionThreads(), 0u);
}

TEST(FrameServer, HandlerExceptionIsATypedInternalError) {
  ScratchDir Dir;
  FrameServer::Hooks Hooks = pingHooks();
  Hooks.Handle = [](const JsonValue &Req) -> JsonValue {
    if (Req.getString("method") == "boom")
      throw std::runtime_error("handler failed");
    return makeOkResponse();
  };
  FrameServer S("test", std::move(Hooks));
  std::string Error;
  ASSERT_TRUE(S.listen("unix:" + Dir.Path + "/f.sock", "", Error)) << Error;
  S.start();
  std::thread Runner([&S] { S.run(); });

  auto C = ServiceClient::connect(S.addr().str(), Error, 2000, 5000);
  ASSERT_NE(C, nullptr) << Error;
  JsonValue Resp;
  ASSERT_TRUE(C->call("boom", Resp, Error)) << Error;
  EXPECT_FALSE(Resp.getBool("ok", true));
  EXPECT_EQ(Resp.get("error")->getString("code"), "internal");
  EXPECT_EQ(Resp.get("error")->getString("message"), "handler failed");
  EXPECT_GT(Resp.getInt("rid"), 0);
  // The connection survives the failed request.
  ASSERT_TRUE(C->call("ping", Resp, Error)) << Error;
  EXPECT_TRUE(Resp.getBool("ok"));

  S.drain({});
  Runner.join();
}

TEST(FrameServer, MetricsListenerAnswersHttpGet) {
  ScratchDir Dir;
  FrameServer S("test", pingHooks());
  std::string Error;
  ASSERT_TRUE(S.listen("unix:" + Dir.Path + "/f.sock",
                       "unix:" + Dir.Path + "/m.sock", Error))
      << Error;
  S.start();
  std::thread Runner([&S] { S.run(); });

  int Fd = connectTo(S.metricsAddr(), Error, 2000);
  ASSERT_GE(Fd, 0) << Error;
  setFdIoTimeout(Fd, 5000);
  std::string Req = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(Fd, Req.data(), Req.size(), 0),
            static_cast<ssize_t>(Req.size()));
  std::string Reply;
  char Buf[512];
  for (ssize_t R; (R = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0;)
    Reply.append(Buf, static_cast<std::size_t>(R));
  closeFd(Fd);
  EXPECT_EQ(Reply.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << Reply;
  EXPECT_NE(Reply.find("\r\n\r\nframe_server_test_up 1\n"), std::string::npos)
      << Reply;

  S.drain({});
  Runner.join();
}

TEST(FrameServerDaemons, CachedSequentialConnectionsDoNotLeakStacks) {
  ScratchDir Dir;
  CacheDaemonConfig Config;
  Config.Listen = "unix:" + Dir.Path + "/c.sock";
  Config.Dir = Dir.Path + "/store";
  Config.Log.Level = LogLevel::Error;
  CacheDaemon D(std::move(Config));
  std::string Error;
  ASSERT_TRUE(D.start(Error)) << Error;
  std::thread Runner([&D] { D.run(); });

  pingSequentially(D.addr().str(), 8); // let allocator arenas settle
  long Before = vmSizeKb();
  pingSequentially(D.addr().str(), kSequentialConnections);
  long After = vmSizeKb();
  D.drain();
  Runner.join();
  if (Before < 0)
    GTEST_SKIP() << "no /proc/self/status";
  EXPECT_LT(After - Before, kLeakBoundKb)
      << "VmSize grew from " << Before << " to " << After << " KiB";
}

TEST(FrameServerDaemons, ServedSequentialConnectionsDoNotLeakStacks) {
  ScratchDir Dir;
  ServiceConfig Config;
  Config.Listen = "unix:" + Dir.Path + "/s.sock";
  Config.Workers = 1;
  Config.Base.Log.Level = LogLevel::Error;
  Server S(std::move(Config));
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  std::thread Runner([&S] { S.run(); });

  pingSequentially(S.addr().str(), 8);
  long Before = vmSizeKb();
  pingSequentially(S.addr().str(), kSequentialConnections);
  long After = vmSizeKb();
  S.requestDrainAsync();
  Runner.join();
  if (Before < 0)
    GTEST_SKIP() << "no /proc/self/status";
  EXPECT_LT(After - Before, kLeakBoundKb)
      << "VmSize grew from " << Before << " to " << After << " KiB";
}

TEST(FrameServerDaemons, ConcurrentCacheDrainsAllReportTheSyncedStore) {
  // Every drain call must return only once the store is synced, with the
  // same entry count; one that returns early reports 0 entries.
  for (int Round = 0; Round < 5; ++Round) {
    ScratchDir Dir;
    CacheDaemonConfig Config;
    Config.Listen = "unix:" + Dir.Path + "/c.sock";
    Config.Dir = Dir.Path + "/store";
    Config.Log.Level = LogLevel::Error;
    CacheDaemon D(std::move(Config));
    std::string Error;
    ASSERT_TRUE(D.start(Error)) << Error;
    std::thread Runner([&D] { D.run(); });
    {
      auto C = ServiceClient::connect(D.addr().str(), Error, 2000, 5000);
      ASSERT_NE(C, nullptr) << Error;
      JsonValue Put = JsonValue::object();
      Put.set("method", JsonValue::str("cache.put"));
      Put.set("segment", JsonValue::str("smt"));
      Put.set("key", JsonValue::str(std::string(31, '0') + "1"));
      Put.set("payload", JsonValue::str("x"));
      JsonValue Resp;
      ASSERT_TRUE(C->call(Put, Resp, Error)) << Error;
      ASSERT_TRUE(Resp.getBool("stored")) << Resp.dump();
    }

    std::atomic<int> Ready{0};
    std::vector<std::uint64_t> Entries(4, 99);
    std::vector<std::thread> Drainers;
    for (std::size_t I = 0; I < Entries.size(); ++I)
      Drainers.emplace_back([&, I] {
        Ready.fetch_add(1);
        while (Ready.load() < static_cast<int>(Entries.size()))
          std::this_thread::yield();
        Entries[I] = D.drain();
      });
    for (std::thread &T : Drainers)
      T.join();
    Runner.join();
    for (std::uint64_t E : Entries)
      EXPECT_EQ(E, 1u) << "round " << Round;
  }
}
