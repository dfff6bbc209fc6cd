//===- se2gis_cached.cpp - Shared cache tier daemon -------------*- C++-*-===//
///
/// \file
/// The `se2gis_cached` daemon: a standalone shared cache node
/// (src/cachenet/CacheDaemon.h) that owns one DiskStore directory and
/// serves cache.get / cache.put / cache.stats / cache.drain over the
/// service frame protocol, so one solve on any node warms the whole fleet.
///
///   se2gis_cached [options]
///     --listen ADDR          unix:<path> or tcp:<host>:<port>
///                            (default: unix:.se2gis-cached.sock; tcp port
///                            0 binds an ephemeral port, printed on startup)
///     --cache-dir DIR        store directory (default: ./.se2gis-cached;
///                            same on-disk format as a node's --cache-dir)
///     --metrics-addr ADDR    plain-HTTP Prometheus listener (unix:/tcp:)
///     --max-payload-bytes N  admission bound on one entry (default 4 MiB)
///     --compact-bytes N      segment compaction threshold (default 64 MiB)
///     --log-level error|warn|info|debug
///
/// SIGINT/SIGTERM trigger a graceful drain: refuse new entries, fsync the
/// store, exit 0.
///
/// **Client mode** (first argument is a subcommand) talks to a running
/// daemon:
///
///   se2gis_cached ping  --connect ADDR
///   se2gis_cached stats --connect ADDR
///   se2gis_cached drain --connect ADDR
///
/// Client exit codes: 0 success, 4 typed server error, 70 transport
/// failure, 64 usage.
///
//===----------------------------------------------------------------------===//

#include "cachenet/CacheDaemon.h"
#include "service/Client.h"
#include "support/Log.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace se2gis;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: se2gis_cached [--listen unix:<path>|tcp:<host>:<port>]\n"
      "                     [--cache-dir DIR]\n"
      "                     [--metrics-addr unix:<path>|tcp:<host>:<port>]\n"
      "                     [--max-payload-bytes N] [--compact-bytes N]\n"
      "                     [--log-level error|warn|info|debug]\n"
      "       se2gis_cached ping|stats|drain --connect ADDR\n");
}

CacheDaemon *ActiveDaemon = nullptr;

void onSignal(int) {
  if (ActiveDaemon)
    ActiveDaemon->requestDrainAsync();
}

/// One-shot framed request against a running daemon: connect (bounded),
/// send, print the response payload, map ok/error onto exit codes.
int clientMain(const char *Method, int argc, char **argv) {
  std::string Connect;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--connect" && I + 1 < argc) {
      Connect = argv[++I];
    } else {
      logf(LogLevel::Error, "cached", "unknown option '%s'", Arg.c_str());
      usage();
      return 64;
    }
  }
  if (Connect.empty()) {
    logf(LogLevel::Error, "cached", "%s needs --connect ADDR", Method);
    usage();
    return 64;
  }

  // A bad address is a usage error (64); an unreachable daemon a
  // transport failure (70), after at most the 2-s connect bound.
  ServiceAddr Addr;
  std::string Error;
  if (!parseServiceAddr(Connect, Addr, Error)) {
    logf(LogLevel::Error, "cached", "--connect: %s", Error.c_str());
    return 64;
  }
  auto Client = ServiceClient::connect(Connect, Error,
                                       /*ConnectTimeoutMs=*/2000,
                                       /*IoTimeoutMs=*/5000);
  JsonValue Resp;
  if (!Client || !Client->call(Method, Resp, Error)) {
    logf(LogLevel::Error, "cached", "%s", Error.c_str());
    return 70;
  }
  std::printf("%s\n", Resp.dump().c_str());
  return Resp.getBool("ok") ? 0 : 4;
}

} // namespace

int main(int argc, char **argv) {
  if (argc > 1 && argv[1][0] != '-') {
    std::string Sub = argv[1];
    if (Sub == "ping")
      return clientMain("ping", argc, argv);
    if (Sub == "stats")
      return clientMain("cache.stats", argc, argv);
    if (Sub == "drain")
      return clientMain("cache.drain", argc, argv);
    logf(LogLevel::Error, "cached", "unknown subcommand '%s'", Sub.c_str());
    usage();
    return 64;
  }

  CacheDaemonConfig Config;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--listen" && I + 1 < argc) {
      Config.Listen = argv[++I];
    } else if (Arg == "--cache-dir" && I + 1 < argc) {
      Config.Dir = argv[++I];
    } else if (Arg == "--metrics-addr" && I + 1 < argc) {
      Config.MetricsAddr = argv[++I];
    } else if (Arg == "--max-payload-bytes" && I + 1 < argc) {
      long long V = std::atoll(argv[++I]);
      if (V < 1) {
        logf(LogLevel::Error, "cached",
             "--max-payload-bytes must be at least 1");
        return 64;
      }
      Config.MaxPayloadBytes = static_cast<std::size_t>(V);
    } else if (Arg == "--compact-bytes" && I + 1 < argc) {
      long long V = std::atoll(argv[++I]);
      if (V < 1) {
        logf(LogLevel::Error, "cached", "--compact-bytes must be at least 1");
        return 64;
      }
      Config.CompactBytes = static_cast<std::uint64_t>(V);
    } else if (Arg == "--log-level" && I + 1 < argc) {
      std::string Name = argv[++I];
      auto Level = parseLogLevel(Name);
      if (!Level) {
        logf(LogLevel::Error, "cached", "unknown log level '%s'",
             Name.c_str());
        return 64;
      }
      Config.Log.Level = *Level;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      logf(LogLevel::Error, "cached", "unknown option '%s'", Arg.c_str());
      usage();
      return 64;
    }
  }

  const bool HasMetrics = !Config.MetricsAddr.empty();
  CacheDaemon D(std::move(Config));
  std::string Error;
  if (!D.start(Error)) {
    logf(LogLevel::Error, "cached", "%s", Error.c_str());
    return 64;
  }

  ActiveDaemon = &D;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::printf("se2gis_cached: listening on %s\n", D.addr().str().c_str());
  if (HasMetrics)
    std::printf("se2gis_cached: metrics on %s\n",
                D.metricsAddr().str().c_str());
  std::fflush(stdout);

  D.run(); // blocks until a drain (protocol or signal) completes

  ActiveDaemon = nullptr;
  std::printf("se2gis_cached: drained, exiting\n");
  return 0;
}
