//===- se2gis_served.cpp - Synthesis service daemon -------------*- C++-*-===//
///
/// \file
/// The `se2gis_served` daemon: a long-running multi-client synthesis
/// service (src/service/) accepting jobs over a Unix-domain or TCP socket.
///
///   se2gis_served [options]
///     --listen ADDR          unix:<path> or tcp:<host>:<port>
///                            (default: unix:./se2gis.sock; tcp port 0
///                            binds an ephemeral port, printed on startup)
///     --workers N            worker threads (0 = auto: max(1, hw/2))
///     --max-queue N          admission bound on queued jobs (default 64)
///     --drain-timeout-ms N   in-flight budget during drain (default 10000)
///     --metrics-addr ADDR    plain-HTTP Prometheus listener (unix:/tcp:)
///     --flight-dir DIR       flight-recorder dump directory
///     plus the solver flags of SolverConfig's settings table, shared by
///     every job (`se2gis_served --help` lists them); each overrides its
///     SE2GIS_* variable. The budget (--timeout-ms, default 5000) is the
///     default of a submit that carries no timeout_ms.
///
/// SIGINT/SIGTERM trigger a graceful drain: stop admitting, finish or
/// cancel in-flight work under the drain deadline, flush (fsync) the
/// persistent cache, exit 0.
///
//===----------------------------------------------------------------------===//

#include "core/SynthesisTask.h"
#include "service/Server.h"
#include "support/Diagnostics.h"
#include "support/Log.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace se2gis;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: se2gis_served [--listen unix:<path>|tcp:<host>:<port>]\n"
      "                     [--workers N] [--max-queue N]\n"
      "                     [--drain-timeout-ms N]\n"
      "                     [--metrics-addr unix:<path>|tcp:<host>:<port>]\n"
      "                     [--flight-dir DIR] [solver options]\n"
      "solver options (each overrides its SE2GIS_* variable):\n%s",
      solverFlagUsage().c_str());
}

/// The signal handler may only touch async-signal-safe state; the server
/// exposes requestDrainAsync (a single pipe write) for exactly this.
Server *ActiveServer = nullptr;

void onSignal(int) {
  if (ActiveServer)
    ActiveServer->requestDrainAsync();
}

} // namespace

int main(int argc, char **argv) {
  ServiceConfig Config;
  try {
    Config.Base = SolverConfig::fromEnv(/*DefaultTimeoutMs=*/5000);
    for (int I = 1; I < argc; ++I) {
      if (Config.Base.parseFlag(argc, argv, I))
        continue;
      std::string Arg = argv[I];
      if (Arg == "--listen" && I + 1 < argc) {
        Config.Listen = argv[++I];
      } else if (Arg == "--workers" && I + 1 < argc) {
        long V = std::atol(argv[++I]);
        Config.Workers = V > 0 ? static_cast<unsigned>(V) : 0;
      } else if (Arg == "--max-queue" && I + 1 < argc) {
        long V = std::atol(argv[++I]);
        if (V < 1)
          userError("--max-queue must be at least 1");
        Config.MaxQueue = static_cast<std::size_t>(V);
      } else if (Arg == "--drain-timeout-ms" && I + 1 < argc) {
        Config.DrainTimeoutMs = std::atoll(argv[++I]);
      } else if (Arg == "--metrics-addr" && I + 1 < argc) {
        Config.MetricsAddr = argv[++I];
      } else if (Arg == "--flight-dir" && I + 1 < argc) {
        Config.FlightDir = argv[++I];
      } else if (Arg == "--help" || Arg == "-h") {
        usage();
        return 0;
      } else {
        logf(LogLevel::Error, "served", "unknown option '%s'", Arg.c_str());
        usage();
        return 64;
      }
    }
    Config.Base.check();
  } catch (const UserError &E) {
    logf(LogLevel::Error, "served", "%s", E.what());
    return 64;
  }

  const bool HasMetrics = !Config.MetricsAddr.empty();
  Server S(std::move(Config));
  std::string Error;
  if (!S.start(Error)) {
    logf(LogLevel::Error, "served", "%s", Error.c_str());
    return 64;
  }

  ActiveServer = &S;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::printf("se2gis_served: listening on %s (%u workers)\n",
              S.addr().str().c_str(), S.workers());
  if (HasMetrics)
    std::printf("se2gis_served: metrics on %s\n",
                S.metricsAddr().str().c_str());
  std::fflush(stdout);

  S.run(); // blocks until a drain (protocol or signal) completes

  ActiveServer = nullptr;
  std::printf("se2gis_served: drained, exiting\n");
  return 0;
}
