//===- se2gis_fuzz.cpp - Differential fuzzing driver ------------*- C++-*-===//
///
/// \file
/// Generator-driven differential fuzzing of the whole solver stack. Each
/// case is sampled (src/gen/Generator.h), printed to the DSL, loaded back
/// through the real frontend, and run across a configuration matrix
/// (src/gen/Differential.h); any disagreement is shrunk to a minimal
/// reproducer (src/gen/Shrink.h) and written to the corpus directory.
///
///   se2gis_fuzz --gen-seed N --cases N
///       [--timeout-ms N]        per-config budget (default 2000)
///       [--matrix small|full]   config matrix (full adds chc-only + disk)
///       [--cache-addr ADDR]     add a remote-cache cold/warm column
///                               against a running se2gis_cached
///       [--corpus DIR]          write <name>.se2 + <name>.json reproducers
///       [--no-shrink]           keep failing cases unshrunk
///       [--replay FILE]         run one DSL file through the matrix
///       [--print-source]        echo each case's source before running it
///       [--trace PATH]          Chrome trace (fuzz.case spans)
///       [--inject-bug]          test-only: flip one verdict per case to
///                               exercise classify/shrink/corpus end-to-end
///
/// Output is byte-for-byte deterministic for a fixed seed and flags: the
/// generator never reads wall clock or solver timing, and every line
/// printed is derived from (seed, case index, verdicts).
///
/// Exit code: 0 no failures (timeout-only cases are fine), 1 failures
/// found, 64 usage.
///
//===----------------------------------------------------------------------===//

#include "core/SynthesisTask.h"
#include "gen/Differential.h"
#include "gen/Generator.h"
#include "gen/Shrink.h"
#include "support/Diagnostics.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

using namespace se2gis;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: se2gis_fuzz --gen-seed N --cases N\n"
               "                   [--timeout-ms N] [--matrix small|full]\n"
               "                   [--cache-addr ADDR]\n"
               "                   [--corpus DIR] [--no-shrink]\n"
               "                   [--replay FILE] [--print-source]\n"
               "                   [--trace PATH] [--inject-bug]\n");
}

void writeManifest(std::ostream &OS, const std::string &Name,
                   uint64_t GenSeed, unsigned CaseIndex,
                   const CaseReport &Rep, const DiffOptions &Opts,
                   bool FullMatrix, size_t OrigBytes, size_t ShrunkBytes,
                   const ShrinkStats &SS) {
  OS << "{\n";
  OS << "  \"name\": \"" << jsonEscape(Name) << "\",\n";
  OS << "  \"gen_seed\": " << GenSeed << ",\n";
  OS << "  \"case_index\": " << CaseIndex << ",\n";
  OS << "  \"kind\": \"" << failureKindName(Rep.Kind) << "\",\n";
  OS << "  \"note\": \"" << jsonEscape(Rep.Note) << "\",\n";
  OS << "  \"timeout_ms\": " << Opts.TimeoutMs << ",\n";
  OS << "  \"matrix\": \"" << (FullMatrix ? "full" : "small") << "\",\n";
  OS << "  \"injected\": " << (Opts.InjectBug ? "true" : "false") << ",\n";
  OS << "  \"original_bytes\": " << OrigBytes << ",\n";
  OS << "  \"shrunk_bytes\": " << ShrunkBytes << ",\n";
  OS << "  \"shrink_attempts\": " << SS.Attempts << ",\n";
  OS << "  \"shrink_accepted\": " << SS.Accepted << ",\n";
  OS << "  \"results\": [";
  for (size_t I = 0; I < Rep.Results.size(); ++I) {
    const ConfigResult &R = Rep.Results[I];
    OS << (I ? ",\n              " : "\n              ");
    OS << "{\"config\": \"" << jsonEscape(R.Label) << "\", \"verdict\": \""
       << verdictName(R.V) << "\", \"source\": \""
       << (R.SourceLabel.empty() ? verdictSourceName(R.Source)
                                 : R.SourceLabel.c_str())
       << "\"}";
  }
  OS << "\n  ]\n}\n";
}

struct Totals {
  unsigned Cases = 0, Ok = 0, TimeoutOnly = 0, Failures = 0, Exhausted = 0;
  unsigned ByKind[6] = {};
};

} // namespace

int main(int argc, char **argv) {
  // Line-buffer stdout so a crash mid-case cannot swallow the lines that
  // identify the crashing case.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  uint64_t GenSeed = 0;
  bool SeedSet = false;
  unsigned Cases = 100;
  bool FullMatrix = false;
  std::string CorpusDir, ReplayFile, TracePath;
  bool NoShrink = false, PrintSource = false, InjectBug = false;
  DiffOptions Opts;

  try {
    // The environment's budget first, flags win.
    Opts.TimeoutMs =
        SolverConfig::fromEnv(/*DefaultTimeoutMs=*/2000).Algo.TimeoutMs;
  } catch (const UserError &E) {
    logf(LogLevel::Error, "fuzz", "%s", E.what());
    return 64;
  }

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        logf(LogLevel::Error, "fuzz", "%s needs a value", Flag);
        usage();
        std::exit(64);
      }
      return argv[++I];
    };
    if (A == "--gen-seed") {
      GenSeed = std::strtoull(Value("--gen-seed"), nullptr, 10);
      SeedSet = true;
    } else if (A == "--cases") {
      Cases = static_cast<unsigned>(std::atoi(Value("--cases")));
    } else if (A == "--timeout-ms") {
      Opts.TimeoutMs = std::atoll(Value("--timeout-ms"));
    } else if (A == "--matrix") {
      std::string V = Value("--matrix");
      if (V == "small")
        FullMatrix = false;
      else if (V == "full")
        FullMatrix = true;
      else {
        logf(LogLevel::Error, "fuzz", "--matrix expects small|full");
        return 64;
      }
    } else if (A == "--cache-addr") {
      Opts.RemoteAddr = Value("--cache-addr");
    } else if (A == "--corpus") {
      CorpusDir = Value("--corpus");
    } else if (A == "--no-shrink") {
      NoShrink = true;
    } else if (A == "--replay") {
      ReplayFile = Value("--replay");
    } else if (A == "--print-source") {
      PrintSource = true;
    } else if (A == "--trace") {
      TracePath = Value("--trace");
    } else if (A == "--inject-bug") {
      InjectBug = true;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      logf(LogLevel::Error, "fuzz", "unknown flag '%s'", A.c_str());
      usage();
      return 64;
    }
  }
  Opts.InjectBug = InjectBug;

  if (!TracePath.empty())
    traceConfigure(TracePath);

  std::vector<FuzzConfigSpec> Matrix =
      defaultMatrix(FullMatrix, /*WithRemote=*/!Opts.RemoteAddr.empty());

  // Disk/remote-cache configs need a scratch directory; share the corpus
  // dir's parent when given, else a fixed path under the system temp dir.
  if (FullMatrix || !Opts.RemoteAddr.empty()) {
    Opts.CacheDirBase =
        (std::filesystem::temp_directory_path() / "se2gis_fuzz_cache")
            .string();
    std::error_code EC;
    std::filesystem::remove_all(Opts.CacheDirBase, EC);
  }

  // --- Replay mode: one file through the matrix, full report, done.
  if (!ReplayFile.empty()) {
    std::ifstream In(ReplayFile);
    if (!In) {
      logf(LogLevel::Error, "fuzz", "cannot read %s", ReplayFile.c_str());
      return 64;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    CaseReport Rep = runSourceDifferential(SS.str(), 0, Matrix, Opts);
    std::printf("replay %s: %s\n", ReplayFile.c_str(), Rep.str().c_str());
    if (!TracePath.empty())
      traceFlush();
    return isFailure(Rep.Kind) ? 1 : 0;
  }

  if (!SeedSet) {
    logf(LogLevel::Error, "fuzz", "--gen-seed is required");
    usage();
    return 64;
  }

  if (!CorpusDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(CorpusDir, EC);
    if (EC) {
      logf(LogLevel::Error, "fuzz", "cannot create corpus dir %s",
           CorpusDir.c_str());
      return 64;
    }
  }

  Totals T;
  for (unsigned Case = 0; Case < Cases; ++Case) {
    ++T.Cases;
    std::optional<GenCase> C = generateCase(GenSeed, Case);
    if (!C) {
      ++T.Exhausted;
      std::printf("case %04u: generation exhausted\n", Case);
      continue;
    }
    std::string Src = caseSource(*C);
    if (PrintSource)
      std::printf("case %04u source:\n%s", Case, Src.c_str());

    CaseReport Rep = runCaseDifferential(*C, Matrix, Opts);
    ++T.ByKind[static_cast<unsigned>(Rep.Kind)];
    std::printf("case %04u: %s\n", Case, Rep.str().c_str());

    if (Rep.Kind == FailureKind::None) {
      ++T.Ok;
      continue;
    }
    if (Rep.Kind == FailureKind::TimeoutOnly) {
      ++T.TimeoutOnly;
      continue;
    }
    ++T.Failures;

    // --- Shrink to a minimal reproducer of the same failure class.
    GenCase Minimal = *C;
    ShrinkStats SS;
    CaseReport MinRep = Rep;
    if (!NoShrink) {
      FailureKind Want = Rep.Kind;
      auto StillFails = [&](const GenCase &Cand) {
        return runCaseDifferential(Cand, Matrix, Opts).Kind == Want;
      };
      Minimal = shrinkCase(*C, StillFails, /*MaxEvals=*/200, &SS);
      MinRep = runCaseDifferential(Minimal, Matrix, Opts);
      std::printf("case %04u: shrunk %zu -> %zu bytes (%u/%u accepted)\n",
                  Case, Src.size(), caseSource(Minimal).size(), SS.Accepted,
                  SS.Attempts);
    }

    if (!CorpusDir.empty()) {
      std::ostringstream NameSS;
      NameSS << "seed" << GenSeed << "_case" << Case << "_"
             << failureKindName(MinRep.Kind);
      std::string Name = NameSS.str();
      std::string MinSrc = caseSource(Minimal);
      {
        std::ofstream Out(CorpusDir + "/" + Name + ".se2");
        Out << MinSrc;
      }
      {
        std::ofstream Out(CorpusDir + "/" + Name + ".json");
        writeManifest(Out, Name, GenSeed, Case, MinRep, Opts, FullMatrix,
                      Src.size(), MinSrc.size(), SS);
      }
      std::printf("case %04u: reproducer written to %s/%s.se2\n", Case,
                  CorpusDir.c_str(), Name.c_str());
    }
  }

  std::printf("fuzz summary: %u cases, %u ok, %u timeout-only, %u failures"
              " (%u contradictions, %u evidence, %u crashes, %u round-trip)"
              ", %u exhausted\n",
              T.Cases, T.Ok, T.TimeoutOnly, T.Failures,
              T.ByKind[static_cast<unsigned>(FailureKind::Contradiction)],
              T.ByKind[static_cast<unsigned>(FailureKind::EvidenceMismatch)],
              T.ByKind[static_cast<unsigned>(FailureKind::Crash)],
              T.ByKind[static_cast<unsigned>(FailureKind::RoundTripFail)],
              T.Exhausted);

  if (!TracePath.empty())
    traceFlush();
  return T.Failures ? 1 : 0;
}
