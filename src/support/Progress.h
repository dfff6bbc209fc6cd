//===- Progress.h - Live per-job progress publication -----------*- C++-*-===//
///
/// \file
/// Publication of "where is this job right now": solver threads write
/// coarse per-round snapshots (algorithm, round, candidate size, lemma
/// count, witness-vs-CHC channel state) into a mutex-guarded board; the
/// service's `status`/`stats` handlers copy it out from other threads.
///
/// Writes happen only at round granularity (never inside eval/SMT hot
/// loops) and a read is one struct copy, so the lock is never contended
/// for long. Writers from different portfolio race members share one board
/// and each touch only their own fields.
///
/// The board a thread publishes to is carried in a thread-local pointer
/// (\c setThreadProgressBoard) installed by the service worker for the
/// duration of a job and propagated manually into portfolio race threads
/// (they run on a dedicated ThreadPool and inherit nothing). With no
/// board installed, \c progressPublish is one thread-local read.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SUPPORT_PROGRESS_H
#define SE2GIS_SUPPORT_PROGRESS_H

#include <cstdint>
#include <cstring>
#include <mutex>
#include <utility>

namespace se2gis {

/// Fixed-size POD snapshot of a running job. char fields are NUL-padded
/// copies so the reader never chases pointers into a racing writer.
struct ProgressSnapshot {
  char Algorithm[16] = {}; ///< "se2gis", "segis", "segis-uc", "portfolio"
  char Activity[16] = {};  ///< "refine","coarsen","enum","witness","verify"
  char WitnessState[16] = {}; ///< witness channel: "", "probing", "found"
  char ChcState[16] = {};     ///< CHC channel: "", "encoding", "solving", ...
  std::uint64_t Round = 0;       ///< outer CEGIS/refinement round
  std::uint64_t Refinements = 0; ///< SE²GIS refinement count so far
  std::uint64_t Coarsenings = 0; ///< SE²GIS coarsening count so far
  std::uint64_t Lemmas = 0;      ///< lemmas learned from witnesses
  std::uint64_t CandidateSize = 0; ///< size of the last candidate (chars)
  std::uint64_t Terms = 0;         ///< enumerated terms (SEGIS ladder)
  std::uint64_t ChcRung = 0;       ///< CHC term-ladder rung in flight
  std::uint64_t ChcClauses = 0;    ///< Horn clauses in the current encoding
  std::uint64_t UpdatedNs = 0;     ///< trace-epoch stamp of the last write
};

/// Copies \p Src into the fixed char field \p Dst, truncating + NUL-ing.
/// Reads \p Src only up to its NUL or N-1 chars, whichever comes first.
template <std::size_t N> inline void progressSetStr(char (&Dst)[N], const char *Src) {
  std::size_t L = 0;
  if (Src)
    while (L + 1 < N && Src[L])
      ++L;
  if (L)
    std::memcpy(Dst, Src, L);
  std::memset(Dst + L, 0, N - L);
}

/// Mutex-guarded snapshot: writers mutate it under the lock, readers copy
/// it out under the lock.
class ProgressBoard {
public:
  /// Runs \p Fn(ProgressSnapshot&) under the board's lock. Multiple
  /// writers (portfolio race members) are serialized here; keep \p Fn to
  /// plain field assignments.
  template <typename FnT> void update(FnT &&Fn) {
    std::lock_guard<std::mutex> Lock(M);
    Fn(Data);
  }

  /// \returns a consistent copy of the current snapshot.
  ProgressSnapshot read() const {
    std::lock_guard<std::mutex> Lock(M);
    return Data;
  }

private:
  mutable std::mutex M;
  ProgressSnapshot Data;
};

/// Installs \p Board as the calling thread's publication target (nullptr
/// clears). The service worker sets it around a job; runRace re-installs
/// it inside each race member thread.
void setThreadProgressBoard(ProgressBoard *Board);

/// \returns the calling thread's publication target (nullptr when none).
ProgressBoard *threadProgressBoard();

/// Publishes via the thread's board, or does nothing when no board is
/// installed (CLI/suite/test runs): one thread-local load on that path.
template <typename FnT> inline void progressPublish(FnT &&Fn) {
  if (ProgressBoard *B = threadProgressBoard())
    B->update(std::forward<FnT>(Fn));
}

/// RAII installer for \c setThreadProgressBoard (restores the previous
/// target, so nested scopes compose).
class ProgressBoardScope {
public:
  explicit ProgressBoardScope(ProgressBoard *Board)
      : Prev(threadProgressBoard()) {
    setThreadProgressBoard(Board);
  }
  ~ProgressBoardScope() { setThreadProgressBoard(Prev); }
  ProgressBoardScope(const ProgressBoardScope &) = delete;
  ProgressBoardScope &operator=(const ProgressBoardScope &) = delete;

private:
  ProgressBoard *Prev;
};

} // namespace se2gis

#endif // SE2GIS_SUPPORT_PROGRESS_H
