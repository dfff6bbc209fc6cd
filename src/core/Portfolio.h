//===- Portfolio.h - SE2GIS ∥ SEGIS+UC portfolio ----------------*- C++-*-===//
///
/// \file
/// The portfolio mode the paper suggests in §8.2: "SE²GIS and SEGIS+UC can
/// easily complement each other in a portfolio version of Synduce, which
/// runs both algorithms in parallel, and waits for the first result."
/// Each algorithm runs in its own thread (every SMT query owns its Z3
/// context, so the solver stack is thread-compatible); the first conclusive
/// verdict (realizable/unrealizable) wins.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_CORE_PORTFOLIO_H
#define SE2GIS_CORE_PORTFOLIO_H

#include "core/Algorithms.h"

#include <vector>

namespace se2gis {

/// Races \p Members concurrently on \p P: every member shares one
/// cancellation token (chained to the caller's), the first conclusive
/// verdict (realizable/unrealizable) wins and cancels the losers
/// cooperatively. On a tie or when nobody concludes, earlier members are
/// preferred. Members are dispatched to the bare per-algorithm runners, so
/// no nested race is spawned. The winning member's Evidence and phase times
/// are kept, while ElapsedMs and Perf cover the whole race; a race won by
/// the CHC channel bumps the chc_race_wins perf counter.
Outcome runRace(const std::vector<AlgorithmKind> &Members, const Problem &P,
                const AlgoOptions &Opts);

/// Runs SE²GIS and SEGIS+UC concurrently on \p P — plus the CHC channel
/// unless the resolved UnrealMode is Witness; returns the first conclusive
/// result (or the "better" inconclusive one when everyone fails). The
/// returned stats carry the winning algorithm's name in \c Detail when it
/// would otherwise be empty.
Outcome runPortfolio(const Problem &P, const AlgoOptions &Opts);

} // namespace se2gis

#endif // SE2GIS_CORE_PORTFOLIO_H
