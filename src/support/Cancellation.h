//===- Cancellation.h - Cooperative cancellation and deadlines --*- C++-*-===//
///
/// \file
/// The resource-budget subsystem: a shareable \c CancellationToken and a
/// \c Deadline that every long-running loop in the library polls. The paper's
/// entire evaluation is defined by per-benchmark timeouts (Synduce reports
/// "timeout" as a first-class verdict), so budgets must flow through verdicts,
/// never crashes or hung workers.
///
/// The model is strictly cooperative:
///
///  - a \c CancellationToken is a copyable handle to shared cancel state;
///    any copy can request cancellation, every copy observes it. The
///    portfolio mode hands one token to both members and cancels the loser;
///    a suite harness can cancel a whole sweep the same way.
///  - a \c Deadline combines a wall-clock budget with an optional token.
///    Poll points (\c expired) sit at every loop head of the algorithm
///    drivers, between SGE/CEGIS rounds, between bounded-check
///    instantiations and induction cases, and — decimated via \c PollGate —
///    inside the enumerator's candidate hot loop.
///  - the SMT layer maps the *remaining* budget onto per-query Z3 limits
///    (\c queryBudgetMs feeding a deterministic rlimit), and a Z3 `unknown`
///    at an expired deadline is accounted as budget-exceeded rather than
///    solver incompleteness. The rlimit is a work budget, not a time
///    budget, and nothing interrupts a query in flight, so how far one hard
///    query overshoots the deadline is unbounded: a pigeonhole query was
///    measured at about 40x its slice, and nonlinear queries ignore the
///    rlimit (DESIGN.md "Cancellation model").
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SUPPORT_CANCELLATION_H
#define SE2GIS_SUPPORT_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace se2gis {

/// Why a run was asked to stop early.
enum class CancelReason : unsigned char {
  /// Not cancelled (or no token attached).
  None,
  /// Explicit cancellation (portfolio loser, harness shutdown).
  Cancelled,
  /// The wall-clock budget ran out.
  DeadlineExceeded
};

/// \returns a short stable name ("cancelled", ...).
const char *cancelReasonName(CancelReason R);

/// A copyable handle to shared cancellation state.
///
/// A default-constructed token is *empty*: it can never be cancelled and
/// costs nothing to poll. Use \c create() to mint a token with live state,
/// then copy it to every party that should observe (or request) the
/// cancellation. All operations are thread-safe.
class CancellationToken {
public:
  /// Creates an empty (inert) token.
  CancellationToken() = default;

  /// Mints a token with fresh shared state.
  static CancellationToken create() {
    CancellationToken T;
    T.S = std::make_shared<State>();
    return T;
  }

  /// \returns true when this token carries live state.
  bool valid() const { return S != nullptr; }

  /// Requests cancellation; a no-op on an empty token. The first reason
  /// wins; later requests do not overwrite it.
  void requestCancel(CancelReason R = CancelReason::Cancelled) const {
    if (!S)
      return;
    bool Expected = false;
    if (S->Flag.compare_exchange_strong(Expected, true,
                                        std::memory_order_acq_rel))
      S->Reason.store(static_cast<unsigned char>(R),
                      std::memory_order_release);
  }

  /// \returns true once any copy of this token requested cancellation.
  bool cancelRequested() const {
    return S && S->Flag.load(std::memory_order_relaxed);
  }

  /// \returns the recorded reason (None while not cancelled).
  CancelReason reason() const {
    if (!cancelRequested())
      return CancelReason::None;
    return static_cast<CancelReason>(
        S->Reason.load(std::memory_order_acquire));
  }

private:
  struct State {
    std::atomic<bool> Flag{false};
    std::atomic<unsigned char> Reason{
        static_cast<unsigned char>(CancelReason::None)};
  };
  std::shared_ptr<State> S;
};

/// A point in time after which work must stop.
///
/// A default-constructed deadline never expires. Deadlines are cheap values
/// and are passed by copy through the solver stack; they may additionally
/// carry a \c CancellationToken, whose cancellation also counts as expiry.
class Deadline {
public:
  /// Creates a never-expiring deadline.
  Deadline() : Unlimited(true) {}

  /// Creates a deadline \p BudgetMs milliseconds from now; a non-positive
  /// budget yields an unlimited deadline.
  static Deadline afterMs(std::int64_t BudgetMs) {
    Deadline D;
    if (BudgetMs <= 0)
      return D;
    D.Unlimited = false;
    D.End = Clock::now() + std::chrono::milliseconds(BudgetMs);
    return D;
  }

  /// Attaches a cooperative cancellation token: the deadline also counts as
  /// expired once the token is cancelled.
  void setToken(CancellationToken T) { Token = std::move(T); }

  /// \returns true once the deadline has passed or cancellation was
  /// requested.
  bool expired() const {
    if (Token.cancelRequested())
      return true;
    return !Unlimited && Clock::now() >= End;
  }

  /// \returns remaining budget in milliseconds, clamped at zero (also zero
  /// when cancelled); a large sentinel when unlimited.
  std::int64_t remainingMs() const {
    if (Token.cancelRequested())
      return 0;
    if (Unlimited)
      return INT64_C(1) << 40;
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    End - Clock::now())
                    .count();
    return Left > 0 ? Left : 0;
  }

  /// Clamps a per-query budget to the remaining time: the Z3 budget mapping.
  /// \returns min(\p PerQueryMs, remaining), or 0 when already expired — a
  /// zero budget means "do not even start the query".
  int queryBudgetMs(int PerQueryMs) const {
    std::int64_t Left = remainingMs();
    if (Left <= 0)
      return 0;
    if (PerQueryMs > 0 && PerQueryMs < Left)
      return PerQueryMs;
    return static_cast<int>(Left > INT32_MAX ? INT32_MAX : Left);
  }

private:
  using Clock = std::chrono::steady_clock;
  bool Unlimited = true;
  Clock::time_point End{};
  CancellationToken Token;
};

/// Decimated deadline polling for hot loops: checking the clock per
/// enumerated candidate would dominate the enumerator, so \c expired is
/// consulted only every \p Stride ticks (a power of two).
class PollGate {
public:
  explicit PollGate(unsigned Stride = 1024) : Mask(Stride - 1) {}

  /// \returns true when this tick hit the stride AND the deadline expired.
  bool tick(const Deadline &D) {
    return (++Ticks & Mask) == 0 && D.expired();
  }

private:
  unsigned Ticks = 0;
  unsigned Mask;
};

} // namespace se2gis

#endif // SE2GIS_SUPPORT_CANCELLATION_H
