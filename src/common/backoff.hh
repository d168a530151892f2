/**
 * @file
 * One retry policy for every "retry briefly" path (DESIGN.md §13):
 * capped exponential backoff with deterministic seeded jitter,
 * cancel-aware sleeping.
 *
 * Fixed retry delays either hammer a recovering resource or waste
 * seconds on one that came back instantly, and a plain sleep does not
 * answer a SIGINT promptly. Backoff centralizes the discipline:
 *
 *  - delays grow initialMs * multiplier^attempt, capped at maxMs;
 *  - each delay is jittered by a factor in [1-jitter, 1+jitter] drawn
 *    from a seeded Rng (common/random.hh), so concurrent retriers do
 *    not retry in lockstep — yet the same seed reproduces the same
 *    delays, keeping timing-sensitive tests deterministic;
 *  - sleep() slices the wait into <= 20 ms chunks and polls the
 *    CancelToken between slices, so shutdown latency stays bounded by
 *    a slice, not by the (possibly seconds-long) capped delay.
 *
 * Jitter only perturbs *when* a retry happens, never *what* it does,
 * so the campaign determinism contract (canonical JSON byte-parity)
 * is unaffected by the seed choice.
 */

#ifndef AOS_COMMON_BACKOFF_HH
#define AOS_COMMON_BACKOFF_HH

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/cancel.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace aos {

struct BackoffPolicy
{
    double initialMs = 10.0;   //!< First delay.
    double maxMs = 1000.0;     //!< Delay cap.
    double multiplier = 2.0;   //!< Growth per attempt.
    unsigned maxAttempts = 8;  //!< sleep() calls before giving up.
    double jitter = 0.25;      //!< Delay factor drawn from [1-j, 1+j].
    u64 seed = 0;              //!< Jitter Rng seed (determinism).
};

class Backoff
{
  public:
    explicit Backoff(const BackoffPolicy &policy,
                     const CancelToken *cancel = nullptr)
        : _policy(policy), _cancel(cancel),
          _rng(policy.seed ^ 0xb0ff'0ff5'1e77'e4ull)
    {
    }

    unsigned attempts() const { return _attempts; }
    double lastDelayMs() const { return _lastMs; }

    /** Forget past attempts (the resource recovered); jitter draws
     *  continue from the current Rng state. */
    void reset() { _attempts = 0; }

    /** The next delay in ms (advances the attempt counter). */
    double
    nextDelayMs()
    {
        double base = _policy.initialMs;
        for (unsigned i = 0; i < _attempts && base < _policy.maxMs; ++i)
            base *= _policy.multiplier;
        base = std::min(std::max(base, 0.0), _policy.maxMs);
        const double factor =
            1.0 + _policy.jitter * (2.0 * _rng.uniform() - 1.0);
        ++_attempts;
        _lastMs = std::max(0.0, base * factor);
        return _lastMs;
    }

    /**
     * Sleep for the next backoff delay. Returns false — without
     * sleeping — when the attempt budget is exhausted or the
     * CancelToken tripped; callers treat false as "stop retrying".
     * The wait is sliced so cancellation is observed within ~20 ms.
     */
    bool
    sleep()
    {
        if (_cancel && _cancel->cancelled())
            return false;
        if (_attempts >= _policy.maxAttempts)
            return false;
        double remaining = nextDelayMs();
        while (remaining > 0) {
            if (_cancel && _cancel->cancelled())
                return false;
            const double slice = std::min(remaining, 20.0);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(slice));
            remaining -= slice;
        }
        return true;
    }

  private:
    BackoffPolicy _policy;
    const CancelToken *_cancel;
    Rng _rng;
    unsigned _attempts = 0;
    double _lastMs = 0;
};

} // namespace aos

#endif // AOS_COMMON_BACKOFF_HH
