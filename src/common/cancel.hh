/**
 * @file
 * Cooperative cancellation (DESIGN.md §7.3).
 *
 * A CancelToken is one latched flag, polled at cancellation points
 * inside long-running loops (the OoO core's cycle loop, AosSystem's
 * fast-forward, the dataflow pre-pass, campaign workers between jobs).
 * Its one production tripper is the SIGINT/SIGTERM handler installed
 * by installShutdownHandlers(), which trips shutdownToken().
 *
 * Cancellation points raise a CancelledException, which the campaign
 * engine records as kCancelled and which must never be swallowed by
 * generic exception firewalls (it is the preemption mechanism, not a
 * failure).
 *
 * requestCancel() only stores to a lock-free atomic, so it is
 * async-signal-safe; installShutdownHandlers() relies on that.
 */

#ifndef AOS_COMMON_CANCEL_HH
#define AOS_COMMON_CANCEL_HH

#include <atomic>
#include <stdexcept>

namespace aos {

/** Raised at a cancellation point once cancellation is observed. */
class CancelledException : public std::runtime_error
{
  public:
    explicit CancelledException(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

class CancelToken
{
  public:
    /** Trip the token; it stays tripped. Async-signal-safe. */
    void
    requestCancel()
    {
        _cancelled.store(true, std::memory_order_release);
    }

    /** Cancellation-point check. */
    bool
    cancelled() const
    {
        return _cancelled.load(std::memory_order_acquire);
    }

    /** cancelled() that raises instead of returning true. */
    void
    throwIfCancelled() const
    {
        if (cancelled())
            throw CancelledException("shutdown requested");
    }

  private:
    std::atomic<bool> _cancelled{false};
};

/** The process-wide shutdown token (tripped by SIGINT/SIGTERM). */
CancelToken &shutdownToken();

/**
 * Idempotently install SIGINT/SIGTERM handlers that requestCancel()
 * shutdownToken(). The handlers only store to an atomic; the orderly
 * unwind (exit 130) happens at the harness level once the campaign
 * returns.
 */
void installShutdownHandlers();

} // namespace aos

#endif // AOS_COMMON_CANCEL_HH
