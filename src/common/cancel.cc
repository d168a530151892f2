#include "common/cancel.hh"

#include <csignal>

namespace aos {

namespace {

void
shutdownHandler(int)
{
    // Only a lock-free atomic store: async-signal-safe.
    shutdownToken().requestCancel();
}

} // namespace

CancelToken &
shutdownToken()
{
    static CancelToken token;
    return token;
}

void
installShutdownHandlers()
{
    static std::atomic<bool> installed{false};
    bool expected = false;
    if (!installed.compare_exchange_strong(expected, true))
        return;
    // Force construction before a handler can run.
    (void)shutdownToken();
    struct sigaction sa{};
    sa.sa_handler = shutdownHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // No SA_RESTART: interrupt blocking syscalls too.
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

} // namespace aos
