#include "util/signals.hpp"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include "util/cancel.hpp"

namespace bpnsp::signals {

namespace {

std::atomic<int> gFired{0};
std::atomic<int> gLastSignal{0};
std::atomic<bool> gDrain{false};
std::atomic<bool> gInstalled{false};
std::atomic<FirstSignalHook> gHook{nullptr};

void
handler(int sig)
{
    const int nth = gFired.fetch_add(1, std::memory_order_relaxed);
    gLastSignal.store(sig, std::memory_order_relaxed);
    if (nth >= 1) {
        // Second signal: the user means *now*.
        std::_Exit(128 + sig);
    }
    globalCancelToken().requestCancel(CancelCause::Signal);
    if (gDrain.load(std::memory_order_relaxed))
        return;   // a supervisor drains, flushes, and exits
    if (FirstSignalHook hook = gHook.load(std::memory_order_relaxed);
        hook != nullptr)
        hook(sig);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

} // namespace

void
installHandlers()
{
    bool expected = false;
    if (!gInstalled.compare_exchange_strong(expected, true))
        return;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = handler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

void
setFirstSignalHook(FirstSignalHook hook)
{
    gHook.store(hook, std::memory_order_relaxed);
}

void
setDrainMode(bool graceful)
{
    gDrain.store(graceful, std::memory_order_relaxed);
}

void
installGracefulDrain()
{
    setDrainMode(true);
    installHandlers();
}

int
firedCount()
{
    return gFired.load(std::memory_order_relaxed);
}

int
lastSignal()
{
    return gLastSignal.load(std::memory_order_relaxed);
}

} // namespace bpnsp::signals
