#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace codic {

CampaignEngine::CampaignEngine(int threads)
{
    if (threads <= 0)
        threads = static_cast<int>(std::thread::hardware_concurrency());
    threads_ = std::max(threads, 1);
}

void
CampaignEngine::forEach(size_t n,
                        const std::function<void(size_t)> &fn) const
{
    const size_t parts = std::min(n, static_cast<size_t>(threads_));
    if (parts <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    size_t error_index = n;
    const auto drain = [&] {
        size_t i = 0;
        try {
            while (!failed) {
                i = next++;
                if (i >= n)
                    return;
                fn(i);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lk(error_mutex);
            if (i < error_index) {
                error = std::current_exception();
                error_index = i;
            }
            failed = true;
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(parts - 1);
    try {
        while (workers.size() < parts - 1)
            workers.emplace_back(drain);
    } catch (...) {
        // The threads already started (and the caller) still drain
        // every index; they must be joined before this frame goes.
    }
    drain();
    for (std::thread &t : workers)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

std::vector<Rng>
forkStreams(uint64_t seed, size_t n)
{
    Rng root(seed);
    std::vector<Rng> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(root.fork(i));
    return out;
}

} // namespace codic
