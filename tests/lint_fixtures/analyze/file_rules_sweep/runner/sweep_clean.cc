/**
 * @file
 * Lint fixture: the thread-primitive rule's carve-out. This file's
 * path starts with "runner/sweep", the one location where raw thread
 * primitives are sanctioned (the SweepPool implementation), so none of
 * the uses below may be reported — the self-test treats any diagnostic
 * here as spurious.
 */

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

namespace hopp::runner
{

inline int
poolStyleFanOut(int tasks)
{
    std::atomic<int> next{0};
    std::mutex mu;
    int done = 0;
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([&] {
            while (next.fetch_add(1) < tasks) {
                std::lock_guard<std::mutex> lock(mu);
                ++done;
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    return done;
}

} // namespace hopp::runner
