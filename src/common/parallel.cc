#include "parallel.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace hintm
{

void
parallelFor(unsigned workers, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    // Never more threads than items: an oversized request (--jobs
    // 100000) must not try to spawn threads that would sit idle.
    if (workers > n)
        workers = unsigned(n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next_index{0};
    std::mutex mu;
    std::exception_ptr first_error;
    const auto work = [&] {
        for (std::size_t i; (i = next_index++) < n;) {
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mu);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(workers);
    try {
        for (unsigned t = 0; t < workers; ++t)
            threads.emplace_back(work);
    } catch (const std::system_error &) {
        // Out of host threads: the ones already running still claim
        // every index.
        if (threads.empty())
            throw;
    }
    for (std::thread &t : threads)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace hintm
