#include "common/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"

namespace advh::parallel {

namespace {
// Sanity ceiling for the ADVH_THREADS override: far above any real
// machine, low enough to catch unit-confused values (e.g. a millicore
// count pasted from a container spec).
constexpr std::uint64_t kMaxThreadsEnv = 4096;
}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t default_threads() {
  // ADVH_THREADS=0 means "all cores".
  const auto v = env::integer("ADVH_THREADS", 0, kMaxThreadsEnv);
  return v.value_or(0) == 0 ? hardware_threads() : static_cast<std::size_t>(*v);
}

std::size_t resolve_threads(std::size_t requested) {
  return requested == 0 ? default_threads() : requested;
}

struct thread_pool::impl {
  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  // Dispatch state for the current run_chunks call.
  std::uint64_t generation = 0;
  std::size_t n = 0;
  const std::function<void(std::size_t, std::size_t, std::size_t)>* fn =
      nullptr;
  std::size_t pending = 0;
  std::exception_ptr first_error;
  bool shutdown = false;
  std::vector<std::thread> threads;

  static void chunk_bounds(std::size_t n, std::size_t workers, std::size_t w,
                           std::size_t& begin, std::size_t& end) noexcept {
    begin = w * n / workers;
    end = (w + 1) * n / workers;
  }

  void run_one(std::size_t worker, std::size_t workers,
               const std::function<void(std::size_t, std::size_t,
                                        std::size_t)>& f,
               std::size_t total) {
    std::size_t begin = 0, end = 0;
    chunk_bounds(total, workers, worker, begin, end);
    if (begin < end) f(begin, end, worker);
  }

  void worker_loop(std::size_t worker, std::size_t workers) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t, std::size_t, std::size_t)>* f =
          nullptr;
      std::size_t total = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock,
                     [&] { return shutdown || generation != seen; });
        if (shutdown) return;
        seen = generation;
        f = fn;
        total = n;
      }
      std::exception_ptr err;
      try {
        run_one(worker, workers, *f, total);
      } catch (...) {
        err = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (err && !first_error) first_error = err;
        if (--pending == 0) done_cv.notify_all();
      }
    }
  }
};

thread_pool::thread_pool(std::size_t workers)
    : impl_(new impl), workers_(workers == 0 ? 1 : workers) {
  impl_->threads.reserve(workers_ - 1);
  for (std::size_t w = 1; w < workers_; ++w) {
    impl_->threads.emplace_back(
        [this, w] { impl_->worker_loop(w, workers_); });
  }
}

thread_pool::~thread_pool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

void thread_pool::run_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t,
                                            std::size_t)>& fn) {
  ADVH_CHECK_MSG(fn != nullptr, "thread_pool::run_chunks needs a callable");
  if (n == 0) return;
  if (workers_ == 1) {
    impl_->run_one(0, 1, fn, n);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->n = n;
    impl_->fn = &fn;
    impl_->pending = workers_ - 1;
    impl_->first_error = nullptr;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();

  // The calling thread is worker 0; its exception still lets the other
  // workers drain before rethrowing.
  std::exception_ptr caller_error;
  try {
    impl_->run_one(0, workers_, fn, n);
  } catch (...) {
    caller_error = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->done_cv.wait(lock, [&] { return impl_->pending == 0; });
  impl_->fn = nullptr;
  std::exception_ptr err = caller_error ? caller_error : impl_->first_error;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  ADVH_CHECK_MSG(fn != nullptr, "parallel_for needs a callable");
  const std::size_t workers = resolve_threads(threads);
  if (workers <= 1 || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  thread_pool pool(std::min(workers, n));
  pool.run_chunks(n, [&](std::size_t begin, std::size_t end, std::size_t w) {
    for (std::size_t i = begin; i < end; ++i) fn(i, w);
  });
}

}  // namespace advh::parallel
