#include "engine/thread_pool.hh"

#include "common/env.hh"
#include "common/logging.hh"

namespace tetris
{

ThreadPool::ThreadPool(int num_threads)
{
    if (num_threads < 1)
        num_threads = 1;
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock,
                   [this] { return queue_.empty() && activeTasks_ == 0; });
        stopping_ = true;
    }
    workReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    TETRIS_ASSERT(task != nullptr, "null task submitted");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        TETRIS_ASSERT(!stopping_, "submit on a stopping pool");
        queue_.push_back(std::move(task));
    }
    workReady_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && activeTasks_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
            ++activeTasks_;
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --activeTasks_;
        }
        idle_.notify_all();
    }
}

int
ThreadPool::resolveThreadCount(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(
        envInt("TETRIS_ENGINE_THREADS", 1, 4096, hw == 0 ? 1 : hw));
}

} // namespace tetris
