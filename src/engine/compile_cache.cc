#include "engine/compile_cache.hh"

#include <chrono>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"

namespace tetris
{

void
CompileCache::Entry::publish(std::shared_ptr<const CompileResult> result)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        TETRIS_ASSERT(!ready_.load(std::memory_order_relaxed),
                      "cache entry published twice");
        result_ = std::move(result);
        // The release store pairs with the acquire load in get(): a
        // reader that observes ready_ sees result_.
        ready_.store(true, std::memory_order_release);
    }
    published_.notify_all();
}

std::shared_ptr<const CompileResult>
CompileCache::Entry::get() const
{
    if (ready_.load(std::memory_order_acquire))
        return result_;
    std::unique_lock<std::mutex> lock(mutex_);
    published_.wait(lock, [this] {
        return ready_.load(std::memory_order_relaxed);
    });
    return result_;
}

namespace
{

constexpr int kMaxShards = 1024;

/** Smallest power of two >= n, clamped to [1, kMaxShards]. */
int
nextPowerOfTwo(unsigned n)
{
    int p = 1;
    while (p < kMaxShards && static_cast<unsigned>(p) < n)
        p *= 2;
    return p;
}

} // namespace

int
CompileCache::resolveShardCount(int requested)
{
    if (requested > 0)
        return requested > kMaxShards ? kMaxShards : requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(envInt("TETRIS_CACHE_SHARDS", 1, kMaxShards,
                                   nextPowerOfTwo(hw == 0 ? 1 : hw)));
}

CompileCache::CompileCache(int num_shards)
    : numShards_(resolveShardCount(num_shards)),
      shards_(new Shard[static_cast<size_t>(numShards_)])
{
}

std::unique_lock<std::mutex>
CompileCache::lockShard(const Shard &shard) const
{
    std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
        // Contended: time the blocked wait only, so the common
        // uncontended acquisition stays two instructions.
        auto t0 = std::chrono::steady_clock::now();
        lock.lock();
        auto waited = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        lockWaitNs_.fetch_add(waited, std::memory_order_relaxed);
        if (lockWaitHist_ != nullptr)
            lockWaitHist_->record(waited);
    }
    return lock;
}

std::shared_ptr<CompileCache::Entry>
CompileCache::acquire(uint64_t key, bool &is_new)
{
    Shard &shard = shardFor(key);
    auto lock = lockShard(shard);
    auto [it, inserted] = shard.entries.try_emplace(key);
    is_new = inserted;
    if (inserted) {
        it->second = std::make_shared<Entry>(key);
        shard.misses.fetch_add(1, std::memory_order_relaxed);
    } else {
        shard.hits.fetch_add(1, std::memory_order_relaxed);
    }
    return it->second;
}

size_t
CompileCache::hits() const
{
    size_t total = 0;
    for (int i = 0; i < numShards_; ++i)
        total += shards_[i].hits.load(std::memory_order_relaxed);
    return total;
}

size_t
CompileCache::misses() const
{
    size_t total = 0;
    for (int i = 0; i < numShards_; ++i)
        total += shards_[i].misses.load(std::memory_order_relaxed);
    return total;
}

size_t
CompileCache::size() const
{
    size_t total = 0;
    for (int i = 0; i < numShards_; ++i) {
        auto lock = lockShard(shards_[i]);
        total += shards_[i].entries.size();
    }
    return total;
}

void
CompileCache::erase(uint64_t key)
{
    Shard &shard = shardFor(key);
    auto lock = lockShard(shard);
    shard.entries.erase(key);
}

void
CompileCache::clear()
{
    for (int i = 0; i < numShards_; ++i) {
        auto lock = lockShard(shards_[i]);
        shards_[i].entries.clear();
        shards_[i].hits.store(0, std::memory_order_relaxed);
        shards_[i].misses.store(0, std::memory_order_relaxed);
    }
    lockWaitNs_.store(0);
}

} // namespace tetris
