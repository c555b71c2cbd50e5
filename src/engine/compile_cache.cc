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
        // The release store pairs with the lock-free acquire in
        // get(): a reader that observes ready_ sees result_.
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

constexpr uint8_t kEmpty = 0;
constexpr uint8_t kFull = 1;
constexpr uint8_t kDead = 2;

/** Smallest read-view capacity; must be a power of two. */
constexpr size_t kMinViewCapacity = 16;

/** Smallest power of two >= n, clamped to [1, kMaxShards]. */
int
nextPowerOfTwo(unsigned n)
{
    int p = 1;
    while (p < kMaxShards && static_cast<unsigned>(p) < n)
        p *= 2;
    return p;
}

/** Load-factor gate: can a view of `capacity` take `live` keys and
 *  still keep >= 1/4 of its slots empty (probe termination)? */
bool
fitsView(size_t live, size_t capacity)
{
    return live * 4 <= capacity * 3;
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
    for (int i = 0; i < numShards_; ++i) {
        shards_[i].view.store(new View(kMinViewCapacity),
                              std::memory_order_release);
    }
}

CompileCache::~CompileCache()
{
    for (int i = 0; i < numShards_; ++i)
        delete shards_[i].view.load(std::memory_order_acquire);
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
CompileCache::findInView(const Shard &shard, uint64_t key)
{
    // Pure loads: acquire the view pointer, then linear-probe with an
    // acquire load per slot state. Views keep >= 1/4 of their slots
    // empty at all times, so the probe always terminates, and a view
    // observed through the atomic pointer is never freed while the
    // cache lives, so a stale pointer is still safe to walk.
    const View *view = shard.view.load(std::memory_order_acquire);
    size_t i = key & view->mask;
    while (true) {
        const Slot &slot = view->slots[i];
        const uint8_t state = slot.state.load(std::memory_order_acquire);
        if (state == kEmpty)
            return nullptr;
        if (state == kFull && slot.key == key)
            return slot.entry;
        i = (i + 1) & view->mask;
    }
}

void
CompileCache::publishToView(Shard &shard, uint64_t key,
                            std::shared_ptr<Entry> entry)
{
    View *view = shard.view.load(std::memory_order_relaxed);
    if (!fitsView(view->used + 1, view->mask + 1)) {
        // Dead slots are never reused (a reader may still be copying
        // the entry of a slot it saw kFull), so growth also reclaims
        // tombstones: size for the live key set, not `used`.
        size_t capacity = kMinViewCapacity;
        while (!fitsView(shard.entries.size(), capacity))
            capacity *= 2;
        rebuildView(shard, capacity);
        return; // the rebuild placed `key` from the authoritative map
    }
    size_t i = key & view->mask;
    while (view->slots[i].state.load(std::memory_order_relaxed) !=
           kEmpty)
        i = (i + 1) & view->mask;
    Slot &slot = view->slots[i];
    slot.key = key;
    slot.entry = std::move(entry);
    // Release pairs with the reader's acquire on state: observing
    // kFull implies key and entry are visible.
    slot.state.store(kFull, std::memory_order_release);
    ++view->used;
}

void
CompileCache::tombstoneInView(Shard &shard, uint64_t key)
{
    View *view = shard.view.load(std::memory_order_relaxed);
    size_t i = key & view->mask;
    while (true) {
        Slot &slot = view->slots[i];
        const uint8_t state =
            slot.state.load(std::memory_order_relaxed);
        if (state == kEmpty)
            return;
        if (state == kFull && slot.key == key) {
            // Tombstone only — the slot's entry pointer stays intact
            // so a reader mid-probe can still copy it safely; the
            // memory is reclaimed at the next rebuild.
            slot.state.store(kDead, std::memory_order_release);
            return;
        }
        i = (i + 1) & view->mask;
    }
}

void
CompileCache::rebuildView(Shard &shard, size_t capacity)
{
    auto next = std::make_unique<View>(capacity);
    for (const auto &[key, entry] : shard.entries) {
        size_t i = key & next->mask;
        while (next->slots[i].state.load(std::memory_order_relaxed) !=
               kEmpty)
            i = (i + 1) & next->mask;
        Slot &slot = next->slots[i];
        slot.key = key;
        slot.entry = entry;
        // Not yet published: plain ordering suffices, the release
        // store of the view pointer below fences everything.
        slot.state.store(kFull, std::memory_order_relaxed);
        ++next->used;
    }
    View *old = shard.view.load(std::memory_order_relaxed);
    shard.view.store(next.release(), std::memory_order_release);
    // Readers may still hold `old`; park it until the cache dies.
    shard.retired.emplace_back(old);
}

std::shared_ptr<CompileCache::Entry>
CompileCache::acquire(uint64_t key, bool &is_new)
{
    Shard &shard = shardFor(key);
    // Fast path: published hits never touch the shard mutex.
    if (auto entry = findInView(shard, key)) {
        is_new = false;
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        return entry;
    }
    auto lock = lockShard(shard);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
        // Raced with the inserter between our view probe and the
        // lock: still a hit, and still exactly one is_new per key.
        is_new = false;
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }
    is_new = true;
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    auto entry = std::make_shared<Entry>();
    shard.entries.emplace(key, entry);
    publishToView(shard, key, entry);
    return entry;
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
    if (shard.entries.erase(key) != 0)
        tombstoneInView(shard, key);
}

void
CompileCache::clear()
{
    for (int i = 0; i < numShards_; ++i) {
        auto lock = lockShard(shards_[i]);
        shards_[i].entries.clear();
        rebuildView(shards_[i], kMinViewCapacity);
        shards_[i].hits.store(0, std::memory_order_relaxed);
        shards_[i].misses.store(0, std::memory_order_relaxed);
    }
    lockWaitNs_.store(0);
}

} // namespace tetris
