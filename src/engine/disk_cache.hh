/**
 * @file
 * Persistent on-disk compile-artifact store.
 *
 * Extends the in-memory CompileCache across processes: every
 * compilation keyed by Engine::jobKey can be frozen to a .tca
 * artifact (serialize/artifact.hh) and served back on the next run,
 * turning a repeated bench sweep into pure deserialization. Entries
 * shard by key prefix under the cache root:
 *
 *   $TETRIS_CACHE_DIR/<key[0:2]>/<key-16-hex>.tca
 *
 * load() reads the whole artifact with one sized read of the
 * regular file at that path and decodes it from that buffer.
 *
 * Durability rules:
 *  - writes are crash-safe: temp file in the final directory, then
 *    atomic rename — readers never observe a partial artifact;
 *  - any unreadable, truncated, corrupted, version-skewed, or
 *    foreign file — or anything at the path that is not a regular
 *    file — is a miss, never an error: the compilation simply reruns,
 *    and its store replaces a bad file;
 *  - a load hit refreshes the file's mtime, so trim(maxBytes) —
 *    oldest-mtime-first eviction — approximates LRU;
 *  - concurrent engines (threads or processes) may share one
 *    directory; the worst race outcome is a double compilation whose
 *    renames settle on equivalent bytes.
 *
 * Construction goes through open()/openFromEnv(), which validate the
 * directory (created recursively, probed for writability) and return
 * null — warning, not aborting — when the store cannot be used, so a
 * misconfigured cache degrades to cache-off.
 */

#ifndef TETRIS_ENGINE_DISK_CACHE_HH
#define TETRIS_ENGINE_DISK_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/compiler.hh"

namespace tetris
{

class DiskCache
{
  public:
    /** Aggregate of one stats() walk over the store. */
    struct Usage
    {
        size_t entries = 0;
        uint64_t bytes = 0;
    };

    /**
     * Open the store named by TETRIS_CACHE_DIR, with the eviction
     * budget from TETRIS_CACHE_MAX_BYTES (optional; integer byte
     * count, 0 or unset = unlimited). Null when the variable is
     * unset/empty or the directory is unusable (warned).
     */
    static std::shared_ptr<DiskCache> openFromEnv();

    /**
     * Open a store rooted at `dir` (created recursively; relative
     * paths resolve against the CWD). Null + warning when the path is
     * empty, cannot be resolved/created, or is not writable.
     */
    static std::shared_ptr<DiskCache> open(const std::string &dir,
                                           uint64_t max_bytes = 0);

    /**
     * Fetch the artifact for `key`; null on miss, including every
     * corruption mode. A hit refreshes the entry's LRU mtime.
     */
    std::shared_ptr<const CompileResult> load(uint64_t key) const;

    /** Persist one result (crash-safe). False on I/O failure. */
    bool store(uint64_t key, const CompileResult &result) const;

    /**
     * Evict oldest-mtime entries until the store holds at most
     * `max_bytes` of artifacts. Returns the number of files removed.
     */
    size_t trim(uint64_t max_bytes) const;

    /** Remove every artifact (the directory itself stays). */
    void clear() const;

    /** Walk the store and measure it. */
    Usage usage() const;

    const std::string &dir() const { return dir_; }
    /** Eviction budget applied by Engine teardown; 0 = unlimited. */
    uint64_t maxBytes() const { return maxBytes_; }

    /** Process-lifetime traffic counters (not persisted). */
    size_t hits() const { return hits_.load(); }
    size_t misses() const { return misses_.load(); }
    size_t writes() const { return writes_.load(); }

    /** Final artifact path for a key (shard dir included). */
    std::string pathFor(uint64_t key) const;

  private:
    DiskCache(std::string dir, uint64_t max_bytes)
        : dir_(std::move(dir)), maxBytes_(max_bytes)
    {
    }

    std::string dir_;
    uint64_t maxBytes_ = 0;
    mutable std::atomic<size_t> hits_{0};
    mutable std::atomic<size_t> misses_{0};
    mutable std::atomic<size_t> writes_{0};
};

} // namespace tetris

#endif // TETRIS_ENGINE_DISK_CACHE_HH
