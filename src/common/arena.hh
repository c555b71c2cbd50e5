/**
 * @file
 * Monotonic bump arena for per-job scratch memory.
 *
 * The compiler and synthesizer allocate the same transient buffers
 * (BFS parent/distance arrays, visit marks, work queues) thousands of
 * times per job, all sized by the device qubit count and all dead by
 * the end of the enclosing call. An Arena turns each of those
 * heap round-trips into a pointer bump: memory is carved from
 * geometrically-reused chunks, deallocate is a no-op, and a Frame
 * rewinds the bump pointer on scope exit so the footprint stays at
 * the high-water mark of one call tree instead of growing with the
 * job.
 *
 * Chunks are 64 KiB unless the constructor asks otherwise, which
 * covers the shipped topologies in one chunk. Allocations larger
 * than one chunk get a dedicated chunk, so no request can fail short
 * of the system allocator failing.
 *
 * Not thread-safe: one Arena belongs to one job/thread, which is
 * exactly the ownership the per-job BlockSynthesizer provides.
 */

#ifndef TETRIS_COMMON_ARENA_HH
#define TETRIS_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"

namespace tetris
{

class Arena
{
  public:
    /** Position of the bump pointer; see mark()/rewind(). */
    struct Marker
    {
        size_t chunk = 0;
        size_t used = 0;
    };

    explicit Arena(size_t chunk_bytes = kDefaultChunkBytes)
        : chunkBytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Bump-allocate `bytes` with the given power-of-two alignment. */
    void *allocate(size_t bytes, size_t alignment)
    {
        TETRIS_ASSERT(alignment != 0 &&
                          (alignment & (alignment - 1)) == 0 &&
                          alignment <= alignof(std::max_align_t),
                      "unsupported arena alignment");
        if (bytes == 0)
            bytes = 1;
        // Reuse the active chunk, then any later (rewound) chunk that
        // fits, then grow.
        for (; active_ < chunks_.size(); ++active_) {
            Chunk &c = chunks_[active_];
            const size_t at = alignUp(c.used, alignment);
            if (at + bytes <= c.capacity) {
                c.used = at + bytes;
                return c.data.get() + at;
            }
        }
        const size_t capacity =
            bytes + alignment > chunkBytes_ ? bytes + alignment
                                            : chunkBytes_;
        chunks_.push_back(Chunk{
            std::unique_ptr<unsigned char[]>(new unsigned char[capacity]),
            capacity, 0});
        active_ = chunks_.size() - 1;
        Chunk &c = chunks_.back();
        const size_t at = alignUp(c.used, alignment);
        c.used = at + bytes;
        return c.data.get() + at;
    }

    /** Current bump position, to rewind to later. */
    Marker mark() const { return Marker{active_, currentUsed()}; }

    /**
     * Roll the bump pointer back to `m`, making every allocation
     * since then reusable. Chunks stay owned (no free), so rewound
     * memory is recycled by later allocations.
     */
    void rewind(Marker m)
    {
        if (chunks_.empty())
            return;
        for (size_t i = m.chunk + 1; i < chunks_.size(); ++i)
            chunks_[i].used = 0;
        chunks_[m.chunk].used = m.used;
        active_ = m.chunk;
    }

    /** Rewind everything (chunks stay reserved). */
    void reset() { rewind(Marker{0, 0}); }

    /** Total bytes of chunk capacity held (the footprint). */
    size_t bytesReserved() const
    {
        size_t total = 0;
        for (const Chunk &c : chunks_)
            total += c.capacity;
        return total;
    }

    /**
     * RAII rewind scope: everything allocated while the Frame lives
     * is recycled when it dies. Arena-backed containers must not
     * outlive the Frame they were allocated under.
     */
    class Frame
    {
      public:
        explicit Frame(Arena &arena)
            : arena_(arena), marker_(arena.mark())
        {
        }
        ~Frame() { arena_.rewind(marker_); }

        Frame(const Frame &) = delete;
        Frame &operator=(const Frame &) = delete;

      private:
        Arena &arena_;
        Marker marker_;
    };

  private:
    static constexpr size_t kDefaultChunkBytes = 64 * 1024;

    struct Chunk
    {
        std::unique_ptr<unsigned char[]> data;
        size_t capacity;
        size_t used;
    };

    static size_t alignUp(size_t n, size_t alignment)
    {
        return (n + alignment - 1) & ~(alignment - 1);
    }

    size_t currentUsed() const
    {
        return active_ < chunks_.size() ? chunks_[active_].used : 0;
    }

    size_t chunkBytes_;
    std::vector<Chunk> chunks_;
    size_t active_ = 0;
};

/**
 * Minimal std allocator over an Arena, for scratch containers
 * (std::vector<int, ArenaAllocator<int>> etc.). Deallocation is a
 * no-op — pair containers with an Arena::Frame for reuse.
 */
template <typename T> class ArenaAllocator
{
  public:
    using value_type = T;

    explicit ArenaAllocator(Arena &arena) : arena_(&arena) {}

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U> &other) : arena_(other.arena())
    {
    }

    T *allocate(size_t n)
    {
        return static_cast<T *>(
            arena_->allocate(n * sizeof(T), alignof(T)));
    }

    void deallocate(T *, size_t) {}

    Arena *arena() const { return arena_; }

    friend bool operator==(const ArenaAllocator &a, const ArenaAllocator &b)
    {
        return a.arena_ == b.arena_;
    }
    friend bool operator!=(const ArenaAllocator &a, const ArenaAllocator &b)
    {
        return !(a == b);
    }

  private:
    Arena *arena_;
};

} // namespace tetris

#endif // TETRIS_COMMON_ARENA_HH
