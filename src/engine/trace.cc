#include "engine/trace.hh"

#include <fstream>
#include <utility>

#include "common/env.hh"
#include "common/json.hh"
#include "common/log.hh"

namespace tetris
{

namespace
{

/** Unique tracer ids so the thread-local cache never aliases a
 *  destroyed tracer with a new one at the same address. */
std::atomic<uint64_t> g_next_tracer_id{1};

struct TlsEntry
{
    uint64_t tracerId;
    void *buffer;
};

/** Per-thread cache of (tracer id -> buffer). A thread records into
 *  at most a couple of tracers, so linear search wins over a map. */
thread_local std::vector<TlsEntry> t_buffers;

} // namespace

Tracer::Tracer() : id_(g_next_tracer_id.fetch_add(1)) {}

Tracer::~Tracer()
{
    // The global tracer relies on this: armed from TETRIS_TRACE, the
    // trace lands on disk when the process tears the instance down.
    if (enabled() && !path_.empty())
        writeFile();
}

void
Tracer::enable(std::string path)
{
    path_ = std::move(path);
    epochNs_ = steadyNowNs();
    enabled_.store(true, std::memory_order_release);
}

Tracer::Buffer &
Tracer::localBuffer()
{
    for (const TlsEntry &e : t_buffers) {
        if (e.tracerId == id_)
            return *static_cast<Buffer *>(e.buffer);
    }
    auto owned = std::make_unique<Buffer>();
    Buffer *buffer = owned.get();
    {
        std::lock_guard<std::mutex> lock(buffersMutex_);
        buffer->tid = static_cast<int>(buffers_.size());
        buffers_.push_back(std::move(owned));
    }
    t_buffers.push_back({id_, buffer});
    return *buffer;
}

void
Tracer::recordSpan(const char *name, const char *category,
                   uint64_t start_ns, uint64_t end_ns, std::string job)
{
    if (!enabled())
        return;
    if (end_ns < start_ns)
        end_ns = start_ns;
    Buffer &buffer = localBuffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(Event{name, category, start_ns,
                                  end_ns - start_ns, std::move(job)});
}

size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(buffersMutex_);
    size_t total = 0;
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        total += buffer->events.size();
    }
    return total;
}

std::string
Tracer::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();
    {
        std::lock_guard<std::mutex> lock(buffersMutex_);
        for (const auto &buffer : buffers_) {
            std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
            for (const Event &e : buffer->events) {
                w.beginObject();
                w.key("name").value(e.name);
                w.key("cat").value(e.category);
                w.key("ph").value("X");
                // Chrome trace events use microsecond doubles,
                // relative to any fixed origin; ours is enable().
                w.key("ts").value(
                    static_cast<double>(e.startNs - epochNs_) / 1e3);
                w.key("dur").value(static_cast<double>(e.durNs) / 1e3);
                w.key("pid").value(1);
                w.key("tid").value(buffer->tid);
                if (!e.job.empty()) {
                    w.key("args").beginObject();
                    w.key("job").value(e.job);
                    w.endObject();
                }
                w.endObject();
            }
        }
    }
    w.endArray();
    w.key("displayTimeUnit").value("ms");
    w.endObject();
    return w.str();
}

bool
Tracer::writeFile() const
{
    if (path_.empty()) {
        logWarn("trace: no output path configured; span data dropped");
        return false;
    }
    std::ofstream out(path_, std::ios::trunc);
    if (!out) {
        logWarn("trace: cannot open '", path_, "' for writing");
        return false;
    }
    out << toJson() << "\n";
    out.close();
    if (out.fail()) {
        logWarn("trace: write to '", path_, "' failed");
        return false;
    }
    return true;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(buffersMutex_);
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        buffer->events.clear();
    }
}

Tracer &
Tracer::global()
{
    // Constructed on first use — the engine touches it in its
    // constructor, so it outlives every Engine (and its worker
    // threads); the destructor then flushes TETRIS_TRACE output.
    static Tracer tracer;
    static const bool armed = [] {
        const std::string path = envString("TETRIS_TRACE");
        if (!path.empty())
            tracer.enable(path);
        return true;
    }();
    (void)armed;
    return tracer;
}

} // namespace tetris
