#include "engine/metrics.hh"

#include "common/json.hh"
#include "core/compiler.hh"

namespace tetris
{

namespace
{

/** Seconds -> integer nanoseconds for the atomic timer slots. */
uint64_t
toNanos(double seconds)
{
    if (seconds <= 0.0)
        return 0;
    return static_cast<uint64_t>(seconds * 1e9);
}

} // namespace

MetricsRegistry::MetricsRegistry()
{
    // Per-job hot instruments: recordCompile() runs once per fresh
    // compilation on a worker thread, so its updates go through
    // handles (pure atomic adds), never the registry mutex.
    compileTotal_ = timerHandle("compile.total");
    compileSchedule_ = timerHandle("compile.schedule");
    compileSynthesis_ = timerHandle("compile.synthesis");
    compilePeephole_ = timerHandle("compile.peephole");
    gatesCnot_ = counterHandle("gates.cnot");
    gatesOneq_ = counterHandle("gates.oneq");
    gatesSwap_ = counterHandle("gates.swap");
}

MetricsRegistry::Slot &
MetricsRegistry::slotLocked(const std::string &name)
{
    auto it = slotIndex_.find(name);
    if (it != slotIndex_.end())
        return *it->second;
    Slot &slot = slots_.emplace_back();
    slot.name = name;
    slotIndex_.emplace(name, &slot);
    return slot;
}

MetricsRegistry::Handle
MetricsRegistry::counterHandle(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return &slotLocked(name);
}

MetricsRegistry::Handle
MetricsRegistry::timerHandle(const std::string &name)
{
    return counterHandle(name);
}

void
MetricsRegistry::addCount(Handle h, uint64_t delta)
{
    h->count.fetch_add(delta, std::memory_order_relaxed);
}

void
MetricsRegistry::addSeconds(Handle h, double seconds)
{
    h->nanos.fetch_add(toNanos(seconds), std::memory_order_relaxed);
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histogramIndex_.find(name);
    if (it != histogramIndex_.end())
        return histograms_[it->second].second;
    histograms_.emplace_back(std::piecewise_construct,
                             std::forward_as_tuple(name),
                             std::forward_as_tuple());
    histogramIndex_.emplace(name, histograms_.size() - 1);
    return histograms_.back().second;
}

void
MetricsRegistry::addCount(const std::string &name, uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Slot &slot = slotLocked(name);
    slot.count.fetch_add(delta, std::memory_order_relaxed);
    slot.countListed = true;
}

void
MetricsRegistry::setCount(const std::string &name, uint64_t value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Slot &slot = slotLocked(name);
    slot.count.store(value, std::memory_order_relaxed);
    slot.countListed = true;
}

void
MetricsRegistry::addSeconds(const std::string &name, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Slot &slot = slotLocked(name);
    slot.nanos.fetch_add(toNanos(seconds), std::memory_order_relaxed);
    slot.timerListed = true;
}

void
MetricsRegistry::recordCompile(const CompileStats &stats)
{
    addSeconds(compileTotal_, stats.compileSeconds);
    addSeconds(compileSchedule_, stats.scheduleSeconds);
    addSeconds(compileSynthesis_, stats.synthSeconds);
    addSeconds(compilePeephole_, stats.peepholeSeconds);
    addCount(gatesCnot_, stats.cnotCount);
    addCount(gatesOneq_, stats.oneQubitCount);
    addCount(gatesSwap_, stats.swapCount);
}

uint64_t
MetricsRegistry::count(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slotIndex_.find(name);
    return it == slotIndex_.end()
               ? 0
               : it->second->count.load(std::memory_order_relaxed);
}

double
MetricsRegistry::seconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slotIndex_.find(name);
    if (it == slotIndex_.end())
        return 0.0;
    return static_cast<double>(
               it->second->nanos.load(std::memory_order_relaxed)) /
           1e9;
}

std::map<std::string, uint64_t>
MetricsRegistry::counts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, uint64_t> out;
    for (const Slot &slot : slots_) {
        const uint64_t v = slot.count.load(std::memory_order_relaxed);
        if (v != 0 || slot.countListed)
            out[slot.name] = v;
    }
    return out;
}

std::map<std::string, double>
MetricsRegistry::timers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> out;
    for (const Slot &slot : slots_) {
        const uint64_t ns = slot.nanos.load(std::memory_order_relaxed);
        if (ns != 0 || slot.timerListed)
            out[slot.name] = static_cast<double>(ns) / 1e9;
    }
    return out;
}

void
MetricsRegistry::forEachHistogram(
    const std::function<void(const std::string &, const Histogram &)>
        &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, const Histogram *> ordered;
    for (const auto &[name, hist] : histograms_)
        ordered[name] = &hist;
    for (const auto &[name, hist] : ordered)
        fn(name, *hist);
}

std::map<std::string, Histogram::Snapshot>
MetricsRegistry::histogramSnapshots() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, Histogram::Snapshot> out;
    for (const auto &[name, hist] : histograms_)
        out[name] = hist.snapshot();
    return out;
}

void
MetricsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Slot &slot : slots_) {
        slot.count.store(0, std::memory_order_relaxed);
        slot.nanos.store(0, std::memory_order_relaxed);
        slot.countListed = slot.timerListed = false;
    }
    for (auto &[name, hist] : histograms_)
        hist.clear();
}

void
MetricsRegistry::writeJson(JsonWriter &w) const
{
    // Copy first: counts()/timers() take the mutex themselves, and
    // the histogram walk below takes it again.
    const std::map<std::string, uint64_t> counts_copy = counts();
    const std::map<std::string, double> timers_copy = timers();

    w.beginObject();
    w.key("counts").beginObject();
    for (const auto &[name, v] : counts_copy)
        w.key(name).value(v);
    w.endObject();
    w.key("seconds").beginObject();
    for (const auto &[name, v] : timers_copy)
        w.key(name).value(v);
    w.endObject();
    w.key("histograms").beginObject();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Stable name order, like the other sections.
        std::map<std::string, const Histogram *> ordered;
        for (const auto &[name, hist] : histograms_)
            ordered[name] = &hist;
        for (const auto &[name, hist] : ordered) {
            w.key(name).beginObject();
            w.key("count").value(hist->count());
            w.key("sum").value(hist->sum());
            w.key("max").value(hist->max());
            w.key("p50").value(hist->percentile(0.50));
            w.key("p90").value(hist->percentile(0.90));
            w.key("p99").value(hist->percentile(0.99));
            w.key("buckets").beginArray();
            for (int i = 0; i < Histogram::kBuckets; ++i) {
                uint64_t n = hist->bucketCount(i);
                if (n == 0)
                    continue;
                w.beginArray().value(i).value(n).endArray();
            }
            w.endArray();
            w.endObject();
        }
    }
    w.endObject();
    w.endObject();
}

std::string
MetricsRegistry::toJson() const
{
    JsonWriter w;
    writeJson(w);
    return w.str();
}

} // namespace tetris
