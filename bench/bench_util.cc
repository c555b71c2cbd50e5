#include "bench_util.hh"

#include <csignal>
#include <cstdio>
#include <fstream>
#include <set>

#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "engine/disk_cache.hh"
#include "engine/stats.hh"

namespace tetris::bench
{

bool
quickMode()
{
    return envFlag("TETRIS_BENCH_QUICK");
}

bool
verifyEnabled()
{
    return envFlag("TETRIS_VERIFY");
}

void
printBanner(const std::string &title, const std::string &note)
{
    std::printf("\n=== %s ===\n", title.c_str());
    if (!note.empty())
        std::printf("%s\n", note.c_str());
    std::printf("\n");
}

double
improvement(double a, double b)
{
    return a == 0.0 ? 0.0 : (a - b) / a;
}

namespace
{

/** Default: progress on a terminal only; the env var overrides. */
bool
progressEnabled()
{
    return envFlag("TETRIS_BENCH_PROGRESS", isatty(fileno(stderr)) != 0);
}

/**
 * Ctrl-C on a long sweep: abandon everything still queued so the
 * binary reaches its table printers and writeBenchJson() with the
 * results finished so far (cancelled jobs carry the `cancelled`
 * flag in their rows). Only async-signal-safe work happens here --
 * cancelPending() is a lock-free atomic store. The handler then
 * re-arms SIG_DFL so a second Ctrl-C kills the process the ordinary
 * way.
 */
Engine *g_sigint_engine = nullptr;

void
benchSigintHandler(int)
{
    if (g_sigint_engine != nullptr)
        g_sigint_engine->cancelPending();
    std::signal(SIGINT, SIG_DFL);
}

EngineOptions
benchEngineOptions()
{
    EngineOptions opts;
    // Persistent artifact store: active only when TETRIS_CACHE_DIR
    // is set, so repeated sweeps skip recompilation entirely.
    opts.diskCache = DiskCache::openFromEnv();
    // Semantic backstop: TETRIS_VERIFY=1 runs every result (fresh or
    // deserialized) through the equivalence verifier.
    opts.verify = verifyEnabled();
    if (progressEnabled()) {
        opts.onJobDone = [](size_t done, size_t total,
                            const std::string &name) {
            std::fprintf(stderr, "  [%zu/%zu] %s\n", done, total,
                         name.c_str());
        };
    }
    return opts;
}

} // namespace

Engine &
benchEngine()
{
    static Engine engine(benchEngineOptions());
    static const bool sigint_hooked = [] {
        g_sigint_engine = &engine;
        std::signal(SIGINT, benchSigintHandler);
        return true;
    }();
    (void)sigint_hooked;
    return engine;
}

std::shared_ptr<const CouplingGraph>
shareDevice(CouplingGraph hw)
{
    return std::make_shared<const CouplingGraph>(std::move(hw));
}

CompileJob
makeJob(std::string name, std::vector<PauliBlock> blocks,
        std::shared_ptr<const CouplingGraph> hw, PipelinePtr pipeline)
{
    CompileJob job;
    job.name = std::move(name);
    job.blocks = std::move(blocks);
    job.hw = std::move(hw);
    if (pipeline)
        job.pipeline = std::move(pipeline);
    return job;
}

std::string
writeBenchFile(const std::string &artifact,
               const std::function<void(JsonWriter &)> &config,
               const std::function<void(JsonWriter &)> &rows,
               const Engine *engine)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("bench-v3");
    w.key("artifact").value(artifact);
    w.key("config").beginObject();
    config(w);
    w.endObject();
    w.key("rows");
    const size_t rows_begin = w.str().size();
    w.beginArray();
    rows(w);
    w.endArray();
    // Each row starts with its name and no other object in the rows
    // starts with a "name" key, so every {"name":" opens one row.
    const std::string text = w.str().substr(rows_begin);
    const std::string prefix = "{\"name\":\"";
    std::set<std::string> names;
    for (size_t at = text.find(prefix); at != std::string::npos;
         at = text.find(prefix, at + 1)) {
        size_t end = at + prefix.size();
        while (text[end] != '"') // compared still JSON-escaped
            end += text[end] == '\\' ? 2 : 1;
        std::string name = text.substr(at + prefix.size(),
                                       end - at - prefix.size());
        if (!names.insert(name).second)
            fatal("BENCH_", artifact, ".json: row name \"", name,
                  "\" repeats; every row needs its own name");
    }
    if (engine != nullptr) {
        w.key("engine");
        engine->metrics().writeJson(w);
    }
    w.endObject();

    std::string path = "BENCH_" + artifact + ".json";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "warn: cannot write %s\n", path.c_str());
        return "";
    }
    out << w.str() << "\n";
    std::printf("[wrote %s]\n", path.c_str());
    return path;
}

int
writeBenchJson(const std::string &artifact,
               const std::vector<BenchRecord> &records, Engine &engine)
{
    engine.drain();
    engine.syncCacheMetrics();
    auto config = [&](JsonWriter &w) {
        w.key("quick").value(quickMode());
        w.key("threads").value(engine.numThreads());
        w.key("verify").value(engine.verifyEnabled());
        w.key("disk_cache").value(engine.diskCache() != nullptr);
    };
    auto rows = [&](JsonWriter &w) {
        for (const auto &[name, result] : records) {
            w.beginObject();
            w.key("name").value(name);
            if (result) {
                w.key("cancelled").value(result->cancelled);
                w.key("stats");
                writeJson(w, result->stats);
            } else {
                w.key("stats").null();
            }
            w.endObject();
        }
    };
    writeBenchFile(artifact, config, rows, &engine);

    if (!engine.verifyEnabled())
        return 0;
    const uint64_t failed = engine.metrics().count("verify.fail");
    if (failed > 0) {
        std::fprintf(stderr, "FAIL: %llu job(s) failed verification\n",
                     static_cast<unsigned long long>(failed));
        return 1;
    }
    if (engine.metrics().count("verify.pass") == 0) {
        std::fprintf(stderr, "FAIL: verification passed no job\n");
        return 1;
    }
    return 0;
}

} // namespace tetris::bench
