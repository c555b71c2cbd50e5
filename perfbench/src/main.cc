/**
 * @file
 * perfbench: run one benchmark workload in this process and print its
 * metrics.
 *
 *   perfbench --workload sweep-table2|stream-mix|serve-mixed
 *             --seed N --seconds S --trace 0|1 --workdir DIR
 *             [--scale full|small] [--spans FILE]
 *
 * Every TETRIS_* variable is cleared before anything else runs, so no
 * configuration or cache state comes from the environment; the run
 * builds each component from explicit options and prints them. Files
 * go to fresh temp dirs under --workdir that the run removes.
 *
 * Output: config, notes and every metric as "metric NAME VALUE UNIT"
 * lines, then one JSON line {"correct", "attempted", "failed",
 * "metrics"} holding the end-to-end metrics (--trace 0) or the
 * per-layer metrics of the traced round (--trace 1), whose spans are
 * written to --spans. Exit status 1 when any output check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/json.hh"

extern char **environ;

namespace
{

using namespace perfbench;

/** Unset every TETRIS_* variable; returns how many there were. */
size_t
clearTetrisEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const char *eq = std::strchr(*e, '=');
        std::string name(*e, eq != nullptr ? eq - *e : std::strlen(*e));
        if (name.rfind("TETRIS_", 0) == 0)
            names.push_back(name);
    }
    for (const std::string &name : names)
        ::unsetenv(name.c_str());
    return names.size();
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload sweep-table2|stream-mix|serve-mixed "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--scale full|small] [--spans FILE]\n",
                 argv0);
    return 2;
}

void
printMetrics(const char *kind, const std::map<std::string, Metric> &m)
{
    for (const auto &[name, metric] : m) {
        std::printf("%s %s %.9g %s\n", kind, name.c_str(), metric.value,
                    metric.unit.c_str());
    }
}

std::string
resultJson(const Report &r, const std::map<std::string, Metric> &metrics)
{
    tetris::JsonWriter w;
    w.beginObject();
    w.key("correct").value(r.correct && r.failed == 0);
    w.key("attempted").value(r.attempted);
    w.key("failed").value(r.failed);
    w.key("metrics").beginObject();
    for (const auto &[name, metric] : metrics) {
        w.key(name).beginObject();
        w.key("value").value(metric.value);
        w.key("unit").value(metric.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const size_t cleared = clearTetrisEnv();

    Args args;
    std::string spans_path;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const char *v = argv[++i];
        if (arg == "--workload")
            args.workload = v;
        else if (arg == "--seed") {
            args.seed = std::strtoull(v, nullptr, 10);
            have_seed = true;
        }
        else if (arg == "--seconds")
            args.seconds = std::atof(v);
        else if (arg == "--trace")
            args.trace = std::strcmp(v, "0") != 0;
        else if (arg == "--scale")
            args.scale = v;
        else if (arg == "--workdir")
            args.workdir = v;
        else if (arg == "--spans")
            spans_path = v;
        else
            return usage(argv[0]);
    }
    if (!have_seed || args.workdir.empty() || args.seconds < 0 ||
        (args.scale != "full" && args.scale != "small") ||
        (args.trace && spans_path.empty()))
        return usage(argv[0]);

    void (*run)(const Args &, Report &, Tracing &) = nullptr;
    if (args.workload == "sweep-table2")
        run = runSweep;
    else if (args.workload == "stream-mix")
        run = runStream;
    else if (args.workload == "serve-mixed")
        run = runServe;
    else
        return usage(argv[0]);

    Report r;
    r.setConfig("env.cleared_tetris_vars", std::to_string(cleared));
    r.setConfig("workload", args.workload);
    r.setConfig("seed", std::to_string(args.seed));
    r.setConfig("scale", args.scale);
    declareLayers(r);
    Tracing tracing;
    try {
        run(args, r, tracing);
    } catch (const std::exception &e) {
        r.fail(std::string("exception: ") + e.what());
        ++r.failed;
    }
    if (args.trace && !tracing.write(spans_path))
        r.fail("cannot write spans to " + spans_path);

    for (const auto &[key, value] : r.config)
        std::printf("config %s = %s\n", key.c_str(), value.c_str());
    for (const std::string &line : r.notes)
        std::printf("note %s\n", line.c_str());
    for (const std::string &why : r.failures)
        std::printf("FAIL %s\n", why.c_str());
    printMetrics("metric", r.endToEnd);
    std::printf("metric error_rate %.9g ratio\n",
                r.attempted > 0 ? static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted)
                                : 1.0);
    if (args.trace)
        printMetrics("layer", r.perLayer);
    std::printf("%s\n",
                resultJson(r, args.trace ? r.perLayer : r.endToEnd).c_str());
    return r.correct && r.failed == 0 ? 0 : 1;
}
