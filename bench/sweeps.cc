#include "sweeps.hh"

#include <chrono>
#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "engine/stats.hh"
#include "qaoa/qaoa.hh"

namespace tetris::bench
{

std::string
Workload::part(size_t i) const
{
    std::istringstream parts(name);
    std::string part;
    for (size_t k = 0; k <= i; ++k) {
        if (!std::getline(parts, part, '/'))
            return "";
    }
    return part;
}

std::vector<CompileJob>
Sweep::jobs() const
{
    std::vector<CompileJob> jobs;
    jobs.reserve(workloads.size() * stacks.size());
    for (const Workload &w : workloads) {
        for (const Stack &s : stacks) {
            jobs.push_back(
                makeJob(w.name + "/" + s.name, w.blocks, w.hw, s.pipeline));
        }
    }
    return jobs;
}

const CompileResult &
SweepRun::result(size_t workload, const std::string &stack) const
{
    for (size_t j = 0; j < sweep.stacks.size(); ++j) {
        if (sweep.stacks[j].name == stack)
            return *records[workload * sweep.stacks.size() + j].second;
    }
    panic("no stack '", stack, "' in this sweep");
}

SweepRun
runSweep(Engine &engine, const Sweep &sweep)
{
    std::vector<CompileJob> jobs = sweep.jobs();
    SweepRun run{sweep, {}};
    for (const CompileJob &job : jobs)
        run.records.emplace_back(job.name, nullptr);

    const auto start = std::chrono::steady_clock::now();
    auto results = engine.compileAll(std::move(jobs));
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    std::fprintf(stderr, "%s\n",
                 formatSummary(engine, elapsed.count()).c_str());

    for (size_t i = 0; i < results.size(); ++i)
        run.records[i].second = std::move(results[i]);
    return run;
}

namespace
{

using Device = std::shared_ptr<const CouplingGraph>;

/** The stacks `labels` name; a label names one configuration in
 *  every sweep. */
std::vector<Stack>
stacks(std::initializer_list<const char *> labels)
{
    const std::map<std::string, PipelinePtr> catalogue = {
        {"ph", makePaulihedralPipeline()},
        {"ph-raw", makePaulihedralPipeline({.runPeephole = false})},
        {"tetris", makeTetrisPipeline()},
        {"tetris-raw", makeTetrisPipeline({.runPeephole = false})},
        {"tetris-lex",
         makeTetrisPipeline({.scheduler = SchedulerKind::Lexicographic})},
        {"tetris-no-reorder",
         makeTetrisPipeline({.reorderStringsInBlock = false})},
        {"tket-o2", makeTketPipeline(TketFlavor::O2)},
        {"tket-o3", makeTketPipeline(TketFlavor::QiskitO3)},
        {"pcoast", makePcoastPipeline()},
        {"naive", makeNaivePipeline()},
        {"naive-unrouted", makeNaivePipeline({.route = false})},
        {"max-cancel", makeMaxCancelPipeline()},
        // Fig. 17's bound: no hardware constraint.
        {"max-cancel-bound",
         makeMaxCancelPipeline({.route = false, .logicalPeephole = true})},
        {"2qan", makeQaoa2qanPipeline()},
    };
    std::vector<Stack> out;
    for (const char *label : labels) {
        auto it = catalogue.find(label);
        if (it == catalogue.end())
            panic("unknown stack '", label, "'");
        out.push_back({label, it->second});
    }
    return out;
}

/** Molecules per encoder: LiH..CH4 quick, all six in full. */
size_t
moleculeCount(bool quick)
{
    return quick ? 3 : moleculeBenchmarks().size();
}

Device
ithaca()
{
    return shareDevice(ibmIthaca65());
}

/** The first `count` molecules under each of `encoders` on `hw`,
 *  compiled by the stacks `labels`. */
Sweep
molecules(std::initializer_list<const char *> encoders, size_t count,
          Device hw, std::initializer_list<const char *> labels)
{
    Sweep sweep;
    for (const char *enc : encoders) {
        for (size_t i = 0; i < count; ++i) {
            const MoleculeSpec &spec = moleculeBenchmarks()[i];
            sweep.workloads.push_back({std::string(enc) + "/" + spec.name,
                                       buildMolecule(spec, enc), hw});
        }
    }
    sweep.stacks = stacks(labels);
    return sweep;
}

/** Append the synthetic UCC-n suite with its fixed seeds. */
void
addUcc(Sweep &sweep, bool quick, Device hw)
{
    for (int n : {10, 15, 20, 25, 30, 35}) {
        if (quick && n > 15)
            break;
        sweep.workloads.push_back({"ucc/UCC-" + std::to_string(n),
                                   buildSyntheticUcc(n, 1000 + n), hw});
    }
}

/** Table II's workloads, compiled by the stacks `labels`. */
Sweep
table2Workloads(bool quick, std::initializer_list<const char *> labels)
{
    const Device hw = ithaca();
    Sweep sweep = molecules({"jw", "bk"}, moleculeCount(quick), hw, labels);
    addUcc(sweep, quick, hw);
    return sweep;
}

} // namespace

Sweep
table1Sweep()
{
    const Device hw = ithaca();
    Sweep sweep =
        molecules({"jw"}, moleculeCount(false), hw, {"naive-unrouted"});
    addUcc(sweep, false, hw);
    for (const auto &spec : qaoaBenchmarks()) {
        sweep.workloads.push_back(
            {spec.name, buildQaoaCostBlocks(buildQaoaGraph(spec, 1), 0.4),
             hw});
    }
    return sweep;
}

Sweep
table2Sweep(bool quick)
{
    return table2Workloads(quick, {"ph", "tetris"});
}

Sweep
routedSweep(bool quick)
{
    return table2Workloads(quick, {"naive", "naive-unrouted", "tket-o2",
                                   "tket-o3", "pcoast", "max-cancel",
                                   "max-cancel-bound"});
}

Sweep
fig2Sweep(bool quick)
{
    return molecules({"jw", "bk"}, moleculeCount(quick), ithaca(), {"ph"});
}

Sweep
fig14Sweep(bool quick)
{
    // LiH..MgH2: T|Ket> timed out beyond MgH2 in the paper.
    return molecules({"jw"}, quick ? 2 : 4, ithaca(),
                     {"tket-o2", "pcoast", "ph", "tetris-lex", "tetris"});
}

Sweep
fig15Sweep(bool quick)
{
    return molecules({"jw"}, quick ? 2 : 4, ithaca(),
                     {"tket-o2", "tket-o3", "pcoast", "ph", "tetris"});
}

Sweep
fig16Sweep(bool quick)
{
    return molecules({"jw"}, moleculeCount(quick), ithaca(),
                     {"ph-raw", "ph", "tetris-raw", "tetris"});
}

Sweep
fig17Sweep(bool quick)
{
    return molecules({"jw", "bk"}, moleculeCount(quick), ithaca(),
                     {"ph", "tetris", "max-cancel-bound"});
}

Sweep
fig18Sweep(bool quick)
{
    return table2Workloads(quick, {"ph", "tetris", "max-cancel"});
}

Sweep
fig19Sweep(bool quick)
{
    Sweep sweep = molecules({"jw"}, moleculeCount(quick), ithaca(), {});
    for (int k : {1, 4, 7, 10, 13, 16, 19, 22}) {
        sweep.stacks.push_back({"k=" + std::to_string(k),
                                makeTetrisPipeline({.lookaheadK = k})});
    }
    return sweep;
}

Sweep
fig20Sweep(bool quick)
{
    const std::pair<const char *, Device> archs[] = {
        {"ithaca", ithaca()}, {"sycamore", shareDevice(googleSycamore64())}};
    const char *const names[] = {"BeH2", "MgH2", "CO2"};
    Sweep sweep;
    for (size_t i = 0; i < (quick ? 1 : std::size(names)); ++i) {
        auto blocks = buildMolecule(moleculeByName(names[i]), "jw");
        for (const auto &[arch, hw] : archs) {
            sweep.workloads.push_back(
                {std::string("jw/") + names[i] + "/" + arch, blocks, hw});
        }
    }
    for (double w : {0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 100.0}) {
        sweep.stacks.push_back(
            {"w=" + formatDouble(w, w < 1 ? 1 : 0),
             makeTetrisPipeline({.synthesis = {.swapWeight = w}})});
    }
    return sweep;
}

Sweep
fig21Sweep(bool quick)
{
    return molecules({"jw"}, moleculeCount(quick),
                     shareDevice(googleSycamore64()), {"ph", "tetris"});
}

Sweep
fig22Sweep(bool quick)
{
    // The paper's sample counts: 100 subsets per size for LiH, 10
    // for CO2.
    using Config = std::pair<const char *, int>;
    const std::vector<Config> configs =
        quick ? std::vector<Config>{{"LiH", 20}}
              : std::vector<Config>{{"LiH", 100}, {"CO2", 10}};
    Sweep sweep;
    sweep.stacks = stacks({"ph", "tetris"});
    auto hw = ithaca();
    for (const auto &[molecule, samples] : configs) {
        auto blocks = buildMolecule(moleculeByName(molecule), "jw");
        Rng rng(2024);
        for (int nb = 1; nb <= 10; ++nb) {
            for (int s = 0; s < samples; ++s) {
                std::vector<PauliBlock> subset;
                for (size_t idx : rng.sampleIndices(blocks.size(), nb))
                    subset.push_back(blocks[idx]);
                sweep.workloads.push_back(
                    {std::string("jw/") + molecule + "/nb=" +
                         std::to_string(nb) + "/s=" + std::to_string(s),
                     std::move(subset), hw});
            }
        }
    }
    return sweep;
}

Sweep
fig23Sweep(bool quick)
{
    Sweep sweep;
    // "tetris" is the paper's pass for QAOA, as compile_cli maps it.
    sweep.stacks = stacks({"ph", "2qan"});
    sweep.stacks.push_back({"tetris", makeQaoaBridgePipeline()});
    auto hw = ithaca();
    for (const auto &spec : qaoaBenchmarks()) {
        for (int s = 0; s < (quick ? 2 : 5); ++s) {
            sweep.workloads.push_back(
                {spec.name + "/s=" + std::to_string(s),
                 buildQaoaCostBlocks(buildQaoaGraph(spec, 100 + s), 0.35),
                 hw});
        }
    }
    return sweep;
}

Sweep
extRecursiveSweep(bool quick)
{
    return molecules({"jw", "bk"}, moleculeCount(quick), ithaca(),
                     {"tetris-no-reorder", "tetris"});
}

} // namespace tetris::bench
