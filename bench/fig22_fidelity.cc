/**
 * @file
 * Regenerates Fig. 22: noise-model fidelity of PH- vs
 * Tetris-compiled circuits as a function of the number of randomly
 * sampled Pauli blocks (1..10). Noise: depolarizing p2 = 1e-3 per
 * CNOT, p1 = 1e-4 per 1Q gate; fidelity = P(all zeros) of circuit +
 * inverse, exactly the paper's randomized-benchmarking setup. LiH
 * uses 100 samples per configuration, CO2 uses 10 (as in the
 * paper); min/mean/max summarize the box plot.
 *
 * All sampled subsets are drawn up front (same RNG stream as the
 * serial version) and every (subset, pipeline) pair compiles as one
 * engine batch; identical subsets dedup through the compile cache.
 * The noisy simulation then runs over the finished circuits.
 */

#include <cstdio>

#include <algorithm>

#include "bench_util.hh"
#include "common/rng.hh"
#include "hardware/topologies.hh"
#include "sim/noise.hh"

using namespace tetris;
using namespace tetris::bench;

namespace
{

struct Summary
{
    double min, mean, max;
};

Summary
summarize(const std::vector<double> &xs)
{
    double lo = xs[0], hi = xs[0], sum = 0.0;
    for (double x : xs) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        sum += x;
    }
    return {lo, sum / xs.size(), hi};
}

} // namespace

int
main()
{
    printBanner("Fig. 22: fidelity vs number of Pauli blocks",
                "Depolarizing noise p2=1e-3, p1=1e-4; higher is "
                "better; Tetris should dominate PH.");

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();
    NoiseModel noise;

    struct Config
    {
        const char *molecule;
        int samples;
    };
    std::vector<Config> configs = {{"LiH", 100}, {"CO2", 10}};
    if (quickMode())
        configs = {{"LiH", 20}};

    // Sample every subset in the serial order, two jobs per sample.
    std::vector<CompileJob> jobs;
    for (const auto &cfg : configs) {
        auto blocks = buildMolecule(moleculeByName(cfg.molecule), "jw");
        Rng rng(2024);
        for (int nb = 1; nb <= 10; ++nb) {
            for (int s = 0; s < cfg.samples; ++s) {
                auto picks = rng.sampleIndices(blocks.size(), nb);
                std::vector<PauliBlock> subset;
                for (size_t idx : picks)
                    subset.push_back(blocks[idx]);
                std::string base = std::string(cfg.molecule) + "/nb=" +
                                   std::to_string(nb) + "/s=" +
                                   std::to_string(s);
                jobs.push_back(makeJob(base + "/ph", subset, hw,
                                       makePaulihedralPipeline()));
                jobs.push_back(makeJob(base + "/tetris",
                                       std::move(subset), hw,
                                       makeTetrisPipeline()));
            }
        }
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table({"Molecule", "#Blocks", "PH min", "PH mean",
                        "PH max", "Tetris min", "Tetris mean",
                        "Tetris max"});
    size_t next = 0;
    for (const auto &cfg : configs) {
        for (int nb = 1; nb <= 10; ++nb) {
            std::vector<double> ph_f, tet_f;
            for (int s = 0; s < cfg.samples; ++s) {
                ph_f.push_back(echoFidelity(
                    records[next].second->circuit, noise));
                tet_f.push_back(echoFidelity(
                    records[next + 1].second->circuit, noise));
                next += 2;
            }
            Summary ph_s = summarize(ph_f);
            Summary tet_s = summarize(tet_f);
            table.addRow({cfg.molecule, std::to_string(nb),
                          formatDouble(ph_s.min), formatDouble(ph_s.mean),
                          formatDouble(ph_s.max),
                          formatDouble(tet_s.min),
                          formatDouble(tet_s.mean),
                          formatDouble(tet_s.max)});
        }
    }
    table.print();
    return writeBenchJson("fig22", records, engine);
}
