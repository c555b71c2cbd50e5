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

#include "sim/noise.hh"
#include "sweeps.hh"

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

    Engine &engine = benchEngine();
    NoiseModel noise;
    const Sweep sweep = fig22Sweep(quickMode());
    const SweepRun run = runSweep(engine, sweep);

    TablePrinter table({"Molecule", "#Blocks", "PH min", "PH mean",
                        "PH max", "Tetris min", "Tetris mean",
                        "Tetris max"});
    // One row per molecule and subset size: the consecutive samples
    // that share both.
    const auto &workloads = sweep.workloads;
    for (size_t i = 0; i < workloads.size();) {
        const std::string molecule = workloads[i].part(1);
        const size_t nb = workloads[i].blocks.size();
        std::vector<double> ph_f, tet_f;
        for (; i < workloads.size() && workloads[i].part(1) == molecule &&
               workloads[i].blocks.size() == nb;
             ++i) {
            ph_f.push_back(echoFidelity(run.result(i, "ph").circuit, noise));
            tet_f.push_back(
                echoFidelity(run.result(i, "tetris").circuit, noise));
        }
        Summary ph_s = summarize(ph_f);
        Summary tet_s = summarize(tet_f);
        table.addRow({molecule, std::to_string(nb),
                      formatDouble(ph_s.min), formatDouble(ph_s.mean),
                      formatDouble(ph_s.max), formatDouble(tet_s.min),
                      formatDouble(tet_s.mean), formatDouble(tet_s.max)});
    }
    table.print();
    return writeBenchJson("fig22", run.records, engine);
}
