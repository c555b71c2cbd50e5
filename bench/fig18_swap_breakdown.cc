/**
 * @file
 * Regenerates Fig. 18: total CNOT gate breakdown (logical CNOTs vs
 * SWAP-induced CNOTs) for PH, Tetris, and routed max-cancel, with
 * the Tetris-over-PH improvement, on JW, BK and synthetic suites.
 * The 3 stacks x all workloads run as one engine batch.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 18: total CNOT breakdown (x = logical + swap)",
                "Paper improvements: JW -15.4..-41.3%, BK "
                "-10.2..-28.2%, synthetic -18.5..-28.1%.");

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();

    struct RowSpec
    {
        std::string group;
        std::string name;
    };
    const size_t stacks = 3; // ph, tetris, max-cancel
    std::vector<RowSpec> rows;
    std::vector<CompileJob> jobs;
    auto addWorkload = [&](const std::string &group,
                           const std::string &name,
                           std::vector<PauliBlock> blocks) {
        rows.push_back({group, name});
        jobs.push_back(makeJob(name + "/" + group + "/ph", blocks, hw,
                               makePaulihedralPipeline()));
        jobs.push_back(makeJob(name + "/" + group + "/tetris", blocks,
                               hw, makeTetrisPipeline()));
        jobs.push_back(makeJob(name + "/" + group + "/max-cancel",
                               std::move(blocks), hw,
                               makeMaxCancelPipeline()));
    };

    for (const char *enc : {"jw", "bk"}) {
        for (const auto &spec : benchMolecules())
            addWorkload(enc, spec.name, buildMolecule(spec, enc));
    }
    std::vector<int> ucc_sizes = {10, 15, 20, 25, 30, 35};
    if (quickMode())
        ucc_sizes = {10, 15};
    for (int n : ucc_sizes) {
        addWorkload("Synthetic", "UCC-" + std::to_string(n),
                    buildSyntheticUcc(n, 1000 + n));
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table({"Group", "Bench", "PH", "PH_S", "Tetris",
                        "Tetris_S", "max", "max_S", "Improv"});
    for (size_t i = 0; i < rows.size(); ++i) {
        const auto *r = &records[stacks * i];
        const CompileStats &ph = r[0].second->stats;
        const CompileStats &tet = r[1].second->stats;
        const CompileStats &max = r[2].second->stats;
        table.addRow({
            rows[i].group,
            rows[i].name,
            formatCount(ph.cnotCount),
            formatCount(ph.swapCnots),
            formatCount(tet.cnotCount),
            formatCount(tet.swapCnots),
            formatCount(max.cnotCount),
            formatCount(max.swapCnots),
            formatPercent(-improvement(ph.cnotCount, tet.cnotCount)),
        });
    }
    table.print();
    return writeBenchJson("fig18", records, engine);
}
