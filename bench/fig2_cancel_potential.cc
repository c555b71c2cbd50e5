/**
 * @file
 * Regenerates Fig. 2: the CNOT gate-cancellation opportunity gap.
 * For each molecule and encoder, the ratio of CNOTs Paulihedral
 * actually cancels versus the analytic maximum the Pauli-string
 * grouping admits (max_cancel). The PH compilations run through the
 * batch engine ("paulihedral" pipeline); the bound is the closed-form
 * maxCancelCnotBound(), no compilation needed.
 */

#include <cstdio>

#include "bench_util.hh"
#include "hardware/topologies.hh"

using namespace tetris;
using namespace tetris::bench;

int
main()
{
    printBanner("Fig. 2: CNOT cancellation opportunity (PH vs max_cancel)",
                "Paper (JW): PH 37.8..50.8%, max 61.1..81.1%. "
                "Paper (BK): PH 24.9..43.4%, max 56.2..76.9%.");

    auto hw = shareDevice(ibmIthaca65());
    Engine &engine = benchEngine();

    std::vector<CompileJob> jobs;
    std::vector<double> max_ratios;
    for (const char *enc : {"jw", "bk"}) {
        for (const auto &spec : benchMolecules()) {
            auto blocks = buildMolecule(spec, enc);
            max_ratios.push_back(
                static_cast<double>(maxCancelCnotBound(blocks)) /
                static_cast<double>(naiveCnotCount(blocks)));
            jobs.push_back(makeJob(std::string(enc) + "/" + spec.name +
                                       "/ph",
                                   std::move(blocks), hw,
                                   makePaulihedralPipeline()));
        }
    }

    auto records = runJobs(engine, std::move(jobs));

    TablePrinter table(
        {"Encoder", "Bench", "PH cancel", "max_cancel bound"});
    size_t row = 0;
    for (const char *enc : {"jw", "bk"}) {
        for (const auto &spec : benchMolecules()) {
            table.addRow({enc, spec.name,
                          formatPercent(
                              records[row].second->stats.cancelRatio),
                          formatPercent(max_ratios[row])});
            ++row;
        }
    }
    table.print();
    return writeBenchJson("fig2", records, engine);
}
