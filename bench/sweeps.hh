/**
 * @file
 * Every paper sweep, declared once as data: named workloads (Pauli
 * blocks on a device) times named compiler stacks, with workload-major
 * jobs named "<workload>/<stack>". A workload name is a '/'-separated
 * path: encoder and molecule ("jw/LiH"), "ucc/" and size
 * ("ucc/UCC-10"), or QAOA graph and instance ("Rand-16/s=0"), plus a
 * part per device or sample where a sweep has several
 * ("jw/BeH2/sycamore"). A stack label names one pipeline configuration
 * in every sweep ("ph", "ph-raw", "tetris", "k=4", ...); "tetris" is
 * the paper's pass for the workload family, qaoa-bridge on QAOA
 * graphs, as compile_cli maps it.
 *
 * The table and figure binaries compile these sweeps and look rows up
 * by workload and stack; tests/test_golden.cc pins the quick sweeps of
 * Table II, Figs. 19 and 23 and the routed baselines, and checks the
 * table's invariants. `quick` selects the set the binaries run under
 * TETRIS_BENCH_QUICK=1. A new figure gets a sweep function here and an
 * entry in Golden.SweepTableInvariants.
 */

#ifndef TETRIS_BENCH_SWEEPS_HH
#define TETRIS_BENCH_SWEEPS_HH

#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace tetris::bench
{

/** One named input of a sweep. */
struct Workload
{
    std::string name;
    std::vector<PauliBlock> blocks;
    std::shared_ptr<const CouplingGraph> hw;

    /** Part `i` of the name: "jw/LiH" has "jw" and "LiH". */
    std::string part(size_t i) const;
};

/** One named compiler stack. */
struct Stack
{
    std::string name;
    PipelinePtr pipeline;
};

/** Every workload compiled by every stack. */
struct Sweep
{
    std::vector<Workload> workloads;
    std::vector<Stack> stacks;

    /** One job per (workload, stack), workload-major. */
    std::vector<CompileJob> jobs() const;
};

/** A compiled sweep: one record per job, in Sweep::jobs() order. */
struct SweepRun
{
    const Sweep &sweep;
    std::vector<BenchRecord> records;

    /** The result of workload `workload` under the stack `stack`. */
    const CompileResult &result(size_t workload,
                                const std::string &stack) const;

    const CompileStats &stats(size_t workload,
                              const std::string &stack) const
    {
        return result(workload, stack).stats;
    }
};

/**
 * Compile every job of `sweep` through `engine` and pair each result
 * with its job's name. Prints one `stats: summary:` line
 * (formatSummary) on stderr when the sweep is done.
 */
SweepRun runSweep(Engine &engine, const Sweep &sweep);

/** Table I: the unrouted naive circuit of every benchmark; it has no
 *  quick set. */
Sweep table1Sweep();
/** Table II: PH and Tetris on JW and BK molecules, then UCC-n. */
Sweep table2Sweep(bool quick);
/** The routed baselines and the unrouted naive and max-cancel
 *  circuits on Table II's workloads (golden corpus only). */
Sweep routedSweep(bool quick);
/** Fig. 2: PH on JW and BK molecules. */
Sweep fig2Sweep(bool quick);
/** Fig. 14: five compiler stacks on LiH..MgH2 (JW). */
Sweep fig14Sweep(bool quick);
/** Fig. 15: both T|Ket> flavors, PCOAST, PH and Tetris on LiH..MgH2. */
Sweep fig15Sweep(bool quick);
/** Figs. 16 and 24: PH and Tetris with and without the peephole. */
Sweep fig16Sweep(bool quick);
/** Fig. 17: PH, Tetris and the unrouted max-cancel bound. */
Sweep fig17Sweep(bool quick);
/** Fig. 18: PH, Tetris and routed max-cancel on Table II's workloads. */
Sweep fig18Sweep(bool quick);
/** Fig. 19: Tetris at lookahead K = 1..22 on JW molecules. */
Sweep fig19Sweep(bool quick);
/** Fig. 20: Tetris at SWAP weight w = 0.1..100 on two devices. */
Sweep fig20Sweep(bool quick);
/** Fig. 21: PH and Tetris on the Sycamore-like device. */
Sweep fig21Sweep(bool quick);
/** Fig. 22: PH and Tetris on random subsets of 1..10 blocks. */
Sweep fig22Sweep(bool quick);
/** Fig. 23: PH, 2QAN and Tetris on QAOA graph instances. */
Sweep fig23Sweep(bool quick);
/** The extension: Tetris with and without in-block reordering. */
Sweep extRecursiveSweep(bool quick);

} // namespace tetris::bench

#endif // TETRIS_BENCH_SWEEPS_HH
