/**
 * @file
 * The Tetris compiler facade: scheduling + synthesis + peephole.
 *
 * compileTetris() drives the full paper pipeline over a list of
 * Pauli blocks: block scheduling (active-length start, similarity
 * top-K lookahead with SWAP-cost tie-break — Sec. V-B), per-block
 * hardware-aware synthesis with structural 2Q cancellation and
 * bridging (Sec. V-A), and the peephole pass standing in for Qiskit
 * O3. Scheduler/options knobs expose every ablation the evaluation
 * section sweeps (lookahead K, SWAP weight w, bridging, O3 on/off).
 */

#ifndef TETRIS_CORE_COMPILER_HH
#define TETRIS_CORE_COMPILER_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hh"
#include "core/synthesis.hh"
#include "core/tetris_ir.hh"
#include "hardware/coupling_graph.hh"
#include "hardware/layout.hh"
#include "pauli/pauli_block.hh"

namespace tetris
{

/** Block scheduling policies. */
enum class SchedulerKind
{
    /** Compile blocks in the order given. */
    InputOrder,
    /** Sort blocks lexicographically (Paulihedral-style ordering). */
    Lexicographic,
    /** The paper's similarity top-K lookahead scheduler. */
    Lookahead,
};

/** All user-facing compiler knobs. */
struct TetrisOptions
{
    SynthesisOptions synthesis;
    SchedulerKind scheduler = SchedulerKind::Lookahead;
    /** Candidate-set size K of the lookahead scheduler. */
    int lookaheadK = 10;
    /** Run the peephole ("Qiskit O3") pass after synthesis. */
    bool runPeephole = true;
    /**
     * Seed placement: logical->physical mapping the compilation
     * starts from (entries of -1 leave the qubit unplaced). Empty
     * (the default) starts from the identity placement. The
     * streaming frontend chains chunks with this: chunk N starts
     * from chunk N-1's final layout, so no movement is needed
     * between chunk circuits. Must be an injective map into
     * [0, hw.numQubits()); part of the options content hash (and
     * therefore of the compile-cache key).
     */
    std::vector<int> initialLayout;
    /**
     * Extension (the paper's Tetris-IR-recursive future work):
     * reorder strings within each block for maximal consecutive
     * similarity before synthesis, increasing the recursive
     * cancellation the peephole can harvest. Applied only to blocks
     * whose strings mutually commute (semantics-preserving); this
     * covers all UCCSD and QAOA workloads.
     */
    bool reorderStringsInBlock = true;
};

/** Metrics of one compilation (paper Sec. VI-A definitions). */
struct CompileStats
{
    size_t cnotCount = 0;      ///< CX + 3 per SWAP, final circuit.
    size_t oneQubitCount = 0;  ///< All 1Q gates, final circuit.
    size_t totalGateCount = 0; ///< cnotCount + oneQubitCount.
    size_t depth = 0;          ///< SWAP = 3 layers.
    double durationDt = 0.0;   ///< Critical path in dt.
    size_t swapCount = 0;      ///< SWAPs surviving in the circuit.
    size_t swapCnots = 0;      ///< 3 * swapCount.
    size_t logicalCnots = 0;   ///< cnotCount - swapCnots.
    size_t originalCnots = 0;  ///< Naive per-string chain CNOTs.
    double cancelRatio = 0.0;  ///< (original - logical) / original.
    /** Compile wall time. It and the three stage times below are
     *  measured, not decided: a result served from the disk tier, a
     *  Result frame or a .tcs chunk carries no compile time (0.0). */
    double compileSeconds = 0.0;
    /** Scheduler time: ranking + cost estimation (not synthesis). */
    double scheduleSeconds = 0.0;
    /**
     * Time building the circuit: per-block synthesis, which places
     * its own SWAPs and bridges. For the routed baselines, logical
     * synthesis plus routing; for the QAOA passes, the combined
     * gate-selection and routing loop.
     */
    double synthSeconds = 0.0;
    /** Time inside the peephole ("O3") passes. */
    double peepholeSeconds = 0.0;
    SynthStats synthesis;
};

/**
 * Splits one compile's wall time into CompileStats' stages: each
 * lap(stage) adds the time since the previous lap (or since the
 * clock started) to that stage's field, and finalizeStats() reads
 * the whole compile time from it.
 */
class StageClock
{
  public:
    void
    lap(double &stage_seconds)
    {
        const auto now = std::chrono::steady_clock::now();
        stage_seconds += std::chrono::duration<double>(now - last_).count();
        last_ = now;
    }

    /** Seconds since the clock started. */
    double
    elapsed() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point last_ = start_;
};

/** Output of a compilation. A .tca image stores all of it but the
 *  stats timings: read back, a result carries no compile time (0.0). */
struct CompileResult
{
    Circuit circuit; ///< Physical circuit on hw.numQubits() wires.
    CompileStats stats;
    /**
     * The placement the circuit assumes at its input. Default
     * constructed (numPhysical() == 0) means identity: logical wire
     * l enters on physical wire l, the contract of every
     * non-streamed compilation. Streamed chunks seeded from a
     * previous chunk's final layout record that seed here, and the
     * verifier checks against it.
     */
    Layout initialLayout;
    Layout finalLayout;
    std::vector<size_t> blockOrder; ///< Scheduled block indices.
    /**
     * True when the engine abandoned the job before compiling it
     * (Engine::cancelPending); all other fields are empty/zero then.
     */
    bool cancelled = false;
};

/** Compile a block list for a device with the Tetris pipeline. */
CompileResult compileTetris(const std::vector<PauliBlock> &blocks,
                            const CouplingGraph &hw,
                            const TetrisOptions &opts = TetrisOptions());

/**
 * Block indices sorted by the blocks' concatenated string text
 * (stable): the order of SchedulerKind::Lexicographic and of the
 * Paulihedral baseline.
 */
std::vector<size_t> lexicographicOrder(const std::vector<PauliBlock> &blocks);

/** Number of logical qubits a block list is defined over. */
int blocksNumQubits(const std::vector<PauliBlock> &blocks);

/**
 * Finish a compile of `blocks`: fill result.stats' counts from one
 * walk over result.circuit, its naive chain count and cancel ratio,
 * and compileSeconds from `clock`. The stage times and
 * stats.synthesis are the pipeline's own.
 */
void finalizeStats(const std::vector<PauliBlock> &blocks,
                   const StageClock &clock, CompileResult &result);

/**
 * FNV-1a hash over every compiler knob (scheduler, lookahead K,
 * peephole/reorder toggles, and all synthesis options). Part of the
 * compile-cache key: two option sets hashing equal compile equally.
 */
uint64_t optionsContentHash(const TetrisOptions &opts);

/** Append `stats` as a JSON object to `w`. */
class JsonWriter;
void writeJson(JsonWriter &w, const CompileStats &stats);

} // namespace tetris

#endif // TETRIS_CORE_COMPILER_HH
