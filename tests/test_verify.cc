/**
 * @file
 * Tests of the semantic equivalence verifier (src/verify/): both
 * checkers pass on every registered general-purpose pipeline, a
 * matrix of deliberate miscompiles (dropped gate, flipped angle sign,
 * swapped CX wires, stale layout, injected gate) is rejected by
 * *both* checkers, a 1e-4 angle error by the conjugation checker,
 * bridged circuits with Z-factors on |0> ancillas and programs with
 * constant (all-identity) terms are accepted, qubit-reuse circuits
 * are skipped, and the engine's
 * EngineOptions::verify pass counts pass/fail/skipped -- including
 * catching stale artifacts served from the persistent disk store.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "chem/uccsd.hh"
#include "core/compiler.hh"
#include "core/pipeline.hh"
#include "core/qaoa_pass.hh"
#include "engine/disk_cache.hh"
#include "engine/engine.hh"
#include "hardware/topologies.hh"
#include "qaoa/graph.hh"
#include "qaoa/qaoa.hh"
#include "verify/verify.hh"

namespace tetris
{
namespace
{

namespace fs = std::filesystem;

/** A 5-qubit 3-block workload with X/Y/Z structure and a repeated-
 *  axis block, compiled on a 7-qubit device (2 free ancillas). */
std::vector<PauliBlock>
smallWorkload()
{
    std::vector<PauliBlock> blocks;
    blocks.push_back(PauliBlock({PauliString::fromText("XXIII"),
                                 PauliString::fromText("YYIII")},
                                0.31));
    blocks.push_back(PauliBlock({PauliString::fromText("IZZXI"),
                                 PauliString::fromText("IZYYI")},
                                {1.0, 0.5}, -0.47));
    blocks.push_back(PauliBlock({PauliString::fromText("ZIIIZ")}, 0.83));
    return blocks;
}

/** The pipelines whose results follow the unitary contract. */
std::vector<std::string>
generalPipelines()
{
    return {"tetris",  "paulihedral", "tket-o2",   "tket-o3",
            "pcoast",  "naive",       "max-cancel"};
}

CompileResult
compileSmall(const std::string &pipeline_id)
{
    CouplingGraph hw = lineTopology(7);
    auto pipe = PipelineRegistry::instance().create(pipeline_id);
    return pipe->run(smallWorkload(), hw);
}

/** A copy of `res` whose first RZ angle is off by `delta`. */
CompileResult
withRzError(const CompileResult &res, double delta)
{
    CompileResult out = res;
    Circuit circ(res.circuit.numQubits());
    bool nudged = false;
    for (Gate g : res.circuit.gates()) {
        if (!nudged && g.kind == GateKind::RZ) {
            g.angle += delta;
            nudged = true;
        }
        circ.add(g);
    }
    EXPECT_TRUE(nudged) << "no RZ gate to corrupt";
    out.circuit = std::move(circ);
    return out;
}

/**
 * Programs with constant (all-identity) terms, which Hamiltonian
 * Pauli lists often carry: one beside the strings of a commuting
 * block, one inside a non-commuting block, and one alone; then a
 * globally commuting program (a single order-free pool) with one. An
 * identity rotation is only a global phase, so no pipeline emits a
 * gate for it.
 */
std::vector<std::vector<PauliBlock>>
identityTermWorkloads()
{
    std::vector<PauliBlock> mixed = smallWorkload();
    mixed[0] = PauliBlock({PauliString::fromText("XXIII"),
                           PauliString::fromText("IIIII"),
                           PauliString::fromText("YYIII")},
                          {1.0, 0.7, 1.0}, 0.31);
    mixed.push_back(PauliBlock({PauliString::fromText("XIIII"),
                                PauliString::fromText("IIIII"),
                                PauliString::fromText("ZIIII")},
                               {0.4, 1.3, 0.9}, 0.6));
    mixed.push_back(PauliBlock({PauliString::fromText("IIIII")}, -1.2));

    std::vector<PauliBlock> commuting = {
        PauliBlock({PauliString::fromText("ZZIII"),
                    PauliString::fromText("IIIII")},
                   0.45),
        PauliBlock({PauliString::fromText("IZZII")}, 0.8)};
    return {mixed, commuting};
}

TEST(VerifyCheckers, EveryGeneralPipelinePassesBoth)
{
    // The compiled circuit holds no rotation for a constant term, so
    // neither checker may expect one.
    std::vector<std::vector<PauliBlock>> workloads = identityTermWorkloads();
    workloads.insert(workloads.begin(), smallWorkload());
    CouplingGraph hw = lineTopology(7);
    for (size_t w = 0; w < workloads.size(); ++w) {
        const auto &blocks = workloads[w];
        for (const auto &id : generalPipelines()) {
            CompileResult res =
                PipelineRegistry::instance().create(id)->run(blocks, hw);
            VerifyReport exact = verifyExact(blocks, res);
            EXPECT_EQ(exact.status, VerifyStatus::Pass)
                << "workload " << w << ", " << id << ": " << exact.detail;
            VerifyReport conj = verifyConjugation(blocks, res);
            EXPECT_EQ(conj.status, VerifyStatus::Pass)
                << "workload " << w << ", " << id << ": " << conj.detail;
        }
    }
}

TEST(VerifyCheckers, AgreeOnHeavyHexWithAncillas)
{
    auto blocks = smallWorkload();
    CouplingGraph hw = heavyHexTopology(2, 5);
    for (const auto &id : generalPipelines()) {
        CompileResult res =
            PipelineRegistry::instance().create(id)->run(blocks, hw);
        EXPECT_TRUE(verifyExact(blocks, res).pass()) << id;
        EXPECT_TRUE(verifyConjugation(blocks, res).pass()) << id;
    }
}

TEST(VerifyConjugation, ScalesToRealDeviceWidths)
{
    // 65 physical qubits: far beyond the exact checker, the whole
    // point of the conjugation checker. Synthetic UCCSD keeps the
    // runtime modest.
    auto blocks = buildSyntheticUcc(20, 1020);
    CouplingGraph hw = ibmIthaca65();
    CompileResult res = compileTetris(blocks, hw);

    VerifyReport exact = verifyExact(blocks, res);
    EXPECT_EQ(exact.status, VerifyStatus::Skipped);

    VerifyReport conj = verifyConjugation(blocks, res);
    EXPECT_EQ(conj.status, VerifyStatus::Pass) << conj.detail;
}

TEST(VerifyConjugation, AcceptsBridgedRotationsThroughAncillas)
{
    // ZZ(0,4) on a ring-8 with 5 logicals: the back arc is all free
    // ancillas, so the QAOA pass bridges instead of swapping and the
    // rotation axis picks up Z factors on |0> wires -- legal.
    PauliString s(5);
    s.setOp(0, PauliOp::Z);
    s.setOp(4, PauliOp::Z);
    std::vector<PauliBlock> blocks = {PauliBlock({s}, 0.3)};

    CouplingGraph hw = ringTopology(8);
    QaoaPassOptions opts;
    opts.enableQubitReuse = false;
    CompileResult res = compileQaoaTetris(blocks, hw, opts);
    ASSERT_EQ(res.stats.swapCount, 0u); // bridged, not swapped

    EXPECT_TRUE(verifyConjugation(blocks, res).pass());
    EXPECT_TRUE(verifyExact(blocks, res).pass());
}

// ---- non-commuting in-block rotation order ------------------------
//
// Blocks whose strings do not all commute used to come back Skipped
// from the conjugation checker ("in-block rotation order not
// modeled"). It now tracks that order, so these are hard passes —
// and commutation-violating reorderings are hard failures.

/** Two blocks with anticommuting in-block strings; block 0 repeats
 *  an axis around a non-commuting neighbour so checking it needs
 *  the ordered residual carry, not just per-axis sums. */
std::vector<PauliBlock>
orderedWorkload()
{
    std::vector<PauliBlock> blocks;
    blocks.push_back(PauliBlock({PauliString::fromText("XI"),
                                 PauliString::fromText("ZI"),
                                 PauliString::fromText("XI")},
                                {0.3, 0.7, 0.5}, 1.0));
    blocks.push_back(PauliBlock({PauliString::fromText("ZX"),
                                 PauliString::fromText("ZZ")},
                                0.41));
    return blocks;
}

TEST(VerifyConjugation, NonCommutingBlocksVerifyInsteadOfSkipping)
{
    auto blocks = orderedWorkload();
    CouplingGraph hw = lineTopology(4);
    for (const auto &id : generalPipelines()) {
        CompileResult res =
            PipelineRegistry::instance().create(id)->run(blocks, hw);
        VerifyReport exact = verifyExact(blocks, res);
        EXPECT_EQ(exact.status, VerifyStatus::Pass)
            << id << ": " << exact.detail;
        VerifyReport conj = verifyConjugation(blocks, res);
        EXPECT_EQ(conj.status, VerifyStatus::Pass)
            << id << ": " << conj.detail;
    }
}

/** A compiled result built gate by gate on an identity layout. */
CompileResult
handBuiltResult(int num_qubits, const std::vector<Gate> &gates)
{
    CompileResult res;
    Circuit circ(num_qubits);
    for (const auto &g : gates)
        circ.add(g);
    res.circuit = std::move(circ);
    res.finalLayout = Layout(num_qubits, num_qubits);
    res.blockOrder = {0};
    return res;
}

TEST(VerifyConjugation, EnforcesNonCommutingRotationOrder)
{
    // One block, program order X(0.3) Z(0.7) X(0.5) on qubit 0: the
    // X/Z pairs anticommute, so that order is part of the unitary.
    std::vector<PauliBlock> blocks = {
        PauliBlock({PauliString::fromText("XI"),
                    PauliString::fromText("ZI"),
                    PauliString::fromText("XI")},
                   {0.3, 0.7, 0.5}, 1.0)};

    // Faithful order (split X rotations stay split): Pass.
    CompileResult good = handBuiltResult(
        2, {Gate::rx(0, 0.3), Gate::rz(0, 0.7), Gate::rx(0, 0.5)});
    EXPECT_TRUE(verifyExact(blocks, good).pass());
    VerifyReport conj = verifyConjugation(blocks, good);
    EXPECT_EQ(conj.status, VerifyStatus::Pass) << conj.detail;

    // Pulling Z ahead of the first X reorders an anticommuting pair.
    CompileResult swapped = handBuiltResult(
        2, {Gate::rz(0, 0.7), Gate::rx(0, 0.3), Gate::rx(0, 0.5)});
    EXPECT_TRUE(verifyExact(blocks, swapped).failed());
    EXPECT_TRUE(verifyConjugation(blocks, swapped).failed());

    // Merging the two X rotations across the non-commuting Z — the
    // exact move the old per-axis-sum model could not reject.
    CompileResult merged =
        handBuiltResult(2, {Gate::rx(0, 0.8), Gate::rz(0, 0.7)});
    EXPECT_TRUE(verifyExact(blocks, merged).failed());
    EXPECT_TRUE(verifyConjugation(blocks, merged).failed());
}

TEST(VerifyConjugation, SkipsQubitReuseCircuits)
{
    Graph g = Graph::regular(8, 3, 17);
    auto blocks = buildQaoaCostBlocks(g, 0.2);
    CouplingGraph hw = heavyHexTopology(2, 5);
    QaoaPassOptions opts;
    opts.enableQubitReuse = true;
    CompileResult res = compileQaoaTetris(blocks, hw, opts);

    VerifyReport report = verifyConjugation(blocks, res);
    EXPECT_EQ(report.status, VerifyStatus::Skipped);
    EXPECT_NE(report.detail.find("MEASURE"), std::string::npos)
        << report.detail;
}

TEST(VerifyConjugation, SkipsCancelledResults)
{
    CompileResult cancelled;
    cancelled.cancelled = true;
    VerifyReport report = verifyConjugation(smallWorkload(), cancelled);
    EXPECT_EQ(report.status, VerifyStatus::Skipped);
}

// ---- mutation matrix: every corruption class must be rejected -----

class VerifyMutations : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        blocks_ = smallWorkload();
        good_ = compileSmall("tetris");
        ASSERT_TRUE(verifyExact(blocks_, good_).pass());
        ASSERT_TRUE(verifyConjugation(blocks_, good_).pass());
    }

    /** Both checkers must flag the mutated result. */
    void
    expectRejected(const CompileResult &mutated, const char *what)
    {
        VerifyReport exact = verifyExact(blocks_, mutated);
        EXPECT_EQ(exact.status, VerifyStatus::Fail)
            << what << " not caught by exact checker";
        VerifyReport conj = verifyConjugation(blocks_, mutated);
        EXPECT_EQ(conj.status, VerifyStatus::Fail)
            << what << " not caught by conjugation checker";
    }

    /** Copy the good result with the gate list transformed. */
    CompileResult
    withGates(const std::vector<Gate> &gates)
    {
        CompileResult res = good_;
        Circuit circ(good_.circuit.numQubits());
        for (const auto &g : gates)
            circ.add(g);
        res.circuit = std::move(circ);
        return res;
    }

    std::vector<PauliBlock> blocks_;
    CompileResult good_;
};

TEST_F(VerifyMutations, DroppedCxGate)
{
    std::vector<Gate> gates = good_.circuit.gates();
    auto it = std::find_if(gates.begin(), gates.end(), [](const Gate &g) {
        return g.kind == GateKind::CX;
    });
    ASSERT_NE(it, gates.end());
    gates.erase(it);
    expectRejected(withGates(gates), "dropped CX");
}

TEST_F(VerifyMutations, WrongRotationSign)
{
    std::vector<Gate> gates = good_.circuit.gates();
    auto it = std::find_if(gates.begin(), gates.end(), [](const Gate &g) {
        return g.kind == GateKind::RZ && std::abs(g.angle) > 0.05;
    });
    ASSERT_NE(it, gates.end());
    it->angle = -it->angle;
    expectRejected(withGates(gates), "flipped rotation sign");
}

TEST_F(VerifyMutations, SwappedCxWires)
{
    std::vector<Gate> gates = good_.circuit.gates();
    auto it = std::find_if(gates.begin(), gates.end(), [](const Gate &g) {
        return g.kind == GateKind::CX;
    });
    ASSERT_NE(it, gates.end());
    std::swap(it->q0, it->q1);
    expectRejected(withGates(gates), "swapped CX control/target");
}

TEST_F(VerifyMutations, InjectedGate)
{
    std::vector<Gate> gates = good_.circuit.gates();
    gates.insert(gates.begin() + gates.size() / 2, Gate::x(0));
    expectRejected(withGates(gates), "injected X gate");
}

TEST_F(VerifyMutations, StaleFinalLayout)
{
    // Swap where two logical qubits claim to have ended up: the
    // permutation no longer matches the circuit's SWAP history.
    CompileResult res = good_;
    std::vector<int> l2p = res.finalLayout.toPhysical();
    ASSERT_GE(l2p.size(), 2u);
    std::swap(l2p[0], l2p[1]);
    auto stale =
        Layout::fromMapping(l2p, res.finalLayout.numPhysical());
    ASSERT_TRUE(stale.has_value());
    res.finalLayout = *stale;
    expectRejected(res, "stale final layout");
}

TEST_F(VerifyMutations, SmallAngleError)
{
    // A 1e-4 error in one RZ angle. The exact checker passes this:
    // the state overlap moves by only O(delta^2), about 1e-9, inside
    // its 1e-7 tolerance. The conjugation checker sees the 1e-4
    // per-axis angle residual itself.
    VerifyReport conj = verifyConjugation(blocks_, withRzError(good_, 1e-4));
    EXPECT_EQ(conj.status, VerifyStatus::Fail) << conj.detail;
}

TEST_F(VerifyMutations, CorruptBlockOrder)
{
    CompileResult res = good_;
    res.blockOrder.assign(res.blockOrder.size(), 999);
    EXPECT_TRUE(verifyExact(blocks_, res).failed());
    EXPECT_TRUE(verifyConjugation(blocks_, res).failed());
}

// ---- engine integration -------------------------------------------

std::shared_ptr<const CouplingGraph>
sharedLine(int n)
{
    return std::make_shared<const CouplingGraph>(lineTopology(n));
}

TEST(VerifyEngine, CountsPassesOncePerUniqueJob)
{
    EngineOptions opts;
    opts.verify = true;
    Engine engine(opts);

    std::vector<CompileJob> jobs;
    for (int i = 0; i < 2; ++i) { // identical pair: dedup to one
        CompileJob job;
        job.name = "dup";
        job.blocks = smallWorkload();
        job.hw = sharedLine(7);
        jobs.push_back(job);
    }
    auto results = engine.compileAll(std::move(jobs));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(engine.metrics().count("verify.pass"), 1u);
    EXPECT_EQ(engine.metrics().count("verify.fail"), 0u);
}

TEST(VerifyEngine, CatchesStaleDiskArtifact)
{
    CompileJob job;
    job.name = "victim";
    job.blocks = smallWorkload();
    job.hw = sharedLine(7);

    // Plant artifacts under the job's key that decode but are wrong,
    // exactly what a key collision or a missed ABI bump would
    // produce: the circuit of a *different* program, and the job's
    // own circuit with one RZ angle off by 1e-4 (which the exact
    // checker would pass).
    std::vector<PauliBlock> other = {
        PauliBlock({PauliString::fromText("XIIII")}, 1.1)};
    const std::pair<const char *, CompileResult> planted[] = {
        {"other program", defaultPipeline()->run(other, *job.hw)},
        {"rz off by 1e-4",
         withRzError(defaultPipeline()->run(job.blocks, *job.hw), 1e-4)},
    };
    for (const auto &[what, wrong] : planted) {
        fs::path root =
            fs::path(::testing::TempDir()) / "tetris_verify_stale";
        fs::remove_all(root);
        auto disk = DiskCache::open(root.string());
        ASSERT_NE(disk, nullptr);
        ASSERT_TRUE(disk->store(Engine::jobKey(job), wrong));

        EngineOptions opts;
        opts.verify = true;
        opts.diskCache = disk;
        Engine engine(opts);
        engine.submit(job);
        ASSERT_NE(engine.wait(0), nullptr) << what;

        EXPECT_EQ(engine.metrics().count("jobs.disk_hits"), 1u) << what;
        EXPECT_EQ(engine.metrics().count("verify.fail"), 1u) << what;
        EXPECT_EQ(engine.metrics().count("verify.pass"), 0u) << what;
        fs::remove_all(root);
    }
}

TEST(VerifyEngine, PassesProgramsWithIdentityTerms)
{
    EngineOptions opts;
    opts.verify = true;
    Engine engine(opts);

    std::vector<CompileJob> jobs;
    for (auto &blocks : identityTermWorkloads()) {
        CompileJob job;
        job.name = "constant-term-" + std::to_string(jobs.size());
        job.blocks = std::move(blocks);
        job.hw = sharedLine(7);
        jobs.push_back(std::move(job));
    }
    engine.compileAll(std::move(jobs));
    EXPECT_EQ(engine.metrics().count("verify.pass"), 2u);
    EXPECT_EQ(engine.metrics().count("verify.fail"), 0u);
}

TEST(VerifyEngine, AbiVersionMovesJobKey)
{
    CompileJob job;
    job.blocks = smallWorkload();
    job.hw = sharedLine(7);
    EXPECT_EQ(Engine::jobKey(job), Engine::jobKey(job, kTetrisAbiVersion));
    EXPECT_NE(Engine::jobKey(job, kTetrisAbiVersion),
              Engine::jobKey(job, kTetrisAbiVersion + 1));
}

} // namespace
} // namespace tetris
