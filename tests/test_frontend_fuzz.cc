/**
 * @file
 * Total-decode fuzzing for the streaming frontend parsers.
 *
 * The contract under test (frontend/frontend.hh): for ANY byte
 * sequence, each parser either produces blocks to a clean end or
 * stops with one typed, positioned ParseError — never a crash,
 * assert, hang, or unbounded allocation, and always the same answer
 * for the same bytes (streamed parsing must be deterministic or the
 * differential corpus means nothing).
 *
 * Three input populations, all seeded:
 *  - structured: random valid programs from small grammars (these
 *    must parse clean — a generator/parser disagreement is a bug on
 *    one side or the other);
 *  - mutated: valid programs after byte flips, splices, deletions,
 *    and truncations (the realistic corruption population);
 *  - garbage: uniformly random bytes (the adversarial floor).
 *
 * scripts/fuzz_frontend.py drives many seeds of this same binary in
 * the nightly job:
 *   TETRIS_FUZZ_SEED=<n>   base seed (default 1)
 *   TETRIS_FUZZ_CASES=<n>  cases per suite (default 25)
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "common/rng.hh"
#include "frontend/pauli_parser.hh"
#include "frontend/qasm_parser.hh"

namespace tetris
{
namespace
{

using namespace tetris::frontend;

uint64_t
baseSeed()
{
    return envInt("TETRIS_FUZZ_SEED", 0, INT64_MAX, 1);
}

int
numCases()
{
    return static_cast<int>(envInt("TETRIS_FUZZ_CASES", 0, INT32_MAX, 25));
}

/** Outcome of one full drain of a parser, for determinism checks. */
struct DrainResult
{
    size_t blocks = 0;
    bool clean = false;
    std::string errorText;
    uint64_t instructions = 0;

    bool operator==(const DrainResult &o) const
    {
        return blocks == o.blocks && clean == o.clean &&
               errorText == o.errorText &&
               instructions == o.instructions;
    }
};

/**
 * Drain one parser over `text`. EXPECTs the total-decode contract on
 * the way: an error outcome must be typed and positioned, and the
 * parser must stay in its error state (sticky) if pumped again.
 */
template <typename Parser>
void
drain(const std::string &text, DrainResult &out_result)
{
    std::istringstream in(text);
    Parser parser(in);
    DrainResult out;
    PauliBlock b;
    BlockSource::Status s;
    // The loop bound is structural: each next() either consumes
    // input or ends, so blocks can never exceed input bytes. The
    // +16 headroom catches an empty-progress loop as a test failure
    // instead of a timeout.
    const size_t max_blocks = text.size() + 16;
    while ((s = parser.next(b)) == BlockSource::Status::Block) {
        ++out.blocks;
        ASSERT_LE(out.blocks, max_blocks)
            << "parser produced blocks without consuming input";
        // Every produced block is structurally sound.
        ASSERT_GT(b.size(), 0u);
        ASSERT_GT(b.numQubits(), 0u);
    }
    out.clean = s == BlockSource::Status::End;
    out.instructions = parser.instructionsRead();
    if (!out.clean) {
        const ParseError &e = parser.error();
        EXPECT_NE(e.kind, ParseErrorKind::None);
        EXPECT_GE(e.line, 1u);
        EXPECT_GE(e.column, 1u);
        EXPECT_FALSE(e.message.empty());
        out.errorText = e.toText();
        // Sticky: pumping a dead parser stays Error, same diagnostic.
        EXPECT_EQ(parser.next(b), BlockSource::Status::Error);
        EXPECT_EQ(parser.error().toText(), out.errorText);
    } else {
        EXPECT_TRUE(parser.error().ok());
    }
    out_result = out;
}

/** drain() twice and require identical outcomes (determinism). */
template <typename Parser>
DrainResult
drainDeterministic(const std::string &text)
{
    DrainResult a, b;
    drain<Parser>(text, a);
    drain<Parser>(text, b);
    EXPECT_TRUE(a == b) << "non-deterministic parse: '" << a.errorText
                        << "' vs '" << b.errorText << "'";
    return a;
}

// ---- structured generators -----------------------------------------

std::string
randomQasm(Rng &rng)
{
    std::ostringstream out;
    const int n = rng.uniformInt(1, 12);
    out << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" << n
        << "];\n";
    const int stmts = rng.uniformInt(0, 60);
    const char *one_q[] = {"h",  "x",  "y",   "z",  "s",
                           "sdg", "t", "tdg", "sx", "id"};
    for (int i = 0; i < stmts; ++i) {
        switch (rng.uniformInt(0, 4)) {
        case 0:
            out << one_q[rng.uniformInt(0, 9)] << " q["
                << rng.uniformInt(0, n - 1) << "];\n";
            break;
        case 1:
            out << (rng.bernoulli(0.5) ? "rz" : "rx") << "("
                << (rng.uniform() * 6.2 - 3.1) << ") q["
                << rng.uniformInt(0, n - 1) << "];\n";
            break;
        case 2: {
            if (n < 2)
                break;
            int a = rng.uniformInt(0, n - 1);
            int b = rng.uniformInt(0, n - 2);
            if (b >= a)
                ++b;
            out << (rng.bernoulli(0.5) ? "cx" : "cz") << " q[" << a
                << "], q[" << b << "];\n";
            break;
        }
        case 3:
            out << "u3(" << rng.uniform() << ", pi/2, -pi/4) q["
                << rng.uniformInt(0, n - 1) << "];\n";
            break;
        default:
            out << "barrier q;\n";
            break;
        }
    }
    return out.str();
}

std::string
randomPauliList(Rng &rng)
{
    std::ostringstream out;
    const int n = rng.uniformInt(1, 16);
    const int blocks = rng.uniformInt(1, 20);
    const char ops[] = {'I', 'X', 'Y', 'Z'};
    for (int bi = 0; bi < blocks; ++bi) {
        out << "block " << (rng.uniform() * 2 - 1) << "\n";
        const int strings = rng.uniformInt(1, 4);
        for (int si = 0; si < strings; ++si) {
            std::string s;
            bool nontrivial = false;
            for (int q = 0; q < n; ++q) {
                char c = ops[rng.uniformInt(0, 3)];
                nontrivial |= c != 'I';
                s.push_back(c);
            }
            if (!nontrivial)
                s[static_cast<size_t>(rng.uniformInt(0, n - 1))] = 'Z';
            out << s;
            if (rng.bernoulli(0.4))
                out << " " << (rng.uniform() * 4 - 2);
            out << "\n";
        }
    }
    return out.str();
}

std::string
mutate(std::string text, Rng &rng)
{
    if (text.empty())
        return text;
    const int edits = rng.uniformInt(1, 4);
    for (int i = 0; i < edits; ++i) {
        const size_t at =
            static_cast<size_t>(rng.uniformInt(
                0, static_cast<int>(text.size()) - 1));
        switch (rng.uniformInt(0, 3)) {
        case 0: // flip one byte to anything
            text[at] = static_cast<char>(rng.uniformInt(0, 255));
            break;
        case 1: // truncate
            text.resize(at);
            break;
        case 2: // delete a span
            text.erase(at, static_cast<size_t>(rng.uniformInt(1, 16)));
            break;
        default: // duplicate a span onto a random position
            text.insert(at,
                        text.substr(
                            static_cast<size_t>(rng.uniformInt(
                                0,
                                static_cast<int>(text.size()) - 1)),
                            static_cast<size_t>(rng.uniformInt(1, 24))));
            break;
        }
        if (text.empty())
            break;
    }
    return text;
}

// ---- suites --------------------------------------------------------

TEST(FrontendFuzz, StructuredQasmParsesClean)
{
    for (int c = 0; c < numCases(); ++c) {
        Rng rng(baseSeed() * 1000003 + static_cast<uint64_t>(c));
        const std::string text = randomQasm(rng);
        SCOPED_TRACE("case " + std::to_string(c));
        DrainResult r = drainDeterministic<QasmParser>(text);
        EXPECT_TRUE(r.clean) << r.errorText << "\n" << text;
    }
}

TEST(FrontendFuzz, StructuredPauliListParsesClean)
{
    for (int c = 0; c < numCases(); ++c) {
        Rng rng(baseSeed() * 2000029 + static_cast<uint64_t>(c));
        const std::string text = randomPauliList(rng);
        SCOPED_TRACE("case " + std::to_string(c));
        DrainResult r = drainDeterministic<PauliListParser>(text);
        EXPECT_TRUE(r.clean) << r.errorText << "\n" << text;
    }
}

TEST(FrontendFuzz, MutatedQasmNeverCrashes)
{
    for (int c = 0; c < numCases() * 4; ++c) {
        Rng rng(baseSeed() * 3000017 + static_cast<uint64_t>(c));
        const std::string text = mutate(randomQasm(rng), rng);
        SCOPED_TRACE("case " + std::to_string(c));
        drainDeterministic<QasmParser>(text);
    }
}

TEST(FrontendFuzz, MutatedPauliListNeverCrashes)
{
    for (int c = 0; c < numCases() * 4; ++c) {
        Rng rng(baseSeed() * 4000037 + static_cast<uint64_t>(c));
        const std::string text = mutate(randomPauliList(rng), rng);
        SCOPED_TRACE("case " + std::to_string(c));
        drainDeterministic<PauliListParser>(text);
    }
}

TEST(FrontendFuzz, GarbageBytesNeverCrash)
{
    for (int c = 0; c < numCases() * 2; ++c) {
        Rng rng(baseSeed() * 5000011 + static_cast<uint64_t>(c));
        std::string text;
        const int len = rng.uniformInt(0, 2048);
        text.reserve(static_cast<size_t>(len));
        for (int i = 0; i < len; ++i)
            text.push_back(static_cast<char>(rng.uniformInt(0, 255)));
        SCOPED_TRACE("case " + std::to_string(c));
        drainDeterministic<QasmParser>(text);
        drainDeterministic<PauliListParser>(text);
    }
}

TEST(FrontendFuzz, CrossFormatInputsAreTypedErrors)
{
    // Feeding each format to the other parser must be a typed error
    // (or, for QASM-to-Pauli, possibly clean-empty), never a crash.
    Rng rng(baseSeed());
    const std::string qasm = randomQasm(rng);
    const std::string pauli = randomPauliList(rng);
    drainDeterministic<PauliListParser>(qasm);
    drainDeterministic<QasmParser>(pauli);
}

} // namespace
} // namespace tetris
