/**
 * @file
 * Workload-generator CLI: stream a synthetic production-scale
 * program (frontend/workloads.hh) to a file or stdout.
 *
 *   gen_workloads --kind shor|grover|chem [--qubits N]
 *                 [--min-instructions M] [--seed S] [--out PATH]
 *
 * shor and chem emit the Pauli-list format; grover emits OpenQASM 2.
 * Writing streams line by line, so --min-instructions 100000000 works
 * in O(1) memory — the point of the exercise.
 *
 * Flags are strict: --qubits takes an integer in [4, 4096],
 * --min-instructions one in [1, 2*10^9] and --seed any unsigned
 * 64-bit decimal. Any other value, or an unknown --kind, prints the
 * usage and exits 2 before --out is opened.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/env.hh"
#include "frontend/workloads.hh"

using namespace tetris::frontend;
using tetris::parseBoundedInt;
using tetris::parseU64;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --kind shor|grover|chem [--qubits N]\n"
        "          [--min-instructions M] [--seed S] [--out PATH]\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string kind;
    std::string out_path = "-";
    WorkloadSpec spec;

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--kind") == 0) {
            kind = next("--kind");
        } else if (std::strcmp(argv[i], "--qubits") == 0) {
            const auto n = parseBoundedInt(next("--qubits"), 4, 4096);
            if (!n)
                return usage(argv[0]);
            spec.numQubits = static_cast<int>(*n);
        } else if (std::strcmp(argv[i], "--min-instructions") == 0) {
            const auto n = parseBoundedInt(next("--min-instructions"), 1,
                                           2'000'000'000);
            if (!n)
                return usage(argv[0]);
            spec.minInstructions = static_cast<uint64_t>(*n);
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            const auto n = parseU64(next("--seed"));
            if (!n)
                return usage(argv[0]);
            spec.seed = *n;
        } else if (std::strcmp(argv[i], "--out") == 0) {
            out_path = next("--out");
        } else {
            return usage(argv[0]);
        }
    }

    using Generator = uint64_t (*)(std::ostream &, const WorkloadSpec &);
    Generator generate = nullptr;
    if (kind == "shor")
        generate = genShorModExp;
    else if (kind == "grover")
        generate = genGrover3Sat;
    else if (kind == "chem")
        generate = genTrotterChem;
    else
        return usage(argv[0]);

    std::ofstream file;
    std::ostream *out = &std::cout;
    if (out_path != "-") {
        file.open(out_path, std::ios::binary | std::ios::trunc);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
            return 1;
        }
        out = &file;
    }

    const uint64_t written = generate(*out, spec);
    out->flush();
    if (!*out) {
        std::fprintf(stderr, "write failure on %s\n", out_path.c_str());
        return 1;
    }

    std::fprintf(stderr,
                 "%s: %llu instructions, %d qubits, seed %llu -> %s\n",
                 kind.c_str(),
                 static_cast<unsigned long long>(written),
                 spec.numQubits,
                 static_cast<unsigned long long>(spec.seed),
                 out_path.c_str());
    return 0;
}
