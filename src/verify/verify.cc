#include "verify/verify.hh"

#include <algorithm>

#include "verify/internal.hh"

namespace tetris
{

const char *
verifyStatusName(VerifyStatus s)
{
    switch (s) {
      case VerifyStatus::Pass: return "pass";
      case VerifyStatus::Fail: return "fail";
      case VerifyStatus::Skipped: return "skipped";
    }
    return "?";
}

namespace verify_detail
{

int
registerWidth(const std::vector<PauliBlock> &blocks,
              const CompileResult &result)
{
    int width = std::max(result.circuit.numQubits(),
                         blocksNumQubits(blocks));
    return std::max(width, 1);
}

bool
circuitIsUnitary(const Circuit &c)
{
    for (const auto &g : c.gates()) {
        if (g.kind == GateKind::MEASURE || g.kind == GateKind::RESET)
            return false;
    }
    return true;
}

std::optional<std::vector<int>>
layoutPermutation(const Layout &layout, int num_logical, int num_phys,
                  std::string &why_not)
{
    // Unrouted pipelines leave the layout default-constructed:
    // logical wire l stays on physical wire l.
    std::vector<int> new_pos(num_phys, -1);
    std::vector<bool> used(num_phys, false);
    for (int l = 0; l < num_logical; ++l) {
        int pos = l;
        if (layout.numPhysical() > 0) {
            if (l >= layout.numLogical()) {
                why_not = "layout narrower than the program";
                return std::nullopt;
            }
            pos = layout.physOf(l);
        }
        if (pos < 0) {
            // Qubit-reuse pipelines evict finished logical qubits;
            // the permutation contract does not apply to them.
            why_not = "logical qubit evicted from the layout "
                      "(qubit reuse)";
            return std::nullopt;
        }
        if (pos >= num_phys || used[pos]) {
            why_not = "layout is not an injective map into the "
                      "register";
            return std::nullopt;
        }
        new_pos[l] = pos;
        used[pos] = true;
    }
    // Free wires are |0> on both sides; fill the remaining slots in
    // ascending order so the permutation is total.
    int next_free = 0;
    for (int b = 0; b < num_phys; ++b) {
        if (new_pos[b] >= 0)
            continue;
        while (used[next_free])
            ++next_free;
        new_pos[b] = next_free;
        used[next_free] = true;
    }
    return new_pos;
}

std::optional<std::vector<int>>
finalPermutation(const CompileResult &result, int num_logical,
                 int num_phys, std::string &why_not)
{
    return layoutPermutation(result.finalLayout, num_logical, num_phys,
                             why_not);
}

} // namespace verify_detail

} // namespace tetris
