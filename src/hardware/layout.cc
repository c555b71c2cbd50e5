#include "hardware/layout.hh"

#include "common/logging.hh"

namespace tetris
{

Layout::Layout(int num_logical, int num_physical)
    : l2p_(num_logical), p2l_(num_physical, -1)
{
    TETRIS_ASSERT(num_logical <= num_physical,
                  "more logical than physical qubits");
    for (int i = 0; i < num_logical; ++i) {
        l2p_[i] = i;
        p2l_[i] = i;
    }
}

std::optional<Layout>
Layout::fromMapping(const std::vector<int> &l2p, int num_physical)
{
    if (num_physical < 0)
        return std::nullopt;
    Layout layout;
    layout.l2p_ = l2p;
    layout.p2l_.assign(num_physical, -1);
    for (size_t logical = 0; logical < l2p.size(); ++logical) {
        int phys = l2p[logical];
        if (phys < 0)
            continue; // unplaced
        if (phys >= num_physical || layout.p2l_[phys] >= 0)
            return std::nullopt; // out of range or two-on-one
        layout.p2l_[phys] = static_cast<int>(logical);
    }
    return layout;
}

void
Layout::applySwap(int phys_a, int phys_b)
{
    int la = p2l_[phys_a];
    int lb = p2l_[phys_b];
    p2l_[phys_a] = lb;
    p2l_[phys_b] = la;
    if (la >= 0)
        l2p_[la] = phys_b;
    if (lb >= 0)
        l2p_[lb] = phys_a;
}

void
Layout::place(int logical, int phys)
{
    TETRIS_ASSERT(isFree(phys), "physical slot occupied");
    TETRIS_ASSERT(l2p_[logical] < 0, "logical qubit already placed");
    l2p_[logical] = phys;
    p2l_[phys] = logical;
}

void
Layout::evict(int logical)
{
    int phys = l2p_[logical];
    TETRIS_ASSERT(phys >= 0 && p2l_[phys] == logical);
    p2l_[phys] = -1;
    l2p_[logical] = -1;
}

} // namespace tetris
