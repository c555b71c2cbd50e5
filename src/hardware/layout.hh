/**
 * @file
 * Logical-to-physical qubit layout.
 */

#ifndef TETRIS_HARDWARE_LAYOUT_HH
#define TETRIS_HARDWARE_LAYOUT_HH

#include <optional>
#include <vector>

namespace tetris
{

/**
 * A bijective partial mapping between logical program qubits and
 * physical device qubits. Physical qubits holding no logical qubit
 * are "free" (the bridging pass treats unused free qubits as |0>
 * ancillas).
 */
class Layout
{
  public:
    Layout() = default;

    /** Identity mapping: logical i on physical i. */
    Layout(int num_logical, int num_physical);

    /**
     * Rebuild a layout from its logical->physical vector (the
     * toPhysical() image), e.g. when deserializing. Entries of -1 are
     * unplaced logical qubits. Returns nullopt instead of asserting
     * when the mapping is not an injective map into
     * [0, num_physical) — the input may come from untrusted bytes.
     */
    static std::optional<Layout> fromMapping(const std::vector<int> &l2p,
                                             int num_physical);

    int numLogical() const { return static_cast<int>(l2p_.size()); }
    int numPhysical() const { return static_cast<int>(p2l_.size()); }

    /** Physical position of a logical qubit. */
    int physOf(int logical) const { return l2p_[logical]; }

    /** Logical occupant of a physical qubit, or -1 if free. */
    int logicalAt(int phys) const { return p2l_[phys]; }

    /** True if the physical qubit carries no logical qubit. */
    bool isFree(int phys) const { return p2l_[phys] < 0; }

    /** Exchange the occupants of two physical qubits. */
    void applySwap(int phys_a, int phys_b);

    /** Assign logical qubit onto a free physical qubit. */
    void place(int logical, int phys);

    /** Remove a logical qubit from the layout (its slot becomes free). */
    void evict(int logical);

    /** The full logical->physical vector. */
    const std::vector<int> &toPhysical() const { return l2p_; }

    bool operator==(const Layout &o) const = default;

  private:
    std::vector<int> l2p_;
    std::vector<int> p2l_;
};

} // namespace tetris

#endif // TETRIS_HARDWARE_LAYOUT_HH
