#include "circuit/gate.hh"

#include <cstdio>

namespace tetris
{

const char *
gateName(GateKind k)
{
    switch (k) {
      case GateKind::H: return "H";
      case GateKind::X: return "X";
      case GateKind::S: return "S";
      case GateKind::Sdg: return "Sdg";
      case GateKind::RZ: return "RZ";
      case GateKind::RX: return "RX";
      case GateKind::CX: return "CX";
      case GateKind::SWAP: return "SWAP";
      case GateKind::MEASURE: return "MEASURE";
      case GateKind::RESET: return "RESET";
    }
    return "?";
}

std::string
Gate::toString() const
{
    char buf[64];
    if (isTwoQubit()) {
        std::snprintf(buf, sizeof(buf), "%s %d %d", gateName(kind), q0, q1);
    } else if (takesAngle(kind)) {
        std::snprintf(buf, sizeof(buf), "%s %d (%g)", gateName(kind), q0,
                      angle);
    } else {
        std::snprintf(buf, sizeof(buf), "%s %d", gateName(kind), q0);
    }
    return buf;
}

} // namespace tetris
