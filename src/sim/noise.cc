#include "sim/noise.hh"

#include <cmath>

namespace tetris
{

double
estimatedSuccessProbability(const Circuit &c, const NoiseModel &noise)
{
    // log-domain product for numerical stability on large circuits.
    const CircuitMetrics m = c.metrics();
    double log_p = 0.0;
    log_p += std::log1p(-noise.p2) * static_cast<double>(m.cnotCount);
    log_p += std::log1p(-noise.p1) * static_cast<double>(m.oneQubitCount);
    return std::exp(log_p);
}

double
echoFidelity(const Circuit &c, const NoiseModel &noise)
{
    double esp = estimatedSuccessProbability(c, noise);
    return esp * esp; // circuit + inverse
}

double
echoFidelityMonteCarlo(const Circuit &c, const NoiseModel &noise, Rng &rng,
                       int shots)
{
    const double p_survive = echoFidelity(c, noise);
    int ok = 0;
    for (int s = 0; s < shots; ++s) {
        if (rng.bernoulli(p_survive))
            ++ok;
    }
    return static_cast<double>(ok) / shots;
}

} // namespace tetris
