#include "base/rng.hh"

#include <cmath>

namespace smtavf
{

namespace
{

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    return mix64(x);
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t value)
{
    for (auto &s : state_)
        s = splitmix64(value);
}

std::uint64_t
Rng::uniformRange(std::uint64_t lo, std::uint64_t hi)
{
    return lo + uniform(hi - lo + 1);
}

unsigned
Rng::geometric(double p, unsigned cap)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return cap;
    unsigned k = 0;
    while (k < cap && !bernoulli(p))
        ++k;
    return k;
}

std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    if (n <= 1)
        return 0;
    // Inverse-power transform: u^(1/(1-s)) concentrates mass near 0 for
    // s in (0, 1); for s >= 1 fall back to a strongly skewed exponent.
    double exponent = (s < 0.99) ? 1.0 / (1.0 - s) : 8.0;
    double u = uniformReal();
    double v = std::pow(u, exponent);
    auto idx = static_cast<std::uint64_t>(v * static_cast<double>(n));
    return idx >= n ? n - 1 : idx;
}

std::uint64_t
splitSeed(std::uint64_t master, std::uint64_t index)
{
    // Finalize master and index separately before combining so that
    // neighbouring (master, index) pairs land in unrelated streams;
    // a final mix removes any residual xor structure.
    return mix64(mix64(master + 0x9e3779b97f4a7c15ull) ^
                 mix64(index + 0xbf58476d1ce4e5b9ull));
}

} // namespace smtavf
