#include "puf/puf.h"

#include <algorithm>

namespace codic {

double
jaccard(const Response &a, const Response &b)
{
    if (a.cells.empty() && b.cells.empty())
        return 1.0;
    size_t inter = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < a.cells.size() && j < b.cells.size()) {
        if (a.cells[i] == b.cells[j]) {
            ++inter;
            ++i;
            ++j;
        } else if (a.cells[i] < b.cells[j]) {
            ++i;
        } else {
            ++j;
        }
    }
    const size_t uni = a.cells.size() + b.cells.size() - inter;
    return static_cast<double>(inter) / static_cast<double>(uni);
}

std::vector<uint32_t>
majorityVote(const std::vector<PassMember> &members, std::vector<Rng> passes)
{
    std::vector<size_t> votes(members.size(), 0);
    for (Rng &noise : passes)
        for (size_t m = 0; m < members.size(); ++m)
            if (!members[m].marginal || !noise.chance(0.5))
                ++votes[m];
    std::vector<uint32_t> out;
    for (size_t m = 0; m < members.size(); ++m)
        if (2 * votes[m] > passes.size())
            out.push_back(members[m].index);
    return out;
}

Response
DramPuf::evaluateFiltered(const SimulatedChip &chip,
                          const Challenge &challenge,
                          const QueryEnv &env) const
{
    return evaluate(chip, challenge, env);
}

std::vector<Response>
DramPuf::evaluateEach(const SimulatedChip &chip, const Challenge &challenge,
                      std::span<const QueryEnv> envs, bool filtered) const
{
    std::vector<Response> out;
    out.reserve(envs.size());
    for (const QueryEnv &env : envs)
        out.push_back(filtered ? evaluateFiltered(chip, challenge, env)
                               : evaluate(chip, challenge, env));
    return out;
}

} // namespace codic
