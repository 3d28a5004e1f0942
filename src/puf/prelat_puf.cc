#include "puf/prelat_puf.h"

#include <algorithm>
#include <utility>

namespace codic {

PrelatPuf::PrelatPuf(const PrelatPufParams &params) : params_(params)
{
}

Response
PrelatPuf::evaluate(const SimulatedChip &chip, const Challenge &challenge,
                    const QueryEnv &env) const
{
    return respond(chip, challenge, env, {env.nonce});
}

Response
PrelatPuf::evaluateFiltered(const SimulatedChip &chip,
                            const Challenge &challenge,
                            const QueryEnv &env) const
{
    std::vector<uint64_t> nonces;
    for (int i = 0; i < params_.filter_challenges; ++i)
        nonces.push_back(env.nonce * 1000033ULL +
                         static_cast<uint64_t>(i) + 1);
    return respond(chip, challenge, env, nonces);
}

Response
PrelatPuf::respond(const SimulatedChip &chip, const Challenge &challenge,
                   const QueryEnv &env,
                   const std::vector<uint64_t> &nonces) const
{
    const double dt = std::max(0.0, env.temperature_c - 30.0);
    const double dropout = params_.temp_dropout_at_55c * (dt / 55.0) +
                           (env.aged ? 0.004 : 0.0);

    std::vector<PassMember> members;
    for (const auto &col : chip.prelatColumns(challenge.segment_id,
                                              challenge.segment_bits)) {
        // Deterministic tiny temperature perturbation.
        if (col.stability < dropout)
            continue;
        // Marginal columns flicker per query.
        members.push_back({col.index,
                           col.stability < params_.marginal_fraction});
    }
    std::vector<Rng> passes;
    for (uint64_t nonce : nonces)
        passes.push_back(chip.domainRng(0x9E1, nonce ^ 0x1357));
    Response r;
    r.cells = majorityVote(members, std::move(passes));
    return r;
}

int
PrelatPuf::passesPerEvaluation(bool filtered) const
{
    return filtered ? params_.filter_challenges : 1;
}

} // namespace codic
