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
    return evaluateEach(chip, challenge, {&env, 1}, false).front();
}

Response
PrelatPuf::evaluateFiltered(const SimulatedChip &chip,
                            const Challenge &challenge,
                            const QueryEnv &env) const
{
    return evaluateEach(chip, challenge, {&env, 1}, true).front();
}

std::vector<Response>
PrelatPuf::evaluateEach(const SimulatedChip &chip,
                        const Challenge &challenge,
                        std::span<const QueryEnv> envs, bool filtered) const
{
    const auto cols =
        chip.prelatColumns(challenge.segment_id, challenge.segment_bits);
    std::vector<Response> out;
    out.reserve(envs.size());
    for (const QueryEnv &env : envs) {
        const double dt = std::max(0.0, env.temperature_c - 30.0);
        const double dropout = params_.temp_dropout_at_55c * (dt / 55.0) +
                               (env.aged ? 0.004 : 0.0);

        std::vector<PassMember> members;
        for (const auto &col : cols) {
            // Deterministic tiny temperature perturbation.
            if (col.stability < dropout)
                continue;
            // Marginal columns flicker per query.
            members.push_back({col.index,
                               col.stability < params_.marginal_fraction});
        }
        std::vector<Rng> passes;
        const int pass_count = filtered ? params_.filter_challenges : 1;
        for (int i = 0; i < pass_count; ++i) {
            const uint64_t nonce =
                filtered ? env.nonce * 1000033ULL + static_cast<uint64_t>(i) + 1
                         : env.nonce;
            passes.push_back(chip.domainRng(0x9E1, nonce ^ 0x1357));
        }
        out.push_back({majorityVote(members, std::move(passes))});
    }
    return out;
}

int
PrelatPuf::passesPerEvaluation(bool filtered) const
{
    return filtered ? params_.filter_challenges : 1;
}

} // namespace codic
