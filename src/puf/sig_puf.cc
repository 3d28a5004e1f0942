#include "puf/sig_puf.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace codic {

CodicSigPuf::CodicSigPuf(const SigPufParams &params) : params_(params)
{
}

Response
CodicSigPuf::evaluate(const SimulatedChip &chip,
                      const Challenge &challenge,
                      const QueryEnv &env) const
{
    return respond(chip, challenge, env, {env.nonce});
}

Response
CodicSigPuf::evaluateFiltered(const SimulatedChip &chip,
                              const Challenge &challenge,
                              const QueryEnv &env) const
{
    // Conservative filter (Section 6.1.1): evaluate the challenge
    // filter_challenges times and keep cells appearing in a majority.
    std::vector<uint64_t> nonces;
    for (int i = 0; i < params_.filter_challenges; ++i)
        nonces.push_back(env.nonce * 1000003ULL +
                         static_cast<uint64_t>(i) + 1);
    return respond(chip, challenge, env, nonces);
}

Response
CodicSigPuf::respond(const SimulatedChip &chip, const Challenge &challenge,
                     const QueryEnv &env,
                     const std::vector<uint64_t> &nonces) const
{
    const double dt = std::max(0.0, env.temperature_c - 30.0);
    const double dropout =
        params_.temp_dropout_at_55c * (dt / 55.0) +
        (env.aged ? params_.aging_dropout : 0.0);
    const double growth = params_.temp_growth_at_55c * (dt / 55.0);
    const double marginal = chip.spec().ddr3l
                                ? params_.ddr3l_marginal_fraction
                                : params_.marginal_fraction;

    std::vector<PassMember> members;
    for (const auto &cell :
         chip.sigCells(challenge.segment_id, challenge.segment_bits)) {
        // Deterministic per-cell temperature dropout: the same cells
        // disappear at the same temperature on every query.
        if (cell.temp_u < dropout)
            continue;
        // Marginal cells flicker with per-query thermal noise.
        members.push_back({cell.index, cell.stability < marginal});
    }
    std::vector<Rng> passes;
    for (uint64_t nonce : nonces)
        passes.push_back(chip.domainRng(0x51F, nonce ^ 0x9e37));
    Response r;
    r.cells = majorityVote(members, std::move(passes));

    // Deterministic per-cell appearance of extra cells at
    // temperature: each one is in every pass or in none, so with at
    // least one pass the survivors join the response after the vote.
    if (growth > 0.0 && !nonces.empty()) {
        std::vector<uint32_t> extras;
        for (const auto &cell : chip.sigExtraCells(
                 challenge.segment_id, challenge.segment_bits)) {
            if (cell.temp_u < growth * 12.5)
                extras.push_back(cell.index);
        }
        std::vector<uint32_t> merged;
        merged.reserve(r.cells.size() + extras.size());
        std::set_union(r.cells.begin(), r.cells.end(), extras.begin(),
                       extras.end(), std::back_inserter(merged));
        r.cells = std::move(merged);
    }
    return r;
}

int
CodicSigPuf::passesPerEvaluation(bool filtered) const
{
    return filtered ? params_.filter_challenges : 1;
}

} // namespace codic
