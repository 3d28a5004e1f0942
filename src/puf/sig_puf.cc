#include "puf/sig_puf.h"

#include <algorithm>
#include <iterator>
#include <optional>
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
    return evaluateEach(chip, challenge, {&env, 1}, false).front();
}

Response
CodicSigPuf::evaluateFiltered(const SimulatedChip &chip,
                              const Challenge &challenge,
                              const QueryEnv &env) const
{
    return evaluateEach(chip, challenge, {&env, 1}, true).front();
}

std::vector<Response>
CodicSigPuf::evaluateEach(const SimulatedChip &chip,
                          const Challenge &challenge,
                          std::span<const QueryEnv> envs,
                          bool filtered) const
{
    const double marginal = chip.spec().ddr3l
                                ? params_.ddr3l_marginal_fraction
                                : params_.marginal_fraction;
    const auto cells =
        chip.sigCells(challenge.segment_id, challenge.segment_bits);
    std::optional<std::vector<SigCell>> extra_cells;
    std::vector<Response> out;
    out.reserve(envs.size());
    for (const QueryEnv &env : envs) {
        const double dt = std::max(0.0, env.temperature_c - 30.0);
        const double dropout =
            params_.temp_dropout_at_55c * (dt / 55.0) +
            (env.aged ? params_.aging_dropout : 0.0);
        const double growth = params_.temp_growth_at_55c * (dt / 55.0);

        std::vector<PassMember> members;
        for (const auto &cell : cells) {
            // Deterministic per-cell temperature dropout: the same
            // cells disappear at the same temperature on every query.
            if (cell.temp_u < dropout)
                continue;
            // Marginal cells flicker with per-query thermal noise.
            members.push_back({cell.index, cell.stability < marginal});
        }
        // Conservative filter (Section 6.1.1): evaluate the challenge
        // filter_challenges times and keep cells appearing in a
        // majority.
        std::vector<Rng> passes;
        const int pass_count = filtered ? params_.filter_challenges : 1;
        for (int i = 0; i < pass_count; ++i) {
            const uint64_t nonce =
                filtered ? env.nonce * 1000003ULL + static_cast<uint64_t>(i) + 1
                         : env.nonce;
            passes.push_back(chip.domainRng(0x51F, nonce ^ 0x9e37));
        }
        Response &r = out.emplace_back();
        r.cells = majorityVote(members, std::move(passes));

        // Deterministic per-cell appearance of extra cells at
        // temperature: each one is in every pass or in none, so with
        // at least one pass the survivors join the response after the
        // vote.
        if (growth > 0.0 && pass_count > 0) {
            if (!extra_cells)
                extra_cells = chip.sigExtraCells(challenge.segment_id,
                                                 challenge.segment_bits);
            std::vector<uint32_t> extras;
            for (const auto &cell : *extra_cells) {
                if (cell.temp_u < growth * 12.5)
                    extras.push_back(cell.index);
            }
            std::vector<uint32_t> merged;
            merged.reserve(r.cells.size() + extras.size());
            std::set_union(r.cells.begin(), r.cells.end(), extras.begin(),
                           extras.end(), std::back_inserter(merged));
            r.cells = std::move(merged);
        }
    }
    return out;
}

int
CodicSigPuf::passesPerEvaluation(bool filtered) const
{
    return filtered ? params_.filter_challenges : 1;
}

} // namespace codic
