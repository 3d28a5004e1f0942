#include "fleet/region.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/stats.h"

namespace codic {

// --- ShardSelector -----------------------------------------------------------

int
ModuloShardSelector::shardOf(uint64_t device_id, int shards) const
{
    return static_cast<int>(device_id %
                            static_cast<uint64_t>(shards));
}

int
HashShardSelector::shardOf(uint64_t device_id, int shards) const
{
    // splitmix64 finalizer: sequential id ranges land on different
    // shards instead of striding through them in lockstep.
    uint64_t x = device_id + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<int>(x % static_cast<uint64_t>(shards));
}

std::shared_ptr<const ShardSelector>
ShardSelector::create(const std::string &policy)
{
    if (policy == "modulo")
        return std::make_shared<ModuloShardSelector>();
    if (policy == "hash")
        return std::make_shared<HashShardSelector>();
    throw FatalError("unknown shard-selector policy '" + policy +
                     "' (expected modulo or hash)");
}

ExplicitShardSelector::ExplicitShardSelector(
    std::unordered_map<uint64_t, int> pinned,
    std::shared_ptr<const ShardSelector> fallback)
    : pinned_(std::move(pinned)), fallback_(std::move(fallback))
{
    CODIC_ASSERT(fallback_ != nullptr);
}

int
ExplicitShardSelector::shardOf(uint64_t device_id, int shards) const
{
    auto it = pinned_.find(device_id);
    if (it != pinned_.end() && it->second < shards)
        return it->second;
    return fallback_->shardOf(device_id, shards);
}

std::shared_ptr<const ShardSelector>
rebalancedSelector(const std::vector<FleetRequest> &stream,
                   int shards,
                   std::shared_ptr<const ShardSelector> fallback)
{
    CODIC_ASSERT(shards >= 1);
    if (!fallback)
        fallback = std::make_shared<ModuloShardSelector>();

    std::unordered_map<uint64_t, uint64_t> load;
    for (const FleetRequest &req : stream)
        ++load[req.device_id];

    // Hottest first, ties on ascending id: the LPT order, and a
    // total order so the packing never depends on hash iteration.
    std::vector<std::pair<uint64_t, uint64_t>> devices(load.begin(),
                                                       load.end());
    std::sort(devices.begin(), devices.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });

    std::vector<uint64_t> shard_load(static_cast<size_t>(shards), 0);
    std::unordered_map<uint64_t, int> pinned;
    pinned.reserve(devices.size());
    for (const auto &[id, weight] : devices) {
        size_t best = 0;
        for (size_t s = 1; s < shard_load.size(); ++s)
            if (shard_load[s] < shard_load[best])
                best = s;
        shard_load[best] += weight;
        pinned[id] = static_cast<int>(best);
    }
    return std::make_shared<ExplicitShardSelector>(
        std::move(pinned), std::move(fallback));
}

// --- RegionSet ---------------------------------------------------------------

RegionSet::RegionSet(std::vector<RegionConfig> regions)
{
    CODIC_ASSERT(!regions.empty(), "a RegionSet needs >= 1 region");
    regions_.reserve(regions.size());
    for (RegionConfig &rc : regions) {
        Region region;
        region.config = std::move(rc);
        region.fleet =
            std::make_unique<DeviceFleet>(region.config.fleet);
        region.store = std::make_unique<EnrollmentStore>(
            region.config.fleet.population_seed);
        region.service = std::make_unique<AuthService>(
            *region.fleet, *region.store, region.config.auth);
        regions_.push_back(std::move(region));
    }
}

const RegionConfig &
RegionSet::config(size_t i) const
{
    CODIC_ASSERT(i < regions_.size());
    return regions_[i].config;
}

DeviceFleet &
RegionSet::fleet(size_t i)
{
    CODIC_ASSERT(i < regions_.size());
    return *regions_[i].fleet;
}

EnrollmentStore &
RegionSet::store(size_t i)
{
    CODIC_ASSERT(i < regions_.size());
    return *regions_[i].store;
}

AuthService &
RegionSet::service(size_t i)
{
    CODIC_ASSERT(i < regions_.size());
    return *regions_[i].service;
}

namespace {

/** Flattened (region, shard) task list of one engine pass. */
std::vector<std::pair<size_t, size_t>>
flattenTasks(const std::vector<int> &shards_per_region)
{
    std::vector<std::pair<size_t, size_t>> tasks;
    for (size_t r = 0; r < shards_per_region.size(); ++r)
        for (int s = 0; s < shards_per_region[r]; ++s)
            tasks.emplace_back(r, static_cast<size_t>(s));
    return tasks;
}

} // namespace

void
RegionSet::enrollAll(int threads)
{
    std::vector<int> shards;
    shards.reserve(regions_.size());
    for (const Region &region : regions_)
        shards.push_back(region.fleet->shards());
    const auto tasks = flattenTasks(shards);

    CampaignEngine engine(threads);
    engine.forEach(tasks.size(), [&](size_t t) {
        regions_[tasks[t].first].service->enrollShard(tasks[t].second);
    });
}

RegionSet::Result
RegionSet::serve(int threads)
{
    const auto wall_start = std::chrono::steady_clock::now();

    // Plan sequentially per region, in region order: streams,
    // cache plans and admission decisions are pure functions of
    // each region's own config.
    std::vector<AuthService::Execution> execs;
    std::vector<int> shards;
    execs.reserve(regions_.size());
    shards.reserve(regions_.size());
    for (Region &region : regions_) {
        RequestGenerator gen(region.config.traffic,
                             region.fleet->devices());
        execs.push_back(region.service->prepare(gen.generate()));
        shards.push_back(region.fleet->shards());
    }

    // One engine pass over every region's shard batches: a thread
    // picks up whichever (region, shard) task is next, so a small
    // region never leaves threads idle while a big one drains.
    const auto tasks = flattenTasks(shards);
    CampaignEngine engine(threads);
    engine.forEach(tasks.size(), [&](size_t t) {
        regions_[tasks[t].first].service->runShard(
            execs[tasks[t].first], tasks[t].second);
    });

    Result result;
    std::vector<double> global_latencies;
    for (size_t r = 0; r < regions_.size(); ++r) {
        result.names.push_back(regions_[r].config.name);
        // finalize() first: it backfills the legacy (admission-off)
        // queueing waits the latency merge below reads.
        result.reports.push_back(
            regions_[r].service->finalize(execs[r]));
        regions_[r].service->appendAdmittedLatencies(
            execs[r], global_latencies);
    }

    GlobalReport &g = result.global;
    for (const LoadReport &report : result.reports) {
        g.requests += report.requests;
        g.admitted += report.admitted;
        g.shed += report.shed;
        g.shed_urgent += report.shed_urgent;
        g.total_energy_nj += report.total_energy_nj;
    }
    g.shed_rate = g.requests > 0
                      ? static_cast<double>(g.shed) /
                            static_cast<double>(g.requests)
                      : 0.0;
    if (!global_latencies.empty()) {
        g.latency_p50_ns = percentile(global_latencies, 50.0);
        g.latency_p95_ns = percentile(global_latencies, 95.0);
        g.latency_p99_ns = percentile(global_latencies, 99.0);
    }
    g.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() -
                         wall_start)
                         .count();
    return result;
}

} // namespace codic
