/**
 * @file
 * codic_perfbench: one benchmark run.
 *
 *   codic_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Prints host and build info, the run's metrics and modeled outputs
 * by name with units, its checks and a digest of its modeled outputs,
 * then, as the last line, one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end set; with --trace 1
 * they are the per-layer set of BENCHMARK.json, with 0 for a layer
 * the workload does not run.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <unistd.h>
#include <utility>

#include "harness.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** The per-layer metrics of BENCHMARK.json, in its order (keep the
 * two lists identical). */
const Metric kPerLayer[] = {
    {"sim.step.calls", 0, "count"},
    {"sim.step.self_s", 0, "s"},
    {"sim.gen_s", 0, "s"},
    {"dram.submit.calls", 0, "count"},
    {"dram.submit.s", 0, "s"},
    {"dram.completion.calls", 0, "count"},
    {"dram.completion.s", 0, "s"},
    {"dram.retire.calls", 0, "count"},
    {"dram.retire.s", 0, "s"},
    {"dram.host_ns_per_cmd", 0, "ns"},
    {"dram.cmds", 0, "count"},
    {"dram.row_hit_ratio", 0, "ratio"},
    {"dram.turnarounds", 0, "count"},
    {"mem.read_latency_mean_ns", 0, "ns"},
    {"modeled_speedup", 0, "ratio"},
    {"puf.latency.eval.calls", 0, "count"},
    {"puf.latency.eval.s", 0, "s"},
    {"puf.prelat.eval.calls", 0, "count"},
    {"puf.prelat.eval.s", 0, "s"},
    {"puf.sig.eval.calls", 0, "count"},
    {"puf.sig.eval.s", 0, "s"},
    {"puf.campaign.self_s", 0, "s"},
    {"puf.population_s", 0, "s"},
    {"fleet.prepare.s", 0, "s"},
    {"fleet.run_shard.s", 0, "s"},
    {"fleet.finalize.s", 0, "s"},
    {"fleet.store.lookup.calls", 0, "count"},
    {"fleet.store.lookup.s", 0, "s"},
    {"fleet.store.put.calls", 0, "count"},
    {"fleet.store.put.s", 0, "s"},
    {"fleet.store.contains.calls", 0, "count"},
    {"fleet.store.contains.s", 0, "s"},
    {"fleet.store.planned_hit_ratio", 0, "ratio"},
    {"fleet.wait_mean_us", 0, "us"},
    {"fleet.wait_p95_us", 0, "us"},
    {"fleet.service_mean_us", 0, "us"},
    {"fleet.auth_replay_p99_us", 0, "us"},
    {"modeled_p50_us", 0, "us"},
    {"modeled_p99_us", 0, "us"},
    {"modeled_makespan_ms", 0, "ms"},
    {"fleet.cost_model_s", 0, "s"},
    {"fleet.enroll_s", 0, "s"},
    {"fleet.gen_s", 0, "s"},
    {"trace.overhead", 0, "ratio"},
};

/** The workloads, by --workload name. */
const std::pair<const char *, Report (*)(const RunSpec &)> kWorkloads[] = {
    {"secdealloc_mix", runSecdeallocMix},
    {"puf_jaccard", runPufJaccard},
    {"fleet_serve", runFleetServe},
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "codic_perfbench: %s\nusage: codic_perfbench --workload "
                 "secdealloc_mix|puf_jaccard|fleet_serve --seed N "
                 "--seconds S --trace 0|1\n",
                 msg);
    std::exit(2);
}

uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

RunSpec
parseArgs(int argc, char **argv)
{
    RunSpec spec;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            spec.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            spec.seed = parseUnsigned("--seed", value);
        } else if (flag == "--seconds") {
            spec.seconds = double(parseUnsigned("--seconds", value));
        } else if (flag == "--trace") {
            const uint64_t t = parseUnsigned("--trace", value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            spec.trace = t == 1;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return spec;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

/** JSON string body: the host strings printed here need no escapes
 * beyond quotes and backslashes. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
printHost()
{
    double load[1] = {-1.0};
    getloadavg(load, 1);
    std::printf("host {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": "
                "\"%s\", \"build_type\": \"%s\", \"loadavg_1m\": %.2f}\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                jsonEscape(cpuModel()).c_str(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, load[0]);
}

/** The reported metric list: the traced run's in BENCHMARK.json order. */
std::vector<Metric>
reportedMetrics(const RunSpec &spec, const Report &report)
{
    if (!spec.trace)
        return report.metrics;
    for (const Metric &m : report.metrics) {
        bool known = false;
        for (const Metric &k : kPerLayer)
            known = known || (k.name == m.name && k.unit == m.unit);
        if (!known) {
            std::fprintf(stderr, "codic_perfbench: unlisted metric %s\n",
                         m.name.c_str());
            std::exit(1);
        }
    }
    std::vector<Metric> out;
    for (Metric k : kPerLayer) {
        for (const Metric &m : report.metrics)
            if (m.name == k.name)
                k.value = m.value;
        out.push_back(k);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const RunSpec spec = parseArgs(argc, argv);
    Report (*run)(const RunSpec &) = nullptr;
    for (const auto &[name, runner] : kWorkloads)
        if (spec.workload == name)
            run = runner;
    if (!run)
        usage(("unknown workload " + spec.workload).c_str());
#ifndef __OPTIMIZE__
    const bool optimized = false;
#else
    const bool optimized = true;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || !optimized) {
        std::fprintf(stderr,
                     "codic_perfbench: built as '%s'; timings are only "
                     "reported from a Release build\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                spec.workload.c_str(),
                static_cast<unsigned long long>(spec.seed), spec.seconds,
                int(spec.trace));
    printHost();
    std::fflush(stdout);

    Report report;
    try {
        report = run(spec);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "codic_perfbench: %s\n", e.what());
        return 1;
    }

    const std::vector<Metric> metrics = reportedMetrics(spec, report);
    bool finite = true;
    for (const Metric &m : metrics)
        finite = finite && std::isfinite(m.value);
    const bool correct =
        report.consistent && report.failed == 0 && finite;

    for (const auto &[name, values] :
         {std::pair{"pass_s", &report.samples.pass_s},
          std::pair{"ref_s", &report.samples.ref_s},
          std::pair{"setup_s", &report.samples.setup_s}}) {
        std::printf("samples %s (%zu):", name, values->size());
        for (double v : *values)
            std::printf(" %.4g", v);
        std::printf("\n");
    }
    for (const Metric &m : metrics)
        std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : report.raw)
        std::printf("raw %s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : report.modeled)
        std::printf("modeled %s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("check attempted=%llu failed=%llu fail_rate=%.6g "
                "consistent=%s\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                report.attempted ? double(report.failed) /
                                       double(report.attempted)
                                 : 0.0,
                report.consistent ? "yes" : "NO");
    std::printf("digest %s seed=%llu %s\n", spec.workload.c_str(),
                static_cast<unsigned long long>(spec.seed),
                report.digest.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value
                                                    : 0.0,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}
