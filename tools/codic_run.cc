/**
 * @file
 * codic_run - the single driver over the scenario registry and the
 * canonical way to reproduce the paper's figures and tables.
 *
 * Usage:
 *   codic_run --list
 *   codic_run --scenario puf_fig5_jaccard [--scenario ...]
 *   codic_run --all --scale 0.01 --out results.json --csv results.csv
 *
 * Options:
 *   --list             List registered scenarios (grouped by name
 *                      prefix) and exit.
 *   --list-md          Emit the scenario catalog as a markdown
 *                      document (docs/SCENARIOS.md is generated from
 *                      this, and CI fails if it drifts) and exit.
 *   --scenario NAME    Run one scenario (repeatable).
 *   --all              Run every registered scenario.
 *   --seed N           Campaign seed (default 1: the paper seeds).
 *   --threads N        CampaignEngine threads (0 = auto-detect).
 *   --channels N       DramConfig override: channels.
 *   --capacity-mb N    DramConfig override: module capacity.
 *   --scale F          Work-scale factor in (0,1] (default 1).
 *   --repeats N        Repeat each scenario N times (seed, seed+1...).
 *   --devices N        Fleet population size (fleet_* scenarios).
 *   --shards N         Fleet shard count (execution parameter).
 *   --requests N       Fleet request-stream length.
 *   --zipf F           Fleet device-popularity Zipf exponent
 *                      (0 = uniform).
 *   --store FILE       Fleet enrollment-store file (written by
 *                      fleet_enroll, read by the traffic scenarios).
 *   --store-mmap       Serve the --store file through the
 *                      mmap-backed read path (flat per-request
 *                      memory at any store size).
 *   --regions N        Serving regions for the multi-region fleet
 *                      scenarios (default: the scenario's own,
 *                      normally 3). Each region gets its own
 *                      population, mix, and arrival process on the
 *                      shared engine.
 *   --shed RPS         Admission-control capacity in requests/s for
 *                      the fleet scenarios: 0 disables admission
 *                      (the default outside fleet_overload);
 *                      fleet_overload derives its default from the
 *                      cost model.
 *   --preset NAME      DRAM speed grade (ddr3-1600 | ddr3-1333 |
 *                      ddr4-2400 | ddr4-3200) applied wherever a
 *                      scenario builds its DramConfig from the run
 *                      options; default is each scenario's own grade
 *                      (the paper's ddr3-1600 baseline). "--preset
 *                      list" prints the accepted names.
 *   --sched SPEC       Memory-scheduler policy: a preset (eager |
 *                      batched | aggressive | serving) optionally
 *                      followed by ":knob=value,..." overrides, e.g.
 *                      "batched:refresh=auto,read_window=16" or
 *                      "serving:refresh=per-bank".
 *                      "--sched help" (or "--sched list") prints the
 *                      preset table and every knob. Applies wherever
 *                      a scenario builds its DramConfig from the run
 *                      options (the fleet_* scenarios, whose own
 *                      default is batched; paper campaigns keep the
 *                      eager legacy policy their published numbers
 *                      were measured with).
 *   --trace FILE       Input trace for the trace_* scenarios. With
 *                      no --scenario/--all selection, implies
 *                      "--scenario trace_replay". The file must
 *                      exist and must differ from --record-trace.
 *   --trace-speed F    Replay inter-arrival rescale (> 1 compresses
 *                      the trace in time; default 1).
 *   --ambient F        Ambient temperature (C) of the thermal
 *                      feedback loop (thermal_* scenarios; default
 *                      30, the paper's static campaign temperature;
 *                      modeled range -40..120).
 *   --epoch-us F       Thermal/co-sim epoch length in microseconds
 *                      (default: each scenario's own, normally 100;
 *                      at most 10000, 25 thermal time constants).
 *   --cores N          Core count for multicore_contention, at most 8
 *                      (each core owns an eighth of the module;
 *                      default: the scenario's 2/4/8 sweep).
 *   --record-trace FILE Record every DramSystem transaction the
 *                      selected scenarios submit into FILE (the
 *                      post-LLC DRAM-level trace; see
 *                      trace/trace_format.h). Byte-deterministic at
 *                      --threads 1.
 *   --trace-info FILE  Print the header/provenance summary of a
 *                      trace file (scenario, seed, format version,
 *                      record/epoch counts, per-kind ops) and exit.
 *   --out FILE         Write machine-readable JSON ("-" = stdout).
 *   --csv FILE         Write long-format CSV ("-" = stdout).
 *   --timings          Include wall-clock values in JSON/CSV
 *                      (breaks byte-determinism of the output).
 *   --quiet            Suppress the human-readable text report.
 *
 * Without --timings the JSON/CSV output is byte-identical for a
 * fixed --seed/--scale at any --threads or --shards value. Two
 * documented exceptions: ablation_engine_parallelism treats the
 * thread count and fleet_scaling the shard count as input
 * parameters of the study itself, so explicit values above 8 extend
 * their sweeps (and with them the row sets).
 *
 * When a scenario fails, the run continues with the remaining
 * scenarios, prints a per-scenario failure summary, and exits
 * nonzero - a single broken campaign no longer aborts an --all run.
 *
 * When --out or --csv is "-", the text report is suppressed
 * automatically so stdout stays parseable.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/result_sink.h"
#include "dram/config.h"
#include "scenario/registry.h"
#include "trace/recorder.h"
#include "trace/trace_io.h"

namespace {

using namespace codic;

void
printUsage()
{
    std::fprintf(
        stderr,
        "usage: codic_run --list | --list-md\n"
        "       codic_run (--scenario NAME)... | --all\n"
        "                 [--seed N] [--threads N] [--channels N]\n"
        "                 [--capacity-mb N] [--scale F] [--repeats N]\n"
        "                 [--devices N] [--shards N] [--requests N]\n"
        "                 [--zipf F] [--store FILE] [--store-mmap]\n"
        "                 [--regions N] [--shed RPS] [--sched NAME]\n"
        "                 [--preset NAME]\n"
        "                 [--trace FILE] [--trace-speed F]\n"
        "                 [--record-trace FILE]\n"
        "                 [--ambient F] [--epoch-us F] [--cores N]\n"
        "                 [--out FILE] [--csv FILE] [--timings]\n"
        "                 [--quiet]\n"
        "       codic_run --trace-info FILE\n"
        "       codic_run --help\n");
}

/** Group key of a scenario name: the part before the first '_'. */
std::string
listGroupOf(const std::string &name)
{
    return name.substr(0, name.find('_'));
}

void
printList()
{
    const auto scenarios = ScenarioRegistry::instance().scenarios();
    std::printf("%zu registered scenarios:\n", scenarios.size());
    size_t width = 0;
    for (const Scenario *s : scenarios)
        width = std::max(width, s->name().size());
    // scenarios() is name-sorted, so each prefix group is contiguous:
    // emit a blank line + header whenever the prefix changes.
    std::string group;
    for (const Scenario *s : scenarios) {
        const std::string g = listGroupOf(s->name());
        if (g != group) {
            group = g;
            std::printf("\n%s:\n", group.c_str());
        }
        std::printf("  %-*s  %s\n", static_cast<int>(width),
                    s->name().c_str(), s->describe().c_str());
    }
}

/**
 * The markdown scenario catalog (docs/SCENARIOS.md). CI regenerates
 * it and fails on any diff, so the document can never drift from the
 * registry. Output depends only on the registered scenarios.
 */
void
printListMarkdown()
{
    const auto scenarios = ScenarioRegistry::instance().scenarios();
    std::printf("# Scenario catalog\n"
                "\n"
                "<!-- Generated by `codic_run --list-md`. Do not "
                "edit by hand: CI\n"
                "     regenerates this file and fails on any "
                "diff. -->\n"
                "\n"
                "%zu registered scenarios. Run one with "
                "`codic_run --scenario NAME`\n"
                "(repeatable), or everything with `codic_run --all`. "
                "See\n"
                "[CLI.md](CLI.md) for the full flag reference and\n"
                "[SCHEDULING.md](SCHEDULING.md) for the `--sched` "
                "policy presets.\n",
                scenarios.size());
    std::string group;
    for (const Scenario *s : scenarios) {
        const std::string g = listGroupOf(s->name());
        if (g != group) {
            group = g;
            std::printf("\n## %s\n\n", group.c_str());
            std::printf("| scenario | description |\n"
                        "| --- | --- |\n");
        }
        std::printf("| `%s` | %s |\n", s->name().c_str(),
                    s->describe().c_str());
    }
}

int
fail(const std::string &message)
{
    std::fprintf(stderr, "codic_run: %s\n", message.c_str());
    return 2;
}

/** Whole-string integer parse; malformed or overflowing input is a
 *  loud error. */
int64_t
parseInt(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const int64_t v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
        std::fprintf(
            stderr,
            "codic_run: %s needs an integer (in range), got '%s'\n",
            flag, text);
        std::exit(2);
    }
    return v;
}

/** parseInt for int-typed flags: rejects values the int cast would
 *  silently wrap. */
int
parseIntArg(const char *flag, const char *text)
{
    const int64_t v = parseInt(flag, text);
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
        std::fprintf(stderr,
                     "codic_run: %s value '%s' is out of range\n",
                     flag, text);
        std::exit(2);
    }
    return static_cast<int>(v);
}

/** Whole-string unsigned parse (seeds span the full uint64 range);
 *  malformed, negative, or overflowing input is a loud error. */
uint64_t
parseUint(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    // strtoull silently negates "-1" into a huge value; reject
    // signs up front.
    const bool signed_input = text[0] == '-' || text[0] == '+';
    const uint64_t v = std::strtoull(text, &end, 10);
    if (signed_input || end == text || *end != '\0' ||
        errno == ERANGE) {
        std::fprintf(stderr,
                     "codic_run: %s needs an unsigned integer (in "
                     "range), got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    return v;
}

/** Whole-string finite floating-point parse; malformed, infinite,
 *  or overflowing input is a loud error. */
double
parseDouble(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v)) {
        std::fprintf(
            stderr,
            "codic_run: %s needs a finite number, got '%s'\n", flag,
            text);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    std::vector<std::string> selected;
    bool all = false;
    bool list = false;
    bool quiet = false;
    std::string out_path;
    std::string csv_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "codic_run: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--list") {
            list = true;
        } else if (arg == "--list-md") {
            printListMarkdown();
            return 0;
        } else if (arg == "--scenario") {
            selected.push_back(next("--scenario"));
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--seed") {
            options.seed = parseUint("--seed", next("--seed"));
        } else if (arg == "--threads") {
            options.threads = parseIntArg("--threads", next("--threads"));
            if (options.threads < 0)
                return fail("--threads must be >= 0 (0 = auto)");
        } else if (arg == "--channels") {
            options.channels = parseIntArg("--channels", next("--channels"));
            if (options.channels < 0)
                return fail("--channels must be >= 0 (0 = scenario "
                            "default)");
        } else if (arg == "--capacity-mb") {
            options.capacity_mb =
                parseInt("--capacity-mb", next("--capacity-mb"));
            if (options.capacity_mb < 0)
                return fail("--capacity-mb must be >= 0 (0 = "
                            "scenario default)");
        } else if (arg == "--scale") {
            options.scale = parseDouble("--scale", next("--scale"));
            if (options.scale <= 0.0 || options.scale > 1.0)
                return fail("--scale must be in (0, 1]");
        } else if (arg == "--repeats") {
            options.repeats = parseIntArg("--repeats", next("--repeats"));
            if (options.repeats < 1)
                return fail("--repeats must be >= 1");
        } else if (arg == "--devices") {
            options.devices = parseInt("--devices", next("--devices"));
            if (options.devices < 1)
                return fail("--devices must be >= 1");
        } else if (arg == "--shards") {
            options.shards = parseIntArg("--shards", next("--shards"));
            if (options.shards < 1)
                return fail("--shards must be >= 1");
        } else if (arg == "--requests") {
            options.requests = parseInt("--requests", next("--requests"));
            if (options.requests < 1)
                return fail("--requests must be >= 1");
        } else if (arg == "--zipf") {
            options.zipf = parseDouble("--zipf", next("--zipf"));
            if (!(options.zipf >= 0.0)) // Rejects NaN too.
                return fail("--zipf must be >= 0 (0 = uniform)");
        } else if (arg == "--store") {
            options.store_path = next("--store");
        } else if (arg == "--store-mmap") {
            options.store_mmap = true;
        } else if (arg == "--regions") {
            options.regions = parseIntArg("--regions", next("--regions"));
            if (options.regions < 1)
                return fail("--regions must be >= 1");
        } else if (arg == "--shed") {
            options.shed = parseDouble("--shed", next("--shed"));
            if (!(options.shed >= 0.0)) // Rejects NaN too.
                return fail("--shed must be >= 0 requests/s "
                            "(0 = admission off)");
        } else if (arg == "--preset") {
            options.dram_preset = next("--preset");
            if (options.dram_preset == "help" ||
                options.dram_preset == "list") {
                for (const auto &n : DramConfig::presetNames())
                    std::printf("%s\n", n.c_str());
                return 0;
            }
            // Resolve a throwaway module now so an unknown grade
            // fails before any scenario runs.
            try {
                DramConfig::preset(options.dram_preset, 64);
            } catch (const std::exception &e) {
                return fail(e.what());
            }
        } else if (arg == "--sched") {
            options.sched = next("--sched");
            // "--sched help" / "--sched list" print the preset and
            // knob reference instead of failing on an unknown name.
            if (options.sched == "help" || options.sched == "list") {
                std::printf("%s",
                            SchedulerPolicy::describeKnobs().c_str());
                return 0;
            }
            // Resolve now so an unknown preset or knob fails before
            // any scenario runs (and before any sink opens).
            try {
                SchedulerPolicy::parse(options.sched);
            } catch (const std::exception &e) {
                return fail(e.what());
            }
        } else if (arg == "--trace") {
            options.trace_path = next("--trace");
        } else if (arg == "--trace-speed") {
            options.trace_speed =
                parseDouble("--trace-speed", next("--trace-speed"));
            if (!(options.trace_speed > 0.0))
                return fail("--trace-speed must be > 0");
        } else if (arg == "--ambient") {
            options.ambient_c =
                parseDouble("--ambient", next("--ambient"));
            if (!(options.ambient_c >= -40.0) ||
                !(options.ambient_c <= 120.0))
                return fail("--ambient must be within the modeled "
                            "-40..120 C range");
        } else if (arg == "--epoch-us") {
            options.epoch_us =
                parseDouble("--epoch-us", next("--epoch-us"));
            if (!(options.epoch_us > 0.0))
                return fail("--epoch-us must be > 0");
        } else if (arg == "--cores") {
            options.cores = parseIntArg("--cores", next("--cores"));
            if (options.cores < 1)
                return fail("--cores must be >= 1");
        } else if (arg == "--record-trace") {
            options.record_trace = next("--record-trace");
        } else if (arg == "--trace-info") {
            const char *path = next("--trace-info");
            try {
                std::printf("%s", TraceReader(path).describe().c_str());
            } catch (const std::exception &e) {
                return fail(e.what());
            }
            return 0;
        } else if (arg == "--out") {
            out_path = next("--out");
        } else if (arg == "--csv") {
            csv_path = next("--csv");
        } else if (arg == "--timings") {
            options.emit_timings = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage();
            return 0;
        } else {
            printUsage();
            return fail("unknown argument '" + arg + "'");
        }
    }

    if (list) {
        printList();
        return 0;
    }

    auto &registry = ScenarioRegistry::instance();
    if (all)
        selected = registry.names();
    // A bare `codic_run --trace FILE` means "replay this".
    if (selected.empty() && !options.trace_path.empty())
        selected.push_back("trace_replay");
    if (selected.empty()) {
        printUsage();
        return fail("nothing to run (use --scenario, --all, or "
                    "--list)");
    }
    for (const auto &name : selected) {
        if (registry.find(name))
            continue;
        std::string message = "unknown scenario '" + name +
                              "'; registered scenarios:";
        for (const auto &known : registry.names())
            message += "\n  " + known;
        return fail(message);
    }

    // Assemble the sink stack: text for humans, JSON/CSV for
    // machines. When a machine sink writes to stdout, the text
    // report would interleave with it and corrupt the document, so
    // suppress it.
    if (out_path == "-" || csv_path == "-")
        quiet = true;
    MultiResultSink sink;
    std::unique_ptr<TextResultSink> text;
    if (!quiet) {
        text = std::make_unique<TextResultSink>(std::cout);
        sink.addSink(text.get());
    }
    std::ofstream out_file;
    std::unique_ptr<JsonResultSink> json;
    if (!out_path.empty()) {
        std::ostream *os = &std::cout;
        if (out_path != "-") {
            out_file.open(out_path);
            if (!out_file)
                return fail("cannot open '" + out_path +
                            "' for writing");
            os = &out_file;
        }
        json = std::make_unique<JsonResultSink>(*os);
        sink.addSink(json.get());
    }
    std::ofstream csv_file;
    std::unique_ptr<CsvResultSink> csv;
    if (!csv_path.empty()) {
        std::ostream *os = &std::cout;
        if (csv_path != "-") {
            csv_file.open(csv_path);
            if (!csv_file)
                return fail("cannot open '" + csv_path +
                            "' for writing");
            os = &csv_file;
        }
        csv = std::make_unique<CsvResultSink>(*os);
        sink.addSink(csv.get());
    }

    // Validate the option bundle (notably the trace-flag contract:
    // --trace must exist, must differ from --record-trace, and
    // --trace-speed must be positive) before the recorder creates
    // its output file or any sink opens.
    try {
        options.validate();
    } catch (const std::exception &e) {
        return fail(e.what());
    }
    if (!options.record_trace.empty()) {
        TraceMeta meta;
        for (const auto &name : selected)
            meta.scenario +=
                (meta.scenario.empty() ? "" : ",") + name;
        meta.seed = options.seed;
        try {
            TraceRecorder::start(options.record_trace, meta);
        } catch (const std::exception &e) {
            return fail(e.what());
        }
    }

    // A scenario failure must not abort the whole run: record it,
    // keep going, and report a per-scenario summary at the end.
    struct Failure
    {
        std::string scenario;
        std::string message;
    };
    std::vector<Failure> failures;
    for (int repeat = 0; repeat < options.repeats; ++repeat) {
        RunOptions repeat_options = options;
        repeat_options.seed =
            options.seed + static_cast<uint64_t>(repeat);
        for (const auto &name : selected) {
            try {
                runScenario(name, repeat_options, sink);
            } catch (const std::exception &e) {
                failures.push_back({name, e.what()});
                std::fprintf(stderr,
                             "codic_run: scenario '%s' failed: %s\n",
                             name.c_str(), e.what());
            }
        }
    }

    if (!options.record_trace.empty()) {
        try {
            const uint64_t recorded = TraceRecorder::stop();
            std::fprintf(stderr,
                         "codic_run: recorded %llu transactions to "
                         "%s\n",
                         static_cast<unsigned long long>(recorded),
                         options.record_trace.c_str());
        } catch (const std::exception &e) {
            return fail(e.what());
        }
    }

    if (json)
        json->finish();
    if (!failures.empty()) {
        std::fprintf(stderr,
                     "codic_run: %zu of %zu scenario run(s) failed:\n",
                     failures.size(),
                     selected.size() *
                         static_cast<size_t>(options.repeats));
        for (const auto &f : failures)
            std::fprintf(stderr, "  %s: %s\n", f.scenario.c_str(),
                         f.message.c_str());
        return 1;
    }
    return 0;
}
