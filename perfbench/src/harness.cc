#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t
tickReadOffset()
{
    static const uint64_t offset = [] {
        std::vector<double> pairs;
        for (int i = 0; i < 1001; ++i) {
            const uint64_t t0 = ticks();
            pairs.push_back(double(ticks() - t0));
        }
        return uint64_t(median(pairs));
    }();
    return offset;
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / double(values.size());
}

std::vector<Metric>
medianMetrics(const std::vector<std::vector<Metric>> &passes)
{
    if (passes.empty())
        return {};
    std::vector<Metric> out = passes.front();
    for (size_t k = 0; k < out.size(); ++k) {
        std::vector<double> values;
        for (const auto &pass : passes)
            values.push_back(pass[k].value);
        out[k].value = median(values);
    }
    return out;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
}

Samples
measurePasses(double seconds, int min_passes, int setups_per_pass,
              const std::function<void()> &setup,
              const std::function<void(size_t)> &pass)
{
    Samples s;
    double measured = 0.0;
    while (measured < seconds ||
           s.pass_s.size() < static_cast<size_t>(min_passes)) {
        for (int k = 0; k < setups_per_pass; ++k) {
            const double t0 = nowSeconds();
            setup();
            s.setup_s.push_back(nowSeconds() - t0);
        }
        const double ref_before = referenceSeconds();
        const double t0 = nowSeconds();
        pass(s.pass_s.size());
        const double dt = nowSeconds() - t0;
        s.pass_s.push_back(dt);
        s.ref_s.push_back(0.5 * (ref_before + referenceSeconds()));
        measured += dt;
    }
    return s;
}

double
referenceSeconds()
{
    static std::vector<uint64_t> buffer(1u << 19);
    static uint64_t sink = 0;
    const double t0 = nowSeconds();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    uint64_t acc = 0;
    for (int i = 0; i < 3000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t &slot = buffer[x & (buffer.size() - 1)];
        slot += x;
        acc += slot >> 3;
        if ((x & 0xff) < 40)
            acc ^= acc * 31;
    }
    sink += acc; // keeps the loop observable
    return nowSeconds() - t0;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // execve, so a run started from a large parent (perfbench/run.py)
    // would report the parent's peak.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

void
addRunMetrics(const RunSpec &spec, const Samples &samples,
              Report &report)
{
    report.samples = samples;
    std::vector<double> plain, traced;
    for (size_t i = 0; i < samples.pass_s.size(); ++i) {
        const double scaled =
            samples.pass_s[i] * kReferenceS / samples.ref_s[i];
        (spec.trace && i % 2 ? traced : plain).push_back(scaled);
    }
    const double host_speed = kReferenceS / mean(samples.ref_s);
    report.raw = {
        {"wall_s", mean(samples.pass_s), "s"},
        {"setup_s", median(samples.setup_s), "s"},
        {"host_speed", host_speed, "ratio"},
    };
    if (!spec.trace) {
        report.metric("wall_s", mean(plain), "s");
        report.metric("setup_s", median(samples.setup_s) * host_speed, "s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }
    report.metric("trace.overhead", mean(traced) / mean(plain) - 1.0,
                  "ratio");
}

} // namespace perfbench
