#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/cpu.h"
#include "seg/seg.h"
#include "w2c/kernels.h"
#include "wkld/workloads.h"

namespace perfbench {

const std::vector<MetricDef>&
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sojourn_p50_us", "us", false},
        {"slo_met_pct", "%", true},
        {"achieved_rps", "1/s", true},
        {"setup_s", "s", false},
    };
    return defs;
}

std::vector<std::string>
registryKernelNames()
{
    std::vector<std::string> names;
    for (const auto* suite : {&sfi::wkld::spec17(), &sfi::wkld::sightglass(),
                              &sfi::wkld::polydhry()})
        for (const auto& w : *suite)
            names.push_back(w.name);
    return names;
}

std::vector<std::string>
w2cKernelNames()
{
    std::vector<std::string> names;
    for (const auto& k : sfi::w2c::kKernels<sfi::w2c::NativePolicy>)
        names.push_back(k.ours);
    return names;
}

const std::vector<MetricDef>&
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"faas.sojourn_p99_us", "us", false},
            {"faas.queue_p50_us", "us", false},
            {"faas.queue_p99_us", "us", false},
            {"faas.service_p50_us", "us", false},
            {"faas.io_yields_per_req", "count/req", false},
            {"faas.epoch_yields_per_req", "count/req", false},
            {"faas.cold_starts_per_req", "count/req", false},
            {"faas.transitions_per_req", "count/req", false},
            {"faas.batched_pct", "%", true},
            {"faas.backlog_drain_ms", "ms", false},
            {"faas.fiber_create_us", "us", false},
            {"faas.replay_gap_us", "us", false},
            {"pool.alloc_ns", "ns", false},
            {"pool.free_ns", "ns", false},
            {"pool.warm_hit_pct", "%", true},
            {"pool.zeroed_bytes_per_req", "B/req", false},
            {"pool.decommits_per_req", "count/req", false},
            {"pool.steals_per_req", "count/req", false},
            {"runtime.instantiate_us", "us", false},
            {"runtime.handler_us", "us", false},
            {"runtime.enter_ns", "ns", false},
            {"runtime.gs_writes_per_call", "count/call", false},
            {"runtime.call_ns", "ns", false},
            {"seg.gs_write_ns", "ns", false},
            {"mpk.pkru_write_ns.emulated", "ns", false},
            {"mpk.pkru_write_ns.default", "ns", false},
            {"jit.compile_us", "us", false},
            {"jit.compile_tiered_us", "us", false},
            {"jit.cache_hit_pct", "%", true},
            {"jit.baseline_compiles", "count", false},
            {"jit.tier_ups", "count", false},
            {"jit.interp_fallbacks", "count", false},
            {"jit.code_bytes", "B", false},
            {"jit.suite_s", "s", false},
            {"jit.segue_norm", "ratio", false},
        };
        for (const std::string& k : registryKernelNames())
            d.push_back({"jit.kernel_ms." + k, "ms", false});
        d.push_back({"verify.check_us", "us", false});
        d.push_back({"verify.insns", "count", false});
        d.push_back({"w2c.segue_norm", "ratio", false});
        for (const std::string& k : w2cKernelNames())
            d.push_back({"w2c.kernel_ms." + k, "ms", false});
        d.push_back({"os.cpu_us_per_req", "us", false});
        d.push_back({"os.steal_pct", "%", false});
        d.push_back({"os.vcsw_per_req", "count/req", false});
        d.push_back({"os.ivcsw_per_req", "count/req", false});
        d.push_back({"bench.trace_overhead_pct", "%", false});
        return d;
    }();
    return defs;
}

bool
validMetricName(const std::string& name)
{
    if (name.empty() || name.size() > 64 || !std::isalnum((unsigned char)name[0]))
        return false;
    for (char c : name)
        if (!std::isalnum((unsigned char)c) && c != '_' && c != '.' &&
            c != '-')
            return false;
    return true;
}

void
Run::fail(const std::string& what)
{
    correct = false;
    note("CHECK FAILED: " + what);
}

// ---------------------------------------------------------------------

uint64_t
samplesBeyond(double p, uint64_t n)
{
    // Rounded to 1e-9 first so 99% of 1000 leaves exactly 10.
    double beyond = double(n) * (100.0 - p) / 100.0;
    return uint64_t(std::floor(beyond + 1e-9));
}

double
tailPercentile(uint64_t n)
{
    for (double p : {99.99, 99.9, 99.0, 90.0})
        if (samplesBeyond(p, n) >= 10)
            return p;
    return 50.0;
}

double
percentileOf(std::vector<double>& v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
goodP5(std::vector<double> v, bool higher_is_better)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = (higher_is_better ? 0.95 : 0.05) * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
geomeanOf(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

uint64_t
subSeed(uint64_t seed, uint64_t k)
{
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + k + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------------

int64_t
Tracer::open(const std::string& name, uint64_t id)
{
    if (!enabled)
        return -1;
    int64_t parent = stack_.empty() ? -1 : stack_.back();
    int64_t index = add(name, sfi::monotonicNs(), 0, parent, id);
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int64_t index)
{
    if (index < 0)
        return;
    spans_[size_t(index)].endNs = sfi::monotonicNs();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

int64_t
Tracer::add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
            int64_t parent, uint64_t id)
{
    spans_.push_back(Span{name, start_ns, end_ns, parent, id});
    return int64_t(spans_.size() - 1);
}

std::vector<uint64_t>
Tracer::selfTimes() const
{
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); i++)
        if (spans_[i].parent >= 0)
            children[size_t(spans_[i].parent)].push_back(i);
    std::vector<uint64_t> self(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span& s = spans_[i];
        uint64_t dur = s.endNs > s.startNs ? s.endNs - s.startNs : 0;
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<uint64_t, uint64_t>> iv;
        for (size_t c : children[i]) {
            uint64_t a = std::max(spans_[c].startNs, s.startNs);
            uint64_t b = std::min(spans_[c].endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cur_a = 0, cur_b = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        self[i] = dur - std::min(dur, covered);
    }
    return self;
}

double
Tracer::medianSelfNs(const std::string& name, size_t from, size_t to) const
{
    std::vector<uint64_t> self = selfTimes();
    std::vector<double> v;
    for (size_t i = from; i < std::min(to, spans_.size()); i++)
        if (spans_[i].name == name)
            v.push_back(double(self[i]));
    return v.empty() ? 0 : percentileOf(v, 50);
}

bool
Tracer::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::vector<uint64_t> self = selfTimes();
    out << "index\tname\tid\tparent\tstart_ns\tend_ns\tself_ns\n";
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span& s = spans_[i];
        out << i << '\t' << s.name << '\t' << s.id << '\t' << s.parent
            << '\t' << s.startNs << '\t' << s.endNs << '\t' << self[i]
            << '\n';
    }
    return bool(out);
}

// ---------------------------------------------------------------------

Usage
Usage::now()
{
    Usage u;
    struct rusage r;
    getrusage(RUSAGE_SELF, &r);
    u.cpuUs = double(r.ru_utime.tv_sec + r.ru_stime.tv_sec) * 1e6 +
              double(r.ru_utime.tv_usec + r.ru_stime.tv_usec);
    u.vcsw = uint64_t(r.ru_nvcsw);
    u.ivcsw = uint64_t(r.ru_nivcsw);
    std::ifstream stat("/proc/stat");
    std::string cpu;
    if (stat >> cpu && cpu == "cpu") {
        // user nice system idle iowait irq softirq steal ...
        uint64_t f[8] = {};
        for (uint64_t& x : f)
            stat >> x;
        for (uint64_t x : f)
            u.totalTicks += x;
        u.stealTicks = f[7];
    }
    return u;
}

Usage
Usage::operator-(const Usage& o) const
{
    Usage d;
    d.cpuUs = cpuUs - o.cpuUs;
    d.vcsw = vcsw - o.vcsw;
    d.ivcsw = ivcsw - o.ivcsw;
    d.stealTicks = stealTicks - o.stealTicks;
    d.totalTicks = totalTicks - o.totalTicks;
    return d;
}

double
Usage::stealPct() const
{
    return totalTicks ? 100.0 * double(stealTicks) / double(totalTicks) : 0;
}

std::string
hostLine()
{
    const sfi::CpuFeatures& f = sfi::cpuFeatures();
    char buf[160];
    std::snprintf(buf, sizeof buf, "host: nproc=%ld pku=%d fsgsbase=%d",
                  sysconf(_SC_NPROCESSORS_ONLN), int(f.pku && f.ospke),
                  int(sfi::seg::fsgsbaseUsable()));
    return buf;
}

double
nowSec()
{
    return double(sfi::monotonicNs()) / 1e9;
}

uint64_t
threadCpuNs()
{
    struct timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return uint64_t(ts.tv_sec) * 1'000'000'000ull + uint64_t(ts.tv_nsec);
}

// ---------------------------------------------------------------------

bool
Expected::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            return false;
        values_[line.substr(0, sp)] =
            std::stoull(line.substr(sp + 1), nullptr, 16);
    }
    return true;
}

bool
Expected::get(const std::string& key, uint64_t* value) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return false;
    *value = it->second;
    return true;
}

std::string
faasKey(const std::string& handler, uint64_t requests)
{
    return "faas " + handler + " " + std::to_string(requests);
}

std::string
kernelKey(const std::string& kernel, uint64_t scale)
{
    return "kernel " + kernel + " " + std::to_string(scale);
}

}  // namespace perfbench
