/**
 * @file
 * Shared pieces of the repository benchmark program: the metric
 * catalogue, the percentile rule, the span recorder, the noise record
 * and the result line.
 *
 * perfbench links the sfikit libraries and calls only their public
 * functions. A workload fills a Run with metric values; main() prints
 * them as the last line of stdout in the result format described in
 * perfbench/NOTES.md.
 */
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "faas/scheduler.h"

namespace perfbench {

/** One metric of the catalogue: name, unit, which direction is good. */
struct MetricDef
{
    std::string name;
    std::string unit;
    bool higherIsBetter = false;
};

/** Metrics printed with tracing off (every workload prints all). */
const std::vector<MetricDef>& endToEndMetrics();
/** Metrics printed with tracing on (every workload prints all). */
const std::vector<MetricDef>& perLayerMetrics();

/** Registry kernels under test (suite order) and the w2c kernels. */
std::vector<std::string> registryKernelNames();
std::vector<std::string> w2cKernelNames();

/** True when @p name uses only [A-Za-z0-9_.-] and starts alnum. */
bool validMetricName(const std::string& name);

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Span dump path (traced runs); empty = do not write. */
    std::string traceOut;
    /** Expected-values file (FaaS and registry-kernel checksums). */
    std::string expectedPath;
};

/** What one workload run reports. */
struct Run
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Every output check passed (a failed op also clears this). */
    bool correct = true;
    std::map<std::string, double> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> info;

    void set(const std::string& name, double v) { metrics[name] = v; }
    bool has(const std::string& name) const
    {
        return metrics.count(name) != 0;
    }
    /** Records a failed output check (does not stop the run). */
    void fail(const std::string& what);
    void note(const std::string& line) { info.push_back(line); }
};

// ---------------------------------------------------------------------
// Percentiles.

/** Samples beyond percentile @p p of @p n samples (floor). */
uint64_t samplesBeyond(double p, uint64_t n);

/**
 * The percentile rule: the highest of {99.99, 99.9, 99, 90, 50} that
 * has at least 10 samples beyond it (50 when none has).
 */
double tailPercentile(uint64_t n);

/**
 * Percentile @p p of a FaaS latency histogram (nearest rank, like
 * LogHistogram::percentile), placed inside its ~1.6%-wide bucket by the
 * rank's position among the samples that share the bucket, so that the
 * value is not stuck on bucket midpoints.
 */
double histPercentile(const sfi::LogHistogram& h, double p);

/** Nearest-rank percentile of @p v (sorted in place). */
double percentileOf(std::vector<double>& v, double p);

/**
 * The 5th percentile of @p v counted from the good side (linear
 * interpolation): p5 of lower-is-better values, p95 of higher-is-better
 * ones. What perfbench reports across the windows of one run:
 * interference from outside the process (hypervisor steal, co-tenants,
 * the host CPU slowing for a second or two at a time) only ever makes a
 * window worse, so this percentile follows the program rather than the
 * host, while a change to the program moves every window, these
 * included.
 */
double goodP5(std::vector<double> v, bool higher_is_better);

/** Geometric mean of positive values. */
double geomeanOf(const std::vector<double>& v);

/** Seed for stream @p k of run seed @p seed (splitmix mixing). */
uint64_t subSeed(uint64_t seed, uint64_t k);

// ---------------------------------------------------------------------
// Spans.

/**
 * In-memory span recorder. A span has a name, a start, an end, the
 * span open when it began (its parent) and the id of the request or
 * arrival it belongs to. Spans are written out only at the end.
 * Single-threaded: perfbench opens spans from one thread only.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint64_t startNs = 0;
        uint64_t endNs = 0;
        int64_t parent = -1;  ///< index of the parent span, -1 = root
        uint64_t id = 0;      ///< request / arrival id
    };

    /** Disabled tracers record nothing and cost one branch. */
    bool enabled = false;

    /** Opens a span; returns its index (-1 when disabled). */
    int64_t open(const std::string& name, uint64_t id);
    void close(int64_t index);

    /** Adds a finished span (self-tests build trees this way). */
    int64_t add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
                int64_t parent, uint64_t id);

    const std::vector<Span>& spans() const { return spans_; }

    /**
     * Self time of every span: its duration minus the part of its
     * interval that its children cover (overlapping children are
     * counted once).
     */
    std::vector<uint64_t> selfTimes() const;

    /**
     * Median self time (ns) of the spans named @p name among spans
     * [@p from, @p to) (all by default); 0 if none.
     */
    double medianSelfNs(const std::string& name, size_t from = 0,
                        size_t to = SIZE_MAX) const;

    /** Writes one tab-separated line per span; false on I/O error. */
    bool write(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int64_t> stack_;
};

/** RAII span: open on construction, close on destruction. */
class Scope
{
  public:
    Scope(Tracer& t, const char* name, uint64_t id)
        : t_(t), index_(t.open(name, id))
    {
    }
    ~Scope() { t_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& t_;
    int64_t index_;
};

// ---------------------------------------------------------------------
// Process noise: CPU time, context switches, steal.

struct Usage
{
    double cpuUs = 0;
    uint64_t vcsw = 0;
    uint64_t ivcsw = 0;
    uint64_t stealTicks = 0;
    uint64_t totalTicks = 0;

    static Usage now();
    Usage operator-(const Usage& o) const;
    double stealPct() const;
};

/** nproc, PKU and FSGSBASE as one info line. */
std::string hostLine();

/** Wall-clock seconds of a monotonic clock. */
double nowSec();

/** CPU time of the calling thread (ns). */
uint64_t threadCpuNs();

// ---------------------------------------------------------------------
// Expected values (the output oracle).

/**
 * Reference outputs produced by the interpreter (src/interp), kept in
 * perfbench/expected.txt. Keys: "faas <handler> <requests>" (xor of
 * response + id over ids 0..requests-1) and "kernel <name> <scale>".
 */
class Expected
{
  public:
    bool load(const std::string& path);
    bool get(const std::string& key, uint64_t* value) const;
    void put(const std::string& key, uint64_t value)
    {
        values_[key] = value;
    }
    const std::map<std::string, uint64_t>& all() const { return values_; }

  private:
    std::map<std::string, uint64_t> values_;
};

std::string faasKey(const std::string& handler, uint64_t requests);
std::string kernelKey(const std::string& kernel, uint64_t scale);

// ---------------------------------------------------------------------
// Workloads (one source file each) and the layer probes.

void runFaas(const Args& args, const Expected& expected, Run& run);
void runColdChurn(const Args& args, const Expected& expected, Run& run);
void runSandboxCompute(const Args& args, const Expected& expected,
                       Run& run);

/**
 * Traced runs: measures every per-layer metric the workload did not
 * produce itself by timing calls into that layer's public API.
 */
void fillLayerProbes(const Args& args, const Expected& expected,
                     Tracer& tracer, Run& run);

/** FaaS host settings shared by the FaaS workloads and the probes. */
struct FaasShape
{
    double rate = 5000;
    int threads = 2;
    int slots = 32;
    double ioMeanMs = 0.2;
    /** Requests per measured window (fixed, so the tail percentile
     *  and the expected checksum do not depend on the run length). */
    uint64_t window = 5000;  ///< faas-light: 1000
};
FaasShape faasShape(const std::string& workload);
/** The FaaS handler every FaaS workload serves. */
extern const char* const kFaasHandler;
/** The kFaasHandler module from wkld::faasWorkloads(). */
sfi::wasm::Module makeFaasHandler();
/** What FaasHost::create compiles with under default options. */
sfi::jit::CompilerConfig faasHostConfig();
/** A FaaS host of @p shape serving kFaasHandler (IO seed @p seed). */
sfi::Result<std::unique_ptr<sfi::faas::FaasHost>>
makeFaasHost(const FaasShape& shape, uint64_t seed);
/** Latency limit of slo_met_pct per workload (ns). */
uint64_t sloLimitNs(const std::string& workload);

/**
 * FaaS-host counters summed over runs of one or more hosts: the
 * faas.* and pool.* per-layer metrics.
 */
struct FaasTotals
{
    sfi::LogHistogram queue, service;
    uint64_t completed = 0, io = 0, epochs = 0, colds = 0, trans = 0,
             batched = 0;
    uint64_t allocs = 0, warmHits = 0, zeroed = 0, decommits = 0,
             steals = 0;
    std::vector<double> drainMs;

    /** One host run; @p drain_ms is its backlog drain time. */
    void add(const sfi::faas::FaasHost::Stats& s, double drain_ms);
    /** Pool counters between two snapshots of one host's pool. */
    void addPool(const sfi::pool::MemoryPool::Stats& before,
                 const sfi::pool::MemoryPool::Stats& after);
    /** Sets every faas.* metric except the replay ones, and pool.*
     *  counters; @p only_missing keeps values already set. */
    void set(Run& run, bool only_missing = false) const;
};

/** Writes the interpreter-produced reference values; 0 on success. */
int generateExpected(const std::string& path);

/** Benchmark self-tests; 0 when all pass. */
int selfTest(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
