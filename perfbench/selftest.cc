/**
 * @file
 * Self-tests of the benchmark itself (perfbench --self-test): the
 * percentile rule, request conservation in the FaaS host, span
 * self-time arithmetic, metric names, and that a corrupted expected
 * value is caught by the output checks of the real workload code.
 */
#include <cmath>
#include <cstdio>
#include <set>

#include "bench.h"

namespace perfbench {

namespace {

int failures = 0;

void
expect(bool cond, const std::string& what)
{
    std::printf("%s %s\n", cond ? "PASS" : "FAIL", what.c_str());
    failures += !cond;
}

void
testPercentileRule()
{
    struct Case
    {
        uint64_t n;
        double p;
    };
    for (Case c : {Case{9, 50}, Case{99, 50}, Case{100, 90}, Case{999, 90},
                   Case{1000, 99}, Case{5000, 99}, Case{9999, 99},
                   Case{10000, 99.9}, Case{100000, 99.99}}) {
        const double p = tailPercentile(c.n);
        // Below 100 samples no tail qualifies and the median stands in.
        expect(p == c.p && (p == 50 || samplesBeyond(p, c.n) >= 10),
               "percentile rule: n=" + std::to_string(c.n) + " -> p" +
                   std::to_string(p) + " with " +
                   std::to_string(samplesBeyond(p, c.n)) +
                   " samples beyond");
    }
    std::vector<double> v;
    for (int i = 1; i <= 1000; i++)
        v.push_back(double(1001 - i));
    expect(percentileOf(v, 50) == 500 && percentileOf(v, 99) == 990 &&
               percentileOf(v, 100) == 1000,
           "nearest-rank percentiles of 1..1000");
    sfi::LogHistogram h;
    for (uint64_t x = 1000; x < 2000; x++)
        h.add(x);
    bool close = true;
    for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
        const double exact = 1000.0 + std::floor(p / 100.0 * 999.0 + 0.5);
        close &= std::fabs(histPercentile(h, p) - exact) <= 1.0;
    }
    expect(close, "histogram percentiles of 1000..1999 within 1 of exact "
                  "(buckets are 16 wide there)");
    std::vector<double> ranks;
    for (int i = 21; i >= 1; i--)
        ranks.push_back(i);
    expect(goodP5(ranks, false) == 2 && goodP5(ranks, true) == 20,
           "good p5: p5 for lower-is-better, p95 for higher");
}

void
testConservation()
{
    for (sfi::faas::AdmissionPolicy policy :
         {sfi::faas::AdmissionPolicy::None, sfi::faas::AdmissionPolicy::Reject,
          sfi::faas::AdmissionPolicy::Shed}) {
        sfi::faas::FaasHost::Options o;
        o.workerThreads = 2;
        o.maxConcurrent = 8;
        o.ioDelayMeanMs = 0.2;
        o.admission = policy;
        o.admissionQueueDepth = 4;
        auto host = sfi::faas::FaasHost::create(makeFaasHandler(), o);
        sfi::faas::LoadGenConfig load;
        // Far past capacity, so Reject and Shed turn work away.
        load.ratePerSec = 200'000;
        const uint64_t offered = 2000;
        auto st = (*host)->runOpenLoop(offered, load);
        const bool ok = st.isOk() && st->completed + st->rejected +
                                             st->shedRequests ==
                                         offered;
        expect(ok, "conservation (policy " + std::to_string(int(policy)) +
                       "): completed " +
                       std::to_string(st.isOk() ? st->completed : 0) +
                       " + rejected " +
                       std::to_string(st.isOk() ? st->rejected : 0) +
                       " + shed " +
                       std::to_string(st.isOk() ? st->shedRequests : 0) +
                       " == offered " + std::to_string(offered));
    }
}

void
testSelfTime()
{
    Tracer t;
    const int64_t root = t.add("root", 0, 100, -1, 7);
    const int64_t a = t.add("a", 10, 40, root, 7);
    t.add("b", 30, 60, root, 7);        // overlaps a: union counted once
    t.add("a.child", 15, 20, a, 7);
    t.add("c", 90, 120, root, 7);       // clipped to the parent's end
    const std::vector<uint64_t> self = t.selfTimes();
    expect(self == std::vector<uint64_t>{40, 25, 30, 5, 30},
           "span self time: root 40, a 25, b 30, a.child 5, c 30");
    expect(t.medianSelfNs("a") == 25 && t.medianSelfNs("none") == 0,
           "median self time by span name");
}

void
testMetricNames()
{
    std::set<std::string> seen;
    bool valid = true, unique = true;
    for (const auto* defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef& d : *defs) {
            valid &= validMetricName(d.name);
            unique &= seen.insert(d.name).second;
        }
    expect(valid, "every metric name uses only [A-Za-z0-9_.-]");
    expect(unique, "every metric name is used once");
    expect(!validMetricName("a b") && !validMetricName("_x") &&
               !validMetricName("x/y") && validMetricName("jit.kernel_ms.2mm"),
           "name check rejects spaces, a leading '_' and '/'");
}

/** Flips one bit of @p key in a copy of @p e. */
Expected
corrupted(const Expected& e, const std::string& key)
{
    Expected c = e;
    uint64_t v = 0;
    e.get(key, &v);
    c.put(key, v ^ 1);
    return c;
}

void
testOracle(const Expected& expected)
{
    Args args;
    args.workload = "faas-light";
    args.seed = 3;
    args.seconds = 1;  // one window
    {
        Run run;
        runFaas(args, expected, run);
        expect(run.correct && run.failed == 0,
               "faas window with the true expected checksum passes");
    }
    const FaasShape shape = faasShape(args.workload);
    {
        Run run;
        runFaas(args, corrupted(expected, faasKey(kFaasHandler, shape.window)),
                run);
        expect(!run.correct && run.failed == run.attempted &&
                   run.attempted % shape.window == 0,
               "a corrupted FaaS checksum fails every window");
    }
    args.workload = "sandbox-compute";
    args.seconds = 1;  // one round
    {
        Run run;
        runSandboxCompute(args, corrupted(expected, kernelKey("strchr", 40)),
                          run);
        expect(!run.correct && run.failed == 1,
               "a corrupted kernel result fails exactly that request");
    }
}

}  // namespace

int
selfTest(const Args& args)
{
    Expected expected;
    if (args.expectedPath.empty() || !expected.load(args.expectedPath)) {
        std::printf("FAIL self-test needs --expected <file>\n");
        return 1;
    }
    testPercentileRule();
    testSelfTime();
    testMetricNames();
    testConservation();
    testOracle(expected);
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "OK", failures);
    return failures ? 1 : 0;
}

}  // namespace perfbench
