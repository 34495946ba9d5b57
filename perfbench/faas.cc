/**
 * @file
 * faas-light and faas-heavy: the FaaS host under open-loop Poisson
 * arrivals at a fixed offered rate (5,000 and 20,000 rps).
 *
 * A run is a sequence of windows of a fixed number of requests, each a
 * FaasHost::runOpenLoop call with its own arrival seed, on a host that
 * is replaced every few windows. Per window the benchmark takes the
 * sojourn median and tail, the SLO share, the achieved rate and the
 * process CPU per request; the run reports the 5th percentile from the
 * good side of each over its windows (goodP5). Every window's response
 * checksum is checked against the interpreter's.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "base/cpu.h"
#include "bench.h"
#include "faas/scheduler.h"
#include "wkld/workloads.h"

namespace perfbench {

const char* const kFaasHandler = "html-templating";

namespace {

/** Windows served by one host before a fresh one replaces it. */
constexpr uint64_t kWindowsPerHost = 10;

}  // namespace

FaasShape
faasShape(const std::string& workload)
{
    FaasShape s;
    // Windows of 0.1-0.2 s: the descheduling bursts that stretch the
    // tail last a second or two, and short windows let goodP5 step
    // around them (5,000-request windows at 5,000 rps, reported as the
    // good quartile, spread 0.29 across ten seeds).
    if (workload == "faas-heavy") {
        s.rate = 20000;
        s.window = 2000;
    } else {
        s.window = 1000;
    }
    return s;
}

uint64_t
sloLimitNs(const std::string& workload)
{
    // A request or a first response within 2 ms; a library call within
    // 200 ms (the bench-scale kernels take 2-700 ms).
    return workload == "sandbox-compute" ? 200'000'000 : 2'000'000;
}

namespace {

/** Bucket midpoint of the sample at 0-based rank @p r of @p h. */
uint64_t
valueAtRank(const sfi::LogHistogram& h, uint64_t r)
{
    const uint64_t n = h.count();
    return h.percentile(n > 1 ? 100.0 * double(r) / double(n - 1) : 0);
}

}  // namespace

double
histPercentile(const sfi::LogHistogram& h, double p)
{
    using H = sfi::LogHistogram;
    const uint64_t n = h.count();
    if (n < 2)
        return double(h.percentile(p));
    const uint64_t r = uint64_t(p / 100.0 * double(n - 1) + 0.5);
    const size_t b = H::bucketOf(valueAtRank(h, r));
    auto in_bucket = [&](uint64_t k) {
        return H::bucketOf(valueAtRank(h, k)) == b;
    };
    // The ranks [lo, hi] that share rank r's bucket (buckets ascend
    // with rank), then r's position spread evenly across the bucket.
    uint64_t lo = 0, hi = r;
    while (lo < hi) {
        const uint64_t m = lo + (hi - lo) / 2;
        if (in_bucket(m))
            hi = m;
        else
            lo = m + 1;
    }
    const uint64_t first = lo;
    lo = r;
    hi = n - 1;
    while (lo < hi) {
        const uint64_t m = lo + (hi - lo + 1) / 2;
        if (in_bucket(m))
            lo = m;
        else
            hi = m - 1;
    }
    const uint64_t last = lo;
    const uint64_t width =
        b < H::kSubBuckets ? 1 : 1ull << ((b - H::kSubBuckets) / H::kSubBuckets);
    const double base = double(H::bucketMidpoint(b) - width / 2);
    return base + double(width) * (double(r - first) + 0.5) /
                      double(last - first + 1);
}

namespace {

/** Samples of @p h at or below @p limit, by bisection over ranks. */
uint64_t
countAtOrBelow(const sfi::LogHistogram& h, uint64_t limit)
{
    uint64_t n = h.count();
    if (n == 0 || h.percentile(0) > limit)
        return 0;
    if (n == 1 || h.max() <= limit)
        return n;
    uint64_t lo = 0, hi = n - 1;  // rank lo is <= limit, hi is not
    while (hi - lo > 1) {
        uint64_t mid = lo + (hi - lo) / 2;
        double p = 100.0 * double(mid) / double(n - 1);
        if (h.percentile(p) <= limit)
            lo = mid;
        else
            hi = mid;
    }
    return lo + 1;
}

}  // namespace

void
FaasTotals::add(const sfi::faas::FaasHost::Stats& s, double drain_ms)
{
    queue.merge(s.latencyQueueNs);
    service.merge(s.latencyServiceNs);
    completed += s.completed;
    io += s.ioYields;
    epochs += s.epochYields;
    colds += s.coldStarts;
    trans += s.transitions;
    batched += s.batchedRequests;
    drainMs.push_back(drain_ms);
}

void
FaasTotals::addPool(const sfi::pool::MemoryPool::Stats& before,
                    const sfi::pool::MemoryPool::Stats& after)
{
    allocs += after.allocations - before.allocations;
    warmHits += after.warmHits - before.warmHits;
    zeroed += after.warmZeroedBytes - before.warmZeroedBytes;
    decommits += after.decommits - before.decommits;
    steals += after.steals - before.steals;
}

void
FaasTotals::set(Run& run, bool only_missing) const
{
    auto put = [&](const std::string& name, double v) {
        if (!only_missing || !run.has(name))
            run.set(name, v);
    };
    const double req = double(std::max<uint64_t>(1, completed));
    put("faas.queue_p50_us", histPercentile(queue, 50) / 1e3);
    put("faas.queue_p99_us", histPercentile(queue, 99) / 1e3);
    put("faas.service_p50_us", histPercentile(service, 50) / 1e3);
    put("faas.io_yields_per_req", double(io) / req);
    put("faas.epoch_yields_per_req", double(epochs) / req);
    put("faas.cold_starts_per_req", double(colds) / req);
    put("faas.transitions_per_req", double(trans) / req);
    put("faas.batched_pct", 100.0 * double(batched) / req);
    std::vector<double> drain = drainMs;
    put("faas.backlog_drain_ms", percentileOf(drain, 50));
    put("pool.warm_hit_pct",
        100.0 * double(warmHits) / double(std::max<uint64_t>(1, allocs)));
    put("pool.zeroed_bytes_per_req", double(zeroed) / req);
    put("pool.decommits_per_req", double(decommits) / req);
    put("pool.steals_per_req", double(steals) / req);
}

sfi::Result<std::unique_ptr<sfi::faas::FaasHost>>
makeFaasHost(const FaasShape& shape, uint64_t seed)
{
    sfi::faas::FaasHost::Options o;
    o.workerThreads = shape.threads;
    o.maxConcurrent = shape.slots;
    o.ioDelayMeanMs = shape.ioMeanMs;
    o.seed = seed;
    return sfi::faas::FaasHost::create(makeFaasHandler(), std::move(o));
}

sfi::jit::CompilerConfig
faasHostConfig()
{
    sfi::jit::CompilerConfig cfg = sfi::jit::CompilerConfig::wamrSegue();
    cfg.epochChecks = true;
    return cfg;
}

sfi::wasm::Module
makeFaasHandler()
{
    // wkld::findWorkload() does not search faasWorkloads(), so look the
    // handler up in that suite directly.
    for (const auto& w : sfi::wkld::faasWorkloads())
        if (std::strcmp(w.name, kFaasHandler) == 0)
            return w.make();
    SFI_PANIC("FaaS handler %s not found", kFaasHandler);
}

void
runFaas(const Args& args, const Expected& expected, Run& run)
{
    const FaasShape shape = faasShape(args.workload);
    uint64_t expect = 0;
    if (!expected.get(faasKey(kFaasHandler, shape.window), &expect))
        run.fail("no expected checksum for " +
                 faasKey(kFaasHandler, shape.window));

    const uint64_t windows = std::max<uint64_t>(
        1, uint64_t(args.seconds * shape.rate / double(shape.window) + 0.5));

    // Set-up, 25 times: host creation (compile + pool + epoch timer),
    // then one closed-loop pass that commits every slot. setup_s is the
    // median creation. The pass is warm-up, not the program's set-up:
    // it waits on seeded IO draws and its time follows the host's
    // wake-up latency, which moves by 70% from one stretch of minutes to
    // the next on a shared VM. Each host gets its own IO seed.
    constexpr uint64_t kSetupHosts = 25;
    std::vector<double> creates, warms;
    std::unique_ptr<sfi::faas::FaasHost> host;
    auto fresh_host = [&](uint64_t seed) {
        const double t0 = nowSec();
        auto h = makeFaasHost(shape, seed);
        SFI_CHECK_MSG(h.isOk(), "%s", h.message().c_str());
        const double t1 = nowSec();
        auto warm = (*h)->run(uint64_t(shape.slots) * 2);
        SFI_CHECK_MSG(warm.isOk(), "%s", warm.message().c_str());
        creates.push_back(t1 - t0);
        warms.push_back(nowSec() - t1);
        return std::move(*h);
    };
    for (uint64_t k = 0; k < kSetupHosts; k++) {
        host.reset();
        host = fresh_host(subSeed(args.seed, 2 * windows + k));
    }
    run.set("setup_s", percentileOf(creates, 50));
    {
        char line[128];
        std::snprintf(line, sizeof line,
                      "setup: create p50 %.4f ms, warm pass p50 %.4f ms "
                      "(%zu hosts)",
                      percentileOf(creates, 50) * 1e3,
                      percentileOf(warms, 50) * 1e3,
                      (size_t)kSetupHosts);
        run.note(line);
    }

    Tracer tracer;
    const uint64_t limit = sloLimitNs(args.workload);
    std::vector<double> p50, tail, slo, rps, cpu;
    std::vector<double> p50_traced, window_p50, steal;
    FaasTotals totals;
    double tail_pct = 0;
    sfi::pool::MemoryPool::Stats pool0 = host->memoryPool().stats();
    const Usage run0 = Usage::now();
    for (uint64_t w = 0; w < windows; w++) {
        if (w > 0 && w % kWindowsPerHost == 0) {
            // A fresh host (untimed) every few windows, so that where its
            // epoch timer thread and its pool land is sampled several
            // times per run rather than once.
            totals.addPool(pool0, host->memoryPool().stats());
            host.reset();
            host = fresh_host(subSeed(args.seed, windows + w));
            pool0 = host->memoryPool().stats();
        }
        sfi::faas::LoadGenConfig load;
        load.ratePerSec = shape.rate;
        load.process = sfi::faas::ArrivalProcess::Poisson;
        load.seed = subSeed(args.seed, w);
        const uint64_t last_arrival_ns =
            sfi::faas::LoadGen::schedule(load, shape.window).back();
        // Traced runs alternate traced and untraced windows; the gap
        // between the two is the tracing overhead.
        const bool traced = args.trace && w % 2 == 1;
        tracer.enabled = traced;
        run.attempted += shape.window;

        const Usage u0 = Usage::now();
        sfi::Result<sfi::faas::FaasHost::Stats> st =
            sfi::Result<sfi::faas::FaasHost::Stats>::error("not run");
        {
            Scope span(tracer, "faas.window", w);
            st = host->runOpenLoop(shape.window, load);
        }
        const Usage du = Usage::now() - u0;
        if (!st.isOk()) {
            run.fail("window " + std::to_string(w) + ": " + st.message());
            run.failed += shape.window;
            continue;
        }
        const auto& s = *st;
        if (s.completed + s.rejected + s.shedRequests != shape.window) {
            run.fail("window " + std::to_string(w) +
                     ": completed + rejected + shed != offered");
            run.failed += shape.window;
            continue;
        }
        if (s.checksum != expect) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "window %llu: checksum %016llx, expected %016llx",
                          (unsigned long long)w,
                          (unsigned long long)s.checksum,
                          (unsigned long long)expect);
            run.fail(buf);
            run.failed += shape.window;
            continue;
        }
        run.failed += s.rejected + s.shedRequests;

        const auto& lat = s.latencyTotalNs;
        tail_pct = tailPercentile(lat.count());
        const double p50_us = histPercentile(lat, 50) / 1e3;
        (traced ? p50_traced : p50).push_back(p50_us);
        tail.push_back(histPercentile(lat, tail_pct) / 1e3);
        slo.push_back(100.0 * double(countAtOrBelow(lat, limit)) /
                      double(shape.window));
        rps.push_back(s.throughputRps);
        cpu.push_back(du.cpuUs / double(std::max<uint64_t>(1, s.completed)));
        window_p50.push_back(p50_us);
        steal.push_back(du.stealPct());
        totals.add(s, std::max(0.0, s.elapsedSec * 1e3 -
                                        double(last_arrival_ns) / 1e6));
    }
    const Usage drun = Usage::now() - run0;
    totals.addPool(pool0, host->memoryPool().stats());

    std::vector<double> all_p50 = p50;
    all_p50.insert(all_p50.end(), p50_traced.begin(), p50_traced.end());
    run.set("sojourn_p50_us", goodP5(all_p50, false));
    // Rejected and shed requests count as misses; a failed window
    // fails the run.
    run.set("slo_met_pct", goodP5(slo, true));
    run.set("achieved_rps", goodP5(rps, true));
    run.set("os.cpu_us_per_req", goodP5(cpu, false));

    std::string per_window =
        "windows (p50 us / tail us / slo % / rps / steal %):";
    for (size_t i = 0; i < tail.size(); i++) {
        char w[96];
        std::snprintf(w, sizeof w, " %.1f/%.1f/%.2f/%.0f/%.1f", window_p50[i],
                      tail[i], slo[i], rps[i], steal[i]);
        per_window += w;
    }
    run.note(per_window);
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s: %.0f rps offered, %llu windows x %llu requests, "
                  "tail = p%g of %llu samples per window, SLO %.1f ms, "
                  "%d scheduler threads, %d slots, IO mean %.2f ms",
                  args.workload.c_str(), shape.rate,
                  (unsigned long long)windows,
                  (unsigned long long)shape.window, tail_pct,
                  (unsigned long long)shape.window, double(limit) / 1e6,
                  shape.threads, shape.slots, shape.ioMeanMs);
    run.note(buf);
    std::snprintf(buf, sizeof buf,
                  "noise: cpu %.0f us, vcsw %llu, ivcsw %llu, steal %.2f%%, "
                  "setup samples %zu",
                  drun.cpuUs, (unsigned long long)drun.vcsw,
                  (unsigned long long)drun.ivcsw, drun.stealPct(),
                  (size_t)kSetupHosts);
    run.note(buf);

    if (!args.trace)
        return;
    totals.set(run);
    // The sojourn tail is per-layer: see NOTES.md, "End-to-end metrics".
    run.set("faas.sojourn_p99_us", goodP5(tail, false));
    const double req = double(std::max<uint64_t>(1, totals.completed));
    run.set("os.steal_pct", drun.stealPct());
    run.set("os.vcsw_per_req", double(drun.vcsw) / req);
    run.set("os.ivcsw_per_req", double(drun.ivcsw) / req);
    const double untraced = percentileOf(p50, 50);
    const double traced = percentileOf(p50_traced, 50);
    run.set("bench.trace_overhead_pct",
            untraced > 0 && traced > 0 ? 100.0 * (traced - untraced) / untraced
                                       : 0.0);
    host.reset();
    fillLayerProbes(args, expected, tracer, run);
}

}  // namespace perfbench
