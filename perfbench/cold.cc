/**
 * @file
 * cold-churn: a seeded stream of FaaS image arrivals. Each arrival
 * builds a fresh host for its image with default options
 * (FaasHost::create) and serves one request; the timed span runs from
 * the image to the first response. About half of the arrivals repeat
 * an image seen earlier in the stream, so a gain that depends on
 * caching shows as a gap between fresh and repeated arrivals.
 *
 * Images are synthetic multi-handler modules: dozens of handlers with
 * distinct bodies, a few of them on the request path, importing
 * `io_wait` and exporting `handle` (the shape tiered compilation is
 * built for). The request path does not wait on IO.
 */
#include <algorithm>
#include <cstdio>

#include "base/cpu.h"
#include "base/rng.h"
#include "bench.h"
#include "cold.h"
#include "interp/interp.h"
#include "runtime/instance.h"
#include "verify/checker.h"
#include "wkld/emit_util.h"

namespace perfbench {

namespace {

/** Arrivals per run-second: sized so a run lasts about --seconds on a
 *  4-vCPU x86-64 host (image rebuild and teardown included). */
constexpr double kArrivalsPerSecond = 500;
/**
 * Arrivals per window, so a window's tail is p90 (the percentile rule
 * needs 1,000 samples for p99). The first-response time tracks the
 * host CPU's speed, which moves by a quarter for a second or two at a
 * time; windows of about 0.15 s let goodP5 step around those
 * slow stretches (not around slower minutes).
 */
constexpr uint64_t kWindow = 100;
/** Traced arrivals whose compile path is also timed call by call. */
constexpr size_t kLayerSamples = 2000;

std::map<std::string, sfi::rt::HostFn>
noopIo()
{
    return {{"io_wait", [](uint64_t*, size_t) {
                 return sfi::rt::HostOutcome{};
             }}};
}

}  // namespace

sfi::wasm::Module
makeChurnImage(uint64_t image_seed)
{
    using sfi::wasm::ValType;
    sfi::Rng rng(image_seed);
    const int handlers = 36 + int(rng.below(25));
    const int hot = 3 + int(rng.below(3));
    sfi::wkld::ModuleBuilder mb;
    const uint32_t io_wait = mb.importFunc("io_wait", {ValType::I32}, {});
    (void)io_wait;  // imported for the host ABI; not on the request path
    mb.memory(1, 1);
    std::vector<uint32_t> funcs;
    for (int h = 0; h < handlers; h++) {
        const uint64_t mul = rng.next() | 1, add = rng.next();
        const uint64_t rot = 1 + rng.below(63);
        auto f = mb.func("h" + std::to_string(h), {ValType::I32},
                         {ValType::I64});
        uint32_t acc = f.local(ValType::I64);
        uint32_t i = f.local(ValType::I32);
        uint32_t end = f.local(ValType::I32);
        f.i64Const(rng.next()).localSet(acc);
        f.localGet(f.param(0)).i32Const(64).i32Mul().localSet(end);
        sfi::wkld::forLoop(f, i, end, [&] {
            f.localGet(acc)
                .localGet(i)
                .i64ExtendI32U()
                .i64Const(add)
                .i64Add()
                .i64Xor()
                .i64Const(rot)
                .i64Rotl()
                .i64Const(mul)
                .i64Mul()
                .localSet(acc);
            f.localGet(i).i32Const(7).i32Mul().i32Const(1016).i32And();
            f.localGet(acc).i64Store(4096);
            f.localGet(acc)
                .localGet(i)
                .i32Const(1016)
                .i32And()
                .i64Load(4096)
                .i64Add()
                .localSet(acc);
        });
        f.localGet(acc).end();
        funcs.push_back(f.index());
    }
    auto handle = mb.func("handle", {ValType::I32}, {ValType::I64});
    uint32_t r = handle.local(ValType::I64);
    handle.localGet(handle.param(0)).i64ExtendI32U().localSet(r);
    for (int k = 0; k < hot; k++) {
        uint32_t h = funcs[rng.below(funcs.size())];
        handle.localGet(r).i32Const(2).call(h).i64Xor().localSet(r);
    }
    handle.localGet(r).end();
    mb.exportFunc("handle", handle.index());
    return std::move(mb).build();
}

uint64_t
interpHandle(const sfi::wasm::Module& image, uint64_t request)
{
    auto inst = sfi::interp::Instance::instantiate(
        image, {{"io_wait", [](uint64_t*, size_t) {
                     return sfi::interp::HostOutcome{};
                 }}});
    SFI_CHECK(inst.isOk());
    auto out = inst->callExport("handle", {request});
    SFI_CHECK(out.ok());
    return out.value;
}

void
traceColdLayers(const sfi::wasm::Module& image, uint64_t expect,
                Tracer& tracer, uint64_t id, ColdLayers& acc, Run& run)
{
    Scope root(tracer, "cold.layers", id);
    std::shared_ptr<sfi::rt::SharedModule> shared;
    {
        Scope s(tracer, "jit.compile", id);
        auto sm = sfi::rt::SharedModule::compile(image, faasHostConfig());
        SFI_CHECK_MSG(sm.isOk(), "%s", sm.message().c_str());
        shared = *sm;
    }
    {
        Scope s(tracer, "verify.check", id);
        sfi::verify::Report rep = sfi::verify::checkModule(shared->code());
        if (!rep.ok())
            run.fail("verifier rejected a compiled image");
        acc.insns.push_back(double(rep.stats.instructions));
    }
    std::unique_ptr<sfi::rt::Instance> inst;
    {
        Scope s(tracer, "runtime.instantiate", id);
        auto in = sfi::rt::Instance::create(shared, noopIo());
        SFI_CHECK(in.isOk());
        inst = std::move(*in);
    }
    {
        Scope s(tracer, "runtime.handle", id);
        auto out = inst->call("handle", {0});
        if (!out.ok() || out.value != expect)
            run.fail("monolithic image response differs from the "
                     "interpreter");
    }
    {
        // Tiered first response: lazy compile through the process-wide
        // verified code cache, then the first call.
        Scope s(tracer, "jit.compile_tiered", id);
        auto sm =
            sfi::rt::SharedModule::compileTiered(image, faasHostConfig());
        SFI_CHECK_MSG(sm.isOk(), "%s", sm.message().c_str());
        auto in = sfi::rt::Instance::create(*sm, noopIo());
        SFI_CHECK(in.isOk());
        auto out = (*in)->call("handle", {0});
        if (!out.ok() || out.value != expect)
            run.fail("tiered image response differs from the interpreter");
        sfi::jit::TierStatsSnapshot ts = (*sm)->tiered()->stats();
        acc.baselineCompiles += ts.baselineCompiles;
        acc.cacheHits += ts.cacheHits;
        acc.tierUps += ts.tierUps;
        acc.interpFallbacks += ts.interpFallbacks;
    }
}

void
setColdLayerMetrics(const Tracer& tracer, ColdLayers& acc, Run& run)
{
    run.set("jit.compile_us", tracer.medianSelfNs("jit.compile") / 1e3);
    run.set("jit.compile_tiered_us",
            tracer.medianSelfNs("jit.compile_tiered") / 1e3);
    const uint64_t lookups = acc.cacheHits + acc.baselineCompiles;
    run.set("jit.cache_hit_pct",
            lookups ? 100.0 * double(acc.cacheHits) / double(lookups) : 0);
    run.set("jit.baseline_compiles", double(acc.baselineCompiles));
    run.set("jit.tier_ups", double(acc.tierUps));
    run.set("jit.interp_fallbacks", double(acc.interpFallbacks));
    run.set("verify.check_us", tracer.medianSelfNs("verify.check") / 1e3);
    run.set("verify.insns", percentileOf(acc.insns, 50));
}

namespace {

/**
 * The seeded arrival stream: which image each arrival brings. Images
 * are rebuilt from their seeds when they arrive (outside the timed
 * span), so a long stream does not hold thousands of modules.
 */
struct Stream
{
    std::vector<uint64_t> imageSeeds;
    std::vector<uint64_t> expect;  ///< interpreter response per image
    std::vector<uint32_t> order;
    uint64_t repeats = 0;
};

Stream
makeStream(uint64_t seed, uint64_t arrivals)
{
    Stream s;
    sfi::Rng rng(subSeed(seed, 0xC01D));
    for (uint64_t k = 0; k < arrivals; k++) {
        // Fresh image with probability 1/2, else one seen before.
        if (s.imageSeeds.empty() || rng.below(2) == 0) {
            s.imageSeeds.push_back(subSeed(seed, s.imageSeeds.size()));
            s.order.push_back(uint32_t(s.imageSeeds.size() - 1));
        } else {
            s.order.push_back(uint32_t(rng.below(s.imageSeeds.size())));
            s.repeats++;
        }
    }
    return s;
}

}  // namespace

void
runColdChurn(const Args& args, const Expected& expected, Run& run)
{
    const uint64_t arrivals = std::max<uint64_t>(
        1, uint64_t(args.seconds * kArrivalsPerSecond + 0.5));

    // Set-up: build every distinct image and its reference response
    // (the interpreter), timed in three equal parts, one sample each.
    Stream stream = makeStream(args.seed, arrivals);
    std::vector<double> setups;
    const size_t images = stream.imageSeeds.size();
    for (size_t part = 0; part < 3; part++) {
        const double t0 = nowSec();
        for (size_t i = images * part / 3; i < images * (part + 1) / 3; i++)
            stream.expect.push_back(
                interpHandle(makeChurnImage(stream.imageSeeds[i]), 0));
        setups.push_back(nowSec() - t0);
    }
    run.set("setup_s", percentileOf(setups, 50));

    Tracer tracer;
    ColdLayers layers;
    std::vector<double> first_us, first_traced_us, window_us;
    std::vector<double> p50, tail, slo, rps, cpu;
    FaasTotals totals;
    const uint64_t limit = sloLimitNs(args.workload);
    const Usage u0 = Usage::now();
    uint64_t window_cpu_ns = 0, window_failed = 0;
    std::string per_window =
        "windows (p50 us / tail us / slo % / rps / cpu us):";
    auto close_window = [&] {
        // One window's figures (the last window may be short). Rate and
        // CPU count the image-to-first-response spans only: tearing a
        // host down is off the request path.
        if (!window_us.empty()) {
            double busy_us = 0;
            uint64_t met = 0;
            for (double us : window_us) {
                met += us * 1e3 <= double(limit);
                busy_us += us;
            }
            // Failed arrivals count as misses.
            slo.push_back(100.0 * double(met) /
                          double(window_us.size() + window_failed));
            rps.push_back(double(window_us.size()) / (busy_us / 1e6));
            cpu.push_back(double(window_cpu_ns) / 1e3 /
                          double(window_us.size()));
            std::vector<double> v = window_us;
            p50.push_back(percentileOf(v, 50));
            tail.push_back(percentileOf(v, tailPercentile(v.size())));
            char w[96];
            std::snprintf(w, sizeof w, " %.1f/%.1f/%.1f/%.1f/%.1f",
                          p50.back(), tail.back(), slo.back(), rps.back(),
                          cpu.back());
            per_window += w;
        }
        window_us.clear();
        window_cpu_ns = 0;
        window_failed = 0;
    };
    for (uint64_t k = 0; k < arrivals; k++) {
        if (k > 0 && k % kWindow == 0)
            close_window();
        const uint32_t img = stream.order[k];
        const bool traced = args.trace && k % 2 == 1;
        tracer.enabled = traced;
        sfi::wasm::Module image = makeChurnImage(stream.imageSeeds[img]);
        run.attempted++;

        std::unique_ptr<sfi::faas::FaasHost> host;
        sfi::Result<sfi::faas::FaasHost::Stats> st =
            sfi::Result<sfi::faas::FaasHost::Stats>::error("not run");
        // With default options the host serves on the calling thread, so
        // this thread's CPU time covers the whole first response.
        const uint64_t cpu0 = threadCpuNs();
        const uint64_t a = sfi::monotonicNs();
        {
            Scope arrival(tracer, "cold.arrival", k);
            {
                Scope s(tracer, "faas.host_create", k);
                auto h = sfi::faas::FaasHost::create(std::move(image), {});
                SFI_CHECK_MSG(h.isOk(), "%s", h.message().c_str());
                host = std::move(*h);
            }
            Scope s(tracer, "faas.host_run", k);
            st = host->run(1);
        }
        const uint64_t b = sfi::monotonicNs();
        window_cpu_ns += threadCpuNs() - cpu0;
        if (!st.isOk() || st->completed != 1 ||
            st->checksum != stream.expect[img]) {
            run.fail("arrival " + std::to_string(k) +
                     ": first response differs from the interpreter");
            run.failed++;
            window_failed++;
            continue;
        }
        (traced ? first_traced_us : first_us).push_back(double(b - a) / 1e3);
        window_us.push_back(double(b - a) / 1e3);
        if (!args.trace)
            continue;
        // One request per host: the backlog drains when the run ends.
        totals.add(*st, st->elapsedSec * 1e3);
        totals.addPool({}, host->memoryPool().stats());
        host.reset();
        // The tiered compiles publish into the process-wide code arena,
        // which never frees: bound how many images take that path.
        if (traced && layers.insns.size() < kLayerSamples)
            traceColdLayers(makeChurnImage(stream.imageSeeds[img]),
                            stream.expect[img], tracer, k, layers, run);
    }
    close_window();
    const Usage du = Usage::now() - u0;
    const uint64_t served = first_us.size() + first_traced_us.size();

    run.set("sojourn_p50_us", goodP5(p50, false));
    run.set("slo_met_pct", goodP5(slo, true));
    run.set("achieved_rps", goodP5(rps, true));
    run.set("os.cpu_us_per_req", goodP5(cpu, false));

    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "cold-churn: %llu arrivals in %zu windows, %zu distinct "
                  "images, repeat share %.3f, tail = p%g of %llu samples per "
                  "window (good p5 %.0f us), SLO %.1f ms",
                  (unsigned long long)arrivals, p50.size(),
                  stream.imageSeeds.size(),
                  double(stream.repeats) / double(arrivals),
                  tailPercentile(std::min<uint64_t>(arrivals, kWindow)),
                  (unsigned long long)std::min<uint64_t>(arrivals, kWindow),
                  goodP5(tail, false), double(limit) / 1e6);
    run.note(buf);
    run.note(per_window);
    std::snprintf(buf, sizeof buf,
                  "noise: cpu %.0f us, vcsw %llu, ivcsw %llu, steal %.2f%%, "
                  "setup samples %zu",
                  du.cpuUs, (unsigned long long)du.vcsw,
                  (unsigned long long)du.ivcsw, du.stealPct(), setups.size());
    run.note(buf);

    if (!args.trace)
        return;
    const double req = double(std::max<uint64_t>(1, served));
    totals.set(run);
    setColdLayerMetrics(tracer, layers, run);
    run.set("runtime.instantiate_us",
            tracer.medianSelfNs("runtime.instantiate") / 1e3);
    run.set("runtime.handler_us", tracer.medianSelfNs("runtime.handle") / 1e3);
    run.set("os.steal_pct", du.stealPct());
    run.set("os.vcsw_per_req", double(du.vcsw) / req);
    run.set("os.ivcsw_per_req", double(du.ivcsw) / req);
    std::vector<double> untraced = first_us, traced = first_traced_us;
    const double u = percentileOf(untraced, 50), t = percentileOf(traced, 50);
    run.set("bench.trace_overhead_pct",
            u > 0 && t > 0 ? 100.0 * (t - u) / u : 0.0);
    fillLayerProbes(args, expected, tracer, run);
}

}  // namespace perfbench
