/**
 * @file
 * Layer probes for traced runs. Every traced run prints every per-layer
 * metric; a workload sets the ones its own path measures, and the
 * probes here measure the rest by timing calls into each layer's
 * public API:
 *
 *  - the FaaS replay: the host's per-request steps re-run through
 *    public calls (MemoryPool::free/allocate, Instance::create over
 *    memoryView, Fiber::create, Instance::enter, DirectEntry::call of
 *    `handle`), under spans, with the sum compared to the host's
 *    measured service time;
 *  - a short open-loop FaaS host run (faas.* on non-FaaS workloads);
 *  - %gs-base and PKRU write loops (seg, mpk);
 *  - a trivial-call burst (runtime.call_ns);
 *  - the cold-image compile path (jit, verify);
 *  - one Segue and one native pass over every kernel (jit, w2c).
 */
#include <algorithm>
#include <cstdio>

#include "base/cpu.h"
#include "bench.h"
#include "cold.h"
#include "compute.h"
#include "faas/fiber.h"
#include "mpk/mpk.h"
#include "pool/pool.h"
#include "seg/seg.h"

namespace perfbench {

namespace {

/** Median ns per call of @p fn over @p batches batches of @p n. */
template <typename Fn>
double
nsPerCall(Fn&& fn, uint64_t n, int batches = 5)
{
    std::vector<double> v;
    for (int b = 0; b < batches; b++) {
        const uint64_t t0 = sfi::monotonicNs();
        for (uint64_t i = 0; i < n; i++)
            fn(i);
        v.push_back(double(sfi::monotonicNs() - t0) / double(n));
    }
    return percentileOf(v, 50);
}

/** Open-loop run of a faas-light host; returns its service p50 (us). */
double
faasHostProbe(const Args& args, const Expected& expected, Run& run)
{
    const FaasShape shape = faasShape("faas-light");
    auto host = makeFaasHost(shape, args.seed);
    SFI_CHECK_MSG(host.isOk(), "%s", host.message().c_str());
    sfi::faas::LoadGenConfig load;
    load.ratePerSec = shape.rate;
    load.seed = subSeed(args.seed, 0xFAA5);
    const uint64_t last = sfi::faas::LoadGen::schedule(load, shape.window).back();
    const sfi::pool::MemoryPool::Stats p0 = (*host)->memoryPool().stats();
    auto st = (*host)->runOpenLoop(shape.window, load);
    SFI_CHECK_MSG(st.isOk(), "%s", st.message().c_str());
    uint64_t want = 0;
    if (expected.get(faasKey(kFaasHandler, shape.window), &want) &&
        st->checksum != want)
        run.fail("FaaS probe: response checksum differs from the "
                 "interpreter");
    FaasTotals totals;
    totals.add(*st, std::max(0.0, st->elapsedSec * 1e3 - double(last) / 1e6));
    totals.addPool(p0, (*host)->memoryPool().stats());
    totals.set(run, /*only_missing=*/true);
    if (!run.has("faas.sojourn_p99_us"))
        run.set("faas.sojourn_p99_us",
                histPercentile(st->latencyTotalNs, 99) / 1e3);
    return histPercentile(st->latencyServiceNs, 50) / 1e3;
}

/**
 * The FaaS replay: the host's per-request steps for kFaasHandler on a
 * pool with the host's slot configuration, one span per public call.
 */
void
replay(const Args& args, const Expected& expected, Tracer& tracer,
       double service_p50_us, Run& run)
{
    const FaasShape shape = faasShape(args.workload);
    const uint64_t slot_bytes = 2ull << 20;  // FaasHost::Options default
    auto mpk = sfi::mpk::makeEmulated();
    sfi::pool::MemoryPool::Options popt;
    popt.config.numSlots = uint64_t(shape.slots);
    popt.config.maxMemoryBytes = slot_bytes;
    popt.config.guardBytes = 8 * slot_bytes;
    popt.config.stripingEnabled = true;
    popt.mpk = mpk.get();
    popt.shards = uint32_t(shape.threads);
    popt.warmSlotsPerShard = uint32_t(shape.slots / shape.threads);
    auto pool = sfi::pool::MemoryPool::create(std::move(popt));
    SFI_CHECK_MSG(pool.isOk(), "%s", pool.message().c_str());

    auto shared =
        sfi::rt::SharedModule::compile(makeFaasHandler(), faasHostConfig());
    SFI_CHECK_MSG(shared.isOk(), "%s", shared.message().c_str());
    const auto& mem = (*shared)->module().memory;
    const uint32_t min_pages = std::max<uint32_t>(mem.minPages, 1);
    const uint32_t max_pages = uint32_t(
        std::min<uint64_t>(mem.maxPages, slot_bytes / sfi::kWasmPageSize));

    const sfi::pool::MemoryPool::Stats p0 = pool->stats();
    auto prev = pool->allocate();
    SFI_CHECK(prev.isOk());
    sfi::pool::Slot slot = *prev;
    uint64_t touched = 0, checksum = 0;
    const size_t first_span = tracer.spans().size();
    const uint64_t requests = shape.window;
    for (uint64_t i = 0; i < requests; i++) {
        Scope request(tracer, "faas.request", i);
        {
            Scope s(tracer, "pool.free", i);
            SFI_CHECK(pool->free(slot, touched).isOk());
        }
        {
            Scope s(tracer, "pool.allocate", i);
            auto a = pool->allocate();
            SFI_CHECK(a.isOk());
            slot = *a;
        }
        std::unique_ptr<sfi::rt::Instance> inst;
        {
            Scope s(tracer, "runtime.instantiate", i);
            sfi::rt::Instance::Options iopt;
            iopt.memoryView = pool->memoryView(slot, min_pages, max_pages);
            iopt.mpkSystem = mpk.get();
            iopt.pkey = slot.pkey;
            auto in = sfi::rt::Instance::create(
                *shared,
                {{"io_wait", [](uint64_t*, size_t) {
                      return sfi::rt::HostOutcome{};
                  }}},
                std::move(iopt));
            SFI_CHECK(in.isOk());
            inst = std::move(*in);
        }
        uint64_t value = 0;
        bool ok = false;
        std::unique_ptr<sfi::faas::Fiber> fiber;
        {
            Scope s(tracer, "faas.fiber_create", i);
            auto f = sfi::faas::Fiber::create([&] {
                sfi::rt::Instance::DirectEntry handle =
                    inst->directEntry("handle");
                const int64_t e = tracer.open("runtime.enter", i);
                auto scope = inst->enter();
                tracer.close(e);
                Scope h(tracer, "runtime.handle", i);
                sfi::rt::Outcome out = handle.call({i & 0xffffffffu});
                ok = out.ok();
                value = out.value;
            });
            SFI_CHECK(f.isOk());
            fiber = std::move(*f);
        }
        {
            Scope s(tracer, "faas.fiber_resume", i);
            fiber->resume();
        }
        if (!ok || !fiber->finished())
            run.fail("replay: request " + std::to_string(i) + " trapped");
        checksum ^= value + i;
        touched = inst->memory().touchedBytes();
    }
    SFI_CHECK(pool->free(slot, touched).isOk());
    const size_t last_span = tracer.spans().size();
    uint64_t want = 0;
    if (expected.get(faasKey(kFaasHandler, requests), &want) &&
        checksum != want)
        run.fail("replay: response checksum differs from the interpreter");

    auto med_us = [&](const char* name) {
        return tracer.medianSelfNs(name, first_span, last_span) / 1e3;
    };
    const double alloc = med_us("pool.allocate"), free = med_us("pool.free");
    const double inst_us = med_us("runtime.instantiate");
    const double fiber_us = med_us("faas.fiber_create");
    const double resume = med_us("faas.fiber_resume");
    const double enter = med_us("runtime.enter");
    const double handle = med_us("runtime.handle");
    run.set("pool.alloc_ns", alloc * 1e3);
    run.set("pool.free_ns", free * 1e3);
    run.set("faas.fiber_create_us", fiber_us);
    run.set("runtime.enter_ns", enter * 1e3);
    if (!run.has("runtime.instantiate_us"))
        run.set("runtime.instantiate_us", inst_us);
    if (!run.has("runtime.handler_us"))
        run.set("runtime.handler_us", handle);
    if (!run.has("pool.warm_hit_pct")) {
        FaasTotals totals;
        totals.completed = requests;
        totals.addPool(p0, pool->stats());
        totals.set(run, /*only_missing=*/true);
    }

    // The host's service time covers the same steps plus the IO wait
    // and the scheduler; the gap is what the replay does not explain.
    const double sum = alloc + free + inst_us + fiber_us + resume + enter +
                       handle;
    const double gap = service_p50_us - shape.ioMeanMs * 1e3 - sum;
    run.set("faas.replay_gap_us", gap);
    char buf[400];
    std::snprintf(buf, sizeof buf,
                  "replay (%llu requests, us): pool.free %.3f + pool.allocate "
                  "%.3f + instantiate %.3f + fiber_create %.3f + "
                  "fiber_resume(self) %.3f + enter %.3f + handle %.3f = %.3f; "
                  "service p50 %.3f - IO mean %.3f - replay = gap %.3f",
                  (unsigned long long)requests, free, alloc, inst_us, fiber_us,
                  resume, enter, handle, sum, service_p50_us,
                  shape.ioMeanMs * 1e3, gap);
    run.note(buf);
}

void
segMpkProbes(Run& run)
{
    const uint64_t saved_gs = sfi::seg::getGsBase();
    static uint8_t bases[2][64];
    run.set("seg.gs_write_ns", nsPerCall(
                                   [](uint64_t i) {
                                       sfi::seg::setGsBase(
                                           uint64_t(bases[i & 1]));
                                   },
                                   200'000));
    sfi::seg::setGsBase(saved_gs);

    // A ColorGuard transition pair: allow one stripe, then everything.
    auto pkru_ns = [](sfi::mpk::System& sys) {
        const sfi::mpk::Pkru saved = sys.readPkru();
        const sfi::mpk::Pkru vals[2] = {sfi::mpk::Pkru::allowOnly(1),
                                        sfi::mpk::Pkru::allowAll()};
        double ns = nsPerCall([&](uint64_t i) { sys.writePkru(vals[i & 1]); },
                              200'000);
        sys.writePkru(saved);
        return ns;
    };
    auto emulated = sfi::mpk::makeEmulated();
    run.set("mpk.pkru_write_ns.emulated", pkru_ns(*emulated));
    sfi::mpk::System& def = sfi::mpk::defaultSystem();
    run.set("mpk.pkru_write_ns.default", pkru_ns(def));
    run.note(std::string("mpk: default system is ") + def.name());
}

void
callProbe(Run& run)
{
    auto inst = makeTrivialInstance();
    const auto nop = inst->directEntry("nop");
    std::vector<double> ns;
    for (int b = 0; b < 5; b++) {
        Timed t = trivialBurst(nop);
        if (!t.ok)
            run.fail("trivial-call burst: wrong sum");
        ns.push_back(double(t.ns) / double(kBurstCalls));
    }
    run.set("runtime.call_ns", percentileOf(ns, 50));
    run.set("runtime.gs_writes_per_call",
            double(inst->gsSwitches()) / double(5 * kBurstCalls));
}

void
coldLayerProbe(const Args& args, Tracer& tracer, Run& run)
{
    // 20 distinct images, each arriving twice.
    ColdLayers acc;
    std::vector<sfi::wasm::Module> images;
    std::vector<uint64_t> expect;
    for (uint64_t i = 0; i < 20; i++) {
        images.push_back(makeChurnImage(subSeed(args.seed, 0x9000 + i)));
        expect.push_back(interpHandle(images.back(), 0));
    }
    for (uint64_t k = 0; k < 40; k++)
        traceColdLayers(images[k % 20], expect[k % 20], tracer, k, acc, run);
    setColdLayerMetrics(tracer, acc, run);
}

}  // namespace

void
fillLayerProbes(const Args& args, const Expected& expected, Tracer& tracer,
                Run& run)
{
    tracer.enabled = true;
    const double t0 = nowSec();
    // The replay gap compares against an html-templating host; the
    // FaaS workloads measured one, the others get the probe run.
    const bool faas = args.workload == "faas-light" ||
                      args.workload == "faas-heavy";
    double service_p50_us = 0;
    if (faas)
        service_p50_us = run.metrics["faas.service_p50_us"];
    else
        service_p50_us = faasHostProbe(args, expected, run);
    replay(args, expected, tracer, service_p50_us, run);
    segMpkProbes(run);
    if (!run.has("runtime.call_ns"))
        callProbe(run);
    if (!run.has("jit.compile_us"))
        coldLayerProbe(args, tracer, run);
    if (!run.has("jit.suite_s"))
        measureKernelLayers(expected, tracer, run);

    char buf[200];
    std::snprintf(buf, sizeof buf, "trace: %zu spans, probes %.2f s",
                  tracer.spans().size(), nowSec() - t0);
    run.note(buf);
    if (!args.traceOut.empty()) {
        if (tracer.write(args.traceOut))
            run.note("trace: spans written to " + args.traceOut);
        else
            run.note("trace: could not write " + args.traceOut);
    }
}

}  // namespace perfbench
