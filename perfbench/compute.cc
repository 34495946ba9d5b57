/**
 * @file
 * sandbox-compute: one thread, closed loop, library-sandboxing style.
 * Each round calls every registry kernel (spec17, sightglass, polydhry
 * at their bench scale, compiled under CompilerConfig::wamrSegue()),
 * every w2c kernel under SeguePolicy, and one burst of trivial
 * DirectEntry calls, in a seeded order. Every call is one request of
 * the round; nothing from the pool, the scheduler or the compiler is
 * on the timed path.
 */
#include "compute.h"

#include <algorithm>
#include <cstdio>

#include "base/cpu.h"
#include "base/rng.h"
#include "w2c/kernels.h"
#include "wasm/builder.h"
#include "wkld/workloads.h"

namespace perfbench {

namespace {

/** Measured seconds per round on a 4-core x86-64 host (sizing only). */
constexpr double kRoundSeconds = 3.0;

sfi::wasm::Module
makeTrivialModule()
{
    using sfi::wasm::ValType;
    sfi::wasm::ModuleBuilder mb;
    mb.memory(1, 1);
    auto f = mb.func("nop", {ValType::I32}, {ValType::I64});
    f.localGet(f.param(0)).i64ExtendI32U().i64Const(1).i64Add().end();
    mb.exportFunc("nop", f.index());
    return std::move(mb).build();
}

std::shared_ptr<const sfi::rt::SharedModule>
compileModule(sfi::wasm::Module m, const sfi::jit::CompilerConfig& cfg)
{
    auto shared = sfi::rt::SharedModule::compile(std::move(m), cfg);
    SFI_CHECK_MSG(shared.isOk(), "%s", shared.message().c_str());
    return *shared;
}

std::unique_ptr<sfi::rt::Instance>
instantiate(std::shared_ptr<const sfi::rt::SharedModule> shared)
{
    auto inst = sfi::rt::Instance::create(std::move(shared));
    SFI_CHECK_MSG(inst.isOk(), "%s", inst.message().c_str());
    return std::move(*inst);
}

/** Times @p fn (which returns whether its output checked out). */
template <typename Fn>
Timed
timeCall(Fn&& fn)
{
    const uint64_t c0 = threadCpuNs(), t0 = sfi::monotonicNs();
    const bool ok = fn();
    Timed t;
    t.ns = sfi::monotonicNs() - t0;
    t.cpuNs = threadCpuNs() - c0;
    t.ok = ok;
    return t;
}

}  // namespace

std::unique_ptr<KernelSet>
KernelSet::create(bool native, int copies, std::vector<double>* copy_seconds)
{
    auto set = std::make_unique<KernelSet>();
    set->copies_ = std::max(1, copies);
    for (const auto* suite : {&sfi::wkld::spec17(), &sfi::wkld::sightglass(),
                              &sfi::wkld::polydhry()})
        for (const auto& w : *suite)
            set->registry_.push_back(Kernel{w.name, w.benchScale, {}, {}});
    for (int c = 0; c < set->copies_; c++) {
        const double t0 = nowSec();
        size_t i = 0;
        for (const auto* suite : {&sfi::wkld::spec17(),
                                  &sfi::wkld::sightglass(),
                                  &sfi::wkld::polydhry()})
            for (const auto& w : *suite) {
                Kernel& k = set->registry_[i++];
                k.segue.push_back(compileModule(
                    w.make(), sfi::jit::CompilerConfig::wamrSegue()));
                if (native)
                    k.native.push_back(compileModule(
                        w.make(), sfi::jit::CompilerConfig::native()));
            }
        if (copy_seconds)
            copy_seconds->push_back(nowSec() - t0);
    }
    auto heap =
        sfi::w2c::SandboxHeap::create(sfi::w2c::kernelHeapBytes(kW2cScale));
    SFI_CHECK_MSG(heap.isOk(), "%s", heap.message().c_str());
    set->heap_ = std::make_unique<sfi::w2c::SandboxHeap>(std::move(*heap));
    set->trivial_ = makeTrivialInstance();
    set->trivialEntry_ = set->trivial_->directEntry("nop");
    return set;
}

Timed
KernelSet::runRegistry(size_t k, bool native, int copy, const Expected& expected)
{
    const Kernel& kern = registry_.at(k);
    const auto& copies = native ? kern.native : kern.segue;
    auto inst = instantiate(copies.at(size_t(copy) % copies.size()));
    const auto entry = inst->directEntry("run");
    // Fault the linear memory in before timing (rewriting each page's
    // first byte keeps the data segments): page faults are the OS's
    // cost, not the guest code's.
    volatile uint8_t* mem = inst->memory().base();
    for (uint64_t off = 0; off < inst->memory().byteSize(); off += 4096)
        mem[off] = mem[off];
    uint64_t want = 0;
    const bool known = expected.get(kernelKey(kern.name, kern.scale), &want);
    return timeCall([&] {
        sfi::rt::Outcome out = entry.call({kern.scale});
        return out.ok() && known && out.value == want;
    });
}

void
KernelSet::computeW2cReferences()
{
    using namespace sfi::w2c;
    w2cNative_.clear();
    NativePolicy p = heap_->policy<NativePolicy>();
    for (int k = 0; k < kNumKernels; k++)
        w2cNative_.push_back(kKernels<NativePolicy>[k].fn(p, kW2cScale));
}

Timed
KernelSet::runW2c(size_t k, bool native)
{
    using namespace sfi::w2c;
    const uint64_t want = k < w2cNative_.size() ? w2cNative_[k] : ~0ull;
    return timeCall([&] {
        if (native)
            return kKernels<NativePolicy>[k].fn(heap_->policy<NativePolicy>(),
                                                kW2cScale) == want;
        auto guard = heap_->enter<SeguePolicy>();
        return kKernels<SeguePolicy>[k].fn(heap_->policy<SeguePolicy>(),
                                           kW2cScale) == want;
    });
}

std::unique_ptr<sfi::rt::Instance>
makeTrivialInstance()
{
    return instantiate(
        compileModule(makeTrivialModule(), sfi::jit::CompilerConfig::wamrSegue()));
}

Timed
trivialBurst(const sfi::rt::Instance::DirectEntry& nop)
{
    return timeCall([&] {
        uint64_t sum = 0;
        bool ok = true;
        for (uint64_t i = 0; i < kBurstCalls; i++) {
            sfi::rt::Outcome out = nop.call({i});
            ok &= out.ok();
            sum += out.value;
        }
        return ok && sum == kBurstCalls * (kBurstCalls + 1) / 2;
    });
}

Timed
KernelSet::burst()
{
    return trivialBurst(trivialEntry_);
}

uint64_t
KernelSet::segueCodeBytes() const
{
    uint64_t bytes = 0;
    for (const Kernel& k : registry_)
        bytes += k.segue.front()->code().totalCodeBytes;
    return bytes;
}

uint64_t
KernelSet::trivialGsWrites() const
{
    return trivial_->gsSwitches();
}

namespace {

/** One request of a round. */
struct Op
{
    enum Kind { Registry, W2c, Burst } kind;
    size_t index = 0;
    bool native = false;
};

/** Per-kernel Segue and native times (ms), one entry per round. */
struct KernelTimes
{
    std::map<std::string, std::vector<double>> segue, native;
};

void
setKernelLayerMetrics(const KernelSet& set, KernelTimes& reg, KernelTimes& w2c,
                      Run& run)
{
    double suite_ms = 0;
    std::vector<double> ratios;
    for (size_t k = 0; k < set.registrySize(); k++) {
        const std::string& name = set.registryName(k);
        double seg = percentileOf(reg.segue[name], 50);
        double nat = percentileOf(reg.native[name], 50);
        run.set("jit.kernel_ms." + name, seg);
        suite_ms += seg;
        if (seg > 0 && nat > 0)
            ratios.push_back(seg / nat);
    }
    run.set("jit.suite_s", suite_ms / 1e3);
    run.set("jit.segue_norm", geomeanOf(ratios));
    run.set("jit.code_bytes", double(set.segueCodeBytes()));
    ratios.clear();
    for (const std::string& name : w2cKernelNames()) {
        double seg = percentileOf(w2c.segue[name], 50);
        double nat = percentileOf(w2c.native[name], 50);
        run.set("w2c.kernel_ms." + name, seg);
        if (seg > 0 && nat > 0)
            ratios.push_back(seg / nat);
    }
    run.set("w2c.segue_norm", geomeanOf(ratios));
}

}  // namespace

void
measureKernelLayers(const Expected& expected, Tracer& tracer, Run& run)
{
    auto set = KernelSet::create(true, 1);
    set->computeW2cReferences();
    KernelTimes reg, w2c;
    const std::vector<std::string> w2c_names = w2cKernelNames();
    for (bool native : {false, true}) {
        for (size_t k = 0; k < set->registrySize(); k++) {
            Scope s(tracer, native ? "jit.kernel_native" : "jit.kernel", k);
            Timed t = set->runRegistry(k, native, 0, expected);
            if (!t.ok)
                run.fail("kernel " + set->registryName(k) +
                         ": result differs from the interpreter");
            (native ? reg.native : reg.segue)[set->registryName(k)].push_back(
                double(t.ns) / 1e6);
        }
        for (size_t k = 0; k < w2c_names.size(); k++) {
            Scope s(tracer, native ? "w2c.kernel_native" : "w2c.kernel", k);
            Timed t = set->runW2c(k, native);
            if (!t.ok)
                run.fail("w2c kernel " + w2c_names[k] +
                         ": Segue result differs from native");
            (native ? w2c.native : w2c.segue)[w2c_names[k]].push_back(
                double(t.ns) / 1e6);
        }
    }
    setKernelLayerMetrics(*set, reg, w2c, run);
}

void
runSandboxCompute(const Args& args, const Expected& expected, Run& run)
{
    // Set-up: compile every kernel five times (plus the native twins in
    // traced runs); each copy set is one set-up sample.
    std::vector<double> setups;
    std::unique_ptr<KernelSet> set = KernelSet::create(args.trace, 5, &setups);
    run.set("setup_s", percentileOf(setups, 50));
    set->computeW2cReferences();

    const std::vector<std::string> w2c_names = w2cKernelNames();
    const uint64_t rounds =
        std::max<uint64_t>(1, uint64_t(args.seconds / kRoundSeconds + 0.5));
    Tracer tracer;
    KernelTimes reg, w2c;
    std::vector<double> sojourn_us, bursts_ns;
    std::vector<double> round_ms_untraced, round_ms_traced;
    const uint64_t limit = sloLimitNs(args.workload);
    uint64_t met = 0, call_ns = 0, call_cpu_ns = 0;
    const Usage u0 = Usage::now();
    for (uint64_t r = 0; r < rounds; r++) {
        std::vector<Op> ops;
        for (size_t k = 0; k < set->registrySize(); k++) {
            ops.push_back({Op::Registry, k, false});
            if (args.trace)
                ops.push_back({Op::Registry, k, true});
        }
        for (size_t k = 0; k < w2c_names.size(); k++) {
            ops.push_back({Op::W2c, k, false});
            if (args.trace)
                ops.push_back({Op::W2c, k, true});
        }
        ops.push_back({Op::Burst, 0, false});
        sfi::Rng rng(subSeed(args.seed, 1000 + r));
        for (size_t i = ops.size(); i > 1; i--)
            std::swap(ops[i - 1], ops[rng.below(i)]);

        const bool traced = args.trace && r % 2 == 1;
        tracer.enabled = traced;
        double round_ms = 0;
        for (const Op& op : ops) {
            Timed t;
            std::string what;
            if (op.kind == Op::Registry) {
                what = set->registryName(op.index);
                Scope s(tracer, op.native ? "jit.kernel_native" : "jit.kernel",
                        op.index);
                t = set->runRegistry(op.index, op.native,
                                     int(r + op.index), expected);
                (op.native ? reg.native : reg.segue)[what].push_back(
                    double(t.ns) / 1e6);
            } else if (op.kind == Op::W2c) {
                what = "w2c " + w2c_names[op.index];
                Scope s(tracer, op.native ? "w2c.kernel_native" : "w2c.kernel",
                        op.index);
                t = set->runW2c(op.index, op.native);
                (op.native ? w2c.native : w2c.segue)[w2c_names[op.index]]
                    .push_back(double(t.ns) / 1e6);
            } else {
                what = "trivial-call burst";
                Scope s(tracer, "runtime.call_burst", r);
                t = set->burst();
                bursts_ns.push_back(double(t.ns));
            }
            if (op.native) {
                // Reference twin for the ratios: not a request.
                if (!t.ok)
                    run.fail(what + ": native result differs");
                continue;
            }
            run.attempted++;
            if (!t.ok) {
                run.fail(what + ": result differs from the reference");
                run.failed++;
                continue;
            }
            sojourn_us.push_back(double(t.ns) / 1e3);
            met += t.ns <= limit;
            call_ns += t.ns;
            call_cpu_ns += t.cpuNs;
            round_ms += double(t.ns) / 1e6;
        }
        (traced ? round_ms_traced : round_ms_untraced).push_back(round_ms);
    }
    const Usage du = Usage::now() - u0;

    const uint64_t served = sojourn_us.size();
    const double tail_pct = tailPercentile(served);
    std::vector<double> v = sojourn_us;
    run.set("sojourn_p50_us", percentileOf(v, 50));
    run.set("slo_met_pct",
            100.0 * double(met) / double(std::max<uint64_t>(1, run.attempted)));
    // Rate and CPU over the sandboxed calls themselves: instantiation
    // and page-faulting between calls are set-up of the next call.
    run.set("achieved_rps", double(served) / (double(call_ns) / 1e9));
    run.set("os.cpu_us_per_req",
            double(call_cpu_ns) / 1e3 / double(std::max<uint64_t>(1, served)));

    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "sandbox-compute: %llu rounds x %zu requests (%zu registry "
                  "kernels under Segue, %zu w2c kernels under SeguePolicy, "
                  "1 burst of %llu calls), tail = p%g of %llu samples "
                  "(%.0f us), SLO %.0f ms",
                  (unsigned long long)rounds,
                  set->registrySize() + w2c_names.size() + 1,
                  set->registrySize(), w2c_names.size(),
                  (unsigned long long)kBurstCalls, tail_pct,
                  (unsigned long long)served, percentileOf(v, tail_pct),
                  double(limit) / 1e6);
    run.note(buf);
    std::string per_round = "rounds (Segue ms):";
    for (double ms : round_ms_untraced)
        per_round += " " + std::to_string(ms);
    for (double ms : round_ms_traced)
        per_round += " traced:" + std::to_string(ms);
    run.note(per_round);
    std::snprintf(buf, sizeof buf,
                  "noise: cpu %.0f us, vcsw %llu, ivcsw %llu, steal %.2f%%, "
                  "setup samples %zu",
                  du.cpuUs, (unsigned long long)du.vcsw,
                  (unsigned long long)du.ivcsw, du.stealPct(), setups.size());
    run.note(buf);

    if (!args.trace)
        return;
    setKernelLayerMetrics(*set, reg, w2c, run);
    run.set("runtime.call_ns",
            percentileOf(bursts_ns, 50) / double(kBurstCalls));
    run.set("runtime.gs_writes_per_call",
            double(set->trivialGsWrites()) /
                double(kBurstCalls * std::max<size_t>(1, bursts_ns.size())));
    const double req = double(std::max<uint64_t>(1, served));
    run.set("os.steal_pct", du.stealPct());
    run.set("os.vcsw_per_req", double(du.vcsw) / req);
    run.set("os.ivcsw_per_req", double(du.ivcsw) / req);
    const double u = percentileOf(round_ms_untraced, 50);
    const double t = percentileOf(round_ms_traced, 50);
    run.set("bench.trace_overhead_pct",
            u > 0 && t > 0 ? 100.0 * (t - u) / u : 0.0);
    set.reset();
    fillLayerProbes(args, expected, tracer, run);
}

}  // namespace perfbench
