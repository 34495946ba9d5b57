/**
 * @file
 * perfbench — the sfikit repository benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--expected <file>] [--trace-out <file>]
 *   perfbench --self-test [--expected <file>]
 *   perfbench --list-metrics
 *   perfbench --gen-expected <file>
 *
 * Workloads: faas-light and faas-heavy, the ones BENCHMARK.json lists,
 * and cold-churn and sandbox-compute, which run the same way but are not
 * listed: they follow the host CPU's speed, whose drift on a shared host
 * spreads them too widely for a bound (see perfbench/NOTES.md). The last
 * line of stdout is the result object; the exit code is 0 only when
 * every output check passed.
 */
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "bench.h"
#include "interp/interp.h"
#include "wkld/workloads.h"

namespace perfbench {
namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <faas-light|faas-heavy|"
                 "cold-churn|sandbox-compute> --seed <n> --seconds <s> "
                 "--trace <0|1> [--expected <file>] [--trace-out <file>]\n"
                 "       perfbench --self-test [--expected <file>]\n"
                 "       perfbench --list-metrics\n"
                 "       perfbench --gen-expected <file>\n");
}

/** Prints the result object as the last line of stdout. */
void
printResult(const Run& run, bool trace)
{
    const auto& defs = trace ? perLayerMetrics() : endToEndMetrics();
    std::string out = "{\"correct\": ";
    out += run.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(run.attempted);
    out += ", \"failed\": " + std::to_string(run.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); i++) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", run.metrics.at(defs[i].name));
        out += (i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " +
               num + ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

int
runWorkload(const Args& args)
{
    Expected expected;
    if (!args.expectedPath.empty() && !expected.load(args.expectedPath)) {
        std::fprintf(stderr, "perfbench: cannot read %s\n",
                     args.expectedPath.c_str());
        return 2;
    }
    Run run;
    run.note(hostLine());
    if (args.workload == "faas-light" || args.workload == "faas-heavy")
        runFaas(args, expected, run);
    else if (args.workload == "cold-churn")
        runColdChurn(args, expected, run);
    else if (args.workload == "sandbox-compute")
        runSandboxCompute(args, expected, run);
    else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        usage();
        return 2;
    }
    if (run.failed > 0)
        run.correct = false;
    if (run.attempted == 0) {
        run.correct = false;
        run.note("CHECK FAILED: no operation attempted");
    }

    const auto& defs = args.trace ? perLayerMetrics() : endToEndMetrics();
    for (const MetricDef& d : defs)
        if (!run.has(d.name) || !std::isfinite(run.metrics[d.name])) {
            run.correct = false;
            run.note("CHECK FAILED: metric " + d.name + " not measured");
            run.metrics[d.name] = 0;
        }
    for (const std::string& line : run.info)
        std::printf("%s\n", line.c_str());
    printResult(run, args.trace);
    return run.correct ? 0 : 1;
}

/**
 * Reference outputs from the interpreter: the FaaS window checksum and
 * every registry kernel at its bench scale. The kernels take minutes
 * under the interpreter, so they run on a few threads.
 */
int
genExpected(const std::string& path)
{
    Expected out;
    {
        sfi::wasm::Module m = makeFaasHandler();
        auto inst = sfi::interp::Instance::instantiate(
            m, {{"io_wait", [](uint64_t*, size_t) {
                     return sfi::interp::HostOutcome{};
                 }}});
        if (!inst.isOk())
            return 2;
        // A window's checksum covers ids 0..window-1: one prefix serves
        // every window size.
        const uint64_t light = faasShape("faas-light").window;
        const uint64_t heavy = faasShape("faas-heavy").window;
        uint64_t x = 0;
        for (uint64_t i = 0; i < std::max(light, heavy); i++) {
            auto o = inst->callExport("handle", {i & 0xffffffffu});
            if (!o.ok())
                return 2;
            x ^= o.value + i;
            if (i + 1 == light || i + 1 == heavy)
                out.put(faasKey(kFaasHandler, i + 1), x);
        }
    }

    std::vector<const sfi::wkld::Workload*> kernels;
    for (const auto* suite : {&sfi::wkld::spec17(), &sfi::wkld::sightglass(),
                              &sfi::wkld::polydhry()})
        for (const auto& w : *suite)
            kernels.push_back(&w);
    std::mutex mu;
    std::atomic<size_t> next{0};
    std::atomic<bool> ok{true};
    auto worker = [&] {
        for (size_t i; (i = next.fetch_add(1)) < kernels.size();) {
            const auto* w = kernels[i];
            sfi::wasm::Module m = w->make();
            auto inst = sfi::interp::Instance::instantiate(m);
            auto o = inst.isOk()
                         ? inst->callExport("run", {w->benchScale})
                         : sfi::interp::Outcome{sfi::rt::TrapKind::Unreachable};
            std::lock_guard<std::mutex> lock(mu);
            if (!o.ok()) {
                ok = false;
                continue;
            }
            out.put(kernelKey(w->name, w->benchScale), o.value);
            std::fprintf(stderr, "  %s done\n", w->name);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; t++)
        threads.emplace_back(worker);
    for (auto& t : threads)
        t.join();
    if (!ok)
        return 2;

    FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return 2;
    std::fprintf(f,
                 "# Reference outputs computed by the sfikit interpreter "
                 "(src/interp),\n# regenerated with `perfbench "
                 "--gen-expected <file>`. Format: <key> <hex value>.\n");
    for (const auto& [k, v] : out.all())
        std::fprintf(f, "%s %016llx\n", k.c_str(), (unsigned long long)v);
    return std::fclose(f) == 0 ? 0 : 2;
}

}  // namespace

int
generateExpected(const std::string& path)
{
    return genExpected(path);
}

}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Args args;
    bool self_test = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            args.workload = value();
        else if (a == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            args.trace = value() != "0";
        else if (a == "--trace-out")
            args.traceOut = value();
        else if (a == "--expected")
            args.expectedPath = value();
        else if (a == "--self-test")
            self_test = true;
        else if (a == "--list-metrics") {
            for (const auto* defs : {&endToEndMetrics(), &perLayerMetrics()})
                for (const MetricDef& d : *defs)
                    std::printf("%s %s %s %s\n",
                                defs == &endToEndMetrics() ? "end_to_end"
                                                           : "per_layer",
                                d.name.c_str(), d.unit.c_str(),
                                d.higherIsBetter ? "higher" : "lower");
            return 0;
        } else if (a == "--gen-expected")
            return generateExpected(value());
        else {
            usage();
            return 2;
        }
    }
    if (self_test)
        return selfTest(args);
    if (args.workload.empty() || !(args.seconds > 0)) {
        usage();
        return 2;
    }
    return runWorkload(args);
}
