/**
 * @file
 * sandbox-compute pieces shared with the layer probes: the compiled
 * kernel set and the timed calls into it.
 */
#ifndef PERFBENCH_COMPUTE_H_
#define PERFBENCH_COMPUTE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "runtime/instance.h"
#include "w2c/heap.h"

namespace perfbench {

/** Scale of the w2c kernels (the Figure 3 bench scale). */
constexpr uint32_t kW2cScale = 16;
/** Trivial DirectEntry calls per burst. */
constexpr uint64_t kBurstCalls = 100'000;

/** Result of one timed call into the kernel set. */
struct Timed
{
    uint64_t ns = 0;
    uint64_t cpuNs = 0;  ///< CPU time of the calling thread
    bool ok = false;
};

/**
 * The 32 registry kernels compiled under Segue (and, when asked, under
 * native), the w2c kernels over one sandbox heap, and a trivial export
 * for the transition burst.
 *
 * Each registry kernel is compiled several times. Identical code runs
 * up to 1.5x apart depending on where its buffer lands (measured on
 * memmove), so perfbench spreads a kernel's calls over its copies
 * rather than pinning a run to one placement.
 */
class KernelSet
{
  public:
    /**
     * Compiles @p copies copies of every kernel (plus the unsandboxed
     * twins used for the Segue/native ratios when @p native) and maps
     * the w2c heap. The seconds each copy set took to compile are
     * appended to @p copy_seconds when given.
     */
    static std::unique_ptr<KernelSet>
    create(bool native, int copies, std::vector<double>* copy_seconds = nullptr);

    size_t registrySize() const { return registry_.size(); }
    const std::string& registryName(size_t k) const
    {
        return registry_[k].name;
    }

    /** run(benchScale) of copy @p copy of registry kernel @p k on a
     *  fresh instance (the kernels keep state in memory and globals
     *  across calls), checked against the interpreter's value in
     *  @p expected. Only the call is timed. */
    Timed runRegistry(size_t k, bool native, int copy, const Expected& expected);
    /** w2c kernel @p k under SeguePolicy (checked against the
     *  NativePolicy result) or NativePolicy. */
    Timed runW2c(size_t k, bool native);
    /** kBurstCalls DirectEntry calls into the trivial export. */
    Timed burst();

    /** Native w2c results, computed once (the w2c oracle). */
    void computeW2cReferences();

    /** Total machine-code bytes of the Segue registry modules. */
    uint64_t segueCodeBytes() const;
    /** %gs-base writes the trivial instance performed so far. */
    uint64_t trivialGsWrites() const;

  private:
    struct Kernel
    {
        std::string name;
        uint32_t scale = 0;
        std::vector<std::shared_ptr<const sfi::rt::SharedModule>> segue,
            native;
    };
    int copies_ = 1;
    std::vector<Kernel> registry_;
    std::unique_ptr<sfi::w2c::SandboxHeap> heap_;
    std::vector<uint64_t> w2cNative_;
    std::unique_ptr<sfi::rt::Instance> trivial_;
    sfi::rt::Instance::DirectEntry trivialEntry_;
};

/** An instance of a module whose export `nop(i32)->i64` returns x+1,
 *  compiled under Segue. */
std::unique_ptr<sfi::rt::Instance> makeTrivialInstance();

/** kBurstCalls calls of @p nop, checked against their closed form. */
Timed trivialBurst(const sfi::rt::Instance::DirectEntry& nop);

/**
 * Times one pass of every kernel under Segue and native and sets the
 * jit.kernel_ms.*, jit.suite_s, jit.segue_norm, jit.code_bytes and
 * w2c.* metrics (layer probes of non-compute workloads).
 */
void measureKernelLayers(const Expected& expected, Tracer& tracer, Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_COMPUTE_H_
