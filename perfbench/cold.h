/**
 * @file
 * cold-churn pieces shared with the layer probes: the synthetic image
 * generator and the traced compile / verify / instantiate calls.
 */
#ifndef PERFBENCH_COLD_H_
#define PERFBENCH_COLD_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "wasm/module.h"

namespace perfbench {

/** A multi-handler FaaS image (imports io_wait, exports handle). */
sfi::wasm::Module makeChurnImage(uint64_t image_seed);

/** handle(@p request) of @p image under the interpreter. */
uint64_t interpHandle(const sfi::wasm::Module& image, uint64_t request);

/** Totals of the traced compile-path calls. */
struct ColdLayers
{
    std::vector<double> insns;
    uint64_t baselineCompiles = 0;
    uint64_t cacheHits = 0;
    uint64_t tierUps = 0;
    uint64_t interpFallbacks = 0;
};

/**
 * Times the compile path of @p image call by call under spans with id
 * @p id: monolithic compile, verification, instantiation, the first
 * request, and the tiered first response through the code cache. Each
 * response is checked against @p expect.
 */
void traceColdLayers(const sfi::wasm::Module& image, uint64_t expect,
                     Tracer& tracer, uint64_t id, ColdLayers& acc, Run& run);

/** Sets the jit.* and verify.* metrics from traceColdLayers spans. */
void setColdLayerMetrics(const Tracer& tracer, ColdLayers& acc, Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_COLD_H_
