/**
 * @file serving_quickstart.cpp
 * End-to-end tour of the batched serving front end - the example
 * docs/SERVING.md walks through (the guide embeds this file verbatim;
 * scripts/check_doc_links.sh keeps the two in sync and CI builds this
 * target, so the guide cannot rot).
 *
 * Run:  ./build/example_serving_quickstart
 * Env:  FABNET_NUM_THREADS  thread-pool size (default: hardware)
 */
#include <cstdio>
#include <future>
#include <vector>

#include "model/builder.h"
#include "model/quantized.h"
#include "serve/serving.h"
#include "tensor/rng.h"

int
main()
{
    using namespace fabnet;

    // 1. Build a servable model: attention mixers (Dense or butterfly
    //    projections) have exact masked forms, so the engine can
    //    guarantee bitwise-reproducible logits under batching.
    ModelConfig cfg;
    cfg.kind = ModelKind::Transformer;
    cfg.vocab = 64;
    cfg.max_seq = 64;
    cfg.d_hid = 32;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.heads = 4;
    cfg.classes = 4;
    Rng rng(7);
    auto model = buildModel(cfg, rng);

    // 2. Configure the batcher: requests are padded to the next
    //    multiple of bucket_granularity and grouped per padded length;
    //    a bucket flushes when full (max_batch), when its oldest
    //    request has waited max_wait, or on flush()/shutdown.
    serve::ServingConfig sc;
    sc.max_batch = 8;
    sc.bucket_granularity = 16;
    sc.max_wait = std::chrono::milliseconds(2);
    serve::ServingEngine engine(*model, sc);

    // 3a. Async path: submit() returns a future per request. The
    //     dispatcher thread forms batches behind the scenes.
    std::future<std::vector<float>> fut =
        engine.submit({1, 2, 3, 4, 5});
    const std::vector<float> logits = fut.get(); // padding stripped
    std::printf("submit(): %zu logits, first=%.4f\n", logits.size(),
                logits[0]);

    // 3b. Bulk path: serveAll() admits the whole set, waits while the
    //     dispatcher serves it, and returns results in request order.
    const std::vector<std::vector<int>> requests = {
        {1, 2, 3}, {4, 5, 6, 7, 8, 9}, {10}, {11, 12, 13, 14}};
    const auto results = engine.serveAll(requests);
    std::printf("serveAll(): %zu results\n", results.size());

    // 4. Observability: batches formed, flush reasons, padding - and
    //    rows_skipped, the padded activation rows ragged execution
    //    never computed (forwardBatch skips them end to end).
    const serve::ServingStats st = engine.stats();
    std::printf("batches=%zu avg_batch=%.2f\n", st.batches,
                st.avgBatch());
    std::printf("pad_overhead=%.3f (bucket) %.3f (batch) "
                "rows_skipped=%zu\n",
                st.padOverhead(), st.padOverheadBatch(),
                st.rows_skipped);

    // 5. Quantized serving: swap every linear for its int8 (or fp16)
    //    runtime kernel and serve through an unchanged engine - the
    //    bitwise guarantee (served == serial quantized inference)
    //    still holds, ragged execution included.
    QuantizedSequenceClassifier q(std::move(model), QuantKind::Int8);
    std::printf("quantized %zu linears to int8\n",
                q.quantizedLayerCount());
    serve::ServingEngine qengine(q.model(), sc);
    const auto qres = qengine.serveAll(requests);
    std::printf("quantized serveAll(): %zu results, first logit=%.4f\n",
                qres.size(), qres[0][0]);
    return 0;
}
