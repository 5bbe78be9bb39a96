// Distributed-tracing subsystem (obs/trace.h): id codecs, deterministic
// span-id streams, ScopedSpan nesting, concurrent recording, the spans
// wire codec, the request/response trace fields, and — the headline — a
// byte-exact golden Chrome-trace JSON of a fixed-seed width-4 sweep traced
// with an injectable clock, plus the invariant that tracing never changes
// sweep results.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dse/evaluator.h"
#include "dse/sweep.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "util/json_parse.h"

namespace sdlc::obs {
namespace {

TEST(TraceIdCodecTest, RoundTripsAndRejectsGarbage) {
    const uint64_t hi = 0x0123456789abcdefULL;
    const uint64_t lo = 0xfedcba9876543210ULL;
    const std::string hex = trace_id_hex(hi, lo);
    EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
    uint64_t rhi = 0;
    uint64_t rlo = 0;
    ASSERT_TRUE(parse_trace_id_hex(hex, rhi, rlo));
    EXPECT_EQ(rhi, hi);
    EXPECT_EQ(rlo, lo);

    EXPECT_EQ(span_id_hex(0), "0000000000000000");
    uint64_t span = 1;
    ASSERT_TRUE(parse_span_id_hex("00000000000000ff", span));
    EXPECT_EQ(span, 0xffu);

    // Strict: exact length, lowercase hex only, no 0x prefix.
    EXPECT_FALSE(parse_trace_id_hex("0123", rhi, rlo));
    EXPECT_FALSE(parse_trace_id_hex("0123456789ABCDEFfedcba9876543210", rhi, rlo));
    EXPECT_FALSE(parse_trace_id_hex("0x23456789abcdeffedcba987654321000", rhi, rlo));
    EXPECT_FALSE(parse_span_id_hex("00000000000000f", span));
    EXPECT_FALSE(parse_span_id_hex("00000000000000fg", span));
}

TEST(SpanRecorderTest, IdStreamIsDeterministicPerSeedAndNeverZero) {
    SpanRecorder a("serve", 42);
    SpanRecorder b("serve", 42);
    SpanRecorder c("serve", 43);
    std::vector<uint64_t> ids_a;
    std::vector<uint64_t> ids_b;
    bool any_differs = false;
    for (int i = 0; i < 64; ++i) {
        ids_a.push_back(a.new_span_id());
        ids_b.push_back(b.new_span_id());
        EXPECT_NE(ids_a.back(), 0u);
        if (c.new_span_id() != ids_a.back()) any_differs = true;
    }
    EXPECT_EQ(ids_a, ids_b);
    EXPECT_TRUE(any_differs);
    EXPECT_EQ(std::set<uint64_t>(ids_a.begin(), ids_a.end()).size(), ids_a.size());
}

TEST(ScopedSpanTest, NestsParentsAndOrdersTake) {
    // Deterministic clock: each call returns the next integer second.
    auto tick = std::make_shared<std::atomic<int>>(0);
    SpanRecorder rec("serve", 7, [tick] { return static_cast<double>((*tick)++); });
    TraceContext root;
    root.trace_hi = 0x1111;
    root.trace_lo = 0x2222;
    root.span_id = 0;
    root.valid = true;

    ScopedSpan outer(&rec, root, "enumerate");
    ASSERT_TRUE(outer.active());
    EXPECT_EQ(outer.context().trace_hi, root.trace_hi);
    EXPECT_NE(outer.context().span_id, 0u);
    {
        ScopedSpan inner(&rec, outer.context(), "kernel_eval");
        ASSERT_TRUE(inner.active());
        EXPECT_NE(inner.context().span_id, outer.context().span_id);
    }
    outer.stop();
    outer.stop();  // idempotent

    const std::vector<Span> spans = rec.take();
    ASSERT_EQ(spans.size(), 2u);
    // take() sorts by (start_s, span_id): outer started at t=0, inner at t=1.
    EXPECT_EQ(spans[0].name, "enumerate");
    EXPECT_EQ(spans[0].parent_id, 0u);
    EXPECT_EQ(spans[0].tier, "serve");
    EXPECT_EQ(spans[0].start_s, 0.0);
    EXPECT_EQ(spans[0].dur_s, 3.0);  // t=0 .. t=3
    EXPECT_EQ(spans[1].name, "kernel_eval");
    EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
    EXPECT_EQ(spans[1].start_s, 1.0);
    EXPECT_EQ(spans[1].dur_s, 1.0);  // t=1 .. t=2
    EXPECT_TRUE(rec.take().empty());  // drained
}

TEST(ScopedSpanTest, InertWithoutRecorderOrValidContext) {
    SpanRecorder rec("serve");
    const TraceContext untraced;  // valid == false
    ScopedSpan no_ctx(&rec, untraced, "enumerate");
    EXPECT_FALSE(no_ctx.active());
    EXPECT_FALSE(no_ctx.context().valid);
    TraceContext traced;
    traced.valid = true;
    ScopedSpan no_rec(nullptr, traced, "enumerate");
    EXPECT_FALSE(no_rec.active());
    no_ctx.stop();
    no_rec.stop();
    EXPECT_TRUE(rec.take().empty());
}

TEST(SpanRecorderTest, ConcurrentWorkersRecordEverySpanWithUniqueIds) {
    SpanRecorder rec("serve", 99);
    TraceContext root;
    root.valid = true;
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 200;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&rec, &root] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                ScopedSpan span(&rec, root, "kernel_eval");
            }
        });
    }
    for (std::thread& w : workers) w.join();

    const std::vector<Span> spans = rec.take();
    ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads) * kSpansPerThread);
    std::set<uint64_t> ids;
    for (size_t i = 0; i < spans.size(); ++i) {
        ids.insert(spans[i].span_id);
        EXPECT_EQ(spans[i].parent_id, 0u);
        if (i > 0) {
            // take() contract: sorted by (start_s, span_id).
            const bool ordered = spans[i - 1].start_s < spans[i].start_s ||
                                 (spans[i - 1].start_s == spans[i].start_s &&
                                  spans[i - 1].span_id < spans[i].span_id);
            EXPECT_TRUE(ordered) << "span " << i << " out of order";
        }
    }
    EXPECT_EQ(ids.size(), spans.size());
}

TEST(ScopedBindingTest, NestsAndRestores) {
    EXPECT_EQ(current_binding().recorder, nullptr);
    SpanRecorder rec("cache");
    TraceContext ctx;
    ctx.valid = true;
    ctx.span_id = 0xabc;
    {
        ScopedBinding outer(&rec, ctx);
        EXPECT_EQ(current_binding().recorder, &rec);
        EXPECT_EQ(current_binding().ctx.span_id, 0xabcu);
        {
            ScopedBinding inner(nullptr, TraceContext{});
            EXPECT_EQ(current_binding().recorder, nullptr);
        }
        EXPECT_EQ(current_binding().recorder, &rec);
    }
    EXPECT_EQ(current_binding().recorder, nullptr);
}

std::vector<Span> wire_round_trip(const std::vector<Span>& spans) {
    const std::string wire = spans_wire_json(spans);
    JsonValue parsed;
    std::string error;
    EXPECT_TRUE(json_parse(wire, parsed, &error)) << error;
    std::vector<Span> out;
    EXPECT_TRUE(parse_spans_wire(parsed, out, &error)) << error;
    return out;
}

TEST(SpansWireTest, RoundTripsEveryField) {
    std::vector<Span> spans(2);
    spans[0].name = "kernel_eval";
    spans[0].tier = "worker";
    spans[0].span_id = 0x1234;
    spans[0].parent_id = 0x9;
    spans[0].start_s = -0.25;  // synthetic pre-pickup spans sit before the epoch
    spans[0].dur_s = 0.5;
    spans[1].name = "synthesize";
    spans[1].tier = "serve";
    spans[1].span_id = 0xffffffffffffffffULL;
    spans[1].parent_id = 0;
    spans[1].start_s = 1.5;
    spans[1].dur_s = 0.0;
    spans[1].args = {{"engine", "\"sliced\""}, {"pairs", "4294967296"}};

    const std::vector<Span> back = wire_round_trip(spans);
    ASSERT_EQ(back.size(), spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(back[i].name, spans[i].name);
        EXPECT_EQ(back[i].tier, spans[i].tier);
        EXPECT_EQ(back[i].span_id, spans[i].span_id);
        EXPECT_EQ(back[i].parent_id, spans[i].parent_id);
        EXPECT_EQ(back[i].start_s, spans[i].start_s);
        EXPECT_EQ(back[i].dur_s, spans[i].dur_s);
        EXPECT_EQ(back[i].args, spans[i].args);
    }
    EXPECT_TRUE(wire_round_trip({}).empty());
    // Spans without args keep the arg-free wire form.
    EXPECT_EQ(spans_wire_json({spans[0]}).find("args"), std::string::npos);
}

TEST(SpansWireTest, RejectsMalformedEntries) {
    const char* bad[] = {
        "[1]",                                        // entry not an object
        "[{\"tier\": \"serve\", \"id\": \"0000000000000001\", "
        "\"parent\": \"0000000000000000\", \"start\": 0, \"dur\": 0}]",  // no name
        "[{\"name\": \"a\", \"tier\": \"serve\", \"id\": \"xyz\", "
        "\"parent\": \"0000000000000000\", \"start\": 0, \"dur\": 0}]",  // bad id
        "[{\"name\": \"a\", \"tier\": \"serve\", \"id\": \"0000000000000001\", "
        "\"parent\": \"0000000000000000\", \"start\": \"0\", \"dur\": 0}]",  // start type
        "[{\"name\": \"a\", \"tier\": \"serve\", \"id\": \"0000000000000001\", "
        "\"parent\": \"0000000000000000\", \"start\": 0, \"dur\": 0, "
        "\"args\": []}]",  // args not an object
        "[{\"name\": \"a\", \"tier\": \"serve\", \"id\": \"0000000000000001\", "
        "\"parent\": \"0000000000000000\", \"start\": 0, \"dur\": 0, "
        "\"args\": {\"pairs\": -1.5}}]",  // arg neither string nor count
    };
    for (const char* wire : bad) {
        JsonValue parsed;
        std::string error;
        ASSERT_TRUE(json_parse(wire, parsed, &error)) << wire;
        std::vector<Span> out;
        EXPECT_FALSE(parse_spans_wire(parsed, out, &error)) << wire;
        EXPECT_FALSE(error.empty());
    }
    // Not an array at all.
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(json_parse("{}", parsed, &error));
    std::vector<Span> out;
    EXPECT_FALSE(parse_spans_wire(parsed, out, &error));
}

TEST(RequestTraceFieldTest, ParsesPropagatesAndStaysAbsentWhenUntraced) {
    serve::SweepRequest request;
    serve::RequestError err;
    const std::string traced =
        "{\"id\": \"r1\", \"type\": \"sweep\", "
        "\"trace\": {\"id\": \"00000000000000ab00000000000000cd\", "
        "\"span\": \"00000000000000ef\"}}";
    ASSERT_TRUE(serve::parse_request(traced, 1 << 20, request, err)) << err.message;
    EXPECT_TRUE(request.trace.valid);
    EXPECT_EQ(request.trace.trace_hi, 0xabu);
    EXPECT_EQ(request.trace.trace_lo, 0xcdu);
    EXPECT_EQ(request.trace.span_id, 0xefu);

    // sweep_request_json(parse_request(x)) reproduces the trace identity —
    // the coordinator propagates exactly what it was given.
    const std::string round = serve::sweep_request_json(request);
    serve::SweepRequest again;
    ASSERT_TRUE(serve::parse_request(round, 1 << 20, again, err)) << err.message;
    EXPECT_TRUE(again.trace.valid);
    EXPECT_EQ(again.trace.trace_hi, request.trace.trace_hi);
    EXPECT_EQ(again.trace.trace_lo, request.trace.trace_lo);
    EXPECT_EQ(again.trace.span_id, request.trace.span_id);

    // Untraced request: no trace field appears anywhere on the wire.
    serve::SweepRequest plain;
    serve::RequestError err2;
    ASSERT_TRUE(serve::parse_request("{\"id\": \"r2\", \"type\": \"sweep\"}", 1 << 20,
                                     plain, err2));
    EXPECT_FALSE(plain.trace.valid);
    EXPECT_EQ(serve::sweep_request_json(plain).find("trace"), std::string::npos);

    // Malformed trace fields are rejected, not ignored.
    for (const char* line :
         {"{\"id\": \"r3\", \"type\": \"sweep\", \"trace\": \"abc\"}",
          "{\"id\": \"r3\", \"type\": \"sweep\", \"trace\": {\"id\": \"123\"}}",
          "{\"id\": \"r3\", \"type\": \"sweep\", \"trace\": "
          "{\"id\": \"00000000000000ab00000000000000cd\", \"span\": \"12\"}}"}) {
        serve::SweepRequest bad;
        serve::RequestError bad_err;
        EXPECT_FALSE(serve::parse_request(line, 1 << 20, bad, bad_err)) << line;
    }
}

TEST(DoneEventTest, CarriesSpansOnlyWhenTraced) {
    // Untraced done events keep their exact historical bytes.
    EXPECT_EQ(serve::done_event("r1", true),
              "{\"id\": \"r1\", \"event\": \"done\", \"ok\": true}");
    Span span;
    span.name = "enumerate";
    span.tier = "serve";
    span.span_id = 0x1;
    span.parent_id = 0;
    span.start_s = 0.0;
    span.dur_s = 1.0;
    const std::string traced = serve::done_event("r1", true, {span});
    EXPECT_NE(traced.find("\"spans\": ["), std::string::npos);
    EXPECT_NE(traced.find("\"enumerate\""), std::string::npos);
}

TEST(TraceStoreTest, KeepsTheLastNTrees) {
    TraceStore store(2);
    for (int i = 0; i < 4; ++i) {
        TraceTree tree;
        tree.request_id = "r" + std::to_string(i);
        store.add(std::move(tree));
    }
    const std::vector<TraceTree> trees = store.snapshot();
    ASSERT_EQ(trees.size(), 2u);
    EXPECT_EQ(trees[0].request_id, "r2");
    EXPECT_EQ(trees[1].request_id, "r3");
}

/// The canonical traced fixture: the width-4 sweep (same sweep as
/// tests/golden/dse_w4.json), single-threaded, spans recorded with a fixed
/// id seed and an integer-tick clock so the Chrome trace is byte-stable.
std::string traced_w4_chrome_json(std::vector<DesignPoint>* points_out = nullptr) {
    SweepSpec spec;
    spec.widths = {4};
    EvalOptions opts;
    opts.threads = 1;
    CostCache cache;
    opts.hw_cache = &cache;
    auto tick = std::make_shared<std::atomic<int>>(0);
    SpanRecorder recorder("client", 0x5d1c5eed,
                          [tick] { return static_cast<double>((*tick)++); });
    TraceContext root;
    root.trace_hi = recorder.new_span_id();
    root.trace_lo = recorder.new_span_id();
    root.span_id = 0;
    root.valid = true;
    opts.recorder = &recorder;
    opts.trace = root;
    std::vector<DesignPoint> points = evaluate_sweep(spec, opts, nullptr);
    if (points_out != nullptr) *points_out = std::move(points);
    TraceTree tree;
    tree.request_id = "w4";
    tree.trace_hi = root.trace_hi;
    tree.trace_lo = root.trace_lo;
    tree.spans = recorder.take();
    EXPECT_FALSE(tree.spans.empty());
    return chrome_trace_json({tree});
}

TEST(ChromeTraceGoldenTest, FixedSeedWidth4SweepMatchesFixture) {
    const std::string produced = traced_w4_chrome_json();
    const std::string golden_path = std::string(SDLC_TESTS_DIR) + "/golden/trace_w4.json";
    // Legitimate to regenerate ONLY when the trace format changes on
    // purpose:  SDLC_REGEN_TRACE_GOLDEN=1 ./trace_test
    if (std::getenv("SDLC_REGEN_TRACE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
        out << produced;
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing fixture " << golden_path
                           << " (regenerate with SDLC_REGEN_TRACE_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(produced, golden.str()) << "Chrome trace JSON drifted from the fixture";

    // Structural sanity independent of the byte compare: valid JSON with
    // client-tier spans carrying the trace id.
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(json_parse(produced, parsed, &error)) << error;
    const JsonValue* events = parsed.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    EXPECT_GT(events->array.size(), 2u);
}

TEST(ChromeTraceGoldenTest, TracedSweepIsByteRerunnable) {
    // Two traced runs agree byte-for-byte (ids, ticks and span order are
    // all deterministic), and tracing never perturbs the sweep results.
    std::vector<DesignPoint> traced_points;
    const std::string first = traced_w4_chrome_json(&traced_points);
    EXPECT_EQ(first, traced_w4_chrome_json());

    SweepSpec spec;
    spec.widths = {4};
    EvalOptions opts;
    opts.threads = 1;
    CostCache cache;
    opts.hw_cache = &cache;
    const std::vector<DesignPoint> untraced = evaluate_sweep(spec, opts, nullptr);
    ASSERT_EQ(untraced.size(), traced_points.size());
    for (size_t i = 0; i < untraced.size(); ++i) {
        EXPECT_EQ(untraced[i].error, traced_points[i].error);
        EXPECT_TRUE(untraced[i].hw == traced_points[i].hw);
    }
}

}  // namespace
}  // namespace sdlc::obs
