// Request-scoped distributed tracing for the serve and cluster tiers.
//
// A `TraceContext` (128-bit trace id + 64-bit span id) rides an optional
// `trace` field on sweep requests and coordinator shard sub-requests;
// each process records named spans into a
// lock-sharded `SpanRecorder` through RAII `ScopedSpan` guards and returns
// them on existing response lines (a `spans` field on `done`/stats-style
// events), where the coordinator stitches them into one tree per request.
//
// Two invariants shape the design:
//   * An absent trace field means "not traced": every recording path is a
//     no-op behind one branch, and untraced request/response lines are
//     byte-identical to pre-tracing builds — sweep export bytes can never
//     depend on tracing (same rule as ServiceStats).
//   * Ids and timestamps are injectable (seeded splitmix64 generator,
//     pluggable clock), so single-threaded tests can golden-compare the
//     assembled Chrome trace-event JSON byte-for-byte.
#ifndef SDLC_OBS_TRACE_H
#define SDLC_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdlc {
struct JsonValue;
}  // namespace sdlc

namespace sdlc::obs {

/// Identity of one traced request (or of a sub-span of it) as propagated on
/// the wire. `span_id` names the span that children created under this
/// context attach to (0 = root, no parent).
struct TraceContext {
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    uint64_t span_id = 0;
    bool valid = false;
};

/// 32 lowercase hex chars for a 128-bit trace id; 16 for a 64-bit span id.
[[nodiscard]] std::string trace_id_hex(uint64_t hi, uint64_t lo);
[[nodiscard]] std::string span_id_hex(uint64_t id);

/// Strict inverses of the hex encoders: exactly 32 (resp. 16) lowercase hex
/// digits, nothing else.
[[nodiscard]] bool parse_trace_id_hex(std::string_view text, uint64_t& hi, uint64_t& lo);
[[nodiscard]] bool parse_span_id_hex(std::string_view text, uint64_t& id);

/// One completed span. Times are seconds relative to the recording
/// process's recorder epoch (per-process steady clock; cross-process skew
/// is expected and tolerated by the Chrome trace viewer).
struct Span {
    std::string name;
    std::string tier;  // process tier: "serve", "worker", "cache", "client"
    uint64_t span_id = 0;
    uint64_t parent_id = 0;
    double start_s = 0.0;
    double dur_s = 0.0;
    /// Extra key/value annotations, values as rendered JSON (a string or a
    /// non-negative integer), e.g. {"engine", "\"sliced\""}.
    std::vector<std::pair<std::string, std::string>> args;
};

/// Collects spans from many threads with sharded locks so eval-pool workers
/// never serialize on one mutex. Span ids come from a seeded splitmix64
/// stream and the clock is injectable — a fixed seed plus a fake clock make
/// recorded output fully deterministic in single-threaded tests.
class SpanRecorder {
public:
    /// `tier` labels every span recorded here; `clock` defaults to seconds
    /// since construction on the steady clock.
    explicit SpanRecorder(std::string tier, uint64_t seed = 0,
                          std::function<double()> clock = {});

    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;

    /// Next deterministic span id (never 0 — 0 means "no parent").
    [[nodiscard]] uint64_t new_span_id();

    /// Current time in recorder-epoch seconds.
    [[nodiscard]] double now() const;

    /// Appends one finished span (thread-safe). Spans with an empty tier
    /// inherit the recorder's tier label.
    void record(Span span);

    /// Drains every recorded span, sorted by (start_s, span_id) so the
    /// result is stable regardless of which shard each span landed in.
    [[nodiscard]] std::vector<Span> take();

    [[nodiscard]] const std::string& tier() const noexcept { return tier_; }

private:
    static constexpr size_t kShards = 8;
    struct Shard {
        std::mutex mutex;
        std::vector<Span> spans;
    };

    std::string tier_;
    std::atomic<uint64_t> id_state_;
    std::function<double()> clock_;
    std::chrono::steady_clock::time_point epoch_;
    Shard shards_[kShards];
};

/// RAII span guard: records `name` on the recorder from construction to
/// destruction (or stop()). Inert when `recorder` is null or `ctx` is
/// invalid — the untraced hot path pays one branch.
class ScopedSpan {
public:
    ScopedSpan() = default;
    ScopedSpan(SpanRecorder* recorder, const TraceContext& ctx, const char* name);
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ~ScopedSpan() { stop(); }

    /// Ends the span now (idempotent; the destructor is then a no-op).
    void stop();

    [[nodiscard]] bool active() const noexcept { return recorder_ != nullptr; }

    /// Annotates the span with a string or integer arg (no-op when inert).
    void arg(const char* key, const char* value);
    void arg(const char* key, uint64_t value);

    /// Context for children of this span (same trace, parent = this span).
    [[nodiscard]] TraceContext context() const noexcept { return ctx_; }

private:
    SpanRecorder* recorder_ = nullptr;
    const char* name_ = nullptr;
    TraceContext ctx_{};
    uint64_t parent_id_ = 0;
    double start_s_ = 0.0;
    std::vector<std::pair<std::string, std::string>> args_;
};

/// Thread-local trace binding: lets shared components (CostCache) record
/// spans for the request currently executing on
/// this thread without threading a recorder through their interfaces.
struct TraceBinding {
    SpanRecorder* recorder = nullptr;
    TraceContext ctx{};
};

/// The binding installed on this thread ({nullptr, invalid} by default).
[[nodiscard]] const TraceBinding& current_binding() noexcept;

/// Installs a binding for the current scope and restores the previous one
/// on destruction (bindings nest).
class ScopedBinding {
public:
    ScopedBinding(SpanRecorder* recorder, const TraceContext& ctx);
    ScopedBinding(const ScopedBinding&) = delete;
    ScopedBinding& operator=(const ScopedBinding&) = delete;
    ~ScopedBinding();

private:
    TraceBinding saved_;
};

/// Serializes spans for the observability side-channel of a response line:
/// `[{"name": ..., "tier": ..., "id": ..., "parent": ..., "start": ...,
/// "dur": ...}, ...]`, plus `"args": {...}` on spans that carry args.
/// Deterministic given the span list.
[[nodiscard]] std::string spans_wire_json(const std::vector<Span>& spans);

/// Strict inverse of spans_wire_json over an already-parsed JSON array.
/// Appends to `out`; returns false (with *error when non-null) on any
/// malformed entry.
[[nodiscard]] bool parse_spans_wire(const JsonValue& array, std::vector<Span>& out,
                                    std::string* error = nullptr);

/// One request's assembled spans (local + harvested from other tiers).
struct TraceTree {
    std::string request_id;
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    std::vector<Span> spans;
};

/// Ring buffer of the last N completed request trees, served by the
/// `trace` request verb and drained into `--trace-out` at exit.
class TraceStore {
public:
    explicit TraceStore(size_t capacity = 64);

    void add(TraceTree tree);
    [[nodiscard]] std::vector<TraceTree> snapshot() const;

private:
    mutable std::mutex mutex_;
    size_t capacity_;
    std::deque<TraceTree> trees_;
};

/// Renders trees as Chrome trace-event JSON (Perfetto / chrome://tracing
/// loadable): one "X" duration event per span (span args appended to the
/// event's args), pid per tier with process_name metadata, timestamps in
/// microseconds. Deterministic given
/// the tree list.
[[nodiscard]] std::string chrome_trace_json(const std::vector<TraceTree>& trees);

}  // namespace sdlc::obs

#endif  // SDLC_OBS_TRACE_H
