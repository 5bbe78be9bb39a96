#include "obs/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <thread>

#include "util/json.h"
#include "util/json_parse.h"

namespace sdlc::obs {
namespace {

/// splitmix64 output function over an externally-advanced state. The state
/// advances by the golden-gamma increment per id, so a fixed seed yields a
/// fixed id stream in allocation order.
uint64_t mix64(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

bool parse_hex_digits(std::string_view text, size_t digits, uint64_t& out) {
    if (text.size() != digits) return false;
    uint64_t value = 0;
    for (const char c : text) {
        uint64_t nibble = 0;
        if (c >= '0' && c <= '9') {
            nibble = static_cast<uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            nibble = static_cast<uint64_t>(c - 'a') + 10;
        } else {
            return false;
        }
        value = (value << 4) | nibble;
    }
    out = value;
    return true;
}

std::string hex_digits(uint64_t v, int digits) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%0*llx", digits,
                  static_cast<unsigned long long>(v));
    return std::string(buf);
}

thread_local TraceBinding g_binding;

/// `"k": v, ...` for a span's args (values are already rendered JSON).
std::string args_members(const std::vector<std::pair<std::string, std::string>>& args) {
    std::string out;
    for (size_t i = 0; i < args.size(); ++i) {
        if (i != 0) out += ", ";
        out += json_string(args[i].first) + ": " + args[i].second;
    }
    return out;
}

}  // namespace

std::string trace_id_hex(uint64_t hi, uint64_t lo) {
    return hex_digits(hi, 16) + hex_digits(lo, 16);
}

std::string span_id_hex(uint64_t id) { return hex_digits(id, 16); }

bool parse_trace_id_hex(std::string_view text, uint64_t& hi, uint64_t& lo) {
    if (text.size() != 32) return false;
    return parse_hex_digits(text.substr(0, 16), 16, hi) &&
           parse_hex_digits(text.substr(16), 16, lo);
}

bool parse_span_id_hex(std::string_view text, uint64_t& id) {
    return parse_hex_digits(text, 16, id);
}

SpanRecorder::SpanRecorder(std::string tier, uint64_t seed, std::function<double()> clock)
    : tier_(std::move(tier)),
      id_state_(seed),
      clock_(std::move(clock)),
      epoch_(std::chrono::steady_clock::now()) {}

uint64_t SpanRecorder::new_span_id() {
    const uint64_t state = id_state_.fetch_add(kGamma, std::memory_order_relaxed) + kGamma;
    const uint64_t id = mix64(state);
    return id == 0 ? 1 : id;  // 0 is reserved for "no parent"
}

double SpanRecorder::now() const {
    if (clock_) return clock_();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

void SpanRecorder::record(Span span) {
    if (span.tier.empty()) span.tier = tier_;
    const size_t shard = static_cast<size_t>(
                             std::hash<std::thread::id>{}(std::this_thread::get_id())) %
                         kShards;
    std::lock_guard<std::mutex> lock(shards_[shard].mutex);
    shards_[shard].spans.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::take() {
    std::vector<Span> all;
    for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        all.insert(all.end(), std::make_move_iterator(shard.spans.begin()),
                   std::make_move_iterator(shard.spans.end()));
        shard.spans.clear();
    }
    std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
        if (a.start_s != b.start_s) return a.start_s < b.start_s;
        return a.span_id < b.span_id;
    });
    return all;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const TraceContext& ctx, const char* name) {
    if (recorder == nullptr || !ctx.valid) return;
    recorder_ = recorder;
    name_ = name;
    parent_id_ = ctx.span_id;
    ctx_ = ctx;
    ctx_.span_id = recorder->new_span_id();
    start_s_ = recorder->now();
}

void ScopedSpan::arg(const char* key, const char* value) {
    if (recorder_ != nullptr) args_.emplace_back(key, json_string(value));
}

void ScopedSpan::arg(const char* key, uint64_t value) {
    if (recorder_ != nullptr) args_.emplace_back(key, std::to_string(value));
}

void ScopedSpan::stop() {
    if (recorder_ == nullptr) return;
    Span span;
    span.name = name_;
    span.span_id = ctx_.span_id;
    span.parent_id = parent_id_;
    span.start_s = start_s_;
    span.dur_s = recorder_->now() - start_s_;
    span.args = std::move(args_);
    recorder_->record(std::move(span));
    recorder_ = nullptr;
}

const TraceBinding& current_binding() noexcept { return g_binding; }

ScopedBinding::ScopedBinding(SpanRecorder* recorder, const TraceContext& ctx)
    : saved_(g_binding) {
    g_binding.recorder = recorder;
    g_binding.ctx = ctx;
}

ScopedBinding::~ScopedBinding() { g_binding = saved_; }

std::string spans_wire_json(const std::vector<Span>& spans) {
    std::string out = "[";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (i != 0) out += ", ";
        out += "{\"name\": " + json_string(s.name);
        out += ", \"tier\": " + json_string(s.tier);
        out += ", \"id\": \"" + span_id_hex(s.span_id) + "\"";
        out += ", \"parent\": \"" + span_id_hex(s.parent_id) + "\"";
        out += ", \"start\": " + json_number(s.start_s);
        out += ", \"dur\": " + json_number(s.dur_s);
        if (!s.args.empty()) out += ", \"args\": {" + args_members(s.args) + "}";
        out += "}";
    }
    out += "]";
    return out;
}

bool parse_spans_wire(const JsonValue& array, std::vector<Span>& out, std::string* error) {
    const auto fail = [error](const std::string& message) {
        if (error != nullptr) *error = message;
        return false;
    };
    if (!array.is_array()) return fail("spans must be an array");
    for (const JsonValue& entry : array.array) {
        if (!entry.is_object()) return fail("span entries must be objects");
        Span span;
        const JsonValue* name = entry.find("name");
        const JsonValue* tier = entry.find("tier");
        const JsonValue* id = entry.find("id");
        const JsonValue* parent = entry.find("parent");
        const JsonValue* start = entry.find("start");
        const JsonValue* dur = entry.find("dur");
        if (name == nullptr || !name->is_string()) return fail("span.name must be a string");
        if (tier == nullptr || !tier->is_string()) return fail("span.tier must be a string");
        if (id == nullptr || !id->is_string() ||
            !parse_span_id_hex(id->string, span.span_id)) {
            return fail("span.id must be 16 hex digits");
        }
        if (parent == nullptr || !parent->is_string() ||
            !parse_span_id_hex(parent->string, span.parent_id)) {
            return fail("span.parent must be 16 hex digits");
        }
        if (start == nullptr || !start->is_number()) {
            return fail("span.start must be a number");
        }
        if (dur == nullptr || !dur->is_number()) return fail("span.dur must be a number");
        if (const JsonValue* args = entry.find("args")) {
            if (!args->is_object()) return fail("span.args must be an object");
            for (const auto& [key, value] : args->object) {
                if (value.is_string()) {
                    span.args.emplace_back(key, json_string(value.string));
                } else if (value.is_number() && value.number >= 0 &&
                           value.number <= 0x1p53 && std::trunc(value.number) == value.number) {
                    span.args.emplace_back(key,
                                           std::to_string(static_cast<uint64_t>(value.number)));
                } else {
                    return fail("span.args values must be strings or non-negative integers");
                }
            }
        }
        span.name = name->string;
        span.tier = tier->string;
        span.start_s = start->number;
        span.dur_s = dur->number;
        out.push_back(std::move(span));
    }
    return true;
}

TraceStore::TraceStore(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceStore::add(TraceTree tree) {
    std::lock_guard<std::mutex> lock(mutex_);
    trees_.push_back(std::move(tree));
    while (trees_.size() > capacity_) trees_.pop_front();
}

std::vector<TraceTree> TraceStore::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::vector<TraceTree>(trees_.begin(), trees_.end());
}

std::string chrome_trace_json(const std::vector<TraceTree>& trees) {
    // Stable pid per tier so Perfetto groups spans by process tier.
    const auto tier_pid = [](const std::string& tier) {
        if (tier == "client") return 1;
        if (tier == "serve") return 2;
        if (tier == "worker") return 3;
        return 5;
    };
    std::string out = "{\"traceEvents\": [";
    bool first = true;
    std::vector<std::string> tiers_seen;
    for (const TraceTree& tree : trees) {
        for (const Span& span : tree.spans) {
            if (std::find(tiers_seen.begin(), tiers_seen.end(), span.tier) ==
                tiers_seen.end()) {
                tiers_seen.push_back(span.tier);
            }
        }
    }
    std::sort(tiers_seen.begin(), tiers_seen.end(),
              [&](const std::string& a, const std::string& b) {
                  return tier_pid(a) < tier_pid(b);
              });
    for (const std::string& tier : tiers_seen) {
        if (!first) out += ",\n";
        first = false;
        out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
               std::to_string(tier_pid(tier)) +
               ", \"tid\": 0, \"args\": {\"name\": " + json_string("sdlc " + tier) + "}}";
    }
    for (const TraceTree& tree : trees) {
        const std::string trace_id = trace_id_hex(tree.trace_hi, tree.trace_lo);
        for (const Span& span : tree.spans) {
            if (!first) out += ",\n";
            first = false;
            out += "{\"name\": " + json_string(span.name);
            out += ", \"cat\": \"sdlc\", \"ph\": \"X\"";
            out += ", \"pid\": " + std::to_string(tier_pid(span.tier));
            out += ", \"tid\": 1";
            out += ", \"ts\": " + json_number(span.start_s * 1e6);
            out += ", \"dur\": " + json_number(span.dur_s * 1e6);
            out += ", \"args\": {\"trace_id\": \"" + trace_id + "\"";
            out += ", \"request\": " + json_string(tree.request_id);
            out += ", \"span_id\": \"" + span_id_hex(span.span_id) + "\"";
            out += ", \"parent\": \"" + span_id_hex(span.parent_id) + "\"";
            if (!span.args.empty()) out += ", " + args_members(span.args);
            out += "}}";
        }
    }
    out += "], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

}  // namespace sdlc::obs
