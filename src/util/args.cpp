#include "util/args.h"

#include <climits>
#include <cmath>

namespace sdlc::cli {

Args::Args(int argc, const char* const* argv, int first, const std::set<std::string>& value_keys,
           const std::set<std::string>& flag_keys) {
    for (int i = first; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--help" || key == "-h") {
            help_ = true;
            return;
        }
        if (flag_keys.count(key) != 0) {
            flags_.insert(key);
            continue;
        }
        if (value_keys.count(key) == 0) throw UsageError("unknown option " + key);
        if (i + 1 >= argc) throw UsageError("missing value for " + key);
        values_[key] = argv[++i];
    }
}

std::string Args::get(const std::string& key, const std::string& dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
}

namespace {

/// Runs `parse` (a std::sto* call) on `text` and insists it consumed all
/// of it; any other outcome is a UsageError naming `key` and `what`.
template <typename Parse>
auto parse_whole(const std::string& key, const std::string& text, const char* what, Parse parse) {
    decltype(parse(text, nullptr)) parsed{};
    size_t consumed = 0;
    try {
        parsed = parse(text, &consumed);
    } catch (const std::logic_error&) {
        consumed = 0;  // invalid_argument / out_of_range
    }
    if (consumed == 0 || consumed != text.size()) {
        throw UsageError(key + " expects " + what + ", got \"" + text + "\"");
    }
    return parsed;
}

}  // namespace

long Args::parse_long(const std::string& key, const std::string& text) {
    const long parsed = parse_whole(
        key, text, "an integer", [](const std::string& s, size_t* n) { return std::stol(s, n); });
    if (parsed < 0) throw UsageError(key + " must be >= 0");
    return parsed;
}

long Args::get_long(const std::string& key, long dflt) const {
    return has(key) ? parse_long(key, get(key)) : dflt;
}

int Args::get_int(const std::string& key, int dflt) const {
    const long v = get_long(key, dflt);
    if (v > INT_MAX) throw UsageError(key + " is out of range");
    return static_cast<int>(v);
}

uint64_t Args::get_uint64(const std::string& key, uint64_t dflt) const {
    if (!has(key)) return dflt;
    const std::string v = get(key);
    // stoull would wrap a leading minus sign around to a huge value.
    if (v.find('-') != std::string::npos) throw UsageError(key + " must be >= 0");
    return parse_whole(key, v, "an integer",
                       [](const std::string& s, size_t* n) { return std::stoull(s, n, 0); });
}

double Args::get_double(const std::string& key, double dflt) const {
    if (!has(key)) return dflt;
    const double parsed = parse_whole(
        key, get(key), "a number", [](const std::string& s, size_t* n) { return std::stod(s, n); });
    if (!std::isfinite(parsed)) throw UsageError(key + " expects a finite number");
    if (parsed < 0.0) throw UsageError(key + " must be >= 0");
    return parsed;
}

}  // namespace sdlc::cli
