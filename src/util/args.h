// Strict command-line parser shared by the tools (sdlc, dse_tool,
// serve_tool): "--key value" options and boolean "--flag"s, each drawn from
// a fixed set the tool declares. An undeclared key, a missing value, or a
// number that does not parse in full is a UsageError, which every tool
// reports with its usage text and exit status 2 — a typo'd flag or value
// can never silently run the wrong job. The names live in sdlc::cli so
// programs with a parser of their own can still `using namespace sdlc`.
#ifndef SDLC_UTIL_ARGS_H
#define SDLC_UTIL_ARGS_H

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

namespace sdlc::cli {

/// A malformed command line; what() is the message for the user.
class UsageError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class Args {
public:
    /// Parses argv[first, argc). "--help" or "-h" stops parsing and sets
    /// help(). Throws UsageError for a key in neither set or a value key
    /// without a value.
    Args(int argc, const char* const* argv, int first, const std::set<std::string>& value_keys,
         const std::set<std::string>& flag_keys);

    [[nodiscard]] bool help() const noexcept { return help_; }
    /// True when value key `key` was given.
    [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) != 0; }
    /// True when boolean flag `key` was given.
    [[nodiscard]] bool flag(const std::string& key) const { return flags_.count(key) != 0; }

    /// The value of `key`, or `dflt` when it was not given.
    [[nodiscard]] std::string get(const std::string& key, const std::string& dflt = "") const;
    /// Non-negative decimal integer; `dflt` when not given.
    [[nodiscard]] long get_long(const std::string& key, long dflt) const;
    /// get_long that must also fit an int.
    [[nodiscard]] int get_int(const std::string& key, int dflt) const;
    /// Unsigned integer in C notation (decimal, 0x hex, leading-0 octal).
    [[nodiscard]] uint64_t get_uint64(const std::string& key, uint64_t dflt) const;
    /// Non-negative finite number.
    [[nodiscard]] double get_double(const std::string& key, double dflt) const;

    /// The strict integer rule of get_long applied to `text`; `key` names
    /// the option in the error message.
    [[nodiscard]] static long parse_long(const std::string& key, const std::string& text);

private:
    std::map<std::string, std::string> values_;
    std::set<std::string> flags_;
    bool help_ = false;
};

}  // namespace sdlc::cli

#endif  // SDLC_UTIL_ARGS_H
