#include "dse/remote_cache.h"

#include "serve/socket.h"

namespace sdlc {

bool parse_cache_peer(const std::string& spec, CachePeerAddress& out, std::string* error) {
    auto fail = [error](const std::string& message) {
        if (error != nullptr) *error = message;
        return false;
    };
    if (spec.rfind("unix:", 0) == 0) {
        const std::string path = spec.substr(5);
        if (path.empty()) return fail("empty unix socket path in \"" + spec + "\"");
        out = CachePeerAddress{};
        out.is_unix = true;
        out.path_or_host = path;
        return true;
    }
    std::string host_port = spec;
    if (host_port.rfind("tcp:", 0) == 0) host_port = host_port.substr(4);
    std::string host;
    uint16_t port = 0;
    std::string parse_error;
    // Peers are connect targets: port 0 would only fail later at connect
    // with a bare errno, so reject it here where the flag name is known.
    if (!serve::parse_host_port(host_port, host, port, &parse_error,
                                /*allow_port_zero=*/false)) {
        return fail("peer \"" + spec + "\": " + parse_error +
                    " (expected unix:PATH or HOST:PORT)");
    }
    out = CachePeerAddress{};
    out.is_unix = false;
    out.path_or_host = host;
    out.port = port;
    return true;
}

bool parse_cache_peer_list(const std::string& list, std::vector<std::string>& out,
                           std::string* error) {
    out.clear();
    size_t start = 0;
    while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const std::string item =
            list.substr(start, comma == std::string::npos ? comma : comma - start);
        if (!item.empty()) {
            CachePeerAddress address;
            if (!parse_cache_peer(item, address, error)) return false;
            out.push_back(item);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    if (!list.empty() && out.empty()) {
        if (error != nullptr) *error = "empty peer list";
        return false;
    }
    return true;
}

}  // namespace sdlc
