// Peer endpoint specs: the grammar behind `--workers` (dse_tool,
// serve_tool) and the cluster coordinator's worker list.
//
// A spec is "unix:PATH" or "HOST:PORT" (also accepted with an explicit
// "tcp:" prefix). One parser serves every tool, so two tools can never
// drift on what a peer list means.
#ifndef SDLC_DSE_REMOTE_CACHE_H
#define SDLC_DSE_REMOTE_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

namespace sdlc {

/// One parsed peer endpoint.
struct CachePeerAddress {
    bool is_unix = false;
    std::string path_or_host;
    uint16_t port = 0;
};

/// Parses a peer spec. Returns false with a message in *error (when
/// non-null) on a malformed spec — tools turn that into a usage error
/// before anything starts running.
[[nodiscard]] bool parse_cache_peer(const std::string& spec, CachePeerAddress& out,
                                    std::string* error = nullptr);

/// Splits a comma-separated peer list and validates every spec (empty
/// items are skipped; a non-empty list yielding no peers is an error).
/// Returns false with a message in *error (when non-null).
[[nodiscard]] bool parse_cache_peer_list(const std::string& list,
                                         std::vector<std::string>& out,
                                         std::string* error = nullptr);

}  // namespace sdlc

#endif  // SDLC_DSE_REMOTE_CACHE_H
