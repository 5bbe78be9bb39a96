// Front-end glue shared by every stream-socket transport (Unix-domain and
// TCP) and the stdio server: accept connections, read request lines
// through the one StreamReader (serve/socket.h) in serve_lines(), stream
// response events.
//
// serve_listener() owns the lifecycle that used to live in serve_tool's
// socket mode and is now common to both transports and to in-process
// tests: one reader thread per connection feeding the SweepService,
// one FdSink per connection owning the fd (shared with in-flight requests,
// so the descriptor closes exactly when the last response line has been
// written or dropped), periodic reaping of finished connections on the
// accept tick, oversized-line rejection per the protocol contract, and a
// drain-then-unblock shutdown: once the service stops intake the listener
// closes, every accepted request still streams to completion, idle readers
// are unblocked with shutdown(SHUT_RD), and all threads are joined before
// returning.
#ifndef SDLC_SERVE_TRANSPORT_H
#define SDLC_SERVE_TRANSPORT_H

#include <functional>
#include <memory>

#include "serve/service.h"
#include "serve/socket.h"

namespace sdlc::serve {

/// Per-connection protocol driver run on the connection's reader thread.
/// The sink shares ownership of `fd` (it closes when the last reference —
/// the handler's or an in-flight request's — drops); the handler must
/// return once the peer disconnects or the service starts draining.
using ConnectionHandler = std::function<void(int fd, const std::shared_ptr<FdSink>& sink)>;

/// The accept/drain lifecycle shared by every stream protocol (NDJSON
/// lines, HTTP): accepts until the service shuts down, runs `handler` on a
/// dedicated thread per connection, reaps finished connections on the 1 s
/// accept tick, and on shutdown unblocks idle handlers with
/// shutdown(SHUT_RD) and joins everything before returning.
/// `install_shutdown_hook` wires service.on_shutdown to close the
/// listener; a tool serving one service on several listeners passes false
/// and installs one combined hook itself (SweepService holds a single
/// hook — a second install would silently drop the first listener's).
void serve_connection_loop(SocketListener& listener, SweepService& service,
                           const ConnectionHandler& handler, bool install_shutdown_hook);

/// Feeds the NDJSON request lines read from `fd` (a connection, or stdin)
/// to `service` with `sink` as every request's response sink, until EOF, a
/// read error, or the service starts draining. `max_request_bytes` must
/// mirror the service's request-size cap: it bounds the unterminated line
/// a peer can make the reader buffer, and a line outgrowing it is answered
/// with the protocol's too_large rejection before the stream ends.
void serve_lines(int fd, SweepService& service, size_t max_request_bytes,
                 const std::shared_ptr<ResponseSink>& sink);

/// Serves the NDJSON line protocol on `listener` until the service shuts
/// down (a `shutdown` request, or the service's shutdown hook firing from
/// another thread). Blocks until every accepted connection is drained and
/// joined. Each connection runs serve_lines with `max_request_bytes`. See
/// serve_connection_loop for `install_shutdown_hook`.
void serve_listener(SocketListener& listener, SweepService& service, size_t max_request_bytes,
                    bool install_shutdown_hook = true);

}  // namespace sdlc::serve

#endif  // SDLC_SERVE_TRANSPORT_H
