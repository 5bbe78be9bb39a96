// HTTP/1.1 front door: request parsing and routing, the chunked
// POST /v1/sweep stream's byte-identity with the line transport,
// bearer-token auth, token-bucket quotas, and the transport-level status
// codes (400/401/404/405/413/429/431/505) — all through a real
// serve_http_listener() over real sockets, the code path
// `serve_tool --listen-http` runs.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/access_log.h"
#include "serve/http.h"
#include "serve/metrics.h"
#include "serve/service.h"
#include "serve/sink.h"
#include "serve/socket.h"
#include "serve/transport.h"

namespace sdlc::serve {
namespace {

using steady_clock = std::chrono::steady_clock;

// ------------------------------------------------------------ unit layer ----

TEST(ConstantTimeEqual, MatchesOrdinaryEquality) {
    EXPECT_TRUE(constant_time_equal("", ""));
    EXPECT_TRUE(constant_time_equal("secret-token", "secret-token"));
    EXPECT_FALSE(constant_time_equal("secret-token", "secret-tokeN"));
    EXPECT_FALSE(constant_time_equal("secret", "secret-token"));
    EXPECT_FALSE(constant_time_equal("secret-token", ""));
}

TEST(TokenBucketLimiter, BurstThenRefillDeterministic) {
    // An explicit clock makes the arithmetic exact: 2 rps, burst 3.
    TokenBucketLimiter limiter(/*rps=*/2.0, /*burst=*/3.0);
    const auto t0 = steady_clock::now();
    double retry = 0.0;

    EXPECT_TRUE(limiter.admit("alice", t0, retry));
    EXPECT_TRUE(limiter.admit("alice", t0, retry));
    EXPECT_TRUE(limiter.admit("alice", t0, retry));
    EXPECT_FALSE(limiter.admit("alice", t0, retry)) << "burst of 3 is spent";
    EXPECT_NEAR(retry, 0.5, 1e-9) << "one whole token at 2 rps is 0.5 s away";

    // Another client's bucket is untouched.
    EXPECT_TRUE(limiter.admit("bob", t0, retry));
    EXPECT_EQ(limiter.size(), 2u);

    // 500 ms later exactly one token has dripped back.
    const auto t1 = t0 + std::chrono::milliseconds(500);
    EXPECT_TRUE(limiter.admit("alice", t1, retry));
    EXPECT_FALSE(limiter.admit("alice", t1, retry));

    // Refill never exceeds the burst cap.
    const auto t2 = t1 + std::chrono::hours(1);
    EXPECT_TRUE(limiter.admit("alice", t2, retry));
    EXPECT_TRUE(limiter.admit("alice", t2, retry));
    EXPECT_TRUE(limiter.admit("alice", t2, retry));
    EXPECT_FALSE(limiter.admit("alice", t2, retry));
}

TEST(TokenBucketLimiter, BucketTableIsBounded) {
    TokenBucketLimiter limiter(/*rps=*/1.0, /*burst=*/1.0);
    auto now = steady_clock::now();
    double retry = 0.0;
    // A key-rotating flood cannot grow the table past the bound.
    for (size_t i = 0; i < TokenBucketLimiter::kMaxBuckets + 100; ++i) {
        now += std::chrono::milliseconds(1);  // distinct refresh times
        EXPECT_TRUE(limiter.admit("key" + std::to_string(i), now, retry));
    }
    EXPECT_LE(limiter.size(), TokenBucketLimiter::kMaxBuckets);
}

TEST(ReadAuthTokenFile, TrimsAndRejectsEmpty) {
    const std::string path = testing::TempDir() + "/sdlc_http_token";
    {
        std::ofstream out(path);
        out << "  s3cret-token \n";
    }
    std::string token;
    std::string error;
    ASSERT_TRUE(read_auth_token_file(path, token, &error)) << error;
    EXPECT_EQ(token, "s3cret-token") << "the newline must not join the token";

    {
        std::ofstream out(path);
        out << "\n";
    }
    EXPECT_FALSE(read_auth_token_file(path, token, &error));
    EXPECT_NE(error.find("empty token"), std::string::npos) << error;

    EXPECT_FALSE(read_auth_token_file(path + ".missing", token, &error));
    ::unlink(path.c_str());
}

// ---------------------------------------------------------- client reader ----

struct ClientRead {
    bool ok = false;
    HttpClientResponse out;
    std::string error;
};

/// read_http_response() with cap `max_body` on one end of a socketpair
/// while a peer writes `response` on the other, then repeats `endless`
/// (when non-empty) until the reader hangs up.
ClientRead read_from_peer(const std::string& response, const std::string& endless,
                          size_t max_body) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread peer([&] {
        if (write_all(fds[1], response)) {
            while (!endless.empty() && write_all(fds[1], endless)) {
            }
        }
        ::shutdown(fds[1], SHUT_WR);
    });
    ClientRead r;
    StreamReader reader(fds[0]);
    r.ok = read_http_response(reader, max_body, r.out, &r.error);
    ::close(fds[0]);  // fails the peer's next write
    peer.join();
    ::close(fds[1]);
    return r;
}

TEST(HttpClient, ReadToCloseBodyIsCapped) {
    const std::string head = "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n";
    const ClientRead endless = read_from_peer(head, std::string(4096, 'x'), 1 << 16);
    EXPECT_FALSE(endless.ok);
    EXPECT_TRUE(endless.out.too_large);
    EXPECT_EQ(endless.out.status, 200);
    EXPECT_TRUE(endless.out.body.empty());
    EXPECT_NE(endless.error.find("exceeds 65536 bytes"), std::string::npos) << endless.error;

    const ClientRead at_cap = read_from_peer(head + std::string(1 << 16, 'x'), "", 1 << 16);
    ASSERT_TRUE(at_cap.ok) << at_cap.error;
    EXPECT_EQ(at_cap.out.body.size(), size_t{1} << 16);
    EXPECT_FALSE(at_cap.out.too_large);
}

TEST(HttpClient, ContentLengthOverTheCapFailsBeforeReading) {
    // The peer sends no body at all: the declared length alone decides.
    const ClientRead r = read_from_peer(
        "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n", "", 1 << 16);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.out.too_large);

    const ClientRead fits =
        read_from_peer("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello", "", 5);
    ASSERT_TRUE(fits.ok) << fits.error;
    EXPECT_EQ(fits.out.body, "hello");
}

TEST(HttpClient, EndlessChunkedBodyIsCapped) {
    const std::string chunk = "1000\r\n" + std::string(4096, 'c') + "\r\n";
    const ClientRead r = read_from_peer(
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", chunk, 1 << 16);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.out.too_large);
    EXPECT_TRUE(r.out.body.empty());

    // Chunks that add up to exactly the cap decode.
    const ClientRead fits = read_from_peer(
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunk + chunk +
            "0\r\n\r\n",
        "", 8192);
    ASSERT_TRUE(fits.ok) << fits.error;
    EXPECT_EQ(fits.out.body, std::string(8192, 'c'));
}

// --------------------------------------------------------- served fixture ----

/// A served HTTP endpoint: SweepService + serve_http_listener on a
/// background thread. Torn down via request_shutdown(), which fires the
/// installed hook and unblocks the accept loop.
struct HttpFixture {
    ServiceOptions opts;
    std::unique_ptr<SweepService> service;
    std::unique_ptr<TcpSocketServer> listener;
    HttpOptions http;
    std::thread loop;

    explicit HttpFixture(HttpOptions h = {}, ServiceOptions o = {}) : opts(o), http(h) {
        service = std::make_unique<SweepService>(opts);
        listener = std::make_unique<TcpSocketServer>("127.0.0.1", 0);
        loop = std::thread([this] { serve_http_listener(*listener, *service, http); });
    }

    ~HttpFixture() {
        if (!service->shutdown_requested()) service->request_shutdown();
        if (loop.joinable()) loop.join();
    }

    [[nodiscard]] uint16_t port() const { return listener->port(); }
};

/// Writes `request` raw and reads the connection to EOF (requests here
/// either say Connection: close or provoke a server-side close).
std::string raw_exchange(uint16_t port, const std::string& request) {
    const int fd = connect_peer({false, "127.0.0.1", port});
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(write_all(fd, request));
    const std::string out = StreamReader(fd).read_to_eof();
    ::close(fd);
    return out;
}

std::string tiny_sweep_line(const std::string& id) {
    return "{\"id\": \"" + id +
           "\", \"spec\": {\"width\": 4, \"variants\": [\"sdlc\"], \"schemes\": [\"ripple\"]}}";
}

/// The same sweep's event lines from an in-process service against a cold
/// cache — the reference the HTTP body must reproduce byte for byte.
std::vector<std::string> reference_lines(const std::string& request_line) {
    SweepService reference;
    auto sink = std::make_shared<BufferSink>();
    EXPECT_TRUE(reference.submit_line(request_line, sink));
    std::vector<std::string> lines;
    for (int spin = 0; spin < 6000; ++spin) {
        lines = sink->lines();
        if (!lines.empty() &&
            lines.back().find("\"event\": \"done\"") != std::string::npos) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_FALSE(lines.empty());
    return lines;
}

// ------------------------------------------------------------ happy paths ----

TEST(ServeHttp, SweepBodyIsByteIdenticalToLineTransport) {
    const std::string request_line = tiny_sweep_line("t");
    std::string expected;
    for (const std::string& line : reference_lines(request_line)) {
        expected += line;
        expected += '\n';
    }

    HttpFixture fx;
    HttpClientResponse response;
    std::string error;
    ASSERT_TRUE(http_request("127.0.0.1", fx.port(), "POST", "/v1/sweep",
                             request_line + "\n", "", response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.headers["content-type"], "application/x-ndjson");
    EXPECT_EQ(response.headers["transfer-encoding"], "chunked");
    // The invariant of the whole front door: HTTP is framing, never
    // content. The decoded chunk payloads are the line-transport bytes.
    EXPECT_EQ(response.body, expected);
}

TEST(ServeHttp, MultiRequestBodyStreamsEveryDoneEvent) {
    HttpFixture fx;
    HttpClientResponse response;
    std::string error;
    ASSERT_TRUE(http_request("127.0.0.1", fx.port(), "POST", "/v1/sweep",
                             tiny_sweep_line("a") + "\n" + tiny_sweep_line("b") + "\n", "",
                             response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    size_t done = 0;
    size_t at = 0;
    while ((at = response.body.find("\"event\": \"done\"", at)) != std::string::npos) {
        ++done;
        ++at;
    }
    EXPECT_EQ(done, 2u) << "one terminal event per request line";
}

TEST(ServeHttp, HealthzAndMetricsAnswer) {
    HttpFixture fx;
    HttpClientResponse response;
    std::string error;
    ASSERT_TRUE(
        http_request("127.0.0.1", fx.port(), "GET", "/healthz", "", "", response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "ok\n");

    ASSERT_TRUE(
        http_request("127.0.0.1", fx.port(), "GET", "/metrics", "", "", response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.headers["content-type"].find("version=0.0.4"), std::string::npos);
    std::string exposition_error;
    EXPECT_TRUE(validate_exposition(response.body, &exposition_error)) << exposition_error;
}

TEST(ServeHttp, KeepAliveServesSequentialRequests) {
    HttpFixture fx;
    const int fd = connect_peer({false, "127.0.0.1", fx.port()});
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(write_all(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
    // Second request on the same connection, then close.
    ASSERT_TRUE(
        write_all(fd, "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"));
    const std::string out = StreamReader(fd).read_to_eof();
    ::close(fd);
    size_t responses = 0;
    size_t at = 0;
    while ((at = out.find("HTTP/1.1 200 OK", at)) != std::string::npos) {
        ++responses;
        ++at;
    }
    EXPECT_EQ(responses, 2u) << out;
}

TEST(ServeHttp, ShutdownRequestInSweepBodyDrainsTheServer) {
    HttpFixture fx;
    HttpClientResponse response;
    std::string error;
    ASSERT_TRUE(http_request("127.0.0.1", fx.port(), "POST", "/v1/sweep",
                             tiny_sweep_line("last") + "\n{\"id\": \"q\", \"type\": "
                                                       "\"shutdown\"}\n",
                             "", response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("\"id\": \"last\""), std::string::npos);
    fx.loop.join();  // the listener loop must terminate on its own
    EXPECT_TRUE(fx.service->shutdown_requested());
}

// --------------------------------------------------------------- negatives ----

TEST(ServeHttp, TransportLevelRejections) {
    HttpOptions options;
    options.max_header_bytes = 512;
    options.max_body_bytes = 1024;
    HttpFixture fx(options);

    // Unknown path.
    std::string out = raw_exchange(
        fx.port(), "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    EXPECT_NE(out.find("HTTP/1.1 404"), std::string::npos) << out;

    // Wrong method on a known path, with the Allow header.
    out = raw_exchange(fx.port(),
                       "GET /v1/sweep HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    EXPECT_NE(out.find("HTTP/1.1 405"), std::string::npos) << out;
    EXPECT_NE(out.find("Allow: POST"), std::string::npos) << out;

    // Malformed request line.
    out = raw_exchange(fx.port(), "NONSENSE\r\n\r\n");
    EXPECT_NE(out.find("HTTP/1.1 400"), std::string::npos) << out;

    // Unsupported HTTP version.
    out = raw_exchange(fx.port(), "GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n");
    EXPECT_NE(out.find("HTTP/1.1 505"), std::string::npos) << out;

    // Oversized head: stream headers past the cap.
    out = raw_exchange(fx.port(), "GET /healthz HTTP/1.1\r\nX-Pad: " +
                                      std::string(2048, 'x') + "\r\n\r\n");
    EXPECT_NE(out.find("HTTP/1.1 431"), std::string::npos) << out;

    // Declared body beyond the cap is refused before it is read.
    out = raw_exchange(fx.port(),
                       "POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 9999\r\n"
                       "Connection: close\r\n\r\n");
    EXPECT_NE(out.find("HTTP/1.1 413"), std::string::npos) << out;

    // Chunked request bodies are not implemented — refused, not guessed.
    out = raw_exchange(fx.port(),
                       "POST /v1/sweep HTTP/1.1\r\nHost: x\r\n"
                       "Transfer-Encoding: chunked\r\n\r\n");
    EXPECT_NE(out.find("HTTP/1.1 501"), std::string::npos) << out;

    // An empty sweep body is a client error, not a hung stream.
    out = raw_exchange(fx.port(),
                       "POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n"
                       "Connection: close\r\n\r\n");
    EXPECT_NE(out.find("HTTP/1.1 400"), std::string::npos) << out;
}

TEST(ServeHttp, BearerAuthGatesSweepAndMetricsButNotHealthz) {
    HttpOptions options;
    options.auth_token = "open-sesame";
    HttpFixture fx(options);

    HttpClientResponse response;
    std::string error;
    // No token: 401 with the challenge header.
    ASSERT_TRUE(
        http_request("127.0.0.1", fx.port(), "GET", "/metrics", "", "", response, &error))
        << error;
    EXPECT_EQ(response.status, 401);
    EXPECT_EQ(response.headers["www-authenticate"], "Bearer");

    // Wrong token: still 401.
    ASSERT_TRUE(http_request("127.0.0.1", fx.port(), "POST", "/v1/sweep",
                             tiny_sweep_line("x") + "\n", "open-sesamE", response, &error))
        << error;
    EXPECT_EQ(response.status, 401);

    // Right token: served.
    ASSERT_TRUE(http_request("127.0.0.1", fx.port(), "GET", "/metrics", "", "open-sesame",
                             response, &error))
        << error;
    EXPECT_EQ(response.status, 200);

    // Liveness stays open — probes must work mid-incident.
    ASSERT_TRUE(
        http_request("127.0.0.1", fx.port(), "GET", "/healthz", "", "", response, &error))
        << error;
    EXPECT_EQ(response.status, 200);
}

TEST(ServeHttp, QuotaShedsWith429AndRetryAfterWithoutDisturbingServedSweeps) {
    HttpOptions options;
    options.quota_rps = 0.001;  // refill is ~forever at test timescale
    options.quota_burst = 1.0;
    HttpFixture fx(options);

    const std::string expected_id = "\"id\": \"q1\"";
    HttpClientResponse first;
    std::string error;
    ASSERT_TRUE(http_request("127.0.0.1", fx.port(), "POST", "/v1/sweep",
                             tiny_sweep_line("q1") + "\n", "", first, &error))
        << error;
    EXPECT_EQ(first.status, 200);
    EXPECT_NE(first.body.find(expected_id), std::string::npos);
    EXPECT_NE(first.body.find("\"ok\": true"), std::string::npos)
        << "the admitted sweep must stream to completion";

    // The bucket is spent: the next sweep is shed before touching the
    // service queue, with a Retry-After hint.
    HttpClientResponse second;
    ASSERT_TRUE(http_request("127.0.0.1", fx.port(), "POST", "/v1/sweep",
                             tiny_sweep_line("q2") + "\n", "", second, &error))
        << error;
    EXPECT_EQ(second.status, 429);
    EXPECT_FALSE(second.headers["retry-after"].empty());
    EXPECT_EQ(second.body.find("\"event\""), std::string::npos)
        << "a shed request must not produce protocol events";

    // Quota never gates observability.
    HttpClientResponse metrics;
    ASSERT_TRUE(
        http_request("127.0.0.1", fx.port(), "GET", "/metrics", "", "", metrics, &error))
        << error;
    EXPECT_EQ(metrics.status, 200);
}

TEST(ServeHttp, AccessLogRecordsStatusAndOutcome) {
    const std::string path = testing::TempDir() + "/sdlc_http_access_log.jsonl";
    ::unlink(path.c_str());
    {
        HttpOptions options;
        options.auth_token = "tok";
        std::string error;
        options.access_log = obs::AccessLog::open(path, &error);
        ASSERT_NE(options.access_log, nullptr) << error;
        HttpFixture fx(options);

        HttpClientResponse response;
        ASSERT_TRUE(http_request("127.0.0.1", fx.port(), "GET", "/metrics", "", "",
                                 response, &error))
            << error;
        EXPECT_EQ(response.status, 401);
        ASSERT_TRUE(http_request("127.0.0.1", fx.port(), "GET", "/healthz", "", "",
                                 response, &error))
            << error;
    }
    std::ifstream in(path);
    std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("\"outcome\": \"unauthorized\""), std::string::npos) << all;
    EXPECT_NE(all.find("\"status\": 401"), std::string::npos) << all;
    EXPECT_NE(all.find("\"path\": \"/healthz\""), std::string::npos) << all;
    ::unlink(path.c_str());
}

}  // namespace
}  // namespace sdlc::serve
