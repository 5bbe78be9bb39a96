// serve::StreamReader over a socketpair(): the one buffered reader every
// transport (line servers, stdio, client, HTTP door, HTTP client, cluster
// coordinator) reads through. Pins the framing contract — partial fills,
// EOF and error handling, the line and read-to-EOF caps, CR handling, HTTP
// heads and the body prefix that arrives with them.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "serve/socket.h"

namespace sdlc::serve {
namespace {

using Fill = StreamReader::Fill;
using Head = StreamReader::Head;

/// A connected socketpair: `peer` writes, `fd` is read.
struct Pair {
    int fd = -1;
    int peer = -1;

    Pair() {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        fd = fds[0];
        peer = fds[1];
    }
    ~Pair() {
        if (fd >= 0) ::close(fd);
        if (peer >= 0) ::close(peer);
    }

    void send(const std::string& bytes) const { ASSERT_TRUE(write_all(peer, bytes)); }
    void end() const { ::shutdown(peer, SHUT_WR); }  // clean EOF for the reader
};

TEST(StreamReader, LineDeliveredByOneByteWrites) {
    Pair pair;
    StreamReader reader(pair.fd);
    const std::string text = "{\"id\": \"r1\"}";
    std::string line;
    for (const char c : text) {
        pair.send(std::string(1, c));
        ASSERT_EQ(reader.fill(), Fill::kData);
        EXPECT_FALSE(reader.take_line(line)) << "no newline yet";
    }
    pair.send("\n");
    ASSERT_EQ(reader.fill(), Fill::kData);
    ASSERT_TRUE(reader.take_line(line));
    EXPECT_EQ(line, text);
    EXPECT_EQ(reader.bytes_read(), text.size() + 1);
    EXPECT_FALSE(reader.take_line(line)) << "the buffer is empty again";
}

TEST(StreamReader, FinalUnterminatedLineIsDeliveredAtCleanEof) {
    Pair pair;
    StreamReader reader(pair.fd);
    pair.send("first\nlast");
    pair.end();
    std::string line;
    ASSERT_TRUE(reader.next_line(line));
    EXPECT_EQ(line, "first");
    ASSERT_TRUE(reader.next_line(line));
    EXPECT_EQ(line, "last");
    EXPECT_FALSE(reader.next_line(line));
    EXPECT_FALSE(reader.overflowed());
}

TEST(StreamReader, OverCapUnterminatedLineSetsOverflowed) {
    Pair pair;
    StreamReader reader(pair.fd);
    // A terminated line is delivered whatever its length: the protocol's
    // too_large check judges complete lines.
    pair.send(std::string(40, 'a') + "\n");
    std::string line;
    ASSERT_TRUE(reader.next_line(line, /*max_line=*/16));
    EXPECT_EQ(line.size(), 40u);
    EXPECT_FALSE(reader.overflowed());

    pair.send(std::string(40, 'x'));  // no newline, ever
    pair.end();
    EXPECT_FALSE(reader.next_line(line, /*max_line=*/16)) << "never delivered, even at EOF";
    EXPECT_TRUE(reader.overflowed());
    EXPECT_FALSE(reader.next_line(line, /*max_line=*/16)) << "an overflowed stream stays ended";
}

TEST(StreamReader, ReadToEofStopsAnEndlessStreamAtItsCap) {
    Pair pair;
    StreamReader reader(pair.fd);
    // A peer that never closes: read_to_eof must give up at the cap
    // instead of growing its buffer without limit.
    std::thread streamer([peer = pair.peer] {
        const std::string chunk(4096, 'x');
        while (write_all(peer, chunk)) {
        }
    });
    EXPECT_EQ(reader.read_to_eof(/*cap=*/1 << 16), "");
    EXPECT_TRUE(reader.overflowed());
    ::close(pair.fd);  // the streamer's next write fails
    pair.fd = -1;
    streamer.join();

    // A body of exactly the cap still arrives whole.
    Pair exact;
    StreamReader exact_reader(exact.fd);
    exact.send(std::string(64, 'y'));
    exact.end();
    EXPECT_EQ(exact_reader.read_to_eof(/*cap=*/64), std::string(64, 'y'));
    EXPECT_FALSE(exact_reader.overflowed());
}

TEST(StreamReader, CrlfRequestLineKeepsTheCarriageReturn) {
    Pair pair;
    StreamReader reader(pair.fd);
    pair.send("{\"id\": \"r\", \"type\": \"stats\"}\r\n");
    std::string line;
    ASSERT_TRUE(reader.next_line(line));
    EXPECT_EQ(line, "{\"id\": \"r\", \"type\": \"stats\"}\r");
}

TEST(StreamReader, HeadAndBodyPrefixInOneReadThenReadExact) {
    Pair pair;
    StreamReader reader(pair.fd);
    const std::string head = "POST /v1/sweep HTTP/1.1\r\nContent-Length: 10\r\n\r\n";
    pair.send(head + "0123");
    ASSERT_EQ(reader.fill(), Fill::kData);  // head and body prefix together
    std::string got;
    ASSERT_EQ(reader.take_head(8192, got), Head::kComplete);
    EXPECT_EQ(got, head);
    std::string body;
    EXPECT_FALSE(reader.take_exact(10, body)) << "only the prefix is buffered";
    pair.send("456789GET");
    pair.end();
    ASSERT_TRUE(reader.read_exact(10, body));
    EXPECT_EQ(body, "0123456789");
    EXPECT_EQ(reader.read_to_eof(), "GET") << "a pipelined next request stays buffered";

    // A bare-LF head is a head too.
    Pair lf;
    StreamReader lf_reader(lf.fd);
    lf.send("GET /healthz HTTP/1.1\nHost: x\n\nrest");
    ASSERT_EQ(lf_reader.read_head(8192, got), Head::kComplete);
    EXPECT_EQ(got, "GET /healthz HTTP/1.1\nHost: x\n\n");
}

TEST(StreamReader, HeadOverTheCapOverflowsCompleteOrNot) {
    Pair pair;
    StreamReader reader(pair.fd);
    const std::string head = "GET / HTTP/1.1\r\nX-Pad: " + std::string(100, 'p') + "\r\n\r\n";
    pair.send(head);
    std::string got;
    // Arriving complete in one read does not exempt a head from the cap.
    EXPECT_EQ(reader.read_head(64, got), Head::kOverflow);

    Pair endless;
    StreamReader endless_reader(endless.fd);
    endless.send("GET / HTTP/1.1\r\nX-Pad: " + std::string(100, 'p'));
    EXPECT_EQ(endless_reader.read_head(64, got), Head::kOverflow);

    Pair cut;
    StreamReader cut_reader(cut.fd);
    cut.send("GET / HTTP/1.1\r\n");
    cut.end();
    EXPECT_EQ(cut_reader.read_head(64, got), Head::kIncomplete) << "EOF mid-head";
}

TEST(StreamReader, ReadErrorYieldsNoPartialLine) {
    Pair pair;
    StreamReader reader(pair.fd);
    pair.send("half a req");
    ASSERT_EQ(reader.fill(), Fill::kData);
    // The connection fd dies under the reader: the next read fails.
    ::close(pair.fd);
    pair.fd = -1;
    std::string line = "untouched";
    EXPECT_FALSE(reader.next_line(line));
    EXPECT_EQ(line, "untouched") << "error-truncated bytes must never become a line";
    EXPECT_FALSE(reader.overflowed());
}

}  // namespace
}  // namespace sdlc::serve
