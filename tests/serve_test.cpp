// End-to-end tests for the mighty-serve stack: Server + RemoteService
// against a real api::LocalService (and therefore a real NPN database, so
// this suite runs behind the `npndb` fixture).
//
// The headline property is the ISSUE's acceptance criterion: a cold client
// talking to a warm daemon receives a bit-identical optimized BLIF to an
// in-process run, and a second identical submission is served entirely from
// the shared oracle cache — zero new SAT syntheses.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace mighty::serve {
namespace {

using api::ErrorCode;

std::string unique_socket_path(const char* tag) {
  return ::testing::TempDir() + "mighty_" + tag + "_" + std::to_string(::getpid()) +
         ".sock";
}

api::JobRequest oracle_request() {
  api::JobRequest request;
  request.name = "adder";
  request.script = "TF5; size";  // 5-cut extension: exercises SAT synthesis
  std::ostringstream blif;
  io::write_blif(blif, gen::make_adder_n(16));
  request.network_blif = blif.str();
  return request;
}

/// A raw client speaking bytes, for the protocol edge cases RemoteService
/// can never produce (wrong version, unknown tags, garbage payloads).
class RawClient {
 public:
  explicit RawClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      ADD_FAILURE() << "connect failed";
    }
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(const std::vector<uint8_t>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  void send_frame(Tag tag, const std::vector<uint8_t>& payload) {
    send_bytes(encode_frame(tag, payload));
  }

  /// Blocks for the next whole frame; fails the test on EOF.
  Frame recv_frame() {
    uint8_t buffer[4096];
    for (;;) {
      if (auto frame = decoder_.next()) return *frame;
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while expecting a frame";
        return {};
      }
      decoder_.feed(buffer, static_cast<size_t>(n));
    }
  }

  /// True when the server hangs up (EOF) with no further frames.
  bool at_eof() {
    if (decoder_.next()) return false;
    uint8_t byte = 0;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

  void hello() {
    send_frame(Tag::hello, encode_hello(kProtocolVersion));
    const Frame reply = recv_frame();
    ASSERT_EQ(reply.tag, static_cast<uint8_t>(Tag::hello_ok));
  }

  ErrorCode recv_error() {
    const Frame reply = recv_frame();
    EXPECT_EQ(reply.tag, static_cast<uint8_t>(Tag::error));
    return decode_error(reply.payload).code();
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

/// One daemon-in-a-test: service + server on a unique socket.
struct TestDaemon {
  explicit TestDaemon(const char* tag) {
    ServerParams server_params;
    server_params.socket_path = unique_socket_path(tag);
    server.emplace(service, server_params);
  }
  ~TestDaemon() {
    service.shutdown();  // first: wakes connections blocked in result()
    server->stop();      // then: unblocks recv/accept and joins
  }
  const std::string& socket() const { return server->socket_path(); }

  api::LocalService service;
  std::optional<Server> server;
};

TEST(ServeTest, RemoteMatchesInProcessBitForBit) {
  const api::JobRequest request = oracle_request();

  // In-process reference run on a cold service.
  api::LocalService local;
  const api::JobResult expected = local.result(local.submit(request));
  ASSERT_EQ(expected.code, ErrorCode::ok) << expected.message;
  ASSERT_FALSE(expected.network_blif.empty());

  // The same request through a cold daemon over the wire.
  TestDaemon daemon("e2e");
  RemoteService client(daemon.socket());
  const api::JobResult remote = client.result(client.submit(request));
  ASSERT_EQ(remote.code, ErrorCode::ok) << remote.message;

  EXPECT_EQ(remote.network_blif, expected.network_blif);
  EXPECT_EQ(remote.report.size_after, expected.report.size_after);
  EXPECT_EQ(remote.report.depth_after, expected.report.depth_after);

  // Second identical submission: the warm oracle answers every 5-input cut
  // from cache — zero new SAT syntheses, bit-identical artifact again.
  const auto synthesized_after_first = client.stats().oracle_synthesized;
  const api::JobResult again = client.result(client.submit(request));
  ASSERT_EQ(again.code, ErrorCode::ok);
  EXPECT_EQ(again.network_blif, expected.network_blif);
  EXPECT_EQ(client.stats().oracle_synthesized, synthesized_after_first);
  EXPECT_GT(again.report.oracle_queries, 0u);
}

TEST(ServeTest, StatusCancelAndErrorsOverTheWire) {
  TestDaemon daemon("errors");
  RemoteService client(daemon.socket());

  // A completed job: status done, cancel-after-complete returns false.
  api::JobRequest request;
  request.script = "size";
  std::ostringstream blif;
  io::write_blif(blif, gen::make_adder_n(8));
  request.network_blif = blif.str();
  const api::JobId id = client.submit(request);
  api::JobState state = client.status(id).state;
  while (!api::is_terminal(state)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    state = client.status(id).state;
  }
  EXPECT_EQ(state, api::JobState::done);
  EXPECT_FALSE(client.cancel(id));
  ASSERT_EQ(client.result(id).code, ErrorCode::ok);

  // RESULT handed the job over: every later call for its id is an error.
  const auto expect_not_found = [](auto&& call) {
    try {
      call();
      FAIL() << "collected job still answers";
    } catch (const api::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::job_not_found);
    }
  };
  expect_not_found([&] { client.status(id); });
  expect_not_found([&] { client.result(id); });
  expect_not_found([&] { client.cancel(id); });

  // Server-side exceptions arrive as coded errors, connection intact.
  try {
    client.result(999);
    FAIL() << "unknown job accepted";
  } catch (const api::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::job_not_found);
  }
  try {
    request.script = "not a script";
    client.submit(request);
    FAIL() << "bogus script accepted";
  } catch (const api::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_script);
  }
  try {
    request.script = "map7";  // wider than a cut holds
    client.submit(request);
    FAIL() << "out-of-range LUT size accepted";
  } catch (const api::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_script);
  }
  // The connection survived every error.
  EXPECT_EQ(client.stats().completed, 1u);

  // Cache management is the daemon's own business.
  try {
    client.cache_load("/tmp/nope");
    FAIL() << "remote cache_load accepted";
  } catch (const api::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::unsupported);
  }
}

TEST(ServeTest, HelloDiscipline) {
  TestDaemon daemon("hello");

  {  // First frame not HELLO: invalid_request, then hang up.
    RawClient raw(daemon.socket());
    raw.send_frame(Tag::stats, {});
    EXPECT_EQ(raw.recv_error(), ErrorCode::invalid_request);
    EXPECT_TRUE(raw.at_eof());
  }
  {  // Wrong version: version_mismatch, then hang up.
    RawClient raw(daemon.socket());
    raw.send_frame(Tag::hello, encode_hello(kProtocolVersion + 7));
    EXPECT_EQ(raw.recv_error(), ErrorCode::version_mismatch);
    EXPECT_TRUE(raw.at_eof());
  }
  {  // Malformed HELLO payload: malformed_frame, then hang up.
    RawClient raw(daemon.socket());
    raw.send_frame(Tag::hello, {1, 2});
    EXPECT_EQ(raw.recv_error(), ErrorCode::malformed_frame);
    EXPECT_TRUE(raw.at_eof());
  }
}

TEST(ServeTest, ProtocolEdgeCasesKeepOrCloseTheConnectionCorrectly) {
  TestDaemon daemon("edges");

  {  // Unknown tag after HELLO: survivable — the connection stays up.
    RawClient raw(daemon.socket());
    raw.hello();
    raw.send_frame(static_cast<Tag>(0x42), {});
    EXPECT_EQ(raw.recv_error(), ErrorCode::unknown_message);
    raw.send_frame(Tag::stats, {});
    EXPECT_EQ(raw.recv_frame().tag, static_cast<uint8_t>(Tag::stats_ok));
  }
  {  // Garbage payload for a known tag: malformed_frame, connection stays up.
    RawClient raw(daemon.socket());
    raw.hello();
    raw.send_frame(Tag::submit, {1, 2, 3});
    EXPECT_EQ(raw.recv_error(), ErrorCode::malformed_frame);
    raw.send_frame(Tag::stats, {});
    EXPECT_EQ(raw.recv_frame().tag, static_cast<uint8_t>(Tag::stats_ok));
  }
  {  // Oversized declared length: the stream is poisoned — error, hang up.
    RawClient raw(daemon.socket());
    raw.hello();
    raw.send_bytes({0x02, 0xFF, 0xFF, 0xFF, 0xFF});
    EXPECT_EQ(raw.recv_error(), ErrorCode::oversized_frame);
    EXPECT_TRUE(raw.at_eof());
  }
}

TEST(ServeTest, ShutdownFrameIsSingleUse) {
  // Written by the server's connection thread, read by the test thread.
  std::atomic<bool> requested{false};
  api::LocalService service;
  ServerParams params;
  params.socket_path = unique_socket_path("shutdown");
  params.on_shutdown_request = [&requested] { requested = true; };
  Server server(service, params);

  RawClient first(server.socket_path());
  first.hello();
  RawClient second(server.socket_path());
  second.hello();

  first.send_frame(Tag::shutdown, {});
  EXPECT_EQ(first.recv_frame().tag, static_cast<uint8_t>(Tag::shutdown_ok));
  EXPECT_TRUE(first.at_eof());
  EXPECT_TRUE(requested.load());

  // The second SHUTDOWN — and any other request — is refused.
  second.send_frame(Tag::shutdown, {});
  EXPECT_EQ(second.recv_error(), ErrorCode::shutting_down);
  EXPECT_TRUE(second.at_eof());

  service.shutdown();
  server.stop();
  EXPECT_NO_THROW(server.stop());  // idempotent
}

TEST(ServeTest, ConnectionToDeadSocketFails) {
  try {
    RemoteService client(unique_socket_path("nobody-home"));
    FAIL() << "connected to nothing";
  } catch (const api::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::io_error);
  }
}

// The Session::persist fix, end to end: after a job dirtied the 5-input
// cache, every shutdown path funnels into one idempotent save — the first
// persist writes, the second is a no-op (and so is the destructor's).
TEST(ServeTest, SessionPersistIsIdempotent) {
  const std::string cache_path =
      ::testing::TempDir() + "persist_" + std::to_string(::getpid()) + ".db";
  std::remove(cache_path.c_str());
  {
    api::LocalService::Params params;
    params.session.oracle_cache_path = cache_path;
    api::LocalService service(params);
    const api::JobResult result =
        service.result(service.submit(oracle_request()));
    ASSERT_EQ(result.code, ErrorCode::ok) << result.message;
    ASSERT_GT(service.stats().oracle_synthesized, 0u)
        << "script never touched the 5-input path; the test is vacuous";

    const size_t written = service.session().persist();
    EXPECT_GT(written, 0u);
    EXPECT_EQ(service.session().persist(), 0u) << "second persist must no-op";
    // shutdown() persists again through the same choke point: still a no-op,
    // and the file survives untouched.
    service.shutdown();
    EXPECT_EQ(service.cache_stats().dirty, 0u);
  }
  // Destructor ran (one more persist). The file must exist and load warm.
  api::LocalService::Params params;
  params.session.oracle_cache_path = cache_path;
  api::LocalService warm(params);
  const auto info = warm.cache_load(cache_path);
  EXPECT_EQ(info.status, "loaded");
  EXPECT_GT(info.entries, 0u);
  std::remove(cache_path.c_str());
}

}  // namespace
}  // namespace mighty::serve
