// serve_unix_socket robustness: a client that hangs up in the middle of
// a response must not take the daemon down (a plain write to a closed
// socket raises SIGPIPE, whose default action ends the process), and
// the next client must still get the full, byte-identical response.
// Once a write to that client has failed, the daemon stops reading its
// connection, so the requests it had queued are not computed.
#include "photecc/serve/socket.hpp"

#include <gtest/gtest.h>

#ifdef __unix__

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "photecc/ecc/registry.hpp"
#include "photecc/serve/protocol.hpp"
#include "photecc/serve/service.hpp"
#include "photecc/spec/builder.hpp"
#include "photecc/spec/registries.hpp"

namespace {

namespace serve = photecc::serve;

/// Connects to `path`, retrying while the server thread starts up.
int connect_to(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return -1;
}

/// Sends all of `data`; false once the connection is gone.
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until `limit` bytes arrived or the server closed (limit 0 =
/// until the server closes).
std::string receive(int fd, std::size_t limit) {
  std::string data;
  char buf[4096];
  while (limit == 0 || data.size() < limit) {
    const std::size_t want =
        limit == 0 ? sizeof(buf) : std::min(sizeof(buf), limit - data.size());
    const ssize_t n = ::read(fd, buf, want);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    data.append(buf, static_cast<std::size_t>(n));
  }
  return data;
}

TEST(ServeSocket, ClientHangingUpMidResponseDoesNotEndTheDaemon) {
  const serve::ServiceOptions options{.threads = 1};
  const std::string request = serve::sweep_request_line(
      photecc::spec::preset_registry().make("fig6b", "preset"));
  std::string expected;
  {
    serve::Service reference(options);
    std::ostringstream out;
    reference.handle_line(request, out);
    expected = out.str();
  }
  ASSERT_GT(expected.size(), 100u);

  const std::string path = ::testing::TempDir() + "photecc_socket_" +
                           std::to_string(::getpid()) + ".sock";
  serve::Service service(options);
  bool served = false;
  std::string error;
  std::thread server([&] {
    served = serve::serve_unix_socket(
        service, {.path = path, .max_connections = 2}, error);
  });

  // Client 1 pipelines far more responses than the socket buffers hold,
  // so the daemon is still writing when the client reads ~100 bytes and
  // hangs up.  The requests go out on their own thread: the daemon stops
  // reading them while it waits to write.
  const int first = connect_to(path);
  ASSERT_GE(first, 0) << "cannot connect to " << path;
  std::string burst;
  for (int i = 0; i < 1024; ++i) burst += request + "\n";
  std::thread sender([&] { (void)send_all(first, burst); });
  const std::string head = receive(first, 100);
  EXPECT_EQ(head, expected.substr(0, head.size()));
  ::shutdown(first, SHUT_RDWR);  // wakes the sender with EPIPE
  sender.join();
  ::close(first);

  // Client 2 gets the whole response, byte for byte.
  const int second = connect_to(path);
  ASSERT_GE(second, 0) << "cannot connect to " << path;
  ASSERT_TRUE(send_all(second, request + "\n"));
  ::shutdown(second, SHUT_WR);
  EXPECT_EQ(receive(second, 0), expected);
  ::close(second);

  server.join();
  EXPECT_TRUE(served) << error;
  EXPECT_EQ(error, "");
}

/// The unsigned integer after `"key":` in a stats record (0 if absent).
std::uint64_t stat_field(const std::string& record, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = record.find(needle);
  if (at == std::string::npos) return 0;
  return std::stoull(record.substr(at + needle.size()));
}

// Once a write to a hung-up client has failed, the daemon stops reading
// that connection: the requests it had pipelined are neither computed
// nor cached, and the next client is served at once.
TEST(ServeSocket, HungUpClientsQueuedRequestsAreNotComputed) {
  const serve::ServiceOptions options{.threads = 1};
  // A 600-cell sweep (every registry code x 6 BER targets x 5 links):
  // about 266 KB per response, more than one socket buffer, so a write
  // to the hung-up client must fail.
  std::vector<std::string> codes;
  for (const auto& code : photecc::ecc::all_known_codes())
    codes.push_back(code->name());
  const photecc::spec::ExperimentSpec wide =
      photecc::spec::SpecBuilder()
          .codes(std::move(codes))
          .ber_targets({1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11})
          .links({"2 cm", "4 cm", "6 cm", "10 cm", "14 cm"})
          .build();
  const std::string request = serve::sweep_request_line(wide);
  std::string expected;
  {
    serve::Service reference(options);
    std::ostringstream out;
    reference.handle_line(request, out);
    expected = out.str();
  }

  const std::string path = ::testing::TempDir() + "photecc_socket_tail_" +
                           std::to_string(::getpid()) + ".sock";
  serve::Service service(options);
  bool served = false;
  std::string error;
  std::thread server([&] {
    served = serve::serve_unix_socket(
        service, {.path = path, .max_connections = 2}, error);
  });

  // Client 1 pipelines distinct specs (renamed copies, each a
  // cache miss of about the same size), so every request the daemon
  // reads is computed and counted.
  constexpr std::size_t kPipelined = 16;
  const int first = connect_to(path);
  ASSERT_GE(first, 0) << "cannot connect to " << path;
  int sndbuf = 0;
  socklen_t len = sizeof(sndbuf);
  ASSERT_EQ(::getsockopt(first, SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);
  std::string burst;
  for (std::size_t i = 0; i < kPipelined; ++i) {
    photecc::spec::ExperimentSpec variant = wide;
    variant.name = "burst-" + std::to_string(i);
    burst += serve::sweep_request_line(variant) + "\n";
  }
  std::thread sender([&] { (void)send_all(first, burst); });
  const std::string head = receive(first, 100);
  EXPECT_EQ(head.size(), 100u);
  ::shutdown(first, SHUT_RDWR);
  sender.join();
  ::close(first);

  // Client 2 still gets the whole response, then the stats record.
  const int second = connect_to(path);
  ASSERT_GE(second, 0) << "cannot connect to " << path;
  ASSERT_TRUE(send_all(second, request + "\n" +
                                   serve::request_line("stats") + "\n"));
  ::shutdown(second, SHUT_WR);
  const std::string reply = receive(second, 0);
  ::close(second);
  server.join();
  EXPECT_TRUE(served) << error;

  ASSERT_GE(reply.size(), expected.size());
  EXPECT_EQ(reply.substr(0, expected.size()), expected);
  const std::string stats = reply.substr(expected.size());
  ASSERT_NE(stats.find("\"kind\":\"stats\""), std::string::npos) << stats;
  // Client 2 made two requests (its sweep, a miss, and the stats).
  const std::uint64_t requests = stat_field(stats, "requests");
  const std::uint64_t misses = stat_field(stats, "cache_misses");
  ASSERT_GE(requests, 3u) << stats;
  ASSERT_GE(misses, 2u) << stats;
  const std::uint64_t first_requests = requests - 2;
  const std::uint64_t first_computed = misses - 1;
  // Before the hang-up the daemon can have written at most the 100
  // bytes read plus one socket buffer, so only the responses that fit
  // there, and the one whose write failed, may have been computed.
  const std::uint64_t bound =
      static_cast<std::uint64_t>(sndbuf) / expected.size() + 2;
  ASSERT_LT(bound, kPipelined) << "socket buffer too large to tell";
  EXPECT_GE(first_computed, 1u);
  EXPECT_LE(first_computed, bound) << stats;
  EXPECT_EQ(first_requests, first_computed) << stats;
}

}  // namespace

#endif  // __unix__
