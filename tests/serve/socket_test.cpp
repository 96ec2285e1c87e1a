// serve_unix_socket robustness: a client that hangs up in the middle of
// a response must not take the daemon down (a plain write to a closed
// socket raises SIGPIPE, whose default action ends the process), and
// the next client must still get the full, byte-identical response.
#include "photecc/serve/socket.hpp"

#include <gtest/gtest.h>

#ifdef __unix__

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "photecc/serve/protocol.hpp"
#include "photecc/serve/service.hpp"
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

}  // namespace

#endif  // __unix__
