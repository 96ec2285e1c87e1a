#include "photecc/serve/socket.hpp"

#ifdef __unix__

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>

namespace photecc::serve {

namespace {

/// Minimal bidirectional streambuf over a connected file descriptor —
/// just enough for std::getline in and flushed records out.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }

 protected:
  int_type underflow() override {
    ssize_t n;
    do {
      n = ::read(fd_, in_, sizeof(in_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int_type overflow(int_type ch) override {
    if (!flush_out()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush_out() ? 0 : -1; }

 private:
  bool flush_out() {
    const char* data = pbase();
    std::size_t remaining = static_cast<std::size_t>(pptr() - pbase());
    while (remaining > 0) {
      // MSG_NOSIGNAL: a client that hung up yields EPIPE (this client's
      // stream fails) instead of a SIGPIPE that ends the daemon.
      const ssize_t n = ::send(fd_, data, remaining, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;  // retry interrupted writes
      if (n <= 0) return false;
      data += n;
      remaining -= static_cast<std::size_t>(n);
    }
    setp(out_, out_ + sizeof(out_));
    return true;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

bool serve_unix_socket(Service& service, const SocketOptions& options,
                       std::string& error) {
  error.clear();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.path.empty() ||
      options.path.size() >= sizeof(addr.sun_path)) {
    error = "socket path empty or too long: '" + options.path + "'";
    return false;
  }
  std::strncpy(addr.sun_path, options.path.c_str(),
               sizeof(addr.sun_path) - 1);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    error = errno_message("socket");
    return false;
  }
  ::unlink(options.path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0) {
    error = errno_message("bind/listen on '" + options.path + "'");
    ::close(listener);
    return false;
  }

  bool shutdown_seen = false;
  std::size_t connections = 0;
  while (!shutdown_seen) {
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;  // signal during accept, not an error
      error = errno_message("accept");
      break;
    }
    {
      FdStreamBuf buf(client);
      std::istream in(&buf);
      std::ostream out(&buf);
      shutdown_seen = service.run(in, out);
      out.flush();
    }
    ::close(client);
    ++connections;
    if (options.max_connections && connections >= options.max_connections)
      break;
  }

  ::close(listener);
  ::unlink(options.path.c_str());
  return error.empty();
}

}  // namespace photecc::serve

#else  // !__unix__

namespace photecc::serve {

bool serve_unix_socket(Service&, const SocketOptions&, std::string& error) {
  error = "unix-domain sockets are not available on this platform";
  return false;
}

}  // namespace photecc::serve

#endif  // __unix__
