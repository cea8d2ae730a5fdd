#include "serve/net_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace si::serve {

namespace {

[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

NetServer::NetServer(JobServer& jobs, Options opt) : jobs_(jobs), opt_(opt) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opt_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    sys_fail("bind");
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    sys_fail("listen");
  }

  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    sys_fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (errno == EINTR) continue;
      return;  // listener closed under us
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    conns_.push_back(conn);
    threads_.emplace_back([this, conn] { serve_connection(conn); });
  }
}

void NetServer::send_line(const std::shared_ptr<Connection>& conn,
                          const std::string& reply) {
  // One lock per reply keeps lines atomic when several workers finish
  // jobs for the same connection concurrently.
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (!conn->open.load(std::memory_order_relaxed)) return;
  std::string line = reply;
  line.push_back('\n');
  std::size_t off = 0;
  while (off < line.size()) {
    // MSG_NOSIGNAL: a client that hung up must cost us an EPIPE, not a
    // process-fatal SIGPIPE.
    const ssize_t n = ::send(conn->fd, line.data() + off, line.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      conn->open.store(false, std::memory_order_relaxed);
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

void NetServer::serve_connection(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[4096];
  while (!stopping_.load(std::memory_order_relaxed)) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // peer closed / error / shutdown()
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > opt_.max_line_bytes) break;  // unbounded line

    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;

      // Control commands are answered inline; everything else is a job.
      bool handled = false;
      try {
        const Json j = Json::parse(line);
        if (j.is_object()) {
          if (const Json* cmd = j.find("cmd")) {
            handled = true;
            if (cmd->is_string() && cmd->as_string() == "stats") {
              send_line(conn, jobs_.stats_json());
            } else if (cmd->is_string() && cmd->as_string() == "cancel") {
              const Json* id = j.find("id");
              Json out = Json::object();
              out.set("cancelled",
                      id && id->is_string() && jobs_.cancel(id->as_string()));
              send_line(conn, out.dump());
            } else {
              Json out = Json::object();
              out.set("error", "unknown cmd");
              send_line(conn, out.dump());
            }
          }
        }
      } catch (const JsonError&) {
        // Not even JSON: let the JobServer produce its structured
        // bad_json reply below.
      }
      if (!handled) {
        // The callback may fire from a worker thread after this loop
        // moved on — it captures the shared connection state, so a
        // reply racing a disconnect is dropped, never written to a
        // dangling fd.
        jobs_.submit(line, [conn](const std::string& reply) {
          send_line(conn, reply);
        });
      }
    }
    buffer.erase(0, start);
  }
  conn->open.store(false, std::memory_order_relaxed);
  {
    // Wait for any in-flight send_line to clear the fd before close.
    std::lock_guard<std::mutex> lock(conn->write_mu);
    ::close(conn->fd);
    conn->fd = -1;
  }
}

void NetServer::stop() {
  if (stopping_.exchange(true)) return;
  // shutdown() wakes the blocked accept() and fails every later one, so
  // the accept thread exits.  Only once it is joined may the fd be
  // closed and reset: closing first lets an EINTR retry accept() on a
  // recycled fd number, and writing listen_fd_ while accept_loop reads
  // it is a data race.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
    threads.swap(threads_);
  }
  for (auto& c : conns) {
    // Nudge blocked recv()s; the connection threads close their fds.
    // write_mu orders this against a concurrent close in the
    // connection thread.
    std::lock_guard<std::mutex> lock(c->write_mu);
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
  }
  for (auto& t : threads)
    if (t.joinable()) t.join();
}

}  // namespace si::serve
