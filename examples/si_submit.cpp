// si_submit: command-line client for the si_served daemon.
//
//   si_submit --port=N [--host-stats] [--analysis=A] [--timeout-ms=X]
//             [--mc-trials=N] [--mc-sigma=X] [--mc-measure=v(node)]
//             [--id=NAME] [--telemetry] [--no-cache] deck1.sp [deck2.sp ...]
//
// Reads each deck file, wraps it in a protocol request, sends all of
// them over one connection, and prints one reply line per deck.  Exits
// nonzero when any reply has a status other than "ok" (so CI can gate
// on it), or when the transport itself fails.
//   --host-stats additionally sends {"cmd":"stats"} after the jobs and
// prints the daemon's counters.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/env.hpp"
#include "serve/json.hpp"

namespace {

int die(const std::string& msg) {
  std::fprintf(stderr, "si_submit: %s\n", msg.c_str());
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool flag_value(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

/// A strict integer flag value; a malformed one exits 2 with its message.
long int_flag(const char* name, const std::string& v, long min = LONG_MIN,
              long max = LONG_MAX) {
  try {
    return si::runtime::parse_long(name, v.c_str(), min, max);
  } catch (const std::invalid_argument& e) {
    std::exit(die(e.what()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  long port = 0;
  std::optional<long> mc_trials;
  std::string analysis, id_prefix = "job", timeout_ms, mc_sigma, mc_measure;
  bool want_stats = false, want_telemetry = false, no_cache = false;
  std::vector<std::string> decks;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string v;
    if (flag_value(a, "--port", v)) {
      port = int_flag("--port", v, 1, 65535);
    } else if (flag_value(a, "--analysis", v)) {
      analysis = v;
    } else if (flag_value(a, "--timeout-ms", v)) {
      timeout_ms = v;
    } else if (flag_value(a, "--mc-trials", v)) {
      mc_trials = int_flag("--mc-trials", v);
    } else if (flag_value(a, "--mc-sigma", v)) {
      mc_sigma = v;
    } else if (flag_value(a, "--mc-measure", v)) {
      mc_measure = v;
    } else if (flag_value(a, "--id", v)) {
      id_prefix = v;
    } else if (std::strcmp(a, "--host-stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(a, "--telemetry") == 0) {
      want_telemetry = true;
    } else if (std::strcmp(a, "--no-cache") == 0) {
      no_cache = true;
    } else if (a[0] == '-') {
      return die(std::string("unknown flag '") + a + "'");
    } else {
      decks.emplace_back(a);
    }
  }
  if (port <= 0 || port > 65535) return die("--port=N is required");
  if (decks.empty() && !want_stats) return die("no decks given");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return die("connect to 127.0.0.1:" + std::to_string(port) + " failed");
  }

  // Build and send every request, then read the same number of replies.
  std::size_t expected = 0;
  std::string outbuf;
  for (std::size_t k = 0; k < decks.size(); ++k) {
    std::string deck;
    if (!read_file(decks[k], deck)) {
      ::close(fd);
      return die("cannot read deck '" + decks[k] + "'");
    }
    si::serve::Json req = si::serve::Json::object();
    req.set("id", id_prefix + "-" + std::to_string(k));
    req.set("deck", deck);
    if (!analysis.empty()) req.set("analysis", analysis);
    if (!timeout_ms.empty())
      req.set("timeout_ms", std::strtod(timeout_ms.c_str(), nullptr));
    if (mc_trials) req.set("mc_trials", static_cast<double>(*mc_trials));
    if (!mc_sigma.empty())
      req.set("mc_sigma", std::strtod(mc_sigma.c_str(), nullptr));
    if (!mc_measure.empty()) req.set("mc_measure", mc_measure);
    if (want_telemetry) req.set("want_telemetry", true);
    if (no_cache) req.set("no_cache", true);
    outbuf += req.dump();
    outbuf.push_back('\n');
    ++expected;
  }
  int rc = 0;
  std::string inbuf;

  auto send_all = [&](const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  };

  auto read_replies = [&](std::size_t count) {
    char chunk[4096];
    std::size_t got = 0;
    while (got < count) {
      std::size_t start = 0;
      for (std::size_t nl = inbuf.find('\n', start);
           nl != std::string::npos && got < count;
           nl = inbuf.find('\n', start)) {
        const std::string line = inbuf.substr(start, nl - start);
        start = nl + 1;
        ++got;
        std::printf("%s\n", line.c_str());
        try {
          const auto reply = si::serve::Json::parse(line);
          if (!reply.is_object()) {
            rc = 1;
          } else {
            // Stats replies have no "status" member and never fail the run.
            const si::serve::Json* status = reply.find("status");
            if (status && status->is_string() && status->as_string() != "ok")
              rc = 1;
          }
        } catch (const si::serve::JsonError&) {
          rc = 1;  // a daemon reply that is not JSON is itself a failure
        }
      }
      inbuf.erase(0, start);
      if (got >= count) break;
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      inbuf.append(chunk, static_cast<std::size_t>(n));
    }
    return true;
  };

  if (!send_all(outbuf)) {
    ::close(fd);
    return die("send failed");
  }
  if (!read_replies(expected)) {
    ::close(fd);
    return die("connection closed with replies outstanding");
  }
  // The stats query goes out only after every job reply is in, so the
  // counters reflect the finished batch, not the queue.
  if (want_stats) {
    if (!send_all("{\"cmd\":\"stats\"}\n") || !read_replies(1)) {
      ::close(fd);
      return die("stats query failed");
    }
  }
  ::close(fd);
  return rc;
}
