// si_served: the simulation-as-a-service daemon.
//
// Listens on 127.0.0.1 and serves the newline-delimited JSON job
// protocol (see src/serve/protocol.hpp): each request line carries a
// SPICE deck plus analysis options, each reply line a structured result
// or error.  Drive it with examples/si_submit, or anything that can
// write a line of JSON to a socket.
//
//   si_served [--port=N] [--workers=N] [--queue=N] [--timeout-ms=X]
//             [--cache=N] [--no-obs] [--jobs=N]
//
//   --port=0 (the default) binds an ephemeral port; the chosen port is
//   printed as "listening on 127.0.0.1:<port>" so scripts can scrape it.
//   --jobs=N exits after N replies (CI smoke runs); the default serves
//   until SIGINT/SIGTERM, then drains in-flight jobs and exits 0.

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/telemetry.hpp"
#include "runtime/env.hpp"
#include "serve/job_server.hpp"
#include "serve/net_server.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

bool parse_flag(const char* arg, const char* name, long& out,
                long min = LONG_MIN, long max = LONG_MAX) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  try {
    out = si::runtime::parse_long(name, arg + n + 1, min, max);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "si_served: %s\n", e.what());
    std::exit(2);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  long port = 0, workers = 4, queue = 64, timeout_ms = 0, cache = 128;
  long jobs_limit = -1;
  bool obs_on = true;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (parse_flag(a, "--port", port, 0, 65535) ||
        parse_flag(a, "--workers", workers) ||
        parse_flag(a, "--queue", queue) ||
        parse_flag(a, "--timeout-ms", timeout_ms) ||
        parse_flag(a, "--cache", cache) || parse_flag(a, "--jobs", jobs_limit))
      continue;
    if (std::strcmp(a, "--no-obs") == 0) {
      obs_on = false;
      continue;
    }
    std::fprintf(stderr, "si_served: unknown flag '%s'\n", a);
    return 2;
  }

  // Telemetry on by default: a daemon without serve.* counters is blind.
  si::obs::set_enabled(obs_on);

  si::serve::JobServer::Options jopt;
  jopt.workers = static_cast<std::size_t>(workers > 0 ? workers : 1);
  jopt.queue_capacity = static_cast<std::size_t>(queue > 0 ? queue : 1);
  jopt.default_timeout_ms = static_cast<double>(timeout_ms);
  jopt.cache_capacity = static_cast<std::size_t>(cache > 0 ? cache : 1);
  si::serve::JobServer jobs(jopt);

  si::serve::NetServer::Options nopt;
  nopt.port = static_cast<std::uint16_t>(port);
  si::serve::NetServer net(jobs, nopt);

  std::printf("listening on 127.0.0.1:%u\n", net.port());
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  while (!g_stop.load()) {
    if (jobs_limit >= 0) {
      const auto s = jobs.stats();
      const std::uint64_t replied = s.completed + s.failed + s.cancelled +
                                    s.timed_out + s.rejected;
      if (replied >= static_cast<std::uint64_t>(jobs_limit)) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  net.stop();
  jobs.shutdown(/*drain=*/true);
  std::fprintf(stderr, "si_served: drained, final stats: %s\n",
               jobs.stats_json().c_str());
  return 0;
}
