// serve_mix: many small jobs sent as NDJSON over loopback TCP to an
// in-process NetServer/JobServer with default options.  An open-loop
// phase sends on a seeded schedule at a fixed mean rate and times each
// job from when it was due; a closed-loop phase then keeps up to four
// requests in flight on each of nproc connections.  The mix is op / .tran / 16-trial
// mc requests on the example memory-cell and delay-line decks, with the
// input current varied per request and a quarter of the jobs repeated so
// the result cache gets hits.  Every reply is checked against a direct
// serve::run_job of the same request.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "erc/check.hpp"
#include "runtime/parallel.hpp"
#include "serve/job_server.hpp"
#include "serve/net_server.hpp"
#include "serve/protocol.hpp"
#include "spice/parser.hpp"

namespace pb {
namespace {

using si::serve::JobServer;
using si::serve::NetServer;

// The mix follows bench/bench_serve's stream of small jobs: equal thirds
// of op, `.tran 5n 300n` and 16-trial mc requests, after which that
// harness re-sends its op third to hit the cache, so a quarter of all
// jobs are op repeats.  Every job here is well under a millisecond of
// solving, so queueing, JSON, the cache and the hand-offs between
// threads make up most of a job's latency.
struct JobClass {
  const char* analysis;
  const char* tran;  // .tran card, for tran jobs
  double share;
  bool repeat;  // re-sends a recent job of the "op" class
};

const std::array<JobClass, 4> kClasses = {{
    {"op", "", 0.25, false},
    {"tran", ".tran 5n 300n", 0.25, false},
    {"mc", "", 0.25, false},
    {"op", "", 0.25, true},
}};
constexpr int kMcTrials = 16;
// Most requests a closed-loop connection keeps in flight.  With one, the
// server's workers idle through every reply's round trip and the job
// rate measures thread wake-ups; with several the queue stays non-empty,
// so the rate measures the server's capacity.
constexpr std::size_t kMaxClosedDepth = 4;
constexpr std::size_t kRecent = 4;  // how far back a repeat reaches
constexpr double kMissingMs = 60000.0;  // latency charged to a lost reply
constexpr double kReplyWaitS = 60.0;  // open loop: wait for replies this long
// A job the server's admission control turns away ("rejected", queue
// full) is sent again after a pause, as a client of a 429-style service
// does; its latency still runs from when it was first due.  It fails
// only after this many resubmissions.
constexpr double kResubmitPauseS = 1e-3;
constexpr int kMaxResubmits = 5000;

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// Replaces the first card line that is `card` or starts with `card ` by
// `card rest` (by nothing when `rest` is empty).
std::string replace_card(const std::string& deck, const std::string& card,
                         const std::string& rest) {
  std::istringstream in(deck);
  std::ostringstream out;
  std::string line;
  bool done = false;
  while (std::getline(in, line)) {
    if (!done && (line == card || line.rfind(card + " ", 0) == 0)) {
      line = rest.empty() ? "" : card + " " + rest;
      done = true;
    }
    out << line << "\n";
  }
  if (!done) throw std::runtime_error("deck has no " + card + " card");
  return out.str();
}

// A base deck and the card the request generator varies.
struct BaseDeck {
  std::string text;
  std::string input_card;  // e.g. "Iin 0 d"
  std::string probe;       // node for mc_measure and .probe
  double i_lo = 0.0, i_hi = 0.0;
};

// One request of the schedule.
struct Request {
  std::string id;
  double due_s = 0.0;  // offset from the phase start (open loop)
  Json body;           // without the id
};

// Per-job client-side record.
struct Record {
  double due_s = 0.0;  // when the job was due (open loop), runner clock
  double sent_s = 0.0;
  double recv_s = -1.0;
  double server_ms = 0.0;
  int replies = 0;  // final replies: every status but "rejected"
  int resubmits = 0;
  bool ok = false;
  std::uint64_t result = 0;  // hash of the reply's "result", re-serialized
  std::string error;
};

// Blocking loopback client connection.  send_line and read_line may run
// on different threads; each direction is used by one thread at a time.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() failed");
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_line(const std::string& line) {
    std::string buf = line + "\n";
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::send(fd_, buf.data() + off, buf.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next reply line; false once the connection is closed.
  bool read_line(std::string& line) {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void shutdown() { ::shutdown(fd_, SHUT_RDWR); }

 private:
  int fd_ = -1;
  std::string buf_;
};

// Results are compared by a 64-bit hash of their JSON text, so the
// records of thousands of transient replies stay small.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

// Hashes of the expected "result" payloads by request body, kept across
// the passes of one run: the same seed sends the same requests each pass.
std::map<std::string, std::uint64_t>& expected_cache() {
  static std::map<std::string, std::uint64_t> m;
  return m;
}

class ServeMix : public Workload {
 public:
  explicit ServeMix(const WorkloadConfig& cfg) : cfg_(cfg) {
    open_jobs_ = cfg.smoke ? 24 : 2000;
    open_rate_hz_ = cfg.smoke ? 200.0 : 2000.0;
    closed_jobs_ = cfg.smoke ? 16 : 12000;
    conns_ = std::max(1u, std::thread::hardware_concurrency());
  }

  ~ServeMix() override {
    for (auto& c : clients_) c->shutdown();
    clients_.clear();
    if (net_) net_->stop();
    if (jobs_) jobs_->shutdown(true);
  }

  void setup() override {
    const auto dir = std::filesystem::path(cfg_.repo_root) / "examples" / "decks";
    bases_.clear();
    BaseDeck cell;
    cell.text = read_file(dir / "memory_cell_ok.sp");
    cell.input_card = "Iin 0 d";
    cell.probe = "d";
    cell.i_lo = 4e-6;
    cell.i_hi = 12e-6;
    BaseDeck line;
    line.text = read_file(dir / "table1_delay_line.sp");
    line.input_card = "Iin 0 d1";
    line.probe = "d2";
    line.i_lo = 1e-6;
    line.i_hi = 3e-6;
    bases_ = {cell, line};
    // Validate the inputs the way a client would before submitting.
    for (const BaseDeck& b : bases_) {
      std::unique_ptr<si::spice::Circuit> c;
      {
        ScopedSpan s("spice.parse");
        c = std::make_unique<si::spice::Circuit>(
            si::spice::parse_netlist(strip_directives(b.text)));
      }
      si::erc::DiagnosticSink sink;
      {
        ScopedSpan s("erc.check");
        si::erc::check(*c, sink);
      }
      if (!sink.ok())
        throw std::runtime_error("serve_mix: base deck fails ERC");
    }
    {
      ScopedSpan s("serve.start");
      JobServer::Options opts;
      if (cfg_.serve_queue >= 0) {
        opts.workers = 1;
        opts.queue_capacity = static_cast<std::size_t>(cfg_.serve_queue);
      }
      jobs_ = std::make_unique<JobServer>(opts);
      net_ = std::make_unique<NetServer>(*jobs_, NetServer::Options());
      for (unsigned k = 0; k < conns_; ++k)
        clients_.push_back(std::make_unique<Conn>(net_->port()));
    }
  }

  PassOut run_pass(bool traced) override {
    PassOut out;
    out.resolved.set("serve_workers",
                     static_cast<double>(jobs_->options().workers));
    out.resolved.set("connections", static_cast<double>(conns_));
    out.resolved.set("closed_depth", static_cast<double>(closed_depth()));
    out.resolved.set("threads", static_cast<double>(si::runtime::thread_count()));

    make_schedule();  // bench input generation: outside every timing
    std::vector<Record> open(open_.size()), closed(closed_.size());
    std::vector<double> encode_us, decode_us, late_ms;
    std::size_t depth_max = 0;
    run_open(open, encode_us, decode_us, late_ms,
             traced ? &depth_max : nullptr);
    ScopedSpan cl("serve.closed_loop");
    run_closed(closed, encode_us, decode_us);
    out.pass_s = cl.close();
    if (traced) {
      record_job_spans(open_, open, open_span_, true);
      record_job_spans(closed_, closed, cl.id(), false);
    }
    out.items = static_cast<double>(closed_.size());
    out.items_s = out.pass_s;

    const JobServer::Stats st = jobs_->stats();
    if (!transport_error_.empty()) out.fail("transport: " + transport_error_);
    check(open_, open, out, true);
    check(closed_, closed, out, false);

    if (traced) {
      double resubmits = 0.0;
      for (const auto* recs : {&open, &closed})
        for (const Record& r : *recs) resubmits += r.resubmits;
      out.layers.set("serve.resubmits", resubmits);
      std::vector<double> server_ms, transport_ms;
      for (const Record& r : open) {
        if (!r.ok) continue;
        server_ms.push_back(r.server_ms);
        transport_ms.push_back((r.recv_s - r.sent_s) * 1e3 - r.server_ms);
      }
      out.layers.set("serve.server_ms.p50", percentile(server_ms, 0.50));
      out.layers.set("serve.server_ms.p99", percentile(server_ms, 0.99));
      out.layers.set("serve.transport_ms", percentile(transport_ms, 0.50));
      out.layers.set("serve.json_encode_us", mean(encode_us));
      out.layers.set("serve.json_decode_us", mean(decode_us));
      out.layers.set("serve.cache_hit_ratio",
                     static_cast<double>(st.cache_hits) /
                         static_cast<double>(open_.size() + closed_.size()));
      out.layers.set("serve.queue_depth_max", static_cast<double>(depth_max));
      out.layers.set("serve.gen_late_ms",
                     late_ms.empty() ? 0.0
                                     : *std::max_element(late_ms.begin(),
                                                         late_ms.end()));
    }
    return out;
  }

 private:
  // One span per job, from when it was due (open loop) or sent (closed
  // loop) to its reply, tagged with the job id.  Jobs overlap, so each
  // goes on the first trace row free at its start (a trace viewer needs
  // the spans of one row to nest).
  static void record_job_spans(const std::vector<Request>& reqs,
                               const std::vector<Record>& recs, int parent,
                               bool open_loop) {
    constexpr std::uint64_t kFirstRow = 1000;
    Tracer& tr = Tracer::instance();
    std::vector<double> row_end;
    for (std::size_t k = 0; k < reqs.size(); ++k) {
      if (recs[k].replies < 1) continue;
      Span s;
      s.name = "serve.job";
      s.start_s = open_loop ? recs[k].due_s : recs[k].sent_s;
      s.end_s = recs[k].recv_s;
      s.id = tr.next_id();
      s.parent = parent;
      s.job = reqs[k].id;
      std::size_t row = 0;
      while (row < row_end.size() && row_end[row] > s.start_s) ++row;
      if (row == row_end.size()) row_end.push_back(0.0);
      row_end[row] = s.end_s;
      s.tid = kFirstRow + row;
      tr.record(std::move(s));
    }
  }

  static double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    const double f = pos - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] * (1.0 - f) + v[i + 1] * f : v[i];
  }

  static double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  }

  // The seeded request schedule.  Each phase has exact shares of every
  // job class on each base deck, so a seed changes the order, the input
  // currents and the Monte-Carlo seeds but never the mix.  A repeat
  // re-sends one of the last few new op jobs on its deck verbatim, close
  // enough in time for the result cache to still hold it.  Open-loop
  // arrivals are spaced uniformly in [0.5, 1.5] times the mean interval.
  void make_schedule() {
    std::mt19937_64 rng(0x5e12e000ull + cfg_.seed);
    const auto uniform = [&rng] {
      return (static_cast<double>(rng() >> 11) + 0.5) * 0x1.0p-53;
    };
    const auto pick = [&uniform](std::size_t n) {
      return std::min(n - 1, static_cast<std::size_t>(uniform() * n));
    };
    const auto phase = [&](const char* prefix, std::size_t n, bool timed) {
      // Slots: (class, deck) in exact shares, then shuffled.
      std::vector<std::pair<std::size_t, std::size_t>> slots;
      for (std::size_t c = 0; c < kClasses.size(); ++c)
        for (std::size_t d = 0; d < bases_.size(); ++d)
          slots.insert(slots.end(),
                       static_cast<std::size_t>(std::lround(
                           kClasses[c].share * n / bases_.size())),
                       {c, d});
      for (std::size_t k = slots.size(); k > 1; --k)
        std::swap(slots[k - 1], slots[pick(k)]);
      std::vector<std::vector<Json>> recent_op(bases_.size());
      std::vector<Request> out(slots.size());
      double t = 0.0;
      for (std::size_t k = 0; k < out.size(); ++k) {
        const JobClass& cls = kClasses[slots[k].first];
        const std::size_t deck = slots[k].second;
        std::vector<Json>& recent = recent_op[deck];
        if (cls.repeat && !recent.empty()) {
          out[k].body = recent[pick(recent.size())];
        } else {
          out[k].body = make_body(cls, bases_[deck], uniform(),
                                  rng() % 1000000);
          if (std::string(cls.analysis) == "op") {
            if (recent.size() == kRecent) recent.erase(recent.begin());
            recent.push_back(out[k].body);
          }
        }
        out[k].id = prefix + std::to_string(k);
        if (timed) {
          t += (0.5 + uniform()) / open_rate_hz_;
          out[k].due_s = t;
        }
      }
      return out;
    };
    open_ = phase("o", open_jobs_, true);
    closed_ = phase("c", closed_jobs_, false);
  }

  static Json make_body(const JobClass& cls, const BaseDeck& b,
                        double u_current, std::uint64_t mc_seed) {
    char value[32];
    std::snprintf(value, sizeof value, "DC %.4gu",
                  (b.i_lo + (b.i_hi - b.i_lo) * u_current) * 1e6);
    std::string deck = replace_card(b.text, b.input_card, value);
    Json body = Json::object();
    body.set("analysis", cls.analysis);
    if (std::string(cls.analysis) == "tran") {
      deck = replace_card(deck, ".op", "");
      deck += std::string(cls.tran) + "\n";
    } else if (std::string(cls.analysis) == "mc") {
      body.set("mc_trials", kMcTrials);
      body.set("mc_seed", static_cast<double>(mc_seed));
      body.set("mc_measure", "v(" + b.probe + ")");
    }
    body.set("deck", deck);
    return body;
  }

  std::string encode(const Request& r, std::vector<double>& encode_us) {
    const double t0 = now_s();
    Json req = r.body;
    req.set("id", r.id);
    std::string line = req.dump();
    encode_us.push_back((now_s() - t0) * 1e6);
    return line;
  }

  // True when `line` is the admission-control rejection of a job of
  // `index`; `k` is then that job.
  static bool rejection(const std::string& line,
                        const std::map<std::string, std::size_t>& index,
                        std::size_t& k) {
    if (line.find("\"rejected\"") == std::string::npos) return false;
    Json reply;
    try {
      reply = Json::parse(line);
    } catch (const std::exception&) {
      return false;
    }
    const Json* st = reply.find("status");
    const Json* id = reply.find("id");
    if (!st || !st->is_string() || st->as_string() != "rejected" || !id ||
        !id->is_string())
      return false;
    const auto it = index.find(id->as_string());
    if (it == index.end()) return false;
    k = it->second;
    return true;
  }

  // Files one final reply line into the record of its job.
  void file_reply(const std::string& line, double recv_s,
                  const std::map<std::string, std::size_t>& index,
                  std::vector<Record>& recs, std::vector<double>& decode_us,
                  bool open_phase) {
    const double t0 = now_s();
    Json reply;
    try {
      reply = Json::parse(line);
    } catch (const std::exception&) {
      return;
    }
    decode_us.push_back((now_s() - t0) * 1e6);
    const Json* id = reply.find("id");
    if (!id || !id->is_string()) return;
    const auto it = index.find(id->as_string());
    if (it == index.end()) return;
    const std::size_t k = it->second;
    // Fault injection for the bench's own tests: lose this reply.
    if (open_phase && static_cast<int>(k) == cfg_.drop_reply) return;
    Record& r = recs[k];
    ++r.replies;
    r.recv_s = recv_s;
    const Json* st = reply.find("status");
    const Json* el = reply.find("elapsed_ms");
    const Json* res = reply.find("result");
    r.ok = st && st->is_string() && st->as_string() == "ok" && res;
    if (el && el->is_number()) r.server_ms = el->as_number();
    if (res) r.result = fnv1a(res->dump());
    if (!r.ok) r.error = line.substr(0, 300);
  }

  // Open loop: one connection, sends on the schedule whatever the
  // replies do, plus the resubmissions of rejected jobs once their pause
  // is over; a reader thread collects the replies.
  void run_open(std::vector<Record>& recs, std::vector<double>& encode_us,
                std::vector<double>& decode_us, std::vector<double>& late_ms,
                std::size_t* depth_max) {
    std::map<std::string, std::size_t> index;
    for (std::size_t k = 0; k < open_.size(); ++k) index[open_[k].id] = k;
    // The reader only stamps and stores each final reply; parsing waits
    // until the phase is over so a large reply cannot delay the next
    // stamp.  Rejections go back to the sender, oldest first.
    std::vector<std::pair<std::string, double>> lines;
    std::deque<std::pair<std::size_t, double>> resend;  // job, not before
    std::mutex mu;  // guards recs[], lines, resend
    std::condition_variable cv;
    Conn& conn = *clients_.front();
    std::thread reader([&] {
      std::string line;
      while (conn.read_line(line)) {
        const double t = now_s();
        std::size_t k = 0;
        const bool rejected = rejection(line, index, k);
        std::lock_guard<std::mutex> lock(mu);
        if (rejected && recs[k].resubmits < kMaxResubmits) {
          resend.emplace_back(k, t + kResubmitPauseS);
          cv.notify_all();
          continue;
        }
        lines.emplace_back(std::move(line), t);
        if (lines.size() >= open_.size()) cv.notify_all();
      }
    });

    std::atomic<bool> sampling{depth_max != nullptr};
    std::thread sampler;
    if (depth_max) {
      sampler = std::thread([&] {
        while (sampling.load()) {
          *depth_max = std::max(*depth_max, jobs_->stats().queue_depth);
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      });
    }

    ScopedSpan phase("serve.open_loop");
    open_span_ = phase.id();
    const double start = now_s();
    const auto clock0 = std::chrono::steady_clock::now();
    const auto at = [&](double t) {  // runner clock -> steady clock
      return clock0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(t - start));
    };
    const double give_up = start + open_.back().due_s + kReplyWaitS;
    try {
      std::size_t next = 0;  // next job of the schedule
      std::unique_lock<std::mutex> lock(mu);
      while (next < open_.size() || lines.size() < open_.size()) {
        const double t = now_s();
        if (t > give_up) break;  // the jobs still missing fail the check
        std::size_t k = open_.size();
        if (!resend.empty() && resend.front().second <= t) {
          k = resend.front().first;
          resend.pop_front();
          ++recs[k].resubmits;
        } else if (next < open_.size() && start + open_[next].due_s <= t) {
          k = next++;
        } else {
          double wake = next < open_.size() ? start + open_[next].due_s : give_up;
          if (!resend.empty()) wake = std::min(wake, resend.front().second);
          cv.wait_until(lock, at(wake));
          continue;
        }
        const bool first = recs[k].resubmits == 0;
        lock.unlock();
        const std::string line = encode(open_[k], encode_us);
        lock.lock();
        if (first) {
          recs[k].due_s = start + open_[k].due_s;
          recs[k].sent_s = now_s();
          late_ms.push_back((recs[k].sent_s - recs[k].due_s) * 1e3);
        }
        lock.unlock();
        conn.send_line(line);
        lock.lock();
      }
    } catch (const std::exception& e) {
      transport_error_ = e.what();  // the lost jobs fail the check
    }
    phase.close();
    sampling.store(false);
    if (sampler.joinable()) sampler.join();
    conn.shutdown();
    reader.join();
    for (const auto& [line, t] : lines)
      file_reply(line, t, index, recs, decode_us, true);
    reconnect();
  }

  // Closed loop: each connection keeps `depth` requests in flight and
  // sends the next one as soon as a reply is back.
  void run_closed(std::vector<Record>& recs, std::vector<double>& encode_us,
                  std::vector<double>& decode_us) {
    const std::size_t depth = closed_depth();
    std::map<std::string, std::size_t> index;
    for (std::size_t k = 0; k < closed_.size(); ++k) index[closed_[k].id] = k;
    std::atomic<std::size_t> next{0};
    // A job's record is only touched by the client that sent it, and each
    // client keeps its own timings, so the clients share no lock while
    // the phase runs.
    std::vector<std::vector<double>> enc(clients_.size()), dec(clients_.size());
    std::mutex mu;  // guards transport_error_
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      clients.emplace_back([&, c, conn = clients_[c].get()] {
        try {
          std::string line;
          const auto send = [&](std::size_t k) {
            line = encode(closed_[k], enc[c]);
            if (recs[k].resubmits == 0) recs[k].sent_s = now_s();
            conn->send_line(line);
          };
          const auto send_next = [&] {
            const std::size_t k = next.fetch_add(1);
            if (k >= closed_.size()) return false;
            send(k);
            return true;
          };
          std::size_t in_flight = 0;
          while (in_flight < depth && send_next()) ++in_flight;
          for (; in_flight > 0; --in_flight) {
            if (!conn->read_line(line))
              throw std::runtime_error("connection closed");
            const double t = now_s();
            std::size_t k = 0;
            if (rejection(line, index, k) && recs[k].resubmits < kMaxResubmits) {
              ++recs[k].resubmits;
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(kResubmitPauseS));
              send(k);
              ++in_flight;  // still in flight: undo the loop's decrement
              continue;
            }
            file_reply(line, t, index, recs, dec[c], false);
            if (send_next()) ++in_flight;
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          transport_error_ = e.what();  // the lost jobs fail the check
        }
      });
    }
    for (auto& t : clients) t.join();
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      encode_us.insert(encode_us.end(), enc[c].begin(), enc[c].end());
      decode_us.insert(decode_us.end(), dec[c].begin(), dec[c].end());
    }
    reconnect();
  }

  // Requests per closed-loop connection: kMaxClosedDepth, lowered so that
  // all connections together stay within half the admission limit.
  std::size_t closed_depth() const {
    return std::clamp<std::size_t>(
        jobs_->options().queue_capacity / (2 * conns_), 1, kMaxClosedDepth);
  }

  // Replaces the client connections with fresh ones for the next phase.
  void reconnect() {
    const std::size_t n = clients_.size();
    clients_.clear();
    for (std::size_t k = 0; k < n; ++k)
      clients_.push_back(std::make_unique<Conn>(net_->port()));
  }

  // Exactly one ok reply per id, each equal to a direct run_job of the
  // same request.  Open-loop latencies run from the due time.
  void check(const std::vector<Request>& reqs, const std::vector<Record>& recs,
             PassOut& out, bool open_loop) {
    auto& expected = expected_cache();
    std::vector<std::string> todo;
    for (const Request& r : reqs) {
      const std::string key = r.body.dump();
      if (!expected.count(key)) {
        expected[key];
        todo.push_back(key);
      }
    }
    std::vector<std::uint64_t> results(todo.size());
    si::runtime::parallel_for(todo.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        try {
          results[i] = fnv1a(
              si::serve::run_job(si::serve::parse_request(Json::parse(todo[i])),
                                 nullptr)
                  .dump());
        } catch (const std::exception&) {
          results[i] = 0;  // matches no reply's hash: the job fails
        }
      }
    }, 1);
    for (std::size_t i = 0; i < todo.size(); ++i) expected[todo[i]] = results[i];

    for (std::size_t k = 0; k < reqs.size(); ++k) {
      const Record& r = recs[k];
      ++out.ops;
      // Open-loop latency runs from when the job was due, so a late
      // generator cannot hide queueing; a lost or failed job misses.
      if (open_loop)
        out.job_ms.push_back(r.replies == 1 && r.ok
                                 ? (r.recv_s - r.due_s) * 1e3
                                 : kMissingMs);
      if (r.replies != 1) {
        out.fail(reqs[k].id + ": " + std::to_string(std::max(r.replies, 0)) +
                 " replies");
      } else if (!r.ok) {
        out.fail(reqs[k].id + ": " + r.error);
      } else if (r.result != expected[reqs[k].body.dump()]) {
        out.fail(reqs[k].id + ": result differs from a direct run_job");
      }
    }
  }

  WorkloadConfig cfg_;
  std::size_t open_jobs_ = 0, closed_jobs_ = 0;
  double open_rate_hz_ = 0.0;
  unsigned conns_ = 1;
  std::vector<BaseDeck> bases_;
  std::vector<Request> open_, closed_;
  std::unique_ptr<JobServer> jobs_;
  std::unique_ptr<NetServer> net_;
  std::vector<std::unique_ptr<Conn>> clients_;
  std::string transport_error_;
  int open_span_ = -1;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const WorkloadConfig& cfg) {
  return std::make_unique<ServeMix>(cfg);
}

}  // namespace pb
