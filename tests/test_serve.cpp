// Tests for the simulation service: the JSON codec, the request
// protocol (validation, cache keys), the JobServer lifecycle —
// admission control, deadlines, cancellation, draining shutdown, the
// shared result memo, and the one-reply-per-submit guarantee under
// deliberately hostile request streams — and the NetServer listener's
// start/stop lifecycle.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/job_server.hpp"
#include "serve/json.hpp"
#include "serve/net_server.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace si::serve;

// ---------------------------------------------------------------- json

TEST(Json, RoundTripsEscapesAndUnicode) {
  const std::string text =
      R"({"s":"a\"b\\c\n\t","e":"caf\u00e9","emoji":"\ud83d\ude00"})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.find("s")->as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(j.find("e")->as_string(), "caf\xc3\xa9");
  EXPECT_EQ(j.find("emoji")->as_string(), "\xf0\x9f\x98\x80");
  // dump -> parse is the identity on the decoded values.
  const Json again = Json::parse(j.dump());
  EXPECT_EQ(again.find("s")->as_string(), j.find("s")->as_string());
  EXPECT_EQ(again.find("emoji")->as_string(), j.find("emoji")->as_string());
}

TEST(Json, NumbersDumpAtFullPrecision) {
  EXPECT_EQ(Json(5.0).dump(), "5");
  EXPECT_EQ(Json(-42.0).dump(), "-42");
  const double v = 0.1234567890123456789;
  EXPECT_DOUBLE_EQ(Json::parse(Json(v).dump()).as_number(), v);
}

TEST(Json, ParseErrorsCarryByteOffsets) {
  try {
    Json::parse("{\"a\":}");
    FAIL() << "must throw";
  } catch (const JsonError& e) {
    EXPECT_GE(e.offset(), 5u);
  }
  EXPECT_THROW(Json::parse("1 2"), JsonError);        // trailing bytes
  EXPECT_THROW(Json::parse("{\"a\":1"), JsonError);   // truncated
  EXPECT_THROW(Json::parse("\"\\ud83d\""), JsonError);  // lone surrogate
}

TEST(Json, DepthLimitStopsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(Json::parse(deep), JsonError);
  // Within the limit parses fine.
  std::string ok(10, '[');
  ok += std::string(10, ']');
  EXPECT_NO_THROW(Json::parse(ok));
}

// ------------------------------------------------------------ protocol

Json base_request(const std::string& deck) {
  Json r = Json::object();
  r.set("id", "t");
  r.set("deck", deck);
  return r;
}

TEST(Protocol, RejectsMissingDeckAndUnknownKeys) {
  Json no_deck = Json::object();
  no_deck.set("id", "x");
  try {
    parse_request(no_deck);
    FAIL() << "deck is required";
  } catch (const JobError& e) {
    EXPECT_EQ(e.kind(), "bad_request");
  }

  Json typo = base_request("Vdd a 0 DC 1\n");
  typo.set("tymeout_ms", 5.0);  // typo must not silently become a default
  try {
    parse_request(typo);
    FAIL() << "unknown key must be rejected";
  } catch (const JobError& e) {
    EXPECT_EQ(e.kind(), "bad_request");
    EXPECT_NE(std::string(e.what()).find("tymeout_ms"), std::string::npos);
  }

  Json bad_analysis = base_request("Vdd a 0 DC 1\n");
  bad_analysis.set("analysis", "transient");
  EXPECT_THROW(parse_request(bad_analysis), JobError);

  Json mc = base_request("Vdd a 0 DC 1\n");
  mc.set("analysis", "mc");  // mc_measure is required for mc
  EXPECT_THROW(parse_request(mc), JobError);
}

TEST(Protocol, CacheKeyCoversPhysicsNotPlumbing) {
  const std::string tran_deck = "Vdd a 0 DC 1\nR1 a 0 1k\n.tran 1n 10n\n";
  Json a = base_request(tran_deck);
  Json b = base_request(tran_deck);
  b.set("id", "other");
  b.set("timeout_ms", 250.0);
  b.set("want_telemetry", true);
  b.set("no_cache", true);
  // id / deadline / telemetry / cache-bypass do not change the physics.
  EXPECT_EQ(request_cache_key(parse_request(a)),
            request_cache_key(parse_request(b)));

  // "auto" on a .tran deck resolves to the same key as explicit "tran".
  Json c = base_request(tran_deck);
  c.set("analysis", "tran");
  EXPECT_EQ(request_cache_key(parse_request(a)),
            request_cache_key(parse_request(c)));

  // Deck text and Newton limits are physics.
  Json d = base_request(tran_deck + "* tweak\n");
  EXPECT_NE(request_cache_key(parse_request(a)),
            request_cache_key(parse_request(d)));
  Json e = base_request(tran_deck);
  e.set("max_newton_iterations", 7);
  EXPECT_NE(request_cache_key(parse_request(a)),
            request_cache_key(parse_request(e)));
}

// ------------------------------------------------------------- serving

// The paper's clean class-AB memory cell, ERC-clean and cheap to solve.
const char* kCellCards = R"(.model nmem NMOS (KP=100u VTO=0.8 LAMBDA=0.02 CGS=0.15p)
.model pmem PMOS (KP=40u  VTO=0.8 LAMBDA=0.02 CGS=0.15p)
Vdd vdd 0 DC 3.3
MN  d gn 0   nmem W=10u L=2u
MP  d gp vdd pmem W=25u L=2u
SN  gn d PULSE(0 3.3 0 10n 10n 480n 1u) 1k 1g
SP  gp d PULSE(0 3.3 0 10n 10n 480n 1u) 1k 1g
Iin 0 d DC 8u
)";

std::string op_deck(int variant) {
  std::ostringstream ss;
  ss << kCellCards << "Ix 0 d DC " << (1 + variant % 7) << "u\n.op\n";
  return ss.str();
}

// A transient that is still mid-flight when a deadline or a cancel
// lands, on any host: the cell plus 31 copies, each copy driven by its
// own sine so its block never goes latent, over 200k steps — seconds
// of Newton work, against the tens of milliseconds the tests wait.  The
// step count stays moderate because Transient reserves t_stop/dt
// points up front.
std::string slow_tran_deck() {
  std::ostringstream ss;
  ss << kCellCards;
  for (int k = 1; k < 32; ++k)
    ss << "MN" << k << " d" << k << " gn" << k << " 0 nmem W=10u L=2u\n"
       << "MP" << k << " d" << k << " gp" << k << " vdd pmem W=25u L=2u\n"
       << "SN" << k << " gn" << k << " d" << k
       << " PULSE(0 3.3 0 10n 10n 480n 1u) 1k 1g\n"
       << "SP" << k << " gp" << k << " d" << k
       << " PULSE(0 3.3 0 10n 10n 480n 1u) 1k 1g\n"
       << "I" << k << " 0 d" << k << " SIN(8u 2u " << 37 + k << "k)\n";
  ss << ".tran 5n 1m\n.probe v(d)\n";
  return ss.str();
}

std::string request_line(const std::string& id, const std::string& deck) {
  Json r = Json::object();
  r.set("id", id);
  r.set("deck", deck);
  return r.dump();
}

Json reply_of(std::future<std::string>& f) { return Json::parse(f.get()); }

std::string status_of(const Json& reply) {
  return reply.find("status") ? reply.find("status")->as_string() : "";
}

std::string error_kind(const Json& reply) {
  const Json* err = reply.find("error");
  return err && err->find("kind") ? err->find("kind")->as_string() : "";
}

// Polls until at least `n` jobs are running (deadline-bounded so a
// regression fails the test instead of hanging it).
bool wait_for_running(JobServer& s, std::size_t n) {
  for (int k = 0; k < 2000; ++k) {
    if (s.stats().running >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(JobServer, HealthyOpJobRoundTrips) {
  JobServer server;
  auto f = server.submit(request_line("op-1", op_deck(0)));
  const Json reply = reply_of(f);
  EXPECT_EQ(reply.find("id")->as_string(), "op-1");
  EXPECT_EQ(status_of(reply), "ok");
  EXPECT_FALSE(reply.find("cached")->as_bool());
  ASSERT_NE(reply.find("result"), nullptr);
  const Json* volts = reply.find("result")->find("node_voltages");
  ASSERT_NE(volts, nullptr);
  EXPECT_NE(volts->find("d"), nullptr);
  EXPECT_GE(reply.find("elapsed_ms")->as_number(), 0.0);
}

TEST(JobServer, EveryFailureModeGetsAStructuredReplyAndWorkersSurvive) {
  JobServer::Options opt;
  opt.workers = 2;
  JobServer server(opt);

  auto bad_json = server.submit("{not json");
  auto bad_req = server.submit("{\"deck\":\"Vdd a 0 DC 1\\n\",\"bogus\":1}");
  auto bad_deck = server.submit(request_line("p", "Mbroken 1 2\n.op\n"));
  // No ground node anywhere: the ERC gate must refuse to simulate.
  auto erc_fail = server.submit(request_line("e", "R1 a b 1k\n.op\n"));
  // Two grounded sources forcing different voltages on one node: parses
  // and passes ERC, but the MNA system is singular at solve time.
  auto singular = server.submit(
      request_line("s", "V1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n.op\n"));
  // Healthy jobs interleaved with the poison must still complete.
  auto good1 = server.submit(request_line("g1", op_deck(1)));
  auto good2 = server.submit(request_line("g2", op_deck(2)));

  const Json r_json = reply_of(bad_json);
  EXPECT_EQ(status_of(r_json), "error");
  EXPECT_EQ(error_kind(r_json), "bad_json");

  const Json r_req = reply_of(bad_req);
  EXPECT_EQ(status_of(r_req), "error");
  EXPECT_EQ(error_kind(r_req), "bad_request");

  const Json r_deck = reply_of(bad_deck);
  EXPECT_EQ(r_deck.find("id")->as_string(), "p");
  EXPECT_EQ(status_of(r_deck), "error");
  EXPECT_EQ(error_kind(r_deck), "parse_error");

  const Json r_erc = reply_of(erc_fail);
  EXPECT_EQ(status_of(r_erc), "error");
  EXPECT_EQ(error_kind(r_erc), "erc_failed");
  // The ERC diagnostics ride along as structured JSON, not prose.
  const Json* err = r_erc.find("error");
  ASSERT_NE(err, nullptr);
  ASSERT_NE(err->find("diagnostics"), nullptr);
  EXPECT_NE(err->dump().find("no-ground"), std::string::npos);

  const Json r_sing = reply_of(singular);
  EXPECT_EQ(r_sing.find("id")->as_string(), "s");
  EXPECT_EQ(status_of(r_sing), "error");

  EXPECT_EQ(status_of(reply_of(good1)), "ok");
  EXPECT_EQ(status_of(reply_of(good2)), "ok");

  const auto st = server.stats();
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.failed, 5u);  // bad_json/bad_req/bad_deck/erc/singular
}

TEST(JobServer, AdmissionControlRejectsBeyondQueueCapacity) {
  JobServer::Options opt;
  opt.workers = 1;
  opt.queue_capacity = 1;
  JobServer server(opt);

  auto running = server.submit(request_line("busy", slow_tran_deck()));
  ASSERT_TRUE(wait_for_running(server, 1));
  auto queued = server.submit(request_line("queued", op_deck(0)));
  auto bounced = server.submit(request_line("bounced", op_deck(1)));

  const Json r = reply_of(bounced);
  EXPECT_EQ(r.find("id")->as_string(), "bounced");
  EXPECT_EQ(status_of(r), "rejected");
  EXPECT_GE(server.stats().rejected, 1u);

  // Free the worker; the queued job must still complete normally.
  EXPECT_TRUE(server.cancel("busy"));
  EXPECT_EQ(status_of(reply_of(running)), "cancelled");
  EXPECT_EQ(status_of(reply_of(queued)), "ok");
}

TEST(JobServer, DeadlineExpiresMidTransient) {
  JobServer server;
  Json req = Json::object();
  req.set("id", "late");
  req.set("deck", slow_tran_deck());
  req.set("timeout_ms", 50.0);
  const auto t0 = std::chrono::steady_clock::now();
  auto f = server.submit(req.dump());
  const Json reply = reply_of(f);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  EXPECT_EQ(status_of(reply), "timeout");
  EXPECT_EQ(error_kind(reply), "timeout");
  // The job started in time and the Newton checkpoint unwound it: the
  // message is the solver's, not the queue's "deadline expired before
  // execution".
  const Json* err = reply.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->find("message")->as_string(), "deadline expired");
  // The checkpoint fires every Newton iteration, so the unwind is far
  // faster than finishing the 200k-step transient would be.
  EXPECT_LT(waited_ms, 10000.0);
  EXPECT_EQ(server.stats().timed_out, 1u);
}

TEST(JobServer, DeadlineExpiresMidMonteCarlo) {
  // An mc job runs its trials through analysis::monte_carlo_dc, whose
  // Newton loop checkpoints the job's token like every other solve.
  JobServer server;
  Json req = Json::object();
  req.set("id", "late-mc");
  req.set("deck", slow_tran_deck());
  req.set("analysis", "mc");
  req.set("mc_trials", 100000);
  req.set("mc_measure", "v(d)");
  req.set("timeout_ms", 50.0);
  auto f = server.submit(req.dump());
  const Json reply = reply_of(f);
  EXPECT_EQ(status_of(reply), "timeout");
  EXPECT_EQ(error_kind(reply), "timeout");
  const Json* err = reply.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->find("message")->as_string(), "deadline expired");
  EXPECT_EQ(server.stats().timed_out, 1u);
}

TEST(JobServer, CancelUnwindsARunningJob) {
  JobServer server;
  auto f = server.submit(request_line("victim", slow_tran_deck()));
  ASSERT_TRUE(wait_for_running(server, 1));
  EXPECT_TRUE(server.cancel("victim"));
  const Json reply = reply_of(f);
  EXPECT_EQ(status_of(reply), "cancelled");
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_FALSE(server.cancel("victim"));  // nothing left under that id
}

TEST(JobServer, GracefulShutdownDrainsTheQueue) {
  JobServer::Options opt;
  opt.workers = 2;
  JobServer server(opt);
  std::vector<std::future<std::string>> futures;
  for (int k = 0; k < 8; ++k)
    futures.push_back(
        server.submit(request_line("d-" + std::to_string(k), op_deck(k))));
  server.shutdown(/*drain=*/true);
  for (auto& f : futures) EXPECT_EQ(status_of(reply_of(f)), "ok");
  EXPECT_EQ(server.stats().completed, 8u);

  // Post-shutdown submits must still resolve, as rejections.
  auto late = server.submit(request_line("late", op_deck(0)));
  EXPECT_EQ(status_of(reply_of(late)), "rejected");
}

TEST(JobServer, AbortShutdownCancelsQueuedAndRunningJobs) {
  JobServer::Options opt;
  opt.workers = 1;
  opt.queue_capacity = 16;
  JobServer server(opt);
  auto running = server.submit(request_line("run", slow_tran_deck()));
  ASSERT_TRUE(wait_for_running(server, 1));
  auto queued = server.submit(request_line("wait", op_deck(0)));
  server.shutdown(/*drain=*/false);
  EXPECT_EQ(status_of(reply_of(running)), "cancelled");
  EXPECT_EQ(status_of(reply_of(queued)), "cancelled");
}

TEST(JobServer, CacheHitsSkipResimulationAndHonourNoCache) {
  JobServer server;
  auto first = server.submit(request_line("a", op_deck(3)));
  const Json r1 = reply_of(first);
  ASSERT_EQ(status_of(r1), "ok");
  EXPECT_FALSE(r1.find("cached")->as_bool());

  // Same physics under a different id: a hit, identical payload.
  auto second = server.submit(request_line("b", op_deck(3)));
  const Json r2 = reply_of(second);
  EXPECT_EQ(status_of(r2), "ok");
  EXPECT_TRUE(r2.find("cached")->as_bool());
  EXPECT_EQ(r1.find("result")->dump(), r2.find("result")->dump());
  EXPECT_EQ(server.stats().cache_hits, 1u);

  // Explicit "op" resolves to the same key as the implicit default.
  Json explicit_op = Json::object();
  explicit_op.set("id", "c");
  explicit_op.set("deck", op_deck(3));
  explicit_op.set("analysis", "op");
  auto third = server.submit(explicit_op.dump());
  EXPECT_TRUE(reply_of(third).find("cached")->as_bool());

  // no_cache forces a fresh solve even when the memo is warm.
  Json bypass = Json::object();
  bypass.set("id", "d");
  bypass.set("deck", op_deck(3));
  bypass.set("no_cache", true);
  auto fourth = server.submit(bypass.dump());
  const Json r4 = reply_of(fourth);
  EXPECT_EQ(status_of(r4), "ok");
  EXPECT_FALSE(r4.find("cached")->as_bool());
  EXPECT_EQ(server.stats().cache_hits, 2u);
}

TEST(JobServer, SixtyFourConcurrentMixedJobsNoLostNoDuplicated) {
  JobServer::Options opt;
  opt.workers = 8;
  opt.queue_capacity = 80;
  JobServer server(opt);

  const int kJobs = 64;
  std::vector<std::future<std::string>> futures;
  for (int k = 0; k < kJobs; ++k) {
    const std::string id = "mix-" + std::to_string(k);
    Json req = Json::object();
    req.set("id", id);
    switch (k % 3) {
      case 0:
        req.set("deck", op_deck(k));
        break;
      case 1:
        req.set("deck", std::string(kCellCards) + "Ix 0 d DC " +
                            std::to_string(1 + k % 7) +
                            "u\n.tran 5n 300n\n.probe v(d)\n");
        break;
      default:
        req.set("deck", op_deck(k));
        req.set("analysis", "mc");
        req.set("mc_trials", 8);
        req.set("mc_seed", 1 + k);
        req.set("mc_measure", "v(d)");
    }
    futures.push_back(server.submit(req.dump()));
  }

  std::vector<int> seen(kJobs, 0);
  for (int k = 0; k < kJobs; ++k) {
    const Json reply = reply_of(futures[static_cast<std::size_t>(k)]);
    EXPECT_EQ(status_of(reply), "ok") << reply.dump();
    const std::string id = reply.find("id")->as_string();
    ASSERT_EQ(id.rfind("mix-", 0), 0u);
    ++seen[std::stoi(id.substr(4))];
  }
  for (int k = 0; k < kJobs; ++k)
    EXPECT_EQ(seen[static_cast<std::size_t>(k)], 1) << "id mix-" << k;
  EXPECT_EQ(server.stats().completed, static_cast<std::uint64_t>(kJobs));
}

TEST(JobServer, StatsJsonExposesCountersAndCache) {
  JobServer server;
  auto f = server.submit(request_line("x", op_deck(5)));
  reply_of(f);
  const Json stats = Json::parse(server.stats_json());
  for (const char* key : {"accepted", "rejected", "completed", "failed",
                          "cancelled", "timed_out", "cache_hits",
                          "queue_depth", "running", "workers", "cache"})
    EXPECT_NE(stats.find(key), nullptr) << key;
  EXPECT_EQ(stats.find("accepted")->as_number(), 1.0);
  EXPECT_EQ(stats.find("completed")->as_number(), 1.0);
  const Json* cache = stats.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(cache->find("hits"), nullptr);
  EXPECT_NE(cache->find("capacity"), nullptr);
}

// ------------------------------------------------------------- network

// Connects to the loopback listener on `port`; -1 on failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(NetServer, StartConnectStopLoopIsRaceFree) {
  // Each round has the accept thread take a connection and go back to
  // accept() on the listener while stop() tears it down.  stop() must
  // shut the listener down, join the accept thread, and only then close
  // and reset the fd (ThreadSanitizer flags the reverse order).
  JobServer jobs;
  for (int round = 0; round < 20; ++round) {
    NetServer net(jobs);
    const int fd = connect_loopback(net.port());
    ASSERT_GE(fd, 0) << "round " << round;
    net.stop();
    net.stop();  // idempotent
    ::close(fd);
  }
}

}  // namespace
