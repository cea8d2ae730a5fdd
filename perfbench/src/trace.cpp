#include <atomic>

#include "bench.hpp"
#include "obs/telemetry.hpp"

namespace pb {

namespace {

const auto kStart = std::chrono::steady_clock::now();

thread_local std::vector<int> t_open;  // ids of this thread's open spans

// Small stable thread numbers for the trace viewer's rows.
std::uint64_t thread_number() {
  static std::atomic<std::uint64_t> next{0};
  thread_local const std::uint64_t mine = ++next;
  return mine;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

int Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double Tracer::sum_since(std::size_t mark, const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (std::size_t i = mark; i < spans_.size(); ++i)
    if (spans_[i].name == name) total += spans_[i].end_s - spans_[i].start_s;
  return total;
}

std::size_t Tracer::count_since(std::size_t mark,
                                const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (std::size_t i = mark; i < spans_.size(); ++i)
    if (spans_[i].name == name) ++n;
  return n;
}

std::string Tracer::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json events = Json::array();
  for (const Span& s : spans_) {
    Json args = Json::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    if (!s.job.empty()) args.set("job", s.job);
    Json e = Json::object();
    e.set("name", s.name);
    e.set("cat", s.name.substr(0, s.name.find('.')));
    e.set("ph", "X");
    e.set("ts", s.start_s * 1e6);
    e.set("dur", (s.end_s - s.start_s) * 1e6);
    e.set("pid", 1);
    e.set("tid", static_cast<double>(s.tid));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc.dump();
}

int current_span() { return t_open.empty() ? -1 : t_open.back(); }

ScopedSpan::ScopedSpan(const char* name, int parent, std::string job)
    : name_(name), job_(std::move(job)) {
  Tracer& tr = Tracer::instance();
  if (tr.enabled()) {
    id_ = tr.next_id();
    parent_ = parent == kCurrentParent ? current_span() : parent;
    t_open.push_back(id_);
  }
  start_ = now_s();
}

ScopedSpan::~ScopedSpan() { close(); }

double ScopedSpan::close() {
  if (end_ >= 0.0) return end_ - start_;
  end_ = now_s();
  if (id_ >= 0) {
    if (!t_open.empty() && t_open.back() == id_) t_open.pop_back();
    Span s;
    s.name = name_;
    s.start_s = start_;
    s.end_s = end_;
    s.id = id_;
    s.parent = parent_;
    s.tid = thread_number();
    s.job = std::move(job_);
    Tracer::instance().record(std::move(s));
  }
  return end_ - start_;
}

double obs_counter(const char* name) {
  return static_cast<double>(si::obs::counter(name).value());
}

double obs_timer_s(const char* name) {
  return static_cast<double>(si::obs::timer(name).total_ns()) * 1e-9;
}

}  // namespace pb
