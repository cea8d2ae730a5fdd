#include "event/scoped_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace si::event {

using spice::Element;
using spice::StampContext;

namespace {

struct ScopedTelemetry {
  obs::Counter& scope_builds = obs::counter("event.scope_builds");
  obs::Counter& scoped_solves = obs::counter("event.scoped_solves");
  obs::Timer& solve_time = obs::timer("event.scoped_solve");

  static ScopedTelemetry& get() {
    static ScopedTelemetry t;
    return t;
  }
};

}  // namespace

ScopedMnaEngine::ScopedMnaEngine(spice::Circuit& c, const CircuitPartition& p)
    : circuit_(&c), partition_(&p) {
  c.finalize();
  revision_ = c.revision();
  const std::size_t n_nodes = c.node_count() - 1;

  const auto& elements = c.elements();
  element_rows_.resize(elements.size());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    auto& rows = element_rows_[i];
    for (const auto& t : elements[i]->terminals())
      if (t.node != spice::kGroundNode) rows.push_back(t.node - 1);
    for (const int br : elements[i]->branches())
      rows.push_back(static_cast<int>(n_nodes) + br);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
}

spice::NewtonCore& ScopedMnaEngine::state_for(
    const std::vector<unsigned char>& active, const StampContext& ctx) {
  auto it = states_.find(active);
  if (it != states_.end()) return it->second;

  spice::Circuit& c = *circuit_;
  const std::size_t n = c.system_size();
  ++stats_.workspace_allocs;
  ScopedTelemetry::get().scope_builds.add();

  std::vector<unsigned char> scope(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int blk = partition_->unknown_block[i];
    if (blk == 0 || active[static_cast<std::size_t>(blk)]) scope[i] = 1;
  }

  std::vector<Element*> linear, nonlinear;
  const auto& elements = c.elements();
  for (std::size_t i = 0; i < elements.size(); ++i) {
    bool any_active = false;
    bool any_rail = false;
    for (const int r : element_rows_[i]) {
      if (!scope[static_cast<std::size_t>(r)]) continue;
      if (partition_->unknown_block[static_cast<std::size_t>(r)] == 0)
        any_rail = true;
      else
        any_active = true;
    }
    if (!any_active && !any_rail) continue;  // every row frozen: exact skip
    Element* e = elements[i].get();
    if (!any_active) {
      // Only rail rows in scope: the element belongs to a latent block
      // and merely contributes its (held) current to a supply/clock-rail
      // KCL row.  Its controlling unknowns are frozen, and rail voltages
      // are source-pinned within a step, so the stamp values cannot move
      // between Newton iterations — stamping once per step in the
      // baseline is enough, even for nonlinear devices.  This keeps the
      // per-iteration restamp list proportional to the *active* blocks
      // instead of to every device hanging off vdd.
      linear.push_back(e);
      continue;
    }
    (e->nonlinear() ? nonlinear : linear).push_back(e);
  }

  spice::NewtonCore& core =
      states_.try_emplace(active, c, stats_).first->second;
  try {
    core.bind(std::move(linear), std::move(nonlinear), std::move(scope), ctx);
  } catch (...) {
    states_.erase(active);  // never leave a half-built state behind
    throw;
  }
  return core;
}

void ScopedMnaEngine::accept_scope(const std::vector<unsigned char>& active,
                                   const spice::SolutionView& sol,
                                   const StampContext& ctx) {
  auto it = states_.find(active);
  if (it == states_.end())
    throw std::logic_error(
        "ScopedMnaEngine::accept_scope: no solve ran for this mask");
  for (Element* e : it->second.linear()) e->accept(sol, ctx);
  for (Element* e : it->second.nonlinear()) e->accept(sol, ctx);
}

int ScopedMnaEngine::newton(const StampContext& ctx, linalg::Vector& x,
                            const spice::NewtonOptions& opt,
                            const std::vector<unsigned char>& active) {
  spice::Circuit& c = *circuit_;
  c.finalize();
  if (c.revision() != revision_)
    throw std::logic_error(
        "ScopedMnaEngine: circuit topology changed after partitioning");
  if (active.size() != partition_->block_count())
    throw std::logic_error("ScopedMnaEngine: active mask size mismatch");

  ScopedTelemetry& tm = ScopedTelemetry::get();
  obs::ScopedTimer timed(tm.solve_time);
  tm.scoped_solves.add();

  if (x.size() != c.system_size()) x.assign(c.system_size(), 0.0);
  return state_for(active, ctx).newton(ctx, x, opt, opt.gmin);
}

}  // namespace si::event
