#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>

#include "obs/telemetry.hpp"

namespace si::linalg {

namespace {

constexpr std::uint64_t pack(int r, int c) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(r)) << 32) |
         static_cast<std::uint32_t>(c);
}

/// The row order lu_factor_in_place picks on the dense copy of `a`
/// permuted symmetrically into the pre-order (`cinv`: original ->
/// pre-ordered index), found by a right-looking elimination over a
/// row-wise sparse copy that applies the dense rule step for step (see
/// DESIGN.md "Pivoting-pass contract").  Returns perm with perm[i] =
/// pre-ordered row in position i; throws SingularMatrixError with the
/// pre-ordered column, like the dense code.
template <typename T>
std::vector<std::size_t> pivot_row_order(const SparseMatrix<T>& a,
                                         const std::vector<int>& cinv,
                                         double pivot_tol) {
  using Row = std::vector<std::pair<int, T>>;  // (column, value), sorted
  const SparsePattern& ap = a.pattern();
  const auto un = static_cast<std::size_t>(ap.dim());
  std::vector<Row> rows(un);
  // Rows holding an entry in each column; rows already pivoted stay
  // listed and are skipped by position.
  std::vector<std::vector<int>> col_rows(un);
  double scale = 0.0;
  for (std::size_t r = 0; r < un; ++r) {
    const auto pr = static_cast<std::size_t>(cinv[r]);
    Row& row = rows[pr];
    for (std::size_t s = ap.row_ptr()[r]; s < ap.row_ptr()[r + 1]; ++s)
      row.emplace_back(cinv[static_cast<std::size_t>(ap.col_idx()[s])],
                       a.values()[s]);
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    double sum = 0.0;
    for (const auto& [c, v] : row) {
      sum += std::abs(v);
      col_rows[static_cast<std::size_t>(c)].push_back(static_cast<int>(pr));
    }
    if (sum > scale) scale = sum;
  }
  const double tol = pivot_tol * (scale > 0 ? scale : 1.0);

  std::vector<std::size_t> perm(un), pos(un);
  for (std::size_t i = 0; i < un; ++i) perm[i] = pos[i] = i;
  Row merged;
  for (std::size_t k = 0; k < un; ++k) {
    // An unpivoted row has consumed every column before k, so its entry
    // in column k, if any, is its first.
    const Row& at_k = rows[perm[k]];
    std::size_t piv = k;
    double best =
        !at_k.empty() && static_cast<std::size_t>(at_k.front().first) == k
            ? std::abs(at_k.front().second)
            : 0.0;
    for (const int r : col_rows[k]) {
      const std::size_t p = pos[static_cast<std::size_t>(r)];
      if (p <= k) continue;
      const double m = std::abs(rows[static_cast<std::size_t>(r)].front().second);
      if (m > best || (m == best && p < piv)) {
        best = m;
        piv = p;
      }
    }
    // A zero pivot is singular whatever pivot_tol is.
    if (best < tol || best == 0.0) throw SingularMatrixError(k);
    if (piv != k) {
      std::swap(perm[k], perm[piv]);
      pos[perm[k]] = k;
      pos[perm[piv]] = piv;
    }
    Row& prow = rows[perm[k]];
    const T pivot = prow.front().second;
    for (const int r : col_rows[k]) {
      const auto ur = static_cast<std::size_t>(r);
      if (pos[ur] <= k) continue;
      Row& row = rows[ur];
      const T m = row.front().second / pivot;
      if (m == T{}) {
        row.erase(row.begin());
        continue;
      }
      merged.clear();
      auto it = row.begin() + 1;
      auto jt = prow.begin() + 1;
      while (it != row.end() || jt != prow.end()) {
        if (jt == prow.end() || (it != row.end() && it->first < jt->first)) {
          merged.push_back(*it++);
        } else if (it == row.end() || jt->first < it->first) {
          merged.emplace_back(jt->first, T{} - m * jt->second);  // fill
          col_rows[static_cast<std::size_t>(jt->first)].push_back(r);
          ++jt;
        } else {
          merged.emplace_back(it->first, it->second - m * jt->second);
          ++it;
          ++jt;
        }
      }
      row.swap(merged);
    }
    Row().swap(prow);
    std::vector<int>().swap(col_rows[k]);
  }
  return perm;
}

}  // namespace

std::shared_ptr<const SparsePattern> PatternBuilder::build(
    bool symmetrize) const {
  std::vector<std::uint64_t> coords = coords_;
  coords.reserve(coords.size() * (symmetrize ? 2 : 1) +
                 static_cast<std::size_t>(n_));
  if (symmetrize) {
    const std::size_t m = coords.size();
    for (std::size_t k = 0; k < m; ++k) {
      const int r = static_cast<int>(coords[k] >> 32);
      const int c = static_cast<int>(coords[k] & 0xffffffffu);
      coords.push_back(pack(c, r));
    }
  }
  for (int i = 0; i < n_; ++i) coords.push_back(pack(i, i));
  std::sort(coords.begin(), coords.end());
  coords.erase(std::unique(coords.begin(), coords.end()), coords.end());

  auto p = std::make_shared<SparsePattern>();
  p->n_ = n_;
  p->row_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  p->col_idx_.reserve(coords.size());
  for (const std::uint64_t key : coords) {
    const int r = static_cast<int>(key >> 32);
    const int c = static_cast<int>(key & 0xffffffffu);
    if (r < 0 || r >= n_ || c < 0 || c >= n_)
      throw std::out_of_range("PatternBuilder: coordinate out of range");
    ++p->row_ptr_[static_cast<std::size_t>(r) + 1];
    p->col_idx_.push_back(c);
  }
  for (int r = 0; r < n_; ++r)
    p->row_ptr_[static_cast<std::size_t>(r) + 1] +=
        p->row_ptr_[static_cast<std::size_t>(r)];
  p->diag_slots_.resize(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i)
    p->diag_slots_[static_cast<std::size_t>(i)] = p->find(i, i);
  return p;
}

std::vector<int> min_degree_order(const SparsePattern& p) {
  const int n = p.dim();
  // Adjacency of the symmetrized graph, as sorted neighbor vectors
  // (self-loops dropped).
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    for (std::size_t s = p.row_ptr()[static_cast<std::size_t>(r)];
         s < p.row_ptr()[static_cast<std::size_t>(r) + 1]; ++s) {
      const int c = p.col_idx()[s];
      if (c == r) continue;
      adj[static_cast<std::size_t>(r)].push_back(c);
      adj[static_cast<std::size_t>(c)].push_back(r);
    }
  for (auto& v : adj) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }

  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<int> merged;
  for (int step = 0; step < n; ++step) {
    // Pick the alive node of minimum degree.  The ascending scan with a
    // strict '<' implements the documented stable tie-break: equal
    // degrees resolve to the lowest original index, so the ordering is
    // a pure function of the pattern (see min_degree_order in
    // sparse.hpp; do not replace this with a heap or hash-ordered scan
    // without preserving that contract).
    int best = -1;
    std::size_t best_deg = 0;
    for (int v = 0; v < n; ++v) {
      if (eliminated[static_cast<std::size_t>(v)]) continue;
      const std::size_t deg = adj[static_cast<std::size_t>(v)].size();
      if (best < 0 || deg < best_deg) {
        best = v;
        best_deg = deg;
      }
    }
    order.push_back(best);
    eliminated[static_cast<std::size_t>(best)] = 1;
    // Eliminating `best` makes its alive neighborhood a clique.
    auto& nb = adj[static_cast<std::size_t>(best)];
    nb.erase(std::remove_if(
                 nb.begin(), nb.end(),
                 [&](int v) { return eliminated[static_cast<std::size_t>(v)]; }),
             nb.end());
    for (const int v : nb) {
      auto& av = adj[static_cast<std::size_t>(v)];
      // av := (av u nb) \ {v, best, eliminated}
      merged.clear();
      merged.reserve(av.size() + nb.size());
      std::set_union(av.begin(), av.end(), nb.begin(), nb.end(),
                     std::back_inserter(merged));
      merged.erase(
          std::remove_if(merged.begin(), merged.end(),
                         [&](int u) {
                           return u == v ||
                                  eliminated[static_cast<std::size_t>(u)];
                         }),
          merged.end());
      av.swap(merged);
    }
    nb.clear();
    nb.shrink_to_fit();
  }
  return order;
}

std::shared_ptr<const SparsePattern> symbolic_fill(
    const SparsePattern& a, const std::vector<int>& rows,
    const std::vector<int>& cols) {
  const int n = a.dim();
  const auto un = static_cast<std::size_t>(n);
  std::vector<int> cinv(un);
  for (int j = 0; j < n; ++j) cinv[static_cast<std::size_t>(cols[j])] = j;

  // Bitset row representation of the permuted pattern (plus diagonal).
  const std::size_t words = (un + 63) / 64;
  std::vector<std::uint64_t> bits(un * words, 0);
  auto set_bit = [&](std::size_t r, std::size_t c) {
    bits[r * words + c / 64] |= std::uint64_t{1} << (c % 64);
  };
  auto test_bit = [&](std::size_t r, std::size_t c) {
    return (bits[r * words + c / 64] >> (c % 64)) & 1u;
  };
  for (int i = 0; i < n; ++i) {
    const auto orig = static_cast<std::size_t>(rows[static_cast<std::size_t>(i)]);
    for (std::size_t s = a.row_ptr()[orig]; s < a.row_ptr()[orig + 1]; ++s)
      set_bit(static_cast<std::size_t>(i),
              static_cast<std::size_t>(cinv[static_cast<std::size_t>(
                  a.col_idx()[s])]));
    set_bit(static_cast<std::size_t>(i), static_cast<std::size_t>(i));
  }

  // Symbolic elimination in natural order: row_i |= {j in row_k : j > k}
  // for every k < i with (i, k) nonzero.
  for (std::size_t k = 0; k < un; ++k) {
    const std::size_t kw = k / 64;
    const std::uint64_t khigh_mask = ~((std::uint64_t{2} << (k % 64)) - 1);
    for (std::size_t i = k + 1; i < un; ++i) {
      if (!test_bit(i, k)) continue;
      std::uint64_t* ri = &bits[i * words];
      const std::uint64_t* rk = &bits[k * words];
      ri[kw] |= rk[kw] & khigh_mask;
      for (std::size_t w = kw + 1; w < words; ++w) ri[w] |= rk[w];
    }
  }

  PatternBuilder b(n);
  for (std::size_t i = 0; i < un; ++i)
    for (std::size_t c = 0; c < un; ++c)
      if (test_bit(i, c)) b.add(static_cast<int>(i), static_cast<int>(c));
  return b.build(/*symmetrize=*/false);
}

template <typename T>
void SparseLu<T>::build_symbolic(const SparseMatrix<T>& a) {
  const SparsePattern& ap = a.pattern();
  n_ = ap.dim();
  const auto un = static_cast<std::size_t>(n_);
  ++symbolic_builds_;

  // 1. Fill-reducing column pre-order (symmetric permutation first).
  cp_ = min_degree_order(ap);
  std::vector<int> cinv(un);
  for (int j = 0; j < n_; ++j) cinv[static_cast<std::size_t>(cp_[j])] = j;

  // 2. Pivoting first factorization: fixes the row permutation from
  //    real partial pivoting, once per topology.
  std::vector<std::size_t> pivot_perm;
  try {
    pivot_perm = pivot_row_order(a, cinv, opt_.pivot_tol);
  } catch (const SingularMatrixError& e) {
    // Report the ORIGINAL column index, not the position in the
    // min-degree pre-order, so the error names an unknown of the
    // caller's system ("singular MNA matrix at pivot column N").
    throw SingularMatrixError(static_cast<std::size_t>(cp_[e.column()]));
  }
  rp_.resize(un);
  for (int i = 0; i < n_; ++i)
    rp_[static_cast<std::size_t>(i)] =
        cp_[pivot_perm[static_cast<std::size_t>(i)]];

  // 3. Freeze the L+U fill pattern of the permuted matrix.
  fill_ = symbolic_fill(ap, rp_, cp_);
  urow_start_.resize(un);
  for (int i = 0; i < n_; ++i) {
    const int d = fill_->find(i, i);
    urow_start_[static_cast<std::size_t>(i)] = static_cast<std::size_t>(d);
  }

  // 4. Scatter map from A's slots into factored coordinates.
  std::vector<int> rinv(un);
  for (int i = 0; i < n_; ++i) rinv[static_cast<std::size_t>(rp_[i])] = i;
  as_row_ptr_.assign(un + 1, 0);
  as_col_.resize(ap.nnz());
  as_slot_.resize(ap.nnz());
  for (int r = 0; r < n_; ++r)
    as_row_ptr_[static_cast<std::size_t>(rinv[static_cast<std::size_t>(r)]) +
                1] += ap.row_ptr()[static_cast<std::size_t>(r) + 1] -
                      ap.row_ptr()[static_cast<std::size_t>(r)];
  for (std::size_t i = 0; i < un; ++i) as_row_ptr_[i + 1] += as_row_ptr_[i];
  {
    std::vector<std::size_t> cursor(as_row_ptr_.begin(),
                                    as_row_ptr_.end() - 1);
    for (int r = 0; r < n_; ++r) {
      const auto fr = static_cast<std::size_t>(rinv[static_cast<std::size_t>(r)]);
      for (std::size_t s = ap.row_ptr()[static_cast<std::size_t>(r)];
           s < ap.row_ptr()[static_cast<std::size_t>(r) + 1]; ++s) {
        as_col_[cursor[fr]] =
            cinv[static_cast<std::size_t>(ap.col_idx()[s])];
        as_slot_[cursor[fr]] = s;
        ++cursor[fr];
      }
    }
  }

  fvals_.assign(fill_->nnz(), T{});
  diag_inv_.assign(un, T{});
  diag_ref_.assign(un, 0.0);
  work_.assign(un, T{});
  ywork_.assign(un, T{});
  a_pattern_ = a.pattern_ptr();
}

template <typename T>
void SparseLu<T>::refactor_values(const SparseMatrix<T>& a, bool fresh_pivot) {
  const auto un = static_cast<std::size_t>(n_);
  // A refactor pivot below the drift threshold is still sound when it
  // has kept the magnitude it had at the pivoting factorization — the
  // permutation was chosen with that scale, so nothing has drifted.
  constexpr double kRefFrac = 0.1;

  const auto& frp = fill_->row_ptr();
  const auto& fci = fill_->col_idx();
  for (std::size_t i = 0; i < un; ++i) {
    // Scatter row i of the permuted A over the frozen factor pattern.
    for (std::size_t s = frp[i]; s < frp[i + 1]; ++s)
      work_[static_cast<std::size_t>(fci[s])] = T{};
    double rmax = 0.0;  // row scale, for the row-relative pivot tests
    for (std::size_t s = as_row_ptr_[i]; s < as_row_ptr_[i + 1]; ++s) {
      const T v = a.values()[as_slot_[s]];
      work_[static_cast<std::size_t>(as_col_[s])] += v;
      rmax = std::max(rmax, std::abs(v));
    }
    // MNA rows span many orders of magnitude (a gate node guarded only
    // by gmin sits next to a 1-siemens switch row), so both tests are
    // relative to THIS row's scale, not the global matrix max — a
    // globally-relative threshold would flag legitimately tiny rows.
    // The first numeric pass reuses the values the pivoting pass just
    // accepted, so it applies the (loose) singularity threshold, not
    // the drift threshold: rejecting a pivot partial pivoting chose
    // moments earlier would be contradictory.
    const double scale = rmax > 0 ? rmax : 1.0;
    const double tol =
        (fresh_pivot ? opt_.pivot_tol : opt_.drift_tol) * scale;
    // Up-looking elimination against the already-factored rows.
    for (std::size_t s = frp[i]; s < urow_start_[i]; ++s) {
      const auto j = static_cast<std::size_t>(fci[s]);
      const T lij = work_[j] * diag_inv_[j];
      work_[j] = lij;
      if (lij == T{}) continue;
      for (std::size_t t = urow_start_[j] + 1; t < frp[j + 1]; ++t)
        work_[static_cast<std::size_t>(fci[t])] -= lij * fvals_[t];
    }
    const T d = work_[i];
    const double ad = std::abs(d);
    if (ad < tol && (fresh_pivot || ad < kRefFrac * diag_ref_[i])) {
      factored_ = false;
      // Local static so the hot numeric path never touches the registry
      // lock; the MNA engine re-pivots on this signal.
      static obs::Counter& drift = obs::counter("linalg.pivot_drift");
      drift.add();
      throw PivotDriftError(i);
    }
    if (fresh_pivot) diag_ref_[i] = ad;
    diag_inv_[i] = T{1} / d;
    for (std::size_t s = frp[i]; s < frp[i + 1]; ++s)
      fvals_[s] = work_[static_cast<std::size_t>(fci[s])];
  }
  factored_ = true;
}

template <typename T>
void SparseLu<T>::factor(const SparseMatrix<T>& a) {
  static obs::Timer& t = obs::timer("linalg.sparse.factor");
  obs::ScopedTimer timed(t);
  build_symbolic(a);  // throws SingularMatrixError on singular input
  try {
    refactor_values(a, /*fresh_pivot=*/true);
  } catch (const PivotDriftError& e) {
    // The pivoting pass succeeded but the frozen-order numeric
    // pass hit a tiny pivot (its row-relative drift test is stricter
    // than the pivoting pass's global threshold): treat as singular for
    // this topology, reporting the original column index.
    throw SingularMatrixError(static_cast<std::size_t>(cp_[e.row()]));
  }
}

template <typename T>
void SparseLu<T>::refactor(const SparseMatrix<T>& a) {
  if (!fill_ || a.pattern_ptr() != a_pattern_) {
    factor(a);
    return;
  }
  static obs::Timer& t = obs::timer("linalg.sparse.refactor");
  obs::ScopedTimer timed(t);
  refactor_values(a, /*fresh_pivot=*/false);
}

template <typename T>
void SparseLu<T>::solve(const std::vector<T>& b, std::vector<T>& x) const {
  const auto un = static_cast<std::size_t>(n_);
  if (!factored_) throw std::logic_error("SparseLu::solve before factor");
  if (b.size() != un)
    throw std::invalid_argument("SparseLu::solve: size mismatch");
  const auto& frp = fill_->row_ptr();
  const auto& fci = fill_->col_idx();
  // Forward-substitute L y = (row-permuted) b.
  for (std::size_t i = 0; i < un; ++i) {
    T acc = b[static_cast<std::size_t>(rp_[i])];
    for (std::size_t s = frp[i]; s < urow_start_[i]; ++s)
      acc -= fvals_[s] * ywork_[static_cast<std::size_t>(fci[s])];
    ywork_[i] = acc;
  }
  // Back-substitute U z = y.
  for (std::size_t ii = un; ii-- > 0;) {
    T acc = ywork_[ii];
    for (std::size_t s = urow_start_[ii] + 1; s < frp[ii + 1]; ++s)
      acc -= fvals_[s] * ywork_[static_cast<std::size_t>(fci[s])];
    ywork_[ii] = acc * diag_inv_[ii];
  }
  // Un-permute columns: x[cp_[j]] = z[j].
  x.resize(un);
  for (std::size_t j = 0; j < un; ++j)
    x[static_cast<std::size_t>(cp_[j])] = ywork_[j];
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace si::linalg
