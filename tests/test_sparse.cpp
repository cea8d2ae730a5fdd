// Sparse pattern / sparse LU unit tests: randomized dense-vs-sparse
// equivalence on MNA-shaped and SPD matrices (real and complex),
// refactor reuse, pivot drift, singular-matrix parity with the dense
// path, the slot-memo replay used by pattern-cached stamping, and the
// pivot oracle: SparseLu's pivoting pass must pick exactly the rows the
// dense partial-pivoting code picks.
#include <gtest/gtest.h>

#include <complex>
#include <random>

#include "linalg/lu.hpp"
#include "linalg/sparse.hpp"
#include "si/netlists.hpp"
#include "spice/dc.hpp"

using namespace si::linalg;
using cplx = std::complex<double>;

namespace {

// Random sparse pattern shaped like an MNA system: a diagonally-coupled
// node block plus a few "branch rows" with zero diagonal that only
// couple off-diagonally (the voltage-source structure that forces real
// pivoting).
struct RandomSystem {
  std::shared_ptr<const SparsePattern> pattern;
  std::vector<std::pair<int, int>> coords;  // includes the transpose pairs
};

RandomSystem random_mna_pattern(int n_nodes, int n_branches,
                                std::mt19937& rng) {
  const int n = n_nodes + n_branches;
  PatternBuilder b(n);
  std::vector<std::pair<int, int>> coords;
  std::uniform_int_distribution<int> node(0, n_nodes - 1);
  // Two-terminal conductances between random node pairs.
  for (int k = 0; k < 3 * n_nodes; ++k) {
    const int i = node(rng), j = node(rng);
    b.add(i, i);
    b.add(j, j);
    b.add(i, j);
    b.add(j, i);
    coords.push_back({i, i});
    coords.push_back({j, j});
    coords.push_back({i, j});
    coords.push_back({j, i});
  }
  // Branch rows: +-1 couplings, structurally zero diagonal.
  for (int k = 0; k < n_branches; ++k) {
    const int row = n_nodes + k;
    const int i = node(rng);
    b.add(row, i);
    b.add(i, row);
    coords.push_back({row, i});
    coords.push_back({i, row});
  }
  RandomSystem s;
  s.pattern = b.build();
  s.coords = coords;
  return s;
}

template <typename T>
T random_value(std::mt19937& rng);

template <>
double random_value<double>(std::mt19937& rng) {
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  return d(rng);
}

template <>
cplx random_value<cplx>(std::mt19937& rng) {
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  return {d(rng), d(rng)};
}

// Fills a random MNA-shaped matrix: conductance-like values plus a
// dominant diagonal on the node block and +-1 branch couplings.
template <typename T>
SparseMatrix<T> random_mna_values(const RandomSystem& s, int n_nodes,
                                  std::mt19937& rng) {
  SparseMatrix<T> a(s.pattern);
  for (const auto& [i, j] : s.coords)
    a.add(i, j, random_value<T>(rng) * T{0.3});
  for (int i = 0; i < n_nodes; ++i) a.add(i, i, T{4.0});
  // Branch couplings get unit-scale entries.
  const auto& rp = s.pattern->row_ptr();
  for (int r = n_nodes; r < s.pattern->dim(); ++r)
    for (std::size_t k = rp[static_cast<std::size_t>(r)];
         k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = s.pattern->col_idx()[k];
      if (c != r) {
        a.add(r, c, T{1.0});
        a.add(c, r, T{1.0});
      }
    }
  return a;
}

template <typename T>
double rel_err(const std::vector<T>& a, const std::vector<T>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num = std::max(num, std::abs(a[i] - b[i]));
    den = std::max(den, std::abs(b[i]));
  }
  return num / (den > 0 ? den : 1.0);
}

template <typename T>
void check_dense_sparse_agree(int n_nodes, int n_branches,
                              std::uint32_t seed) {
  std::mt19937 rng(seed);
  const auto sys = random_mna_pattern(n_nodes, n_branches, rng);
  const auto a = random_mna_values<T>(sys, n_nodes, rng);
  const int n = sys.pattern->dim();

  std::vector<T> bvec(static_cast<std::size_t>(n));
  for (auto& v : bvec) v = random_value<T>(rng);

  LuFactorization<T> dense(a.to_dense());
  const std::vector<T> x_dense = dense.solve(bvec);

  SparseLu<T> lu;
  lu.factor(a);
  std::vector<T> x_sparse;
  lu.solve(bvec, x_sparse);

  EXPECT_LT(rel_err(x_sparse, x_dense), 1e-12)
      << "n_nodes=" << n_nodes << " branches=" << n_branches
      << " seed=" << seed;

  // Residual check against the original matrix.
  const auto r = a.multiply(x_sparse);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(r[static_cast<std::size_t>(i)] -
                         bvec[static_cast<std::size_t>(i)]),
                0.0, 1e-9);
}

}  // namespace

TEST(SparsePattern, BuildSortsDeduplicatesAndAddsDiagonal) {
  PatternBuilder b(4);
  b.add(2, 1);
  b.add(2, 1);
  b.add(0, 3);
  const auto p = b.build(/*symmetrize=*/false);
  EXPECT_EQ(p->dim(), 4);
  // 2 unique off-diagonal coords + 4 diagonal entries.
  EXPECT_EQ(p->nnz(), 6u);
  EXPECT_GE(p->find(2, 1), 0);
  EXPECT_GE(p->find(0, 3), 0);
  EXPECT_EQ(p->find(1, 2), -1);
  EXPECT_EQ(p->find(3, 0), -1);
  for (int i = 0; i < 4; ++i) EXPECT_GE(p->find(i, i), 0);
  EXPECT_EQ(p->diag_slots().size(), 4u);
}

TEST(SparsePattern, SymmetrizeAddsTransposedCoords) {
  PatternBuilder b(3);
  b.add(0, 2);
  const auto p = b.build(/*symmetrize=*/true);
  EXPECT_GE(p->find(0, 2), 0);
  EXPECT_GE(p->find(2, 0), 0);
}

TEST(SparseMatrix, AddOutsidePatternThrows) {
  PatternBuilder b(3);
  b.add(0, 1);
  SparseMatrix<double> a(b.build(false));
  a.add(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(a.get(0, 1), 2.0);
  EXPECT_THROW(a.add(1, 2, 1.0), PatternMissError);
}

TEST(SparseMatrix, SlotMemoReplaysAndPatchesShiftedSequences) {
  PatternBuilder b(3);
  b.add(0, 1);
  b.add(1, 0);
  SparseMatrix<double> a(b.build(false));
  SlotMemo memo;

  memo.start_record();
  a.add(0, 1, 1.0, &memo);
  a.add(1, 0, 1.0, &memo);
  ASSERT_EQ(memo.slots.size(), 2u);

  memo.start_replay();
  a.add(0, 1, 1.0, &memo);  // fast path
  a.add(1, 0, 1.0, &memo);
  EXPECT_DOUBLE_EQ(a.get(0, 1), 2.0);

  // Shifted sequence (swapped order): must still land correctly.
  memo.start_replay();
  a.add(1, 0, 5.0, &memo);
  a.add(0, 1, 7.0, &memo);
  EXPECT_DOUBLE_EQ(a.get(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(a.get(0, 1), 9.0);

  // Longer-than-recorded sequence appends.
  memo.start_replay();
  a.add(1, 0, 0.0, &memo);
  a.add(0, 1, 0.0, &memo);
  a.add(2, 2, 3.0, &memo);
  EXPECT_DOUBLE_EQ(a.get(2, 2), 3.0);
}

TEST(MinDegree, ProducesAValidPermutation) {
  std::mt19937 rng(7);
  const auto sys = random_mna_pattern(12, 3, rng);
  const auto order = min_degree_order(*sys.pattern);
  ASSERT_EQ(order.size(), 15u);
  std::vector<char> seen(15, 0);
  for (int v : order) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 15);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = 1;
  }
}

TEST(SparseOrdering, MinDegreeTieBreak) {
  // Pins the documented tie-break: equal minimum degrees eliminate the
  // LOWEST original index first, making the ordering a pure function of
  // the pattern (see min_degree_order in sparse.hpp).
  {
    // Star 0-{1,2,3,4} plus edge 3-4.  Ties at step 1 (leaves 1 vs 2),
    // step 3 (0, 3, 4 all degree 2) and step 4 (3 vs 4).
    PatternBuilder b(5);
    for (int leaf : {1, 2, 3, 4}) b.add(0, leaf);
    b.add(3, 4);
    const auto order = min_degree_order(*b.build(true));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3, 4}));
  }
  {
    // Path 0-1-2-3: both endpoints start at degree 1; index order wins.
    PatternBuilder b(4);
    b.add(0, 1);
    b.add(1, 2);
    b.add(2, 3);
    const auto order = min_degree_order(*b.build(true));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  }
  {
    // Fully tied: an empty pattern (diagonal only) must come out in
    // index order, and repeated runs must agree exactly.
    PatternBuilder b(6);
    const auto p = b.build(true);
    const auto order = min_degree_order(*p);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(order, min_degree_order(*p));
  }
}

TEST(SparseLu, AgreesWithDenseOnRandomMnaSystemsReal) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed)
    check_dense_sparse_agree<double>(10 + 3 * static_cast<int>(seed),
                                     static_cast<int>(seed % 4), seed);
}

TEST(SparseLu, AgreesWithDenseOnRandomMnaSystemsComplex) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed)
    check_dense_sparse_agree<cplx>(10 + 3 * static_cast<int>(seed),
                                   static_cast<int>(seed % 4), seed);
}

TEST(SparseLu, AgreesWithDenseOnSpdMatrices) {
  // SPD-ish: symmetric value assignment with a strong diagonal.
  std::mt19937 rng(42);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 20 + 10 * trial;
    const auto sys = random_mna_pattern(n, 0, rng);
    SparseMatrix<double> a(sys.pattern);
    for (const auto& [i, j] : sys.coords) {
      if (i > j) continue;
      const double v = random_value<double>(rng) * 0.2;
      a.add(i, j, v);
      if (i != j) a.add(j, i, v);
    }
    for (int i = 0; i < n; ++i) a.add(i, i, 5.0);

    std::vector<double> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = random_value<double>(rng);

    LuFactorization<double> dense(a.to_dense());
    SparseLu<double> lu;
    lu.factor(a);
    std::vector<double> xs;
    lu.solve(b, xs);
    EXPECT_LT(rel_err(xs, dense.solve(b)), 1e-12);
  }
}

TEST(SparseLu, RefactorReusesSymbolicAndMatchesFreshFactor) {
  std::mt19937 rng(11);
  const auto sys = random_mna_pattern(20, 4, rng);
  auto a = random_mna_values<double>(sys, 20, rng);

  SparseLu<double> lu;
  lu.factor(a);
  EXPECT_EQ(lu.symbolic_builds(), 1u);

  // New values, same pattern: refactor must not redo symbolic analysis.
  std::mt19937 rng2(12);
  auto a2 = random_mna_values<double>(sys, 20, rng2);
  lu.refactor(a2);
  EXPECT_EQ(lu.symbolic_builds(), 1u);

  std::vector<double> b(a2.values().size() ? static_cast<std::size_t>(
                                                 sys.pattern->dim())
                                           : 0u);
  for (auto& v : b) v = random_value<double>(rng2);
  std::vector<double> xs;
  lu.solve(b, xs);
  EXPECT_LT(rel_err(xs, LuFactorization<double>(a2.to_dense()).solve(b)),
            1e-12);
}

TEST(SparseLu, SingularMatrixParityWithDense) {
  // Two identical rows -> singular for both engines.
  PatternBuilder pb(3);
  pb.add(0, 1);
  pb.add(1, 0);
  pb.add(0, 0);
  pb.add(1, 1);
  pb.add(2, 2);
  SparseMatrix<double> a(pb.build());
  a.add(0, 0, 1.0);
  a.add(0, 1, 2.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 2.0);
  a.add(2, 2, 1.0);

  EXPECT_THROW(LuFactorization<double> dense(a.to_dense()),
               SingularMatrixError);
  SparseLu<double> lu;
  EXPECT_THROW(lu.factor(a), SingularMatrixError);
}

TEST(SparseLu, PivotDriftOnRefactorThrowsAndRefactorsAfterRepivot) {
  // Factor with a benign matrix, then collapse a pivot to ~0 while a
  // large entry elsewhere keeps the matrix well-conditioned: the frozen
  // pivot order is now bad and the refactor must say so.
  PatternBuilder pb(2);
  pb.add(0, 1);
  pb.add(1, 0);
  SparseMatrix<double> a(pb.build());
  a.add(0, 0, 1.0);
  a.add(1, 1, 1.0);
  a.add(0, 1, 0.0);
  a.add(1, 0, 0.0);

  SparseLu<double> lu;
  lu.factor(a);

  SparseMatrix<double> bad(a.pattern_ptr());
  bad.add(0, 0, 0.0);
  bad.add(0, 1, 1.0);
  bad.add(1, 0, 1.0);
  bad.add(1, 1, 0.0);
  EXPECT_THROW(lu.refactor(bad), PivotDriftError);

  // A full factor() re-pivots and handles it.
  lu.factor(bad);
  std::vector<double> x;
  lu.solve({2.0, 3.0}, x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, SolveIsReusableAcrossManyRhs) {
  std::mt19937 rng(5);
  const auto sys = random_mna_pattern(15, 2, rng);
  const auto a = random_mna_values<cplx>(sys, 15, rng);
  SparseLu<cplx> lu;
  lu.factor(a);
  LuFactorization<cplx> dense(a.to_dense());

  std::vector<cplx> b(static_cast<std::size_t>(sys.pattern->dim()));
  std::vector<cplx> x;
  for (int k = 0; k < 5; ++k) {
    for (auto& v : b) v = random_value<cplx>(rng);
    lu.solve(b, x);
    EXPECT_LT(rel_err(x, dense.solve(b)), 1e-12);
  }
}

// ------------------------------------------------------- pivot oracle

namespace {

/// Asserts SparseLu pivots `a` exactly as lu_factor_in_place does on
/// the dense copy in the min-degree pre-order: the same original row in
/// every factored position, or a SingularMatrixError at the same
/// original column.  Returns whether the matrix factored.
template <typename T>
bool expect_dense_pivot_order(const SparseMatrix<T>& a,
                              const std::string& what) {
  const SparsePattern& p = a.pattern();
  const auto cp = min_degree_order(p);
  const auto n = static_cast<std::size_t>(p.dim());
  std::vector<std::size_t> cinv(n);
  for (std::size_t j = 0; j < n; ++j) cinv[static_cast<std::size_t>(cp[j])] = j;
  DenseMatrix<T> m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t s = p.row_ptr()[r]; s < p.row_ptr()[r + 1]; ++s)
      m(cinv[r], cinv[static_cast<std::size_t>(p.col_idx()[s])]) =
          a.values()[s];
  std::vector<std::size_t> perm;
  SparseLu<T> lu;
  try {
    lu_factor_in_place(m, perm);
  } catch (const SingularMatrixError& dense) {
    try {
      lu.factor(a);
      ADD_FAILURE() << what << ": the dense code finds the matrix singular";
    } catch (const SingularMatrixError& e) {
      EXPECT_EQ(e.column(), static_cast<std::size_t>(cp[dense.column()]))
          << what;
    }
    return false;
  }
  lu.factor(a);
  std::vector<int> want(n);
  for (std::size_t i = 0; i < n; ++i) want[i] = cp[perm[i]];
  EXPECT_EQ(lu.row_order(), want) << what;
  return true;
}

/// A random square matrix over a random pattern whose values all have
/// magnitude 1 or 2, so every pivot search meets exact ties.
SparseMatrix<double> tied_magnitude_matrix(int n, double density,
                                           std::mt19937& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  PatternBuilder b(n);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      if (u(rng) < density) b.add(r, c);
  SparseMatrix<double> a(b.build(/*symmetrize=*/false));
  // Some pattern entries (the diagonal included) stay zero, so pivots
  // have to come from off the diagonal.
  for (auto& v : a.values())
    v = u(rng) < 0.2 ? 0.0 : (u(rng) < 0.5 ? -1.0 : 1.0) * (u(rng) < 0.5 ? 1.0 : 2.0);
  return a;
}

}  // namespace

TEST(SparsePivotOracle, ExactMagnitudeTiesBreakToLowestPosition) {
  // A 4x4 Hadamard matrix: every candidate of the first column ties at
  // 1, and elimination leaves ties at 0 and 2.
  {
    PatternBuilder b(4);
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c) b.add(r, c);
    SparseMatrix<double> a(b.build());
    const double v[4][4] = {
        {1, 1, 1, 1}, {1, -1, 1, -1}, {1, 1, -1, -1}, {1, -1, -1, 1}};
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 4; ++c) a.add(r, c, v[r][c]);
    EXPECT_TRUE(expect_dense_pivot_order(a, "Hadamard matrix"));
  }
  std::mt19937 rng(2024);
  int factored = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto a = tied_magnitude_matrix(6 + trial % 20, 0.3, rng);
    factored += expect_dense_pivot_order(a, "tied trial " +
                                                std::to_string(trial));
  }
  EXPECT_GT(factored, 20) << "too few nonsingular trials to mean much";
}

TEST(SparsePivotOracle, StructurallyMissingDiagonal) {
  // A cyclic permutation: the only entry of every column is off the
  // diagonal, so each step pivots a row the pre-order did not put there.
  {
    PatternBuilder b(4);
    for (int r = 0; r < 4; ++r) b.add(r, (r + 1) % 4);
    SparseMatrix<double> a(b.build(/*symmetrize=*/false));
    for (int r = 0; r < 4; ++r) a.add(r, (r + 1) % 4, 1.0 + r);
    EXPECT_TRUE(expect_dense_pivot_order(a, "cyclic permutation"));
  }
  // MNA systems whose voltage-source branch rows have no diagonal.
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    std::mt19937 rng(seed);
    const int nodes = 8 + 2 * static_cast<int>(seed);
    const int branches = 1 + static_cast<int>(seed % 5);
    const auto sys = random_mna_pattern(nodes, branches, rng);
    const auto a = random_mna_values<double>(sys, nodes, rng);
    EXPECT_TRUE(expect_dense_pivot_order(a, "mna seed " +
                                                std::to_string(seed)));
  }
}

TEST(SparsePivotOracle, ComplexMatrices) {
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    std::mt19937 rng(100 + seed);
    const int nodes = 10 + 3 * static_cast<int>(seed);
    const int branches = static_cast<int>(seed % 4);
    const auto sys = random_mna_pattern(nodes, branches, rng);
    const auto a = random_mna_values<cplx>(sys, nodes, rng);
    EXPECT_TRUE(expect_dense_pivot_order(a, "complex seed " +
                                                std::to_string(seed)));
  }
}

TEST(SparsePivotOracle, SingularMatrixThrowsForTheSameColumn) {
  int singular = 0;
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    std::mt19937 rng(200 + seed);
    const int nodes = 10 + static_cast<int>(seed);
    const auto sys = random_mna_pattern(nodes, 2, rng);
    auto a = random_mna_values<double>(sys, nodes, rng);
    // Zero one node's whole row: singular, at a column the pre-order
    // decides.
    const auto dead = static_cast<std::size_t>(seed % static_cast<std::uint32_t>(nodes));
    const auto& rp = sys.pattern->row_ptr();
    for (std::size_t s = rp[dead]; s < rp[dead + 1]; ++s) a.values()[s] = 0.0;
    singular += !expect_dense_pivot_order(a, "zero row seed " +
                                                 std::to_string(seed));
  }
  EXPECT_EQ(singular, 12);
}

namespace {

namespace nets = si::cells::netlists;

/// The transient-mode Jacobian of the Table 2 modulator core at its DC
/// operating point: the matrix the engine factors on the paper's
/// largest transistor-level circuit.
SparseMatrixD modulator_jacobian(int sections) {
  si::spice::Circuit c;
  c.add<si::spice::VoltageSource>("Vdd", c.node("vdd"), c.ground(), 3.3);
  nets::ModulatorCoreOptions opt;
  const auto h = nets::build_modulator_core(c, sections, opt, "mod_");
  c.add<si::spice::CurrentSource>("Iinp", c.ground(), h.in_p, 4e-6);
  c.add<si::spice::CurrentSource>("Iinm", c.ground(), h.in_m, -4e-6);
  si::spice::DcOptions dopt;
  dopt.erc_gate = false;
  const auto dc = si::spice::dc_operating_point(c, dopt);
  si::spice::StampContext ctx;
  ctx.mode = si::spice::AnalysisMode::kTransient;
  ctx.dt = opt.stage.pair.clock_period / 200.0;
  const auto n = c.system_size();
  si::linalg::Vector b(n, 0.0);
  PatternBuilder pb(static_cast<int>(n));
  {
    si::spice::RealStamper rec(c, pb, b, dc.x);
    for (const auto& e : c.elements()) e->stamp(rec, ctx);
  }
  SparseMatrixD a(pb.build());
  {
    si::spice::RealStamper rs(c, a, b, dc.x);
    for (const auto& e : c.elements()) e->stamp(rs, ctx);
  }
  for (std::size_t i = 0; i < c.node_count() - 1; ++i)
    a.values()[static_cast<std::size_t>(a.pattern().diag_slots()[i])] +=
        ctx.gmin;
  return a;
}

}  // namespace

TEST(SparsePivotOracle, ModulatorJacobians) {
  for (int sections : {8, 32, 128}) {
    const auto a = modulator_jacobian(sections);
    EXPECT_TRUE(expect_dense_pivot_order(
        a, std::to_string(sections) + "-section modulator"));
  }
}
