#include "spice/element.hpp"

#include <stdexcept>

#include "spice/circuit.hpp"

namespace si::spice {

SolutionView::SolutionView(const Circuit& c, const linalg::Vector& x)
    : circuit_(&c), x_(&x) {
  if (x.size() != c.system_size())
    throw std::invalid_argument("SolutionView: vector size mismatch");
}

double SolutionView::voltage(NodeId n) const {
  if (n == kGroundNode) return 0.0;
  return (*x_)[static_cast<std::size_t>(n - 1)];
}

double SolutionView::branch_current(int branch) const {
  return (*x_)[circuit_->node_count() - 1 + static_cast<std::size_t>(branch)];
}

RealStamper::RealStamper(const Circuit& c, linalg::SparseMatrixD& a,
                         linalg::Vector& b, const linalg::Vector& x,
                         linalg::SlotMemo* memo)
    : circuit_(&c), sparse_(&a), memo_(memo), b_(&b), x_(&x) {}

RealStamper::RealStamper(const Circuit& c, linalg::PatternBuilder& rec,
                         linalg::Vector& b, const linalg::Vector& x)
    : circuit_(&c), record_(&rec), b_(&b), x_(&x) {}

void RealStamper::add(int r, int c, double v) {
  if (scope_) {
    if (!(*scope_)[static_cast<std::size_t>(r)]) return;  // frozen equation
    if (!(*scope_)[static_cast<std::size_t>(c)]) {
      // Out-of-scope column: the unknown is held at its last solved
      // value, so its contribution is a known current — condense it.
      (*b_)[static_cast<std::size_t>(r)] -=
          v * (*x_)[static_cast<std::size_t>(c)];
      return;
    }
  }
  if (sparse_)
    sparse_->add(r, c, v, memo_);
  else
    record_->add(r, c);
}

int RealStamper::branch_index(int branch) const {
  return static_cast<int>(circuit_->node_count()) - 1 + branch;
}

double RealStamper::voltage(NodeId n) const {
  if (n == kGroundNode) return 0.0;
  return (*x_)[static_cast<std::size_t>(n - 1)];
}

double RealStamper::branch_current(int branch) const {
  return (*x_)[static_cast<std::size_t>(branch_index(branch))];
}

void RealStamper::conductance(NodeId a, NodeId b, double g) {
  const int ia = node_index(a);
  const int ib = node_index(b);
  if (ia >= 0) add(ia, ia, g);
  if (ib >= 0) add(ib, ib, g);
  if (ia >= 0 && ib >= 0) {
    add(ia, ib, -g);
    add(ib, ia, -g);
  }
}

void RealStamper::transconductance(NodeId out_p, NodeId out_m, NodeId cp,
                                   NodeId cm, double g) {
  const int ip = node_index(out_p);
  const int im = node_index(out_m);
  const int icp = node_index(cp);
  const int icm = node_index(cm);
  if (ip >= 0 && icp >= 0) add(ip, icp, g);
  if (ip >= 0 && icm >= 0) add(ip, icm, -g);
  if (im >= 0 && icp >= 0) add(im, icp, -g);
  if (im >= 0 && icm >= 0) add(im, icm, g);
}

void RealStamper::current(NodeId p, NodeId m, double i) {
  const int ip = node_index(p);
  const int im = node_index(m);
  if (ip >= 0 && row_in_scope(ip)) (*b_)[static_cast<std::size_t>(ip)] -= i;
  if (im >= 0 && row_in_scope(im)) (*b_)[static_cast<std::size_t>(im)] += i;
}

void RealStamper::branch_voltage_row(int branch, NodeId p, NodeId m) {
  const int row = branch_index(branch);
  const int ip = node_index(p);
  const int im = node_index(m);
  if (ip >= 0) {
    add(row, ip, 1.0);
    add(ip, row, 1.0);
  }
  if (im >= 0) {
    add(row, im, -1.0);
    add(im, row, -1.0);
  }
}

void RealStamper::branch_rhs(int branch, double v) {
  const int row = branch_index(branch);
  if (row_in_scope(row)) (*b_)[static_cast<std::size_t>(row)] += v;
}

void RealStamper::branch_row_entry(int branch, NodeId n, double coeff) {
  const int row = branch_index(branch);
  const int in = node_index(n);
  if (in >= 0) add(row, in, coeff);
}

void RealStamper::node_branch_entry(NodeId n, int branch, double coeff) {
  const int in = node_index(n);
  const int col = branch_index(branch);
  if (in >= 0) add(in, col, coeff);
}

void RealStamper::branch_branch_entry(int row_branch, int col_branch,
                                      double coeff) {
  add(branch_index(row_branch), branch_index(col_branch), coeff);
}

ComplexStamper::ComplexStamper(const Circuit& c, linalg::SparseMatrixZ& a,
                               linalg::ComplexVector& b,
                               linalg::SlotMemo* memo)
    : circuit_(&c), sparse_(&a), memo_(memo), b_(&b) {}

ComplexStamper::ComplexStamper(const Circuit& c, linalg::PatternBuilder& rec,
                               linalg::ComplexVector& b)
    : circuit_(&c), record_(&rec), b_(&b) {}

void ComplexStamper::add(int r, int c, std::complex<double> v) {
  if (sparse_)
    sparse_->add(r, c, v, memo_);
  else
    record_->add(r, c);
}

int ComplexStamper::branch_index(int branch) const {
  return static_cast<int>(circuit_->node_count()) - 1 + branch;
}

void ComplexStamper::admittance(NodeId a, NodeId b, std::complex<double> y) {
  const int ia = node_index(a);
  const int ib = node_index(b);
  if (ia >= 0) add(ia, ia, y);
  if (ib >= 0) add(ib, ib, y);
  if (ia >= 0 && ib >= 0) {
    add(ia, ib, -y);
    add(ib, ia, -y);
  }
}

void ComplexStamper::transadmittance(NodeId out_p, NodeId out_m, NodeId cp,
                                     NodeId cm, std::complex<double> y) {
  const int ip = node_index(out_p);
  const int im = node_index(out_m);
  const int icp = node_index(cp);
  const int icm = node_index(cm);
  if (ip >= 0 && icp >= 0) add(ip, icp, y);
  if (ip >= 0 && icm >= 0) add(ip, icm, -y);
  if (im >= 0 && icp >= 0) add(im, icp, -y);
  if (im >= 0 && icm >= 0) add(im, icm, y);
}

void ComplexStamper::current(NodeId p, NodeId m, std::complex<double> i) {
  const int ip = node_index(p);
  const int im = node_index(m);
  if (ip >= 0) (*b_)[static_cast<std::size_t>(ip)] -= i;
  if (im >= 0) (*b_)[static_cast<std::size_t>(im)] += i;
}

void ComplexStamper::branch_voltage_row(int branch, NodeId p, NodeId m) {
  const int row = branch_index(branch);
  const int ip = node_index(p);
  const int im = node_index(m);
  if (ip >= 0) {
    add(row, ip, 1.0);
    add(ip, row, 1.0);
  }
  if (im >= 0) {
    add(row, im, -1.0);
    add(im, row, -1.0);
  }
}

void ComplexStamper::branch_rhs(int branch, std::complex<double> v) {
  (*b_)[static_cast<std::size_t>(branch_index(branch))] += v;
}

void ComplexStamper::branch_row_entry(int branch, NodeId n,
                                      std::complex<double> coeff) {
  const int row = branch_index(branch);
  const int in = node_index(n);
  if (in >= 0) add(row, in, coeff);
}

void ComplexStamper::node_branch_entry(NodeId n, int branch,
                                       std::complex<double> coeff) {
  const int in = node_index(n);
  const int col = branch_index(branch);
  if (in >= 0) add(in, col, coeff);
}

void ComplexStamper::branch_branch_entry(int row_branch, int col_branch,
                                         std::complex<double> coeff) {
  add(branch_index(row_branch), branch_index(col_branch), coeff);
}

void Element::stamp_ac(ComplexStamper&, double) const {
  // Default: element vanishes in small-signal analysis (e.g. ideal
  // independent sources contribute nothing unless they are the AC input).
}

}  // namespace si::spice
