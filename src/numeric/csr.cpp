#include "numeric/csr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace m3d::numeric {

void Csr::spmv(const double* x, double* y) const {
  for (int i = 0; i < rows; ++i) {
    double sum = 0.0;
    const int b = row_ptr[static_cast<size_t>(i)];
    const int e = row_ptr[static_cast<size_t>(i) + 1];
    for (int k = b; k < e; ++k) {
      sum += val[static_cast<size_t>(k)] * x[col[static_cast<size_t>(k)]];
    }
    y[i] = sum;
  }
}

void Csr::spmv(const std::vector<double>& x, std::vector<double>& y) const {
  assert(static_cast<int>(x.size()) == cols);
  y.resize(static_cast<size_t>(rows));
  spmv(x.data(), y.data());
}

double Csr::max_abs() const {
  // Four independent std::max folds from +0.0, combined at the end. A lane
  // never holds a NaN (std::max(m, NaN) keeps m) or a -0.0 (|v| is never
  // -0.0), so every lane and the result is the exact maximum of a set of
  // non-negative numbers: the same value a single serial fold gives, in
  // any order, without the serial dependence chain.
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  const size_t n = val.size();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    m0 = std::max(m0, std::abs(val[k]));
    m1 = std::max(m1, std::abs(val[k + 1]));
    m2 = std::max(m2, std::abs(val[k + 2]));
    m3 = std::max(m3, std::abs(val[k + 3]));
  }
  for (; k < n; ++k) m0 = std::max(m0, std::abs(val[k]));
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

void CsrBuilder::add(int row, int col, double v) {
  assert(row >= 0 && row < rows_ && col >= 0 && col < cols_);
  trips_.push_back(Trip{row, col, v});
}

void CsrBuilder::merge(const CsrBuilder& other) {
  assert(other.rows_ == rows_ && other.cols_ == cols_);
  trips_.insert(trips_.end(), other.trips_.begin(), other.trips_.end());
}

Csr CsrBuilder::build(std::vector<int>* slot_of_add) const {
  const size_t n = trips_.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Stable: equal (row, col) keys keep insertion order, so duplicate
  // contributions sum in exactly the order they were added.
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const Trip& ta = trips_[static_cast<size_t>(a)];
    const Trip& tb = trips_[static_cast<size_t>(b)];
    return ta.r != tb.r ? ta.r < tb.r : ta.c < tb.c;
  });

  Csr m;
  m.rows = rows_;
  m.cols = cols_;
  m.row_ptr.assign(static_cast<size_t>(rows_) + 1, 0);
  m.col.reserve(n);
  m.val.reserve(n);
  if (slot_of_add != nullptr) slot_of_add->assign(n, -1);

  int prev_r = -1, prev_c = -1;
  for (int oi : order) {
    const Trip& t = trips_[static_cast<size_t>(oi)];
    if (t.r == prev_r && t.c == prev_c) {
      m.val.back() += t.v;
    } else {
      m.col.push_back(t.c);
      m.val.push_back(t.v);
      prev_r = t.r;
      prev_c = t.c;
      m.row_ptr[static_cast<size_t>(t.r) + 1] += 1;
    }
    if (slot_of_add != nullptr) {
      (*slot_of_add)[static_cast<size_t>(oi)] =
          static_cast<int>(m.val.size()) - 1;
    }
  }
  for (int i = 0; i < rows_; ++i) {
    m.row_ptr[static_cast<size_t>(i) + 1] += m.row_ptr[static_cast<size_t>(i)];
  }
  m.diag_slot.assign(static_cast<size_t>(rows_), -1);
  for (int i = 0; i < rows_; ++i) {
    for (int k = m.row_ptr[static_cast<size_t>(i)];
         k < m.row_ptr[static_cast<size_t>(i) + 1]; ++k) {
      if (m.col[static_cast<size_t>(k)] == i) {
        m.diag_slot[static_cast<size_t>(i)] = k;
        break;
      }
    }
  }
  return m;
}

}  // namespace m3d::numeric
