#include "fem/skyline.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "util/cancel.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/guard.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace feio::fem {
namespace {

// y[x] += (c_t[x] * f[t]) * d[t] for every x in [0, len), adding the terms
// t = 0, 1, ... one at a time in that order, where column c_t = c + t *
// stride. Four terms per pass, so y is loaded and stored once per four;
// the loop over x is contiguous, and the compiler vectorizes it without
// reassociating any sum.
void add_scaled_columns(double* __restrict y, std::ptrdiff_t len,
                        const double* c, std::ptrdiff_t stride,
                        const double* f, const double* d, int terms) {
  int t = 0;
  for (; t + 4 <= terms; t += 4) {
    const double* c0 = c + t * stride;
    const double* c1 = c0 + stride;
    const double* c2 = c1 + stride;
    const double* c3 = c2 + stride;
    const double f0 = f[t], f1 = f[t + 1], f2 = f[t + 2], f3 = f[t + 3];
    const double d0 = d[t], d1 = d[t + 1], d2 = d[t + 2], d3 = d[t + 3];
    for (std::ptrdiff_t x = 0; x < len; ++x) {
      double v = y[x];
      v += c0[x] * f0 * d0;
      v += c1[x] * f1 * d1;
      v += c2[x] * f2 * d2;
      v += c3[x] * f3 * d3;
      y[x] = v;
    }
  }
  for (; t < terms; ++t) {
    const double* ct = c + t * stride;
    for (std::ptrdiff_t x = 0; x < len; ++x) y[x] += ct[x] * f[t] * d[t];
  }
}

}  // namespace

SkylineMatrix::SkylineMatrix(std::vector<int> column_lows)
    : n_(static_cast<int>(column_lows.size())), low_(std::move(column_lows)) {
  FEIO_REQUIRE(n_ >= 1, "matrix size must be positive");
  start_.resize(static_cast<std::size_t>(n_) + 1, 0);
  std::int64_t entries = 0;
  for (int i = 0; i < n_; ++i) {
    const int lo = low_[static_cast<std::size_t>(i)];
    FEIO_REQUIRE(lo >= 0 && lo <= i,
                 "skyline column low out of range at row " + std::to_string(i));
    start_[static_cast<std::size_t>(i)] = entries;
    entries += i - lo + 1;
    max_height_ = std::max(max_height_, i - lo + 1);
  }
  start_[static_cast<std::size_t>(n_)] = entries;
  // Bound the one big allocation of the solve before it happens, through
  // the overflow-checked byte estimate.
  util::guard_check_factor_bytes(util::checked_skyline_bytes(entries),
                                 "skyline factor storage bytes");
  FEIO_FAULT("fem.alloc");
  sky_.assign(static_cast<std::size_t>(entries), 0.0);
}

SkylineMatrix SkylineMatrix::adopt_factor(std::vector<int> column_lows,
                                          std::vector<double> values) {
  SkylineMatrix m(std::move(column_lows));
  FEIO_ASSERT(values.size() == m.sky_.size());
  m.sky_ = std::move(values);
  m.factorized_ = true;
  return m;
}

double SkylineMatrix::get(int i, int j) const {
  if (i < j) std::swap(i, j);
  if (j < low_[static_cast<std::size_t>(i)]) return 0.0;
  return slot(i, j);
}

void SkylineMatrix::set(int i, int j, double v) {
  if (i < j) std::swap(i, j);
  FEIO_ASSERT(j >= low_[static_cast<std::size_t>(i)]);
  slot(i, j) = v;
}

void SkylineMatrix::add(int i, int j, double v) {
  if (i < j) std::swap(i, j);
  FEIO_ASSERT(j >= low_[static_cast<std::size_t>(i)]);
  slot(i, j) += v;
}

void SkylineMatrix::apply_dirichlet(int i, double value,
                                    std::vector<double>& rhs,
                                    std::vector<DirichletRhsOp>* record) {
  FEIO_ASSERT(!factorized_);
  FEIO_ASSERT(static_cast<int>(rhs.size()) == n_);
  // Row part (j < i): the stored columns of row i. Column part (j > i):
  // rows whose envelope reaches back to column i; any such row j has
  // j - low_j < max_height_, so the scan is bounded by the tallest column.
  const int lo = low_[static_cast<std::size_t>(i)];
  const int hi = std::min(n_ - 1, i + max_height_ - 1);
  for (int j = lo; j <= hi; ++j) {
    if (j == i) continue;
    const double a = get(i, j);
    if (a != 0.0) {
      rhs[static_cast<std::size_t>(j)] -= a * value;
      set(i, j, 0.0);
      if (record != nullptr) record->push_back({j, a, value, false});
    }
  }
  set(i, i, 1.0);
  rhs[static_cast<std::size_t>(i)] = value;
  if (record != nullptr) record->push_back({i, 0.0, value, true});
}

void SkylineMatrix::multiply(const std::vector<double>& x,
                             std::vector<double>& y) const {
  FEIO_ASSERT(!factorized_);
  FEIO_ASSERT(static_cast<int>(x.size()) == n_);
  y.assign(static_cast<std::size_t>(n_), 0.0);
  for (int i = 0; i < n_; ++i) {
    const int lo = low_[static_cast<std::size_t>(i)];
    double acc = slot(i, i) * x[static_cast<std::size_t>(i)];
    for (int j = lo; j < i; ++j) {
      const double a = slot(i, j);
      acc += a * x[static_cast<std::size_t>(j)];
      y[static_cast<std::size_t>(j)] += a * x[static_cast<std::size_t>(i)];
    }
    y[static_cast<std::size_t>(i)] += acc;
  }
}

void SkylineMatrix::factorize() {
  FEIO_ASSERT(!factorized_);
  FEIO_TRACE_SPAN(span, "fem.factorize");
  span.arg("n", n_);
  span.arg("profile", static_cast<std::int64_t>(sky_.size()));
  // Pivot tolerance relative to the matrix scale: a pivot this small means
  // the system is singular to working precision (usually a structure with
  // an unconstrained rigid-body mode).
  double max_diag = 0.0;
  for (int j = 0; j < n_; ++j) max_diag = std::max(max_diag, slot(j, j));
  const double tol = 1e-12 * std::max(max_diag, 1e-300);

  const auto pivot_check = [&](double d, int j) {
    FEIO_REQUIRE(d > tol,
                 "non-positive pivot at equation " + std::to_string(j) +
                     " (structure under-constrained or matrix indefinite)");
  };

  // Shallow envelopes take the serial left-looking row sweep — nothing to
  // amortize a panel over. The choice depends ONLY on the structure
  // (max column height), never the thread count, so a given matrix always
  // takes the same code path and factors bit-identically at any setting.
  if (max_height_ < 16) {
    for (int i = 0; i < n_; ++i) {
      if ((i & 127) == 0) FEIO_CHECK_CANCEL("fem.factorize.column");
      const int lo_i = low_[static_cast<std::size_t>(i)];
      for (int j = lo_i; j < i; ++j) {
        double lij = slot(i, j);
        const int klo = std::max(lo_i, low_[static_cast<std::size_t>(j)]);
        for (int k = klo; k < j; ++k) {
          lij -= slot(i, k) * slot(j, k) * slot(k, k);
        }
        slot(i, j) = lij / slot(j, j);
      }
      double d = slot(i, i);
      for (int k = lo_i; k < i; ++k) {
        const double lik = slot(i, k);
        d -= lik * lik * slot(k, k);
      }
      pivot_check(d, i);
      slot(i, i) = d;
    }
    factorized_ = true;
    return;
  }

  // Blocked right-looking factorization in column panels of width B. The
  // panel width comes from the mean column height (the profile analogue of
  // a band's hbw/2), clamped to [8, 64] — structure-only, so the partition
  // is fixed.
  const auto mean_height =
      static_cast<int>(static_cast<std::int64_t>(sky_.size()) / n_);
  const int B = std::max(8, std::min(64, mean_height / 2));
  const int num_panels = (n_ + B - 1) / B;

  // rows_by_panel[p]: rows i >= p1 whose envelope reaches into panel
  // [p0, p1) — the phase-2/3 candidates. Row i appears for every panel
  // fully left of i that its envelope touches: ~profile/B entries total.
  std::vector<std::vector<int>> rows_by_panel(
      static_cast<std::size_t>(num_panels));
  for (int i = 0; i < n_; ++i) {
    const int lo_i = low_[static_cast<std::size_t>(i)];
    for (int p = lo_i / B; (p + 1) * B <= i; ++p) {
      rows_by_panel[static_cast<std::size_t>(p)].push_back(i);
    }
  }

  // Panel scratch: the panel's columns of L, rows p0..p1-1 and then the
  // candidate rows, copied column-major (block[(k - p0) * height + x]) with
  // zeros where k is left of a row's envelope. At most B x (B +
  // max_height) doubles.
  std::vector<double> block;
  std::vector<double> acc;
  double diag[64];  // the panel's D (B <= 64)
  double f[64];     // per-column factors of one add_scaled_columns call

  for (int p = 0; p < num_panels; ++p) {
    FEIO_CHECK_CANCEL("fem.factorize.panel");
    FEIO_FAULT("fem.factorize.panel");
    const int p0 = p * B;
    const int p1 = std::min(n_, p0 + B);
    FEIO_METRIC_ADD("fem.factorize.panels", 1);
    const std::vector<int>& rows = rows_by_panel[static_cast<std::size_t>(p)];
    const auto nrows = static_cast<std::ptrdiff_t>(rows.size());
    const std::ptrdiff_t w = p1 - p0;
    const std::ptrdiff_t height = w + nrows;
    const auto row = [&](std::ptrdiff_t x) {
      return x < w ? p0 + static_cast<int>(x)
                   : rows[static_cast<std::size_t>(x - w)];
    };
    const auto col = [&](int k) { return block.data() + (k - p0) * height; };

    // Visits the stored entries of block row x as (block slot, matrix
    // slot) pairs: from the row's envelope start (or p0) to its diagonal
    // for a panel row, or to p1 - 1 for a candidate row.
    const auto stored = [&](std::ptrdiff_t x, auto&& visit) {
      const int i = row(x);
      const int last = x < w ? i : p1 - 1;
      for (int k = std::max(p0, low_[static_cast<std::size_t>(i)]); k <= last;
           ++k) {
        visit(col(k)[x], slot(i, k));
      }
    };
    block.assign(static_cast<std::size_t>(w * height), 0.0);
    for (std::ptrdiff_t x = 0; x < height; ++x) {
      stored(x, [](double& b, double a) { b = a; });
    }

    // Phases 1 and 2: the panel's columns, left to right. Column j takes
    // its contributions from columns [p0, j) — those from columns < p0
    // came with earlier panels' trailing updates — over its diagonal and
    // every row below it, as one contiguous loop; then the pivot check and
    // the division by d_j. Every entry still sums (l_ik * l_jk) * d_k over
    // k ascending: adding the product of -l_jk is the same IEEE operation
    // as subtracting that of l_jk, and a padded zero gives a ±0 term, which
    // leaves the running value unchanged and only ever precedes the
    // entry's real terms. So the factor bytes are those of the per-entry
    // loop.
    for (int j = p0; j < p1; ++j) {
      const std::ptrdiff_t x0 = j - p0;
      const int k0 = std::max(p0, low_[static_cast<std::size_t>(j)]);
      for (int k = k0; k < j; ++k) f[k - p0] = -col(k)[x0];
      double* lj = col(j);
      add_scaled_columns(lj + x0, height - x0, col(k0) + x0, height,
                         &f[k0 - p0], &diag[k0 - p0], j - k0);
      const double d = lj[x0];
      pivot_check(d, j);
      diag[x0] = d;
      for (std::ptrdiff_t x = x0 + 1; x < height; ++x) lj[x] /= d;
    }
    for (std::ptrdiff_t x = 0; x < height; ++x) {
      stored(x, [](double b, double& a) { a = b; });
    }

    // Phase 3: symmetric trailing update, one candidate row i at a time
    // against every candidate column j <= i (both envelopes reach the
    // panel, so j >= low_i is guaranteed by low_i < p1 <= j). The sum for
    // (i, j) starts at 0 and adds (l_jk * l_ik) * d_k over k ascending —
    // IEEE products commute, so this is the same value term by term.
    for (std::ptrdiff_t r = 0; r < nrows; ++r) {
      const int i = rows[static_cast<std::size_t>(r)];
      const int k0 = std::max(p0, low_[static_cast<std::size_t>(i)]);
      for (int k = k0; k < p1; ++k) f[k - p0] = col(k)[w + r];
      acc.assign(static_cast<std::size_t>(r + 1), 0.0);
      add_scaled_columns(acc.data(), r + 1, col(k0) + w, height, &f[k0 - p0],
                         &diag[k0 - p0], p1 - k0);
      for (std::ptrdiff_t c = 0; c <= r; ++c) {
        slot(i, rows[static_cast<std::size_t>(c)]) -=
            acc[static_cast<std::size_t>(c)];
      }
    }
  }
  factorized_ = true;
}

void SkylineMatrix::solve(std::vector<double>& rhs) const {
  FEIO_ASSERT(factorized_);
  FEIO_ASSERT(static_cast<int>(rhs.size()) == n_);
  FEIO_TRACE_SPAN(span, "fem.solve");
  span.arg("n", n_);
  // Forward substitution: L y = rhs, row-oriented over stored entries.
  for (int i = 0; i < n_; ++i) {
    const int lo = low_[static_cast<std::size_t>(i)];
    double y = rhs[static_cast<std::size_t>(i)];
    for (int k = lo; k < i; ++k) {
      y -= slot(i, k) * rhs[static_cast<std::size_t>(k)];
    }
    rhs[static_cast<std::size_t>(i)] = y;
  }
  // Diagonal: z = D^-1 y.
  for (int i = 0; i < n_; ++i) {
    rhs[static_cast<std::size_t>(i)] /= slot(i, i);
  }
  // Back substitution: L^T x = z, column-sweep form so only row i's stored
  // entries are touched (the column of L^T is the row of L).
  for (int i = n_ - 1; i >= 0; --i) {
    const int lo = low_[static_cast<std::size_t>(i)];
    const double xi = rhs[static_cast<std::size_t>(i)];
    for (int k = lo; k < i; ++k) {
      rhs[static_cast<std::size_t>(k)] -= slot(i, k) * xi;
    }
  }
}

}  // namespace feio::fem
