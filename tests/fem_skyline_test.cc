// The envelope LDL^T (fem/skyline.h), the one stiffness storage and
// solver: storage semantics on uniform-band and ragged envelopes, byte
// equality of the packed-panel kernel with a test-only copy of the
// per-entry loop it replaced, dense-reference correctness across matrix
// shapes, bit-identity across thread counts, the solve paths, and the
// factor cache's ordering keying.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "feio/options.h"
#include "feio/run_options.h"
#include "fem/assembly.h"
#include "fem/factor_cache.h"
#include "fem/material.h"
#include "fem/skyline.h"
#include "fem/solver.h"
#include "mesh/tri_mesh.h"
#include "util/error.h"
#include "util/parallel.h"

namespace feio::fem {
namespace {

// The uniform-band envelope: row i stores columns [max(0, i - hbw), i].
std::vector<int> band_lows(int n, int hbw) {
  std::vector<int> lows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) lows[static_cast<size_t>(i)] = std::max(0, i - hbw);
  return lows;
}

void expect_same_bytes(const std::vector<double>& a,
                       const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[s]),
              std::bit_cast<std::uint64_t>(b[s]))
        << what << ": factor slot " << s;
  }
}

// ---- storage semantics: uniform bands -------------------------------------

TEST(BandedMatrixTest, SymmetricAccess) {
  SkylineMatrix m(band_lows(4, 2));
  m.set(1, 3, 5.0);
  EXPECT_DOUBLE_EQ(m.get(1, 3), 5.0);
  EXPECT_DOUBLE_EQ(m.get(3, 1), 5.0);
  m.add(3, 1, 1.0);
  EXPECT_DOUBLE_EQ(m.get(1, 3), 6.0);
}

TEST(BandedMatrixTest, OutOfBandReadsZero) {
  SkylineMatrix m(band_lows(5, 1));
  EXPECT_DOUBLE_EQ(m.get(0, 4), 0.0);
}

TEST(BandedMatrixTest, BandClampedToSize) {
  SkylineMatrix m(band_lows(3, 100));
  EXPECT_EQ(m.max_column_height(), 3);
  EXPECT_EQ(m.storage(), 6u);
}

TEST(BandedMatrixTest, StorageScalesWithBandwidth) {
  // n * (hbw + 1) minus the triangle the first hbw rows cannot reach.
  EXPECT_EQ(SkylineMatrix(band_lows(10, 2)).storage(), 27u);
  EXPECT_EQ(SkylineMatrix(band_lows(10, 5)).storage(), 45u);
}

TEST(BandedMatrixTest, SolvesDiagonalSystem) {
  SkylineMatrix m(band_lows(3, 0));
  m.set(0, 0, 2.0);
  m.set(1, 1, 4.0);
  m.set(2, 2, 8.0);
  m.factorize();
  std::vector<double> rhs{2.0, 8.0, 4.0};
  m.solve(rhs);
  EXPECT_DOUBLE_EQ(rhs[0], 1.0);
  EXPECT_DOUBLE_EQ(rhs[1], 2.0);
  EXPECT_DOUBLE_EQ(rhs[2], 0.5);
}

TEST(BandedMatrixTest, SolvesTridiagonalSystem) {
  // Classic [-1 2 -1] Poisson matrix; verified by residual.
  const int n = 5;
  SkylineMatrix a(band_lows(n, 1));
  for (int i = 0; i < n; ++i) {
    a.set(i, i, 2.0);
    if (i + 1 < n) a.set(i, i + 1, -1.0);
  }
  SkylineMatrix m = a;
  m.factorize();
  std::vector<double> rhs(n, 0.0);
  rhs[2] = 1.0;
  m.solve(rhs);
  std::vector<double> r;
  a.multiply(rhs, r);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(r[static_cast<size_t>(i)], i == 2 ? 1.0 : 0.0, 1e-12);
  }
}

TEST(BandedMatrixTest, DirichletPreservesSolution) {
  SkylineMatrix m(band_lows(3, 1));
  m.set(0, 0, 2.0);
  m.set(1, 1, 2.0);
  m.set(2, 2, 2.0);
  m.set(0, 1, -1.0);
  m.set(1, 2, -1.0);
  std::vector<double> rhs{0.0, 0.0, 0.0};
  m.apply_dirichlet(0, 3.0, rhs);
  m.factorize();
  m.solve(rhs);
  EXPECT_NEAR(rhs[0], 3.0, 1e-12);
  // Remaining equations: 2x1 - x2 = 3, -x1 + 2x2 = 0 -> x1 = 2, x2 = 1.
  EXPECT_NEAR(rhs[1], 2.0, 1e-12);
  EXPECT_NEAR(rhs[2], 1.0, 1e-12);
}

TEST(BandedMatrixTest, SingularThrows) {
  SkylineMatrix m(band_lows(2, 1));
  m.set(0, 0, 1.0);
  m.set(0, 1, 1.0);
  m.set(1, 1, 1.0);  // rank 1
  EXPECT_THROW(m.factorize(), Error);
}

TEST(BandedMatrixTest, IndefiniteThrows) {
  SkylineMatrix m(band_lows(2, 0));
  m.set(0, 0, -1.0);
  m.set(1, 1, 1.0);
  EXPECT_THROW(m.factorize(), Error);
}

// ---- storage semantics: ragged envelopes ----------------------------------

TEST(SkylineMatrixTest, SymmetricAccess) {
  SkylineMatrix m({0, 0, 1, 1});
  m.set(1, 3, 5.0);
  EXPECT_DOUBLE_EQ(m.get(1, 3), 5.0);
  EXPECT_DOUBLE_EQ(m.get(3, 1), 5.0);
  m.add(3, 1, 1.0);
  EXPECT_DOUBLE_EQ(m.get(1, 3), 6.0);
}

TEST(SkylineMatrixTest, OutOfEnvelopeReadsZero) {
  SkylineMatrix m({0, 0, 2, 1});
  EXPECT_DOUBLE_EQ(m.get(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(m.get(2, 1), 0.0);
}

TEST(SkylineMatrixTest, StorageIsColumnHeightSum) {
  // Heights 1, 2, 1, 4: a ragged envelope stores exactly its profile.
  SkylineMatrix m({0, 0, 2, 0});
  EXPECT_EQ(m.storage(), 8u);
  EXPECT_EQ(m.column_height(0), 1);
  EXPECT_EQ(m.column_height(1), 2);
  EXPECT_EQ(m.column_height(2), 1);
  EXPECT_EQ(m.column_height(3), 4);
  EXPECT_EQ(m.max_column_height(), 4);
}

TEST(SkylineMatrixTest, InvalidColumnLowsThrow) {
  EXPECT_THROW(SkylineMatrix({0, 2}), Error);   // low > row
  EXPECT_THROW(SkylineMatrix({-1, 0}), Error);  // negative low
}

TEST(SkylineMatrixTest, SolvesDiagonalSystem) {
  // A diagonal matrix in a taller envelope: the zero slots stay zero.
  SkylineMatrix m({0, 0, 2, 1});
  m.set(0, 0, 2.0);
  m.set(1, 1, 4.0);
  m.set(2, 2, 8.0);
  m.set(3, 3, 1.0);
  m.factorize();
  std::vector<double> rhs{2.0, 8.0, 4.0, 3.0};
  m.solve(rhs);
  EXPECT_DOUBLE_EQ(rhs[0], 1.0);
  EXPECT_DOUBLE_EQ(rhs[1], 2.0);
  EXPECT_DOUBLE_EQ(rhs[2], 0.5);
  EXPECT_DOUBLE_EQ(rhs[3], 3.0);
}

TEST(SkylineMatrixTest, DirichletPreservesSolution) {
  // The 3-dof chain of the band test, in an envelope one row taller: the
  // constraint clears every stored coupling of row 0, including (2, 0).
  SkylineMatrix m({0, 0, 0});
  m.set(0, 0, 2.0);
  m.set(1, 1, 2.0);
  m.set(2, 2, 2.0);
  m.set(0, 1, -1.0);
  m.set(1, 2, -1.0);
  std::vector<double> rhs{0.0, 0.0, 0.0};
  m.apply_dirichlet(0, 3.0, rhs);
  m.factorize();
  m.solve(rhs);
  EXPECT_NEAR(rhs[0], 3.0, 1e-12);
  EXPECT_NEAR(rhs[1], 2.0, 1e-12);
  EXPECT_NEAR(rhs[2], 1.0, 1e-12);
}

TEST(SkylineMatrixTest, SingularThrows) {
  SkylineMatrix m({0, 0, 2});
  m.set(0, 0, 1.0);
  m.set(0, 1, 1.0);
  m.set(1, 1, 1.0);  // rank-1 leading block
  m.set(2, 2, 1.0);
  EXPECT_THROW(m.factorize(), Error);
}

TEST(SkylineMatrixTest, IndefiniteThrows) {
  SkylineMatrix m({0, 0, 1});
  m.set(0, 0, 1.0);
  m.set(1, 1, 1.0);
  m.set(2, 2, -1.0);
  EXPECT_THROW(m.factorize(), Error);
}

// ---- references ------------------------------------------------------------

// Dense LDL^T, no blocking, no packed storage — the independent reference
// the envelope kernel is checked against numerically.
struct DenseLdlt {
  int n;
  std::vector<std::vector<double>> l;  // unit lower, D on the diagonal

  explicit DenseLdlt(const SkylineMatrix& a) : n(a.size()) {
    std::vector<std::vector<double>> m(
        static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) m[i][j] = a.get(i, j);
    }
    l = m;
    for (int j = 0; j < n; ++j) {
      double d = m[j][j];
      for (int k = 0; k < j; ++k) d -= l[j][k] * l[j][k] * l[k][k];
      l[j][j] = d;
      for (int i = j + 1; i < n; ++i) {
        double lij = m[i][j];
        for (int k = 0; k < j; ++k) lij -= l[i][k] * l[j][k] * l[k][k];
        l[i][j] = lij / d;
      }
    }
  }

  std::vector<double> solve(std::vector<double> b) const {
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < i; ++k) b[i] -= l[i][k] * b[k];
    }
    for (int i = 0; i < n; ++i) b[i] /= l[i][i];
    for (int i = n - 1; i >= 0; --i) {
      for (int k = i + 1; k < n; ++k) b[i] -= l[k][i] * b[k];
    }
    return b;
  }
};

// The per-entry skyline loop the packed-panel kernel replaced, kept here
// as the byte reference: the same shallow-envelope sweep, panel width,
// candidate rows and diagonal block, then phases 2 and 3 entry by entry
// on the row-packed storage, each sum running over k ascending from the
// first column both rows store. Pivot checks are left out (the test
// matrices are SPD). Returns the factor bytes in values() layout.
std::vector<double> reference_factor(const SkylineMatrix& a) {
  const int n = a.size();
  const std::vector<int>& low = a.column_lows();
  const auto lo = [&](int i) { return low[static_cast<size_t>(i)]; };
  std::vector<std::int64_t> start(static_cast<size_t>(n));
  std::int64_t entries = 0;
  for (int i = 0; i < n; ++i) {
    start[static_cast<size_t>(i)] = entries;
    entries += i - lo(i) + 1;
  }
  std::vector<double> sky = a.values();
  const auto slot = [&](int i, int j) -> double& {
    return sky[static_cast<size_t>(start[static_cast<size_t>(i)] + j - lo(i))];
  };

  if (a.max_column_height() < 16) {
    for (int i = 0; i < n; ++i) {
      for (int j = lo(i); j < i; ++j) {
        double lij = slot(i, j);
        for (int k = std::max(lo(i), lo(j)); k < j; ++k) {
          lij -= slot(i, k) * slot(j, k) * slot(k, k);
        }
        slot(i, j) = lij / slot(j, j);
      }
      double d = slot(i, i);
      for (int k = lo(i); k < i; ++k) d -= slot(i, k) * slot(i, k) * slot(k, k);
      slot(i, i) = d;
    }
    return sky;
  }

  const int B = std::max(8, std::min(64, static_cast<int>(entries / n) / 2));
  const int num_panels = (n + B - 1) / B;
  std::vector<std::vector<int>> rows_by_panel(static_cast<size_t>(num_panels));
  for (int i = 0; i < n; ++i) {
    for (int p = lo(i) / B; (p + 1) * B <= i; ++p) {
      rows_by_panel[static_cast<size_t>(p)].push_back(i);
    }
  }
  for (int p = 0; p < num_panels; ++p) {
    const int p0 = p * B;
    const int p1 = std::min(n, p0 + B);
    for (int j = p0; j < p1; ++j) {
      double d = slot(j, j);
      for (int k = std::max(p0, lo(j)); k < j; ++k) {
        d -= slot(j, k) * slot(j, k) * slot(k, k);
      }
      slot(j, j) = d;
      for (int i = j + 1; i < p1; ++i) {
        if (j < lo(i)) continue;
        double lij = slot(i, j);
        for (int k = std::max({p0, lo(i), lo(j)}); k < j; ++k) {
          lij -= slot(i, k) * slot(j, k) * slot(k, k);
        }
        slot(i, j) = lij / d;
      }
    }
    const std::vector<int>& rows = rows_by_panel[static_cast<size_t>(p)];
    for (const int i : rows) {
      for (int j = std::max(p0, lo(i)); j < p1; ++j) {
        double lij = slot(i, j);
        for (int k = std::max({p0, lo(i), lo(j)}); k < j; ++k) {
          lij -= slot(i, k) * slot(j, k) * slot(k, k);
        }
        slot(i, j) = lij / slot(j, j);
      }
    }
    for (size_t c = 0; c < rows.size(); ++c) {
      const int j = rows[c];
      for (size_t r = c; r < rows.size(); ++r) {
        const int i = rows[r];
        double acc = 0.0;
        for (int k = std::max({p0, lo(i), lo(j)}); k < p1; ++k) {
          acc += slot(i, k) * slot(j, k) * slot(k, k);
        }
        slot(i, j) -= acc;
      }
    }
  }
  return sky;
}

// Random SPD values over a given envelope (diagonal dominance => SPD).
SkylineMatrix random_spd_skyline(std::vector<int> lows, int max_h,
                                 unsigned seed) {
  SkylineMatrix a(std::move(lows));
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int i = 0; i < a.size(); ++i) {
    for (int j = i - a.column_height(i) + 1; j < i; ++j) {
      a.set(i, j, dist(rng));
    }
    a.set(i, i, 2.0 * max_h + 4.0);
  }
  return a;
}

// Random ragged envelope: column i reaches back a random height in
// [1, max_h], clamped to the matrix. Returns the lows.
std::vector<int> random_lows(int n, int max_h, std::mt19937& rng) {
  std::uniform_int_distribution<int> height(1, max_h);
  std::vector<int> lows(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    lows[static_cast<size_t>(i)] = std::max(0, i - (height(rng) - 1));
  }
  return lows;
}

// ---- uniform bands against the references ---------------------------------

// Property: random SPD band systems solve to machine precision, for
// several bandwidths.
class BandedSolveSweep : public ::testing::TestWithParam<int> {};

TEST_P(BandedSolveSweep, RandomSpdResidualSmall) {
  const int hbw = GetParam();
  const int n = 40;
  const SkylineMatrix a = random_spd_skyline(
      band_lows(n, hbw), hbw, static_cast<unsigned>(hbw) * 7919u + 3u);
  SkylineMatrix f = a;
  f.factorize();

  std::mt19937 rng(static_cast<unsigned>(hbw));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x_true(static_cast<size_t>(n));
  for (double& v : x_true) v = dist(rng);
  std::vector<double> rhs;
  a.multiply(x_true, rhs);
  f.solve(rhs);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(rhs[static_cast<size_t>(i)], x_true[static_cast<size_t>(i)],
                1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, BandedSolveSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 39));

// The 7 band shapes: the shallow serial sweep (height < 16), the smallest
// blocked height, a panel remainder, multiple panels, the B-capped region,
// a wide band with few panels, and a nearly dense matrix.
const auto kBandShapes = ::testing::Values(
    std::pair{40, 8}, std::pair{40, 16}, std::pair{97, 24},
    std::pair{128, 32}, std::pair{257, 64}, std::pair{300, 150},
    std::pair{64, 63});

// The kernel's factors and solutions agree with the dense reference.
class BlockedVsDense
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BlockedVsDense, FactorsAndSolutionsMatchDenseReference) {
  const auto [n, hbw] = GetParam();
  const SkylineMatrix a = random_spd_skyline(
      band_lows(n, hbw), hbw, static_cast<unsigned>(n * 131 + hbw));
  const DenseLdlt ref(a);

  SkylineMatrix f = a;
  f.factorize();
  for (int i = 0; i < n; ++i) {
    for (int j = std::max(0, i - hbw); j <= i; ++j) {
      EXPECT_NEAR(f.get(i, j), ref.l[i][j], 1e-9 * (2.0 * hbw + 4.0))
          << "L/D entry (" << i << "," << j << ") n=" << n
          << " hbw=" << hbw;
    }
  }

  std::mt19937 rng(static_cast<unsigned>(n + hbw));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> b(static_cast<size_t>(n));
  for (double& v : b) v = dist(rng);
  std::vector<double> x = b;
  f.solve(x);
  const std::vector<double> x_ref = ref.solve(b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<size_t>(i)], x_ref[static_cast<size_t>(i)],
                1e-10)
        << "solution entry " << i << " n=" << n << " hbw=" << hbw;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlockedVsDense, kBandShapes);

// Both layouts of the computation — the kernel's column-major panel copy
// and the reference loop's in-place row-packed sweep — give the same
// factor bytes, and the reference itself agrees with the dense LDL^T.
class BandSkylineVsDense
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BandSkylineVsDense, BothLayoutsMatchDenseReference) {
  const auto [n, hbw] = GetParam();
  const SkylineMatrix a = random_spd_skyline(
      band_lows(n, hbw), hbw, static_cast<unsigned>(n * 131 + hbw + 1));
  const std::vector<double> ref_bytes = reference_factor(a);
  SkylineMatrix f = a;
  f.factorize();
  expect_same_bytes(f.values(), ref_bytes,
                    "n=" + std::to_string(n) + " hbw=" + std::to_string(hbw));

  const DenseLdlt dense(a);
  const SkylineMatrix ref = SkylineMatrix::adopt_factor(a.column_lows(),
                                                        ref_bytes);
  for (int i = 0; i < n; ++i) {
    for (int j = std::max(0, i - hbw); j <= i; ++j) {
      EXPECT_NEAR(ref.get(i, j), dense.l[i][j], 1e-9 * (2.0 * hbw + 4.0))
          << "reference L/D entry (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BandSkylineVsDense, kBandShapes);

// ---- ragged envelopes against the references ------------------------------

class RaggedVsDense : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RaggedVsDense, FactorsAndSolutionsMatchDenseReference) {
  const auto [n, max_h] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(n * 77 + max_h));
  SkylineMatrix a = random_spd_skyline(random_lows(n, max_h, rng), max_h,
                                       static_cast<unsigned>(n + max_h));
  const DenseLdlt ref(a);
  const std::vector<double> ref_bytes = reference_factor(a);
  a.factorize();
  expect_same_bytes(a.values(), ref_bytes, "n=" + std::to_string(n));
  const double tol = 1e-9 * (2.0 * max_h + 4.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i - a.column_height(i) + 1; j <= i; ++j) {
      EXPECT_NEAR(a.get(i, j), ref.l[i][j], tol)
          << "L/D entry (" << i << "," << j << ") n=" << n;
    }
  }
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> b(static_cast<size_t>(n));
  for (double& v : b) v = dist(rng);
  std::vector<double> x = b;
  a.solve(x);
  const std::vector<double> x_ref = ref.solve(b);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<size_t>(i)], x_ref[static_cast<size_t>(i)],
                1e-10)
        << "solution entry " << i << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RaggedVsDense,
                         ::testing::Values(std::pair{60, 12},   // serial path
                                           std::pair{80, 20},
                                           std::pair{150, 40},
                                           std::pair{257, 96}));

// A real plane-stress stiffness matrix: a 3 x 78-cell strip numbered
// across its width, so past the first node column every dof column is
// about 160 tall — more than two panels of candidate rows per panel.
mesh::TriMesh wide_strip(int nx, int ny) {
  mesh::TriMesh m;
  for (int i = 0; i <= nx; ++i) {
    for (int j = 0; j <= ny; ++j) {
      m.add_node({static_cast<double>(i), static_cast<double>(j)});
    }
  }
  const auto id = [ny](int i, int j) { return i * (ny + 1) + j; };
  for (int i = 0; i < nx; ++i) {
    for (int j = 0; j < ny; ++j) {
      m.add_element(id(i, j), id(i + 1, j), id(i + 1, j + 1));
      m.add_element(id(i, j), id(i + 1, j + 1), id(i, j + 1));
    }
  }
  return m;
}

TEST(ReferenceLoopTest, TallStripFactorBytesMatch) {
  const mesh::TriMesh m = wide_strip(3, 78);
  StaticProblem p(m, Analysis::kPlaneStress);
  p.set_material(Material::isotropic(1000.0, 0.3));
  for (int j = 0; j <= 78; ++j) p.fix(j, true, true);
  p.point_load(m.num_nodes() - 1, {0.0, -1.0});
  SkylineMatrix k(p.dof_skyline_lows());
  std::vector<double> rhs;
  p.assemble(k, rhs);
  ASSERT_GE(k.max_column_height(), 150);
  const std::vector<double> ref_bytes = reference_factor(k);
  k.factorize();
  expect_same_bytes(k.values(), ref_bytes, "wide strip");
}

TEST(SkylineMatrixTest, AdoptFactorReplaysBitIdentically) {
  std::mt19937 rng(11u);
  SkylineMatrix a = random_spd_skyline(random_lows(90, 24, rng), 24, 5u);
  a.factorize();

  SkylineMatrix adopted =
      SkylineMatrix::adopt_factor(a.column_lows(), a.values());
  ASSERT_TRUE(adopted.factorized());
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> b(90);
  for (double& v : b) v = dist(rng);
  std::vector<double> x1 = b;
  std::vector<double> x2 = b;
  a.solve(x1);
  adopted.solve(x2);
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x1[i]),
              std::bit_cast<std::uint64_t>(x2[i]));
  }
}

// ---- determinism ----------------------------------------------------------

// Serial and 8-thread factorizations/solves of one matrix are
// byte-identical (the kernel runs serially at any thread setting).
void expect_thread_count_invariant(const SkylineMatrix& a,
                                   const std::vector<double>& b,
                                   const std::string& what) {
  SkylineMatrix f1 = a;
  std::vector<double> x1 = b;
  {
    util::ScopedThreads serial(1);
    f1.factorize();
    f1.solve(x1);
  }
  SkylineMatrix f8 = a;
  std::vector<double> x8 = b;
  {
    util::ScopedThreads eight(8);
    f8.factorize();
    f8.solve(x8);
  }
  expect_same_bytes(f1.values(), f8.values(), what);
  for (size_t i = 0; i < x1.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x1[i]),
              std::bit_cast<std::uint64_t>(x8[i]))
        << what << ": solution entry " << i;
  }
}

TEST(BandedDeterminismTest, EightThreadsBitIdenticalToSerial) {
  for (const auto& [n, hbw] : {std::pair{193, 24}, std::pair{128, 48}}) {
    const SkylineMatrix a = random_spd_skyline(
        band_lows(n, hbw), hbw, static_cast<unsigned>(n * 31 + hbw));
    std::vector<double> b(static_cast<size_t>(n));
    std::mt19937 rng(static_cast<unsigned>(hbw));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : b) v = dist(rng);
    expect_thread_count_invariant(
        a, b, "n=" + std::to_string(n) + " hbw=" + std::to_string(hbw));
  }
}

TEST(SkylineDeterminismTest, EightThreadsBitIdenticalToSerial) {
  for (const auto& [n, max_h] : {std::pair{193, 40}, std::pair{128, 48},
                                 std::pair{60, 12}}) {
    std::mt19937 rng(static_cast<unsigned>(n * 31 + max_h));
    const std::vector<int> lows = random_lows(n, max_h, rng);
    const SkylineMatrix a = random_spd_skyline(
        lows, max_h, static_cast<unsigned>(n + 3 * max_h));
    std::vector<double> b(static_cast<size_t>(n));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : b) v = dist(rng);
    expect_thread_count_invariant(
        a, b, "n=" + std::to_string(n) + " max_h=" + std::to_string(max_h));
  }
}

// ---- the solve paths --------------------------------------------------------

// A wide base row with a tall narrow web on top (a T rotated 180°): the
// base rows pin the half-bandwidth near the full width, but the web
// columns are short — the envelope is a fraction of the band.
mesh::TriMesh tower_mesh(int base_w, int web_h) {
  mesh::TriMesh m;
  std::vector<int> row0;
  std::vector<int> row1;
  for (int i = 0; i <= base_w; ++i) {
    row0.push_back(m.add_node({static_cast<double>(i), 0.0}));
  }
  for (int i = 0; i <= base_w; ++i) {
    row1.push_back(m.add_node({static_cast<double>(i), 1.0}));
  }
  for (int i = 0; i < base_w; ++i) {
    m.add_element(row0[static_cast<size_t>(i)], row0[static_cast<size_t>(i) + 1],
                  row1[static_cast<size_t>(i) + 1]);
    m.add_element(row0[static_cast<size_t>(i)], row1[static_cast<size_t>(i) + 1],
                  row1[static_cast<size_t>(i)]);
  }
  // 1-cell-wide web rising from the middle of the base.
  const int wx = base_w / 2;
  int prev_a = row1[static_cast<size_t>(wx)];
  int prev_b = row1[static_cast<size_t>(wx) + 1];
  for (int j = 2; j <= web_h; ++j) {
    const int a = m.add_node({static_cast<double>(wx), static_cast<double>(j)});
    const int b =
        m.add_node({static_cast<double>(wx + 1), static_cast<double>(j)});
    m.add_element(prev_a, prev_b, b);
    m.add_element(prev_a, b, a);
    prev_a = a;
    prev_b = b;
  }
  m.orient_ccw();
  return m;
}

fem::StaticProblem cantilever(const mesh::TriMesh& m) {
  fem::StaticProblem p(m, fem::Analysis::kPlaneStress);
  p.set_material(fem::Material::isotropic(1000.0, 0.3));
  p.fix(0, true, true);
  p.fix(1, true, true);
  p.point_load(m.num_nodes() - 1, {0.0, -1.0});
  return p;
}

// The envelope is closed under fill: factoring the tower's stiffness in
// its true envelope or in the full band around it gives the same
// displacements to rounding.
TEST(SolverStorageTest, SkylineSolveMatchesBandedNumerically) {
  const mesh::TriMesh m = tower_mesh(24, 30);
  const fem::StaticProblem p = cantilever(m);
  const StaticSolution us = solve(p);

  SkylineMatrix band(band_lows(p.num_dofs(), p.dof_half_bandwidth()));
  ASSERT_GT(band.storage(), SkylineMatrix(p.dof_skyline_lows()).storage());
  std::vector<double> ub;
  p.assemble(band, ub);
  band.factorize();
  band.solve(ub);
  for (int n = 0; n < m.num_nodes(); ++n) {
    const double bx = ub[static_cast<size_t>(2 * n)];
    const double by = ub[static_cast<size_t>(2 * n + 1)];
    EXPECT_NEAR(bx, us.at(n).x, 1e-9 * (1.0 + std::abs(bx))) << "node " << n;
    EXPECT_NEAR(by, us.at(n).y, 1e-9 * (1.0 + std::abs(by))) << "node " << n;
  }
}

// --storage is accepted and ignored: a solve under `--storage skyline`
// is bit-identical to one under the default `--storage auto` (and to
// `--storage banded`).
TEST(SolverStorageTest, AutoMatchesForcedSkylineBitwise) {
  const mesh::TriMesh m = tower_mesh(40, 60);
  const fem::StaticProblem p = cantilever(m);
  std::vector<StaticSolution> solutions;
  for (std::string flag :
       {"--storage=auto", "--storage=skyline", "--storage=banded"}) {
    api::CommonOptions common;
    std::string error;
    char* argv[] = {flag.data()};
    int i = 0;
    ASSERT_EQ(api::consume_flag(common, 1, argv, i, error),
              api::FlagStatus::kOk)
        << error;
    solutions.push_back(solve(p, api::run_options(common)));
  }
  for (const StaticSolution& u : solutions) {
    for (int n = 0; n < m.num_nodes(); ++n) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(solutions[0].at(n).x),
                std::bit_cast<std::uint64_t>(u.at(n).x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(solutions[0].at(n).y),
                std::bit_cast<std::uint64_t>(u.at(n).y));
    }
  }
}

TEST(SolverStorageTest, ForcedSkylineBitIdenticalAcrossThreadCounts) {
  const mesh::TriMesh m = tower_mesh(40, 60);
  const fem::StaticProblem p = cantilever(m);
  RunOptions one;
  one.threads = 1;
  RunOptions eight = one;
  eight.threads = 8;
  const StaticSolution u1 = solve(p, one);
  const StaticSolution u8 = solve(p, eight);
  for (int n = 0; n < m.num_nodes(); ++n) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(u1.at(n).x),
              std::bit_cast<std::uint64_t>(u8.at(n).x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(u1.at(n).y),
              std::bit_cast<std::uint64_t>(u8.at(n).y));
  }
}

// ---- factor-cache keying --------------------------------------------------

// One storage leaves the ordering as the whole configuration tag: every
// ordering choice still gets its own slot.
TEST(FactorCacheStorageTest, ConfigTagSeparatesEveryStorageOrderingPair) {
  std::set<std::uint64_t> tags;
  for (const OrderingChoice o :
       {OrderingChoice::kDeckDefault, OrderingChoice::kNone,
        OrderingChoice::kRcm, OrderingChoice::kHilbert}) {
    tags.insert(factor_config(o));
  }
  EXPECT_EQ(tags.size(), 4u);
}

}  // namespace
}  // namespace feio::fem
