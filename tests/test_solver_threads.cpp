// Thread-count equivalence and edge-reorder properties of the solver
// kernels. The pool's determinism contract (smp/pool.hpp) plus colored
// scatter loops (NSU3D) and per-cell face gathers (Cart3D) promise
// bit-identical results for every thread count; these tests hold the
// solvers to that promise, and a golden history pins Cart3D to the serial
// kernels' bits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cart3d/solver.hpp"
#include "geom/components.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/solver.hpp"
#include "smp/pool.hpp"

namespace columbia {
namespace {

/// Restores the global pool to a single thread when a test exits.
struct PoolGuard {
  ~PoolGuard() { smp::set_global_threads(1); }
};

mesh::UnstructuredMesh small_wing() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 3;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}

std::vector<real_t> run_nsu3d(const mesh::UnstructuredMesh& m,
                              nsu3d::SmootherKind smoother, int threads) {
  PoolGuard guard;
  smp::set_global_threads(threads);
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  nsu3d::Nsu3dOptions o;
  o.mg_levels = 3;
  o.smoother = smoother;
  nsu3d::Nsu3dSolver s(m, fc, o);
  return s.solve(6, 10);
}

TEST(ThreadEquivalence, Nsu3dLineImplicitHistoryBitIdentical) {
  const auto m = small_wing();
  const auto h1 = run_nsu3d(m, nsu3d::SmootherKind::LineImplicit, 1);
  const auto h4 = run_nsu3d(m, nsu3d::SmootherKind::LineImplicit, 4);
  ASSERT_EQ(h1.size(), h4.size());
  for (std::size_t i = 0; i < h1.size(); ++i)
    EXPECT_EQ(h1[i], h4[i]) << "cycle " << i;
}

TEST(ThreadEquivalence, Nsu3dPointImplicitHistoryBitIdentical) {
  const auto m = small_wing();
  const auto h1 = run_nsu3d(m, nsu3d::SmootherKind::PointImplicit, 1);
  const auto h3 = run_nsu3d(m, nsu3d::SmootherKind::PointImplicit, 3);
  ASSERT_EQ(h1.size(), h3.size());
  for (std::size_t i = 0; i < h1.size(); ++i)
    EXPECT_EQ(h1[i], h3[i]) << "cycle " << i;
}

cartesian::CartMesh small_sphere_mesh() {
  geom::Aabb domain;
  domain.expand({-1.5, -1.5, -1.5});
  domain.expand({1.5, 1.5, 1.5});
  const auto sphere = geom::make_sphere({0, 0, 0}, 0.4, 16, 32);
  cartesian::CartMeshOptions mo;
  mo.base_n = 8;
  mo.max_level = 2;
  return cartesian::build_cart_mesh(sphere, domain, mo);
}

TEST(ThreadEquivalence, Cart3dHistoryBitIdentical) {
  // Three threads gives the pool uneven chunk ownership.
  const auto m = small_sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.3;
  cart3d::SolverOptions o;
  o.mg_levels = 2;
  auto run = [&](int threads) {
    PoolGuard guard;
    smp::set_global_threads(threads);
    cart3d::Cart3DSolver s(m, fc, o);
    return s.solve(8, 12);
  };
  const auto h1 = run(1);
  for (int threads : {2, 3, 4}) {
    const auto ht = run(threads);
    ASSERT_EQ(h1.size(), ht.size()) << "t=" << threads;
    for (std::size_t i = 0; i < h1.size(); ++i)
      EXPECT_EQ(h1[i], ht[i]) << "t=" << threads << " cycle " << i;
  }
}

std::uint64_t bits_of(real_t v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(Cart3dGolden, SphereHistoryAndForcesMatchPinnedBits) {
  // Thread-count equivalence alone would pass a kernel change that
  // reorders every cell's sums the same way at every thread count; these
  // bits pin the history to the serial face-scatter kernels. The smoother's
  // wave-speed sum has no reference kernel, so only a history covers it.
  std::ifstream in(COLUMBIA_TEST_DATA_DIR "/cart3d_golden_sphere.txt");
  ASSERT_TRUE(in) << "missing tests/data/cart3d_golden_sphere.txt";
  std::vector<std::uint64_t> history;
  std::uint64_t cl = 0, cd = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    std::uint64_t v = 0;
    ls >> key >> std::hex >> v;
    ASSERT_TRUE(ls) << line;
    if (key == "residual") history.push_back(v);
    if (key == "cl") cl = v;
    if (key == "cd") cd = v;
  }
  ASSERT_EQ(history.size(), 11u);

  const auto m = small_sphere_mesh();
  euler::FlowConditions fc;
  fc.mach = 0.5;
  fc.alpha_deg = 2.0;
  cart3d::SolverOptions o;
  o.mg_levels = 3;
  for (int threads : {1, 2, 3, 4}) {
    PoolGuard guard;
    smp::set_global_threads(threads);
    cart3d::Cart3DSolver s(m, fc, o);
    ASSERT_EQ(s.num_levels(), 3);
    const auto h = s.solve(10, 12);
    ASSERT_EQ(h.size(), history.size()) << "t=" << threads;
    for (std::size_t i = 0; i < h.size(); ++i)
      EXPECT_EQ(bits_of(h[i]), history[i]) << "t=" << threads << " cycle " << i;
    const cart3d::Forces f = s.integrate_forces();
    EXPECT_EQ(bits_of(f.cl), cl) << "t=" << threads;
    EXPECT_EQ(bits_of(f.cd), cd) << "t=" << threads;
  }
}

TEST(ColorReorder, SpansAreConflictFree) {
  // The property the threaded scatter relies on: within one color span,
  // every node appears in at most one edge.
  const auto m = small_wing();
  nsu3d::LevelOptions lo;
  lo.num_levels = 2;
  const auto levels = nsu3d::build_levels(m, lo);
  for (const nsu3d::Level& lvl : levels) {
    ASSERT_GE(lvl.color_offsets.size(), 2u);
    EXPECT_EQ(lvl.color_offsets.front(), 0u);
    EXPECT_EQ(lvl.color_offsets.back(), lvl.edges.size());
    std::vector<int> stamp(std::size_t(lvl.num_nodes), -1);
    for (std::size_t c = 0; c + 1 < lvl.color_offsets.size(); ++c) {
      for (std::size_t e = lvl.color_offsets[c]; e < lvl.color_offsets[c + 1];
           ++e) {
        const auto [a, b] = lvl.edges[e];
        ASSERT_NE(stamp[std::size_t(a)], int(c)) << "node " << a;
        ASSERT_NE(stamp[std::size_t(b)], int(c)) << "node " << b;
        stamp[std::size_t(a)] = int(c);
        stamp[std::size_t(b)] = int(c);
      }
    }
  }
}

TEST(ColorReorder, PreservesResidualUpToRoundoff) {
  // Color-major reordering permutes the per-node accumulation order, so
  // bit-exact agreement with the unordered edge loop is not expected
  // (floating-point addition is not associative); the sums must agree to
  // tight roundoff.
  const auto m = small_wing();
  euler::FlowConditions fc;
  fc.mach = 0.75;
  fc.reynolds = 3e6;
  nsu3d::Nsu3dOptions colored;
  colored.mg_levels = 1;
  nsu3d::Nsu3dOptions plain = colored;
  plain.color_edges = false;

  PoolGuard guard;
  smp::set_global_threads(1);
  nsu3d::Nsu3dSolver sc(m, fc, colored);
  nsu3d::Nsu3dSolver sp(m, fc, plain);
  ASSERT_GE(sc.level(0).num_edge_colors(), 2);
  ASSERT_EQ(sp.level(0).num_edge_colors(), 1);

  const auto sol = sc.solution();
  const std::vector<nsu3d::State> u(sol.begin(), sol.end());
  std::vector<nsu3d::State> rc, rp;
  sc.compute_residual(0, u, rc, true);
  sp.compute_residual(0, u, rp, true);

  ASSERT_EQ(rc.size(), rp.size());
  real_t scale = 0;
  for (const auto& r : rp)
    for (real_t x : r) scale = std::max(scale, std::abs(x));
  ASSERT_GT(scale, 0);
  for (std::size_t i = 0; i < rc.size(); ++i)
    for (int c = 0; c < 6; ++c)
      EXPECT_NEAR(rc[i][std::size_t(c)], rp[i][std::size_t(c)], 1e-12 * scale)
          << "node " << i << " comp " << c;
}

}  // namespace
}  // namespace columbia
