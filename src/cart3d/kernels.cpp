#include "cart3d/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "smp/pool.hpp"

namespace columbia::cart3d::kernels {

using cartesian::axis_normal;
using cartesian::boundary_normal;
using cartesian::CartCell;
using cartesian::CartFace;
using cartesian::CartMesh;
using geom::Vec3;

namespace {

// Chunk grains: fixed so chunk boundaries never depend on the thread
// count (determinism); the cell grain matches the solver's historical
// constant.
constexpr std::size_t kCellGrain = 512;
constexpr std::size_t kFaceGrain = 1024;

template <class Fn>
void for_cells(std::size_t n, Fn&& body) {
  smp::ThreadPool::global().parallel_for(
      0, n, kCellGrain, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) body(i);
      });
}

std::array<real_t, 5> prim_array(const Prim& w) {
  return {w.rho, w.vel.x, w.vel.y, w.vel.z, w.p};
}

Prim prim_from_array(const std::array<real_t, 5>& q) {
  return {q[0], {q[1], q[2], q[3]}, q[4]};
}

template <euler::FluxScheme S>
Cons scheme_flux(const Prim& l, const Prim& r, const Vec3& n) {
  if constexpr (S == euler::FluxScheme::Roe) return euler::roe_flux(l, r, n);
  if constexpr (S == euler::FluxScheme::VanLeer)
    return euler::van_leer_flux(l, r, n);
  return euler::rusanov_flux(l, r, n);
}

real_t venkat(real_t dplus, real_t dq, real_t eps2) {
  const real_t num = (dplus * dplus + eps2) + 2.0 * dplus * dq;
  const real_t den = dplus * dplus + 2.0 * dq * dq + dplus * dq + eps2;
  return den > 0 ? num / den : 1.0;
}

/// Cell-grouped CSR by stable counting sort: `each(emit)` must call
/// emit(cell, entry) in ascending face order, so each cell's entries
/// ascend too.
template <class Each>
void build_csr(std::size_t n, Each&& each, std::vector<index_t>& off,
               std::vector<index_t>& adj) {
  off.assign(n + 1, 0);
  each([&](index_t cell, index_t) { ++off[std::size_t(cell) + 1]; });
  for (std::size_t i = 0; i < n; ++i) off[i + 1] += off[i];
  adj.resize(std::size_t(off[n]));
  std::vector<index_t> fill(off.begin(), off.end() - 1);
  each([&](index_t cell, index_t entry) {
    adj[std::size_t(fill[std::size_t(cell)]++)] = entry;
  });
}

}  // namespace

void LevelGeom::build(const CartMesh& m) {
  const std::size_t n = m.cells.size();
  const std::size_t nf = m.faces.size();
  cells = n;
  faces = nf;

  // Per-cell eps^2 with the exact expression the scalar limiter evaluated
  // per face side.
  eps2.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const real_t h = m.cell_width(m.cells[i].level, 0);
    eps2[i] = std::pow(0.3 * h, 3);
  }

  cut_cells.clear();
  for (std::size_t i = 0; i < n; ++i)
    if (m.cells[i].cut) cut_cells.push_back(index_t(i));

  // Per-face streams.
  fl.resize(nf);
  fr.resize(nf);
  axis.resize(nf);
  area.resize(nf);
  dabx.resize(nf);
  daby.resize(nf);
  dabz.resize(nf);
  dlx.resize(nf);
  dly.resize(nf);
  dlz.resize(nf);
  drx.resize(nf);
  dry.resize(nf);
  drz.resize(nf);
  for (std::size_t e = 0; e < nf; ++e) {
    const CartFace& f = m.faces[e];
    fl[e] = f.left;
    fr[e] = f.right;
    axis[e] = f.axis;
    area[e] = f.area;
    const Vec3 cl = m.cell_center(m.cells[std::size_t(f.left)]);
    const Vec3 cr = m.cell_center(m.cells[std::size_t(f.right)]);
    const Vec3 dab = cr - cl;
    dabx[e] = dab.x;
    daby[e] = dab.y;
    dabz[e] = dab.z;
    const Vec3 dl = f.center - cl;
    dlx[e] = dl.x;
    dly[e] = dl.y;
    dlz[e] = dl.z;
    const Vec3 dr = f.center - cr;
    drx[e] = dr.x;
    dry[e] = dr.y;
    drz[e] = dr.z;
  }

  // LSQ Gram matrices: accumulated in face order exactly as the scalar
  // path did (both face sides add the same six products — the offset signs
  // cancel in d_i d_j), then inverted once with the scalar expressions.
  std::vector<std::array<real_t, 6>> gram(n, {0, 0, 0, 0, 0, 0});
  for (std::size_t e = 0; e < nf; ++e) {
    const real_t dx = dabx[e], dy = daby[e], dz = dabz[e];
    const std::array<real_t, 6> p{dx * dx, dx * dy, dx * dz,
                                  dy * dy, dy * dz, dz * dz};
    auto& gl = gram[std::size_t(fl[e])];
    for (int k = 0; k < 6; ++k) gl[std::size_t(k)] += p[std::size_t(k)];
    auto& gr = gram[std::size_t(fr[e])];
    for (int k = 0; k < 6; ++k) gr[std::size_t(k)] += p[std::size_t(k)];
  }
  ginv.assign(n * kGinvStride, 0.0);
  singular.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& g = gram[i];
    const real_t a = g[0], b = g[1], c = g[2], d = g[3], e = g[4], f3 = g[5];
    const real_t det = a * (d * f3 - e * e) - b * (b * f3 - e * c) +
                       c * (b * e - d * c);
    if (std::abs(det) < 1e-30) {
      singular[i] = 1;
      continue;
    }
    const real_t inv = 1.0 / det;
    real_t* const gi = ginv.data() + i * kGinvStride;
    gi[0] = (d * f3 - e * e) * inv;
    gi[1] = (c * e - b * f3) * inv;
    gi[2] = (b * e - c * d) * inv;
    gi[3] = (a * f3 - c * c) * inv;
    gi[4] = (b * c - a * e) * inv;
    gi[5] = (a * d - b * b) * inv;
  }

  // Boundary-face streams.
  const std::size_t nb = m.boundary_faces.size();
  bfl.resize(nb);
  barea.resize(nb);
  bnx.resize(nb);
  bny.resize(nb);
  bnz.resize(nb);
  for (std::size_t e = 0; e < nb; ++e) {
    const CartFace& f = m.boundary_faces[e];
    bfl[e] = f.left;
    barea[e] = f.area;
    const Vec3 bn = boundary_normal(f);
    bnx[e] = bn.x;
    bny[e] = bn.y;
    bnz[e] = bn.z;
  }

  build_csr(
      n,
      [&](auto&& emit) {
        for (std::size_t e = 0; e < nf; ++e) {
          emit(fl[e], index_t(e));
          emit(fr[e], ~index_t(e));
        }
      },
      cf_off, cf);
  build_csr(
      n,
      [&](auto&& emit) {
        for (std::size_t e = 0; e < nb; ++e) emit(bfl[e], index_t(e));
      },
      cb_off, cb);
  built = true;
}

void Scratch::resize(const LevelGeom& g, bool second_order) {
  w.resize(g.cells);
  pb.resize(g.cells * kPrimStride);
  if (second_order) {
    gb.resize(g.cells * kGradStride);
    ph.resize(g.cells * kPhiStride);
    fdq.resize(g.faces * kFdqStride);
  } else {
    fx.resize(g.faces * kFluxStride);
  }
}

namespace {

/// Second-order pass, per cell: LSQ rhs + neighbor min/max over its
/// faces in face order (the reference's accumulate/minmax scatters, seen
/// from one cell), the 3x3 solve against the precomputed Gram inverse,
/// then the limiter over the same faces. The limiter needs only the
/// cell's own gradient and bounds, so it runs in the same gather; each
/// face side is owned by exactly one cell, which writes that half of the
/// face's fdq block.
void gradients_and_limiter(const LevelGeom& g, Scratch& s) {
  const real_t* const pb = s.pb.data();
  real_t* const gb = s.gb.data();
  real_t* const ph = s.ph.data();
  real_t* const fdq = s.fdq.data();
  const index_t* const cf_off = g.cf_off.data();
  const index_t* const cf = g.cf.data();
  const real_t* const ginv = g.ginv.data();
  const unsigned char* const sing = g.singular.data();
  const real_t* const eps2 = g.eps2.data();
  for_cells(g.cells, [&](std::size_t i) {
    const real_t* const __restrict pi = pb + i * kPrimStride;
    real_t rhs[15] = {};
    real_t qmin[5], qmax[5];
    for (std::size_t c = 0; c < 5; ++c) qmin[c] = qmax[c] = pi[c];
    for (index_t j = cf_off[i]; j < cf_off[i + 1]; ++j) {
      const index_t k = cf[j];
      const bool left = k >= 0;
      const std::size_t e = std::size_t(left ? k : ~k);
      const std::size_t o = std::size_t(left ? g.fr[e] : g.fl[e]);
      const real_t* const __restrict po = pb + o * kPrimStride;
      const real_t dx = left ? g.dabx[e] : -g.dabx[e];
      const real_t dy = left ? g.daby[e] : -g.daby[e];
      const real_t dz = left ? g.dabz[e] : -g.dabz[e];
      for (std::size_t c = 0; c < 5; ++c) {
        const real_t dq = po[c] - pi[c];
        rhs[c] += dq * dx;
        rhs[5 + c] += dq * dy;
        rhs[10 + c] += dq * dz;
        qmin[c] = std::min(qmin[c], po[c]);
        qmax[c] = std::max(qmax[c], po[c]);
      }
    }

    real_t* const __restrict bl = gb + i * kGradStride;
    if (sing[i]) {
      for (std::size_t c = 0; c < 15; ++c) bl[c] = 0.0;  // isolated cell
    } else {
      const real_t* const __restrict gi = ginv + i * kGinvStride;
      for (std::size_t c = 0; c < 5; ++c) {
        const real_t rx = rhs[c], ry = rhs[5 + c], rz = rhs[10 + c];
        bl[c] = gi[0] * rx + gi[1] * ry + gi[2] * rz;
        bl[5 + c] = gi[1] * rx + gi[3] * ry + gi[4] * rz;
        bl[10 + c] = gi[2] * rx + gi[4] * ry + gi[5] * rz;
      }
    }
    for (std::size_t c = 0; c < 5; ++c) {
      bl[15 + c] = qmin[c];
      bl[20 + c] = qmax[c];
    }

    // Venkatakrishnan limiter; g . d uses geom::dot's association.
    const real_t ei = eps2[i];
    real_t phi[5] = {1.0, 1.0, 1.0, 1.0, 1.0};
    for (index_t j = cf_off[i]; j < cf_off[i + 1]; ++j) {
      const index_t k = cf[j];
      const bool left = k >= 0;
      const std::size_t e = std::size_t(left ? k : ~k);
      const real_t dx = left ? g.dlx[e] : g.drx[e];
      const real_t dy = left ? g.dly[e] : g.dry[e];
      const real_t dz = left ? g.dlz[e] : g.drz[e];
      real_t* const __restrict fd = fdq + e * kFdqStride + (left ? 0 : 5);
      for (std::size_t c = 0; c < 5; ++c) {
        const real_t dq = (bl[c] * dx + bl[5 + c] * dy) + bl[10 + c] * dz;
        fd[c] = dq;
        real_t lim = 1.0;
        if (dq > 1e-14)
          lim = venkat(qmax[c] - pi[c], dq, ei);
        else if (dq < -1e-14)
          lim = venkat(pi[c] - qmin[c], -dq, ei);
        phi[c] = std::min(phi[c], lim);
      }
    }
    real_t* const __restrict f = ph + i * kPhiStride;
    for (std::size_t c = 0; c < 5; ++c) f[c] = phi[c];
  });
}

/// One numerical flux per face (face-parallel; faces are independent):
/// out[e * stride + c] = area * flux[c]. On second-order levels `out` is
/// fdq, so each face's flux overwrites slots [0, 5) of its own block
/// after the reconstruction has read the whole block.
template <euler::FluxScheme S>
void face_fluxes(const LevelGeom& g, Scratch& s, bool second_order) {
  const real_t* const pb = s.pb.data();
  const real_t* const ph = s.ph.data();
  const Prim* const w = s.w.data();
  real_t* const out = second_order ? s.fdq.data() : s.fx.data();
  const std::size_t stride = second_order ? kFdqStride : kFluxStride;
  smp::ThreadPool::global().parallel_for(
      0, g.faces, kFaceGrain, [&](std::size_t fb, std::size_t fe, int) {
        for (std::size_t e = fb; e < fe; ++e) {
          const std::size_t a = std::size_t(g.fl[e]);
          const std::size_t b = std::size_t(g.fr[e]);
          real_t* const o = out + e * stride;
          Prim wl = w[a], wr = w[b];
          if (second_order) {
            const real_t* const pa = pb + a * kPrimStride;
            const real_t* const pbv = pb + b * kPrimStride;
            const real_t* const pha = ph + a * kPhiStride;
            const real_t* const phb = ph + b * kPhiStride;
            std::array<real_t, 5> ql, qr;
            for (std::size_t c = 0; c < 5; ++c) {
              ql[c] = pa[c] + pha[c] * o[c];
              qr[c] = pbv[c] + phb[c] * o[5 + c];
            }
            // Exact inverse of the scalar guard (q[0] <= 0 || q[4] <= 0
            // falls back to the cell mean) so NaN reconstructions take the
            // same path.
            if (!(ql[0] <= 0 || ql[4] <= 0)) wl = prim_from_array(ql);
            if (!(qr[0] <= 0 || qr[4] <= 0)) wr = prim_from_array(qr);
          }
          const Cons flux = scheme_flux<S>(wl, wr, axis_normal(g.axis[e]));
          const real_t ar = g.area[e];
          for (std::size_t c = 0; c < 5; ++c) o[c] = ar * flux[c];
        }
      });
}

}  // namespace

void residual(const LevelGeom& g, const CartMesh& m, const Prim& freestream,
              euler::FluxScheme scheme, std::span<const Cons> u,
              bool second_order, Scratch& s, std::vector<Cons>& res) {
  const std::size_t n = g.cells;
  s.resize(g, second_order);
  res.resize(n);

  Prim* const w = s.w.data();
  real_t* const pb = s.pb.data();
  for_cells(n, [&](std::size_t i) {
    const Prim wi = euler::to_primitive(u[i]);
    w[i] = wi;
    real_t* const __restrict p = pb + i * kPrimStride;
    p[0] = wi.rho;
    p[1] = wi.vel.x;
    p[2] = wi.vel.y;
    p[3] = wi.vel.z;
    p[4] = wi.p;
  });

  if (second_order) gradients_and_limiter(g, s);

  // One flux per face (scheme hoisted out of the sweep).
  switch (scheme) {
    case euler::FluxScheme::Roe:
      face_fluxes<euler::FluxScheme::Roe>(g, s, second_order);
      break;
    case euler::FluxScheme::VanLeer:
      face_fluxes<euler::FluxScheme::VanLeer>(g, s, second_order);
      break;
    case euler::FluxScheme::Rusanov:
      face_fluxes<euler::FluxScheme::Rusanov>(g, s, second_order);
      break;
  }

  // Per cell: interior flux sums in face order (+= as the left side, -=
  // as the right), then the domain (farfield) boundary faces.
  const real_t* const fx = second_order ? s.fdq.data() : s.fx.data();
  const std::size_t stride = second_order ? kFdqStride : kFluxStride;
  const index_t* const cf_off = g.cf_off.data();
  const index_t* const cf = g.cf.data();
  const index_t* const cb_off = g.cb_off.data();
  const index_t* const cb = g.cb.data();
  Cons* const r = res.data();
  for_cells(n, [&](std::size_t i) {
    Cons acc{};
    for (index_t j = cf_off[i]; j < cf_off[i + 1]; ++j) {
      const index_t k = cf[j];
      if (k >= 0) {
        const real_t* const f = fx + std::size_t(k) * stride;
        for (std::size_t c = 0; c < 5; ++c) acc[c] += f[c];
      } else {
        const real_t* const f = fx + std::size_t(~k) * stride;
        for (std::size_t c = 0; c < 5; ++c) acc[c] -= f[c];
      }
    }
    for (index_t j = cb_off[i]; j < cb_off[i + 1]; ++j) {
      const std::size_t e = std::size_t(cb[j]);
      const Vec3 nrm{g.bnx[e], g.bny[e], g.bnz[e]};
      const Cons flux = euler::farfield_flux(w[i], freestream, nrm, scheme);
      const real_t ar = g.barea[e];
      for (std::size_t c = 0; c < 5; ++c) acc[c] += ar * flux[c];
    }
    r[i] = acc;
  });

  // Embedded (cut-cell) walls: only the precomputed cut list is visited
  // (cut indices are unique, so the update is race-free).
  const index_t* const cut = g.cut_cells.data();
  for_cells(g.cut_cells.size(), [&](std::size_t k) {
    const std::size_t i = std::size_t(cut[k]);
    const Cons flux = euler::wall_flux(w[i], m.cells[i].wall_area);
    for (std::size_t q = 0; q < 5; ++q) r[i][q] += flux[q];
  });
}

void wave_speeds(const LevelGeom& g, const CartMesh& m,
                 std::span<const Cons> u, std::vector<real_t>& wave) {
  wave.resize(g.cells);
  for_cells(g.cells, [&](std::size_t i) {
    const Prim wi = euler::to_primitive(u[i]);
    real_t acc = 0.0;
    for (index_t j = g.cf_off[i]; j < g.cf_off[i + 1]; ++j) {
      const index_t k = g.cf[j];
      const std::size_t e = std::size_t(k >= 0 ? k : ~k);
      acc += euler::spectral_radius(wi, axis_normal(g.axis[e])) * g.area[e];
    }
    for (index_t j = g.cb_off[i]; j < g.cb_off[i + 1]; ++j) {
      const std::size_t e = std::size_t(g.cb[j]);
      acc += euler::spectral_radius(wi, {g.bnx[e], g.bny[e], g.bnz[e]}) *
             g.barea[e];
    }
    const CartCell& c = m.cells[i];
    if (c.cut)
      acc += euler::spectral_radius(wi, normalized(c.wall_area)) *
             norm(c.wall_area);
    wave[i] = acc;
  });
}

// --- Scalar reference: verbatim retention of the pre-SoA residual. ---

void residual_reference(const CartMesh& m, const Prim& freestream,
                        euler::FluxScheme scheme, std::span<const Cons> u,
                        bool second_order, ReferenceScratch& ws,
                        std::vector<Cons>& res) {
  const std::size_t n = m.cells.size();
  res.assign(n, Cons{});

  ws.w.resize(n);
  auto& w = ws.w;
  for (std::size_t i = 0; i < n; ++i) w[i] = euler::to_primitive(u[i]);

  auto& grad = ws.grad;
  auto& phi = ws.phi;
  if (second_order) {
    grad.assign(n, {});
    phi.assign(n, {1, 1, 1, 1, 1});

    ws.gram.assign(n, std::array<real_t, 6>{0, 0, 0, 0, 0, 0});
    ws.rhs.assign(n, std::array<Vec3, 5>{});
    auto& gram = ws.gram;
    auto& rhs = ws.rhs;
    auto accumulate = [&](index_t a, index_t b) {
      const Vec3 d = m.cell_center(m.cells[std::size_t(b)]) -
                     m.cell_center(m.cells[std::size_t(a)]);
      auto& g = gram[std::size_t(a)];
      g[0] += d.x * d.x;
      g[1] += d.x * d.y;
      g[2] += d.x * d.z;
      g[3] += d.y * d.y;
      g[4] += d.y * d.z;
      g[5] += d.z * d.z;
      const auto qa = prim_array(w[std::size_t(a)]);
      const auto qb = prim_array(w[std::size_t(b)]);
      for (int c = 0; c < 5; ++c)
        rhs[std::size_t(a)][std::size_t(c)] +=
            (qb[std::size_t(c)] - qa[std::size_t(c)]) * d;
    };
    for (const CartFace& f : m.faces) {
      accumulate(f.left, f.right);
      accumulate(f.right, f.left);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto& g = gram[i];
      const real_t a = g[0], b = g[1], c = g[2], d = g[3], e = g[4],
                   f3 = g[5];
      const real_t det = a * (d * f3 - e * e) - b * (b * f3 - e * c) +
                         c * (b * e - d * c);
      if (std::abs(det) < 1e-30) continue;  // isolated cell: keep zero grad
      const real_t inv = 1.0 / det;
      const real_t i00 = (d * f3 - e * e) * inv;
      const real_t i01 = (c * e - b * f3) * inv;
      const real_t i02 = (b * e - c * d) * inv;
      const real_t i11 = (a * f3 - c * c) * inv;
      const real_t i12 = (b * c - a * e) * inv;
      const real_t i22 = (a * d - b * b) * inv;
      for (int q = 0; q < 5; ++q) {
        const Vec3 rv = rhs[i][std::size_t(q)];
        grad[i][std::size_t(q)] = {i00 * rv.x + i01 * rv.y + i02 * rv.z,
                                   i01 * rv.x + i11 * rv.y + i12 * rv.z,
                                   i02 * rv.x + i12 * rv.y + i22 * rv.z};
      }
    }

    ws.qmin.resize(n);
    ws.qmax.resize(n);
    auto& qmin = ws.qmin;
    auto& qmax = ws.qmax;
    for (std::size_t i = 0; i < n; ++i) qmin[i] = qmax[i] = prim_array(w[i]);
    auto minmax = [&](index_t a, index_t b) {
      const auto qb = prim_array(w[std::size_t(b)]);
      for (int c = 0; c < 5; ++c) {
        qmin[std::size_t(a)][std::size_t(c)] =
            std::min(qmin[std::size_t(a)][std::size_t(c)], qb[std::size_t(c)]);
        qmax[std::size_t(a)][std::size_t(c)] =
            std::max(qmax[std::size_t(a)][std::size_t(c)], qb[std::size_t(c)]);
      }
    };
    for (const CartFace& f : m.faces) {
      minmax(f.left, f.right);
      minmax(f.right, f.left);
    }
    auto limit_at = [&](index_t i, const Vec3& to_face) {
      const auto qi = prim_array(w[std::size_t(i)]);
      const real_t h = m.cell_width(m.cells[std::size_t(i)].level, 0);
      const real_t eps2 = std::pow(0.3 * h, 3);
      for (int c = 0; c < 5; ++c) {
        const real_t dq = dot(grad[std::size_t(i)][std::size_t(c)], to_face);
        real_t lim = 1.0;
        if (dq > 1e-14)
          lim = venkat(qmax[std::size_t(i)][std::size_t(c)] - qi[std::size_t(c)],
                       dq, eps2);
        else if (dq < -1e-14)
          lim = venkat(qi[std::size_t(c)] - qmin[std::size_t(i)][std::size_t(c)],
                       -dq, eps2);
        phi[std::size_t(i)][std::size_t(c)] =
            std::min(phi[std::size_t(i)][std::size_t(c)], lim);
      }
    };
    for (const CartFace& f : m.faces) {
      limit_at(f.left, f.center - m.cell_center(m.cells[std::size_t(f.left)]));
      limit_at(f.right,
               f.center - m.cell_center(m.cells[std::size_t(f.right)]));
    }
  }

  auto reconstruct = [&](index_t i, const Vec3& face_center) -> Prim {
    if (!second_order) return w[std::size_t(i)];
    const Vec3 d = face_center - m.cell_center(m.cells[std::size_t(i)]);
    auto q = prim_array(w[std::size_t(i)]);
    for (int c = 0; c < 5; ++c)
      q[std::size_t(c)] += phi[std::size_t(i)][std::size_t(c)] *
                           dot(grad[std::size_t(i)][std::size_t(c)], d);
    if (q[0] <= 0 || q[4] <= 0) return w[std::size_t(i)];
    return prim_from_array(q);
  };

  for (const CartFace& f : m.faces) {
    const Vec3 nrm = axis_normal(f.axis);
    const Prim wl = reconstruct(f.left, f.center);
    const Prim wr = reconstruct(f.right, f.center);
    const Cons flux = euler::numerical_flux(wl, wr, nrm, scheme);
    for (int c = 0; c < 5; ++c) {
      res[std::size_t(f.left)][std::size_t(c)] += f.area * flux[std::size_t(c)];
      res[std::size_t(f.right)][std::size_t(c)] -= f.area * flux[std::size_t(c)];
    }
  }

  for (const CartFace& f : m.boundary_faces) {
    const Vec3 nrm = boundary_normal(f);
    const Cons flux =
        euler::farfield_flux(w[std::size_t(f.left)], freestream, nrm, scheme);
    for (int c = 0; c < 5; ++c)
      res[std::size_t(f.left)][std::size_t(c)] += f.area * flux[std::size_t(c)];
  }

  for (std::size_t i = 0; i < n; ++i) {
    const CartCell& c = m.cells[i];
    if (!c.cut) continue;
    const Cons flux = euler::wall_flux(w[i], c.wall_area);
    for (int q = 0; q < 5; ++q) res[i][std::size_t(q)] += flux[std::size_t(q)];
  }
}

}  // namespace columbia::cart3d::kernels
