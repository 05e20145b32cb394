// Multilevel adaptively-refined Cartesian mesh with embedded boundaries.
//
// This is the Cart3D substrate of the paper (Sec. V): a Cartesian mesh is
// generated automatically around a watertight component triangulation by
// recursive subdivision of the cells that intersect geometry, with 2:1
// level balance; cells fully inside the solid are discarded; cells crossed
// by the surface become cut cells. Cells are ordered along a space-filling
// curve (Morton or Peano-Hilbert), which later drives both mesh coarsening
// and domain decomposition.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cartesian/inside.hpp"
#include "geom/surface.hpp"
#include "support/types.hpp"

namespace columbia::cartesian {

enum class SfcKind { Morton, PeanoHilbert };

struct CartCell {
  /// Min corner in finest-grid integer units.
  std::array<std::uint32_t, 3> anchor;
  /// Refinement level: 0 = base grid, up to options.max_level.
  std::int8_t level;  // may go negative after sub-base coarsening
  bool cut = false;
  /// Fluid volume fraction (1 for uncut cells).
  real_t fluid_frac = 1.0;
  /// Area vector of the embedded surface inside this cell, oriented out of
  /// the fluid (into the solid). Zero for uncut cells.
  geom::Vec3 wall_area;
};

struct CartFace {
  index_t left;   // cell index
  index_t right;  // cell index, or kInvalidIndex for a domain-boundary face
  std::int8_t axis;  // 0, 1, 2; normal points from left to right (+axis)
  real_t area;       // fluid-scaled face area
  geom::Vec3 center;
};

/// Unit normal of an interior face (+axis, left to right).
inline geom::Vec3 axis_normal(int axis) {
  geom::Vec3 n{};
  if (axis == 0) n.x = 1;
  if (axis == 1) n.y = 1;
  if (axis == 2) n.z = 1;
  return n;
}

/// Unit outward normal of a domain-boundary face (axis is encoded as
/// axis or -(axis+1) for the negative direction).
inline geom::Vec3 boundary_normal(const CartFace& f) {
  const int a = f.axis >= 0 ? f.axis : -(f.axis + 1);
  const real_t sign = f.axis >= 0 ? 1.0 : -1.0;
  geom::Vec3 n{};
  if (a == 0) n.x = sign;
  if (a == 1) n.y = sign;
  if (a == 2) n.z = sign;
  return n;
}

struct CartMeshOptions {
  int base_n = 8;     // base cells per axis (level 0)
  int max_level = 3;  // maximum subdivision depth
  SfcKind sfc = SfcKind::PeanoHilbert;
  /// Minimum fluid fraction kept for a cut cell (the classic "small cell"
  /// clamp); cells below it are treated as solid and dropped.
  real_t min_fluid_frac = 0.05;
  int classify_samples = 3;  // fluid_fraction sampling resolution per axis
};

class CartMesh {
 public:
  geom::Aabb domain;
  int base_n = 0;
  int max_level = 0;
  std::vector<CartCell> cells;    // SFC-ordered
  std::vector<std::uint64_t> sfc_keys;  // parallel to cells
  std::vector<CartFace> faces;          // interior fluid faces
  std::vector<CartFace> boundary_faces;  // domain boundary (farfield)

  index_t num_cells() const { return index_t(cells.size()); }
  index_t num_cut_cells() const;

  /// Edge length of a level-L cell along axis a.
  real_t cell_width(int level, int axis) const;
  geom::Vec3 cell_center(const CartCell& c) const;
  geom::Aabb cell_box(const CartCell& c) const;
  real_t cell_volume(const CartCell& c) const;  // fluid-scaled

  /// Span of the cell in finest-grid units (levels may be negative after
  /// sub-base coarsening, giving spans larger than the base cell).
  std::uint32_t cell_span(const CartCell& c) const {
    return 1u << (max_level - int(c.level));
  }

  /// Total fluid volume (sum of cell volumes).
  real_t total_fluid_volume() const;
};

/// Generates the adapted cut-cell mesh around `surface`.
/// The paper quotes 3-5 million cells/minute for this step on Itanium2
/// (Sec. IV); the generator is a single-threaded direct implementation.
CartMesh build_cart_mesh(const geom::TriSurface& surface,
                         const geom::Aabb& domain,
                         const CartMeshOptions& opt = {});

/// Uniform mesh with no geometry (all cells fluid, no cut cells).
/// `coarsenable_levels` places all cells at that refinement level above a
/// base grid of n_per_axis / 2^levels, so the SFC coarsener can build that
/// many multigrid levels below it. n_per_axis must be divisible by
/// 2^coarsenable_levels.
CartMesh build_uniform_mesh(const geom::Aabb& domain, int n_per_axis,
                            SfcKind sfc = SfcKind::PeanoHilbert,
                            int coarsenable_levels = 0);

/// SFC key of a cell's center (used for ordering and partitioning).
std::uint64_t sfc_key_of(const CartMesh& m, const CartCell& c, SfcKind kind);

/// Reorders cells (and keys) along the SFC.
void sort_cells_by_sfc(CartMesh& m, SfcKind kind);

/// Rebuilds interior and boundary face lists from the cell list. Handles
/// arbitrary level differences across a face (the finer side owns it).
void build_faces(CartMesh& m);

/// SFC partition of the cells into contiguous curve segments, cut cells
/// weighted `cut_weight` (2.1 in the paper's Fig. 12).
std::vector<index_t> partition_cells(const CartMesh& m, index_t nparts,
                                     real_t cut_weight = 2.1);

struct PartitionSurfaceStats {
  real_t mean_surface_to_volume = 0;  // averaged over parts
  real_t ideal_cubic = 0;             // 6 * V^(2/3) / V for the mean part
};

/// Communication quality of a partition: cut faces per part vs the ideal
/// cube (paper: SFC partitions "track that of an idealized cubic
/// partitioner").
PartitionSurfaceStats partition_surface_stats(const CartMesh& m,
                                              std::span<const index_t> part,
                                              index_t nparts);

}  // namespace columbia::cartesian
