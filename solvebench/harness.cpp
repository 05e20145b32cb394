// Benchmark harness: drives the solver libraries through their public
// calls and prints one JSON object per line for run.py to reduce.
//
//   solvebench_harness case --case nsu3d_wing|cart3d_sphere --setups N
//       --seconds S --seed K
//     Untraced end-to-end runs at the case's thread count: N timed set-ups,
//     then fresh set-up + solve to 3 orders, repeated while the next solve
//     fits in S seconds. Each solve also reports the data its correctness
//     checks need (residual recomputed with the retained scalar reference
//     kernel, on the solution and on a seeded perturbation of it; forces).
//
//   solvebench_harness serial --cycles C
//     distributed_solve's wing case solved in-process at one thread: the
//     reference a 2-rank launch must reproduce, plus perf::MachineModel's
//     2-rank/serial speedup prediction for the launch's partitions.
//
//   solvebench_harness layers --workload W --workdir DIR
//     Per-layer timings of both in-process cases, taken around public
//     calls; traced solves (spans + convergence JSONL in DIR); re-solves at
//     the other thread count; tracing overhead for the workload's case.
//
//   solvebench_harness spawn -- PROGRAM ARGS...
//     Runs PROGRAM and reports its wall time, exit code and peak RSS.
//
//   solvebench_harness xchg --backend shm|tcp --out FILE
//     Forks a 2-rank group (before any pool use) and times the
//     launch's per-level ExchangePlans, frame checksumming and drain().
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cart3d/kernels.hpp"
#include "cart3d/solver.hpp"
#include "cartesian/cart_mesh.hpp"
#include "cartesian/coarsen.hpp"
#include "core/exchange_plan.hpp"
#include "core/multigrid.hpp"
#include "geom/components.hpp"
#include "mesh/builders.hpp"
#include "nsu3d/kernels.hpp"
#include "nsu3d/partitioned.hpp"
#include "nsu3d/solver.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "perf/columbia.hpp"
#include "perf/loads.hpp"
#include "resil/faults.hpp"
#include "smp/pool.hpp"
#include "smp/process_group.hpp"
#include "support/build_info.hpp"
#include "support/durable.hpp"

using namespace columbia;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall milliseconds of `reps` calls of fn (after one warm-up).
double median_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0) * 1e3);
  }
  return median(t);
}

/// splitmix64: the seeded choices of the anti-test perturbations.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- JSON line output ------------------------------------------------------

struct Line {
  std::string s = "{";
  Line& key(const char* k) {
    if (s.size() > 1) s += ',';
    s += '"';
    s += k;
    s += "\":";
    return *this;
  }
  Line& num(const char* k, double v) {
    char buf[40];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    else
      std::snprintf(buf, sizeof(buf), "\"%s\"", std::isnan(v) ? "nan" : "inf");
    key(k);
    s += buf;
    return *this;
  }
  Line& str(const char* k, const std::string& v) {
    key(k);
    s += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') s += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) s += c;
    }
    s += '"';
    return *this;
  }
  Line& arr(const char* k, const std::vector<double>& v) {
    key(k);
    s += '[';
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    s += ']';
    return *this;
  }
  std::string done() const { return s + "}"; }
  void print() const {
    std::printf("%s}\n", s.c_str());
    std::fflush(stdout);
  }
};

// --- Host fingerprint (cpuid; no files read) --------------------------------

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s = s.c_str();
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string isa_flags() {
  __builtin_cpu_init();
  std::string out;
  const auto add = [&](bool on, const char* name) {
    if (!on) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
  return out;
}

void print_provenance(int threads, int ranks) {
  const BuildInfo& bi = build_info();
  Line()
      .str("kind", "provenance")
      .str("git_sha", bi.git_sha)
      .str("build_type", bi.build_type)
      .str("cpu_model", cpu_model())
      .num("cores", double(std::thread::hardware_concurrency()))
      .str("isa", isa_flags())
      .num("threads", threads)
      .num("ranks", ranks)
      .print();
}

// --- The benchmark's cases (README "Exact inputs" lists the same) ----------

constexpr double kOrders = 3.0;

// NSU3D: the transport_rans wing.
mesh::UnstructuredMesh wing_mesh() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 48;
  spec.n_span = 8;
  spec.n_normal = 20;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}
euler::FlowConditions wing_flow() {
  euler::FlowConditions c;
  c.mach = 0.75;
  c.alpha_deg = 0.0;
  c.reynolds = 3.0e6;
  return c;
}
nsu3d::Nsu3dOptions wing_options(int levels) {
  nsu3d::Nsu3dOptions o;
  o.mg_levels = levels;
  o.cycle = nsu3d::CycleType::W;
  o.smoother = nsu3d::SmootherKind::LineImplicit;
  return o;
}
constexpr int kWingCap = 150;

// The launch's case: examples/distributed_solve.cpp solve_rank().
mesh::UnstructuredMesh launch_mesh() {
  mesh::WingMeshSpec spec;
  spec.n_wrap = 24;
  spec.n_span = 4;
  spec.n_normal = 10;
  spec.wall_spacing = 1e-4;
  return mesh::make_wing_mesh(spec);
}
constexpr int kLaunchLevels = 3;
constexpr index_t kLaunchHaloParts = 8;   // distributed_solve's kHaloParts
constexpr index_t kLaunchAgglomerate = 64;  // its --agglomerate default

// Cart3D: second-order cut-cell Euler around a sphere.
cartesian::CartMesh sphere_mesh() {
  const geom::TriSurface sphere = geom::make_sphere({0, 0, 0}, 0.5, 24, 48);
  geom::Aabb domain;
  domain.expand({-2, -2, -2});
  domain.expand({2, 2, 2});
  cartesian::CartMeshOptions mo;
  mo.base_n = 16;
  mo.max_level = 1;
  return cartesian::build_cart_mesh(sphere, domain, mo);
}
euler::FlowConditions sphere_flow() {
  euler::FlowConditions c;
  c.mach = 0.3;
  c.alpha_deg = 0.0;
  return c;
}
cart3d::SolverOptions sphere_options() {
  cart3d::SolverOptions o;
  o.mg_levels = 3;
  o.cfl = 1.2;
  return o;
}
constexpr int kSphereCap = 150;

nsu3d::kernels::Physics wing_physics(const euler::FlowConditions& fc,
                                     const nsu3d::Nsu3dOptions& o) {
  // The solver's own construction (nsu3d/solver.cpp), from public inputs.
  nsu3d::kernels::Physics p;
  p.freestream = fc.freestream();
  p.flux = o.flux;
  p.mu_lam = fc.mach / fc.reynolds;
  p.nut_inf = o.viscous ? 3.0 * p.mu_lam / p.freestream.rho : 0.0;
  p.viscous = o.viscous;
  return p;
}

// --- Independent residual recomputation ------------------------------------

/// Fine-level density-residual norm of `u` through the retained scalar
/// reference kernel, with the solver's norm definition (RMS of
/// residual/volume) but a plain serial sum.
double nsu3d_reference_norm(const nsu3d::Level& lvl,
                            const nsu3d::kernels::Physics& phys,
                            const std::vector<nsu3d::State>& u) {
  nsu3d::kernels::ReferenceScratch rs;
  std::vector<nsu3d::State> res;
  nsu3d::kernels::residual_reference(lvl, phys, 0, u, true, rs, res);
  double sum = 0;
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < std::size_t(lvl.num_nodes); ++i) {
    const double v = lvl.node_volume[i];
    if (v <= 0) continue;
    const double r = res[i][0] / v;
    sum += r * r;
    ++cnt;
  }
  return std::sqrt(sum / double(std::max<std::size_t>(1, cnt)));
}

double cart3d_reference_norm(const cartesian::CartMesh& m,
                             const euler::Prim& freestream,
                             euler::FluxScheme flux,
                             const std::vector<euler::Cons>& u) {
  cart3d::kernels::ReferenceScratch rs;
  std::vector<euler::Cons> res;
  cart3d::kernels::residual_reference(m, freestream, flux, u, true, rs, res);
  double sum = 0;
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const double v = m.cell_volume(m.cells[i]);
    if (v <= 0) continue;
    const double r = res[i][0] / v;
    sum += r * r;
  }
  return std::sqrt(sum / double(std::max<std::size_t>(1, m.cells.size())));
}

/// Anti-test input: the density of every node/cell moved by a seeded
/// random amount of up to +-5% (momentum and energy kept, so velocity and
/// pressure move too).
template <class S>
std::vector<S> perturbed(const std::vector<S>& u, std::uint64_t seed) {
  std::vector<S> p = u;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double r = double(mix(seed * 0x100000001b3ULL + i) >> 11) * 0x1p-53;
    p[i][0] *= 1.0 + 0.05 * (2.0 * r - 1.0);
  }
  return p;
}

// --- Solves ----------------------------------------------------------------

struct SolveRecord {
  std::vector<double> history;
  std::vector<double> cycle_s;
  double solve_s = 0;
  geom::Vec3 force;
  double cl = 0, cd = 0;
};

/// The driver's solve() loop (core/multigrid.hpp) with a timer around each
/// cycle: same calls, same stopping rule, so the history is the one
/// solve() returns. The solve ends when the forces are in hand.
template <class Solver>
SolveRecord timed_solve(Solver& s, int cap) {
  SolveRecord r;
  const auto t0 = Clock::now();
  r.history.push_back(s.residual_norm());
  const double target = r.history[0] * std::pow(10.0, -kOrders);
  for (int c = 0; c < cap; ++c) {
    const auto tc = Clock::now();
    r.history.push_back(s.run_cycle());
    r.cycle_s.push_back(seconds_since(tc));
    if (r.history.back() <= target) break;
  }
  const auto f = s.integrate_forces();
  r.solve_s = seconds_since(t0);
  r.force = f.force;
  r.cl = f.cl;
  r.cd = f.cd;
  return r;
}

Line solve_line(const char* kind, const SolveRecord& r, int cap) {
  Line l;
  l.str("kind", kind)
      .num("solve_s", r.solve_s)
      .num("cap", cap)
      .arr("history", r.history)
      .arr("cycle_s", r.cycle_s)
      .num("cl", r.cl)
      .num("cd", r.cd)
      .arr("force", {r.force.x, r.force.y, r.force.z});
  return l;
}

/// The two in-process cases. kThreads is the workload's thread count:
/// NSU3D runs its end-to-end figures at one thread, because at two its
/// barrier-heavy colored edge loops swing 75-124 ms per cycle from run to
/// run on a shared 4-core host; Cart3D runs at two.
struct Nsu3dCase {
  static constexpr const char* kName = "nsu3d_wing";
  static constexpr const char* kCycleSpan = "nsu3d.cycle";
  static constexpr int kCap = kWingCap;
  static constexpr int kThreads = 1;
  using Mesh = mesh::UnstructuredMesh;
  using Solver = nsu3d::Nsu3dSolver;
  using S = nsu3d::State;
  static Mesh build_mesh() { return wing_mesh(); }
  static std::unique_ptr<Solver> make(const Mesh& m) {
    return std::make_unique<Solver>(m, wing_flow(), wing_options(4));
  }
  static std::vector<S> state(const Solver& s, int l = 0) {
    const auto u = s.solution(l);
    return {u.begin(), u.end()};
  }
  static double reference_norm(const Solver& s, const std::vector<S>& u) {
    return nsu3d_reference_norm(s.level(0),
                                wing_physics(wing_flow(), wing_options(4)), u);
  }
};

struct Cart3dCase {
  static constexpr const char* kName = "cart3d_sphere";
  static constexpr const char* kCycleSpan = "cart3d.cycle";
  static constexpr int kCap = kSphereCap;
  static constexpr int kThreads = 2;
  using Mesh = cartesian::CartMesh;
  using Solver = cart3d::Cart3DSolver;
  using S = euler::Cons;
  static Mesh build_mesh() { return sphere_mesh(); }
  static std::unique_ptr<Solver> make(const Mesh& m) {
    return std::make_unique<Solver>(m, sphere_flow(), sphere_options());
  }
  static std::vector<S> state(const Solver& s, int l = 0) {
    return s.solution(l);
  }
  static double reference_norm(const Solver& s, const std::vector<S>& u) {
    return cart3d_reference_norm(s.mesh(0), sphere_flow().freestream(),
                                 sphere_options().flux, u);
  }
};

/// Set-up: mesh generation, multigrid hierarchy, solver construction.
template <class Case>
double timed_setup(typename Case::Mesh& m,
                   std::unique_ptr<typename Case::Solver>& s) {
  const auto t0 = Clock::now();
  s.reset();
  m = Case::build_mesh();
  s = Case::make(m);
  return seconds_since(t0);
}

template <class Case>
int run_case(int setups, double seconds, std::uint64_t seed) {
  smp::set_global_threads(Case::kThreads);
  typename Case::Mesh m;
  std::unique_ptr<typename Case::Solver> s;
  for (int i = 0; i < setups; ++i)
    Line().str("kind", "setup").num("s", timed_setup<Case>(m, s)).print();
  // Whole solves only: stop before a solve that would end past `seconds`,
  // judged by the previous one.
  const auto start = Clock::now();
  double last = 0;
  for (int n = 0; n == 0 || seconds_since(start) + last <= seconds; ++n) {
    Line().str("kind", "setup").num("s", timed_setup<Case>(m, s)).print();
    const auto u0 = Case::state(*s);
    const SolveRecord r = timed_solve(*s, Case::kCap);
    last = r.solve_s;
    const auto u = Case::state(*s);
    solve_line("solve", r, Case::kCap)
        .num("ref_initial", Case::reference_norm(*s, u0))
        .num("ref_final", Case::reference_norm(*s, u))
        .num("ref_perturbed",
             Case::reference_norm(*s, perturbed(u, seed * 131 + std::uint64_t(n))))
        .print();
  }
  return 0;
}

// --- Serial reference for the 2-rank launch --------------------------------

int run_serial(int cycles) {
  smp::set_global_threads(1);
  const mesh::UnstructuredMesh m = launch_mesh();
  nsu3d::Nsu3dSolver solver(m, wing_flow(), wing_options(kLaunchLevels));
  const SolveRecord r = timed_solve(solver, cycles);

  // perf::MachineModel's prediction for the launch's partitions: the
  // same 2-way node blocks, shared-memory fabric, one CPU per rank.
  std::vector<nsu3d::Level> levels;
  for (int l = 0; l < solver.num_levels(); ++l) levels.push_back(solver.level(l));
  perf::Nsu3dLoadModel model(levels, 1.0);
  const std::vector<index_t> visits =
      perf::cycle_visits(solver.num_levels(), true);
  const perf::MachineModel mm;
  perf::HybridLayout one, two;
  one.fabric = two.fabric = perf::Interconnect::SharedMemory;
  one.total_cpus = 1;
  two.total_cpus = 2;
  const double model_speedup =
      mm.speedup(model.loads(2, visits), two, model.loads(1, visits), one);
  solve_line("serial", r, cycles).num("model_speedup_2r", model_speedup).print();
  return 0;
}

// --- Per-layer timings -----------------------------------------------------

constexpr int kReps = 9;

/// Per-cycle wall times of the named cycle span in the recorder.
std::vector<double> span_seconds(const char* name) {
  std::vector<double> out;
  std::vector<std::uint64_t> open;
  for (const obs::TraceEvent& e : obs::trace_snapshot()) {
    if (std::strcmp(e.name, name) != 0) continue;
    if (e.phase == 'B') {
      open.push_back(e.ts_ns);
    } else if (!open.empty()) {
      out.push_back(double(e.ts_ns - open.back()) * 1e-9);
      open.pop_back();
    }
  }
  return out;
}

/// Pool counters summed over the traced 2-thread solves.
struct PoolTotals {
  std::vector<double> busy_ms;
  double chunks = 0;
  void add(const std::vector<smp::ThreadPool::ThreadStats>& st) {
    busy_ms.resize(std::max(busy_ms.size(), st.size()), 0.0);
    for (std::size_t t = 0; t < st.size(); ++t) {
      busy_ms[t] += double(st[t].busy_ns) * 1e-6;
      chunks += double(st[t].chunks);
    }
  }
};

/// solve() with the recorder on (spans, pool counters) and, when `jsonl`
/// is given, the convergence JSONL sink open. Fills the per-cycle span
/// times; returns the history.
template <class Solver>
std::vector<double> traced_solve(Solver& s, int cap, const char* cycle_span,
                                 const std::string& jsonl, PoolTotals& pool,
                                 std::vector<double>& cycle_s) {
  obs::reset_trace();
  smp::ThreadPool::global().reset_stats();
  obs::set_enabled(true);
  if (!jsonl.empty()) obs::open_jsonl(jsonl);
  const std::vector<real_t> h = s.solve(cap, kOrders);
  if (!jsonl.empty()) obs::close_jsonl();
  obs::set_enabled(false);
  if (smp::ThreadPool::global().num_threads() > 1)
    pool.add(smp::ThreadPool::global().thread_stats());
  cycle_s = span_seconds(cycle_span);
  obs::reset_trace();
  return {h.begin(), h.end()};
}

/// Solves of one case: untraced and traced (convergence JSONL in `dir`) at
/// the workload's thread count, paired cycle by cycle for the tracing
/// overhead, then a traced re-solve at the other thread count. Every
/// history must be identical. Leaves the converged solver in `s`.
template <class Case>
void case_solves(const typename Case::Mesh& m, const std::string& dir,
                 bool own, PoolTotals& pool,
                 std::unique_ptr<typename Case::Solver>& s) {
  const int other = Case::kThreads == 1 ? 2 : 1;
  smp::set_global_threads(Case::kThreads);
  const SolveRecord plain = timed_solve(*Case::make(m), Case::kCap);
  s = Case::make(m);
  std::vector<double> traced_cycles;
  const std::vector<double> traced = traced_solve(
      *s, Case::kCap, Case::kCycleSpan,
      dir + "/" + std::string(Case::kName) + ".jsonl", pool, traced_cycles);
  if (own) {
    std::vector<double> ratio;
    for (std::size_t i = 0;
         i < std::min(plain.cycle_s.size(), traced_cycles.size()); ++i)
      ratio.push_back(traced_cycles[i] / plain.cycle_s[i]);
    Line().str("kind", "overhead").arr("ratio", ratio).print();
  }
  smp::set_global_threads(other);
  std::vector<double> unused;
  const auto t0 = Clock::now();
  const std::vector<double> resolved = traced_solve(
      *Case::make(m), Case::kCap, Case::kCycleSpan, "", pool, unused);
  const double resolve_s = seconds_since(t0);
  smp::set_global_threads(Case::kThreads);
  Line()
      .str("kind", "histories")
      .str("case", Case::kName)
      .num("cap", Case::kCap)
      .arr("untraced", plain.history)
      .arr("traced", traced)
      .arr("other_threads", resolved)
      .num(Case::kThreads == 1 ? "solve_1t_s" : "solve_2t_s", plain.solve_s)
      .num(Case::kThreads == 1 ? "solve_2t_s" : "solve_1t_s", resolve_s)
      .print();
}

/// Median time of compute_residual on every level of the converged
/// solver, at 2 threads ("<prefix>residual_ms.L<l>") and at 1
/// ("<prefix>residual_1t_ms.L<l>").
template <class Case>
void residual_timings(typename Case::Solver& s, const std::string& prefix,
                      Line& out) {
  for (int threads : {2, 1}) {
    smp::set_global_threads(threads);
    for (int l = 0; l < s.num_levels(); ++l) {
      const auto u = Case::state(s, l);
      std::vector<typename Case::S> res;
      const std::string name = prefix +
                               (threads == 2 ? "residual_ms.L" : "residual_1t_ms.L") +
                               std::to_string(l);
      out.num(name.c_str(), median_ms(kReps, [&] {
                s.compute_residual(l, u, res, l == 0);
              }));
    }
  }
}

void nsu3d_layers(const std::string& dir, bool own, PoolTotals& pool) {
  Line out;
  out.str("kind", "layers");
  smp::set_global_threads(Nsu3dCase::kThreads);
  out.num("mesh.wing_build_ms", median_ms(kReps, [] { wing_mesh(); }));
  const mesh::UnstructuredMesh m = wing_mesh();
  nsu3d::LevelOptions lo;
  lo.num_levels = 4;
  out.num("graph.levels_build_ms",
          median_ms(kReps, [&] { nsu3d::build_levels(m, lo); }));
  out.num("nsu3d.init_ms",
          median_ms(kReps, [&] { Nsu3dCase::make(m); }));

  std::unique_ptr<nsu3d::Nsu3dSolver> s;
  case_solves<Nsu3dCase>(m, dir, own, pool, s);
  for (int l = 0; l < s->num_levels(); ++l)
    out.num(("nsu3d.edges.L" + std::to_string(l)).c_str(),
            double(s->level(l).edges.size()));
  residual_timings<Nsu3dCase>(*s, "nsu3d.", out);

  // Phase kernels (nsu3d::kernels) on the converged fine level, 2 threads.
  smp::set_global_threads(2);
  namespace K = nsu3d::kernels;
  const nsu3d::Nsu3dOptions o = wing_options(4);
  const K::Physics phys = wing_physics(wing_flow(), o);
  const nsu3d::Level& lvl = s->level(0);
  const std::vector<nsu3d::State> u = Nsu3dCase::state(*s);
  std::vector<nsu3d::State> res;
  K::Scratch ws;
  ws.resize(lvl);
  out.num("nsu3d.prim_ms.L0",
          median_ms(kReps, [&] { K::prim_cache(lvl, phys, u, ws); }));
  out.num("nsu3d.gradients_ms.L0",
          median_ms(kReps, [&] { K::gradients(lvl, ws, true); }));
  out.num("nsu3d.limiter_ms.L0", median_ms(kReps, [&] { K::limiter(lvl, ws); }));
  out.num("nsu3d.flux_ms.L0", median_ms(kReps, [&] {
            K::flux_residual(lvl, phys, ws, true, res);
          }));
  out.num("nsu3d.sa_ms.L0",
          median_ms(kReps, [&] { K::sa_source(lvl, phys, ws, res); }));
  K::wave_speeds(lvl, phys, ws);
  K::assemble_diag(lvl, phys, o.cfl, u, ws);
  const std::vector<nsu3d::State> forcing(u.size(), nsu3d::State{});
  std::vector<nsu3d::State> uu = u;
  out.num("nsu3d.point_sweep_ms.L0", median_ms(kReps, [&] {
            uu = u;
            K::point_sweep(lvl, o.relax, forcing, res, ws, uu);
          }));
  out.num("nsu3d.line_sweep_ms.L0", median_ms(kReps, [&] {
            uu = u;
            K::line_sweep(lvl, phys, o.relax, forcing, res, ws, uu);
          }));
  out.print();
}

void cart3d_layers(const std::string& dir, bool own, PoolTotals& pool) {
  Line out;
  out.str("kind", "layers");
  smp::set_global_threads(Cart3dCase::kThreads);
  out.num("cartesian.mesh_build_ms", median_ms(kReps, [] { sphere_mesh(); }));
  const cartesian::CartMesh m = sphere_mesh();
  const cart3d::SolverOptions o = sphere_options();
  out.num("cartesian.hierarchy_build_ms", median_ms(kReps, [&] {
            cartesian::build_hierarchy(m, o.mg_levels, o.sfc);
          }));
  out.num("cart3d.init_ms", median_ms(kReps, [&] { Cart3dCase::make(m); }));
  out.num("cartesian.cut_cells", double(m.num_cut_cells()));

  std::unique_ptr<cart3d::Cart3DSolver> s;
  case_solves<Cart3dCase>(m, dir, own, pool, s);
  for (int l = 0; l < s->num_levels(); ++l)
    out.num(("cartesian.cells.L" + std::to_string(l)).c_str(),
            double(s->mesh(l).num_cells()));
  residual_timings<Cart3dCase>(*s, "cart3d.", out);
  out.print();
}

int run_layers(const std::string& workload, const std::string& dir) {
  PoolTotals pool;
  nsu3d_layers(dir, workload == Nsu3dCase::kName, pool);
  cart3d_layers(dir, workload == Cart3dCase::kName, pool);
  Line l;
  l.str("kind", "pool").num("chunks", pool.chunks);
  l.arr("busy_ms", pool.busy_ms);
  l.print();
  return 0;
}

// --- Exchange layer over the launch's backend ------------------------------

int run_xchg(smp::GroupBackend backend, const std::string& out_path) {
  smp::ProcessGroupOptions opts;
  opts.ranks = 2;
  opts.backend = backend;
  const smp::GroupResult res = smp::ProcessGroup::run(
      opts, [&](int rank, core::Transport& t) -> int {
        smp::set_global_threads(1);
        const mesh::UnstructuredMesh m = launch_mesh();
        nsu3d::Nsu3dSolver solver(m, wing_flow(), wing_options(kLaunchLevels));
        const int nl = solver.num_levels();
        std::vector<index_t> nodes;
        for (int l = 0; l < nl; ++l) nodes.push_back(solver.level(l).num_nodes);
        const core::AgglomerationSchedule sched =
            core::AgglomerationSchedule::build(nodes, t.group_size(),
                                               kLaunchAgglomerate);
        // distributed_solve's plan options and per-level halo pattern.
        core::ExchangePlanOptions xopt;
        xopt.transport = &t;
        xopt.wire.deadline_ms = 200;
        xopt.wire.max_attempts = 8;
        xopt.wire.backoff_base_ms = 1;
        xopt.wire.backoff_max_ms = 8;
        Line line;
        line.str("kind", "xchg");
        std::vector<std::unique_ptr<core::ExchangePlan>> plans;
        std::vector<real_t> l0_payload;
        for (int l = 0; l < nl; ++l) {
          const index_t nn = nodes[std::size_t(l)];
          std::vector<index_t> part(static_cast<std::size_t>(nn));
          for (index_t i = 0; i < nn; ++i)
            part[std::size_t(i)] = i * kLaunchHaloParts / nn;
          core::ExchangePlanOptions lopt = xopt;
          lopt.level = l;
          lopt.active_members = sched.active[std::size_t(l)];
          plans.push_back(std::make_unique<core::ExchangePlan>(
              nsu3d::halo_requests(solver.level(l), part, kLaunchHaloParts),
              lopt));
          core::ExchangePlan& plan = *plans.back();
          const auto u = solver.solution(l);
          core::PartitionData data(std::size_t(kLaunchHaloParts),
                                   std::vector<real_t>(u.size()));
          for (auto& d : data)
            for (std::size_t i = 0; i < u.size(); ++i) d[i] = u[i][0];
          const std::string L = std::to_string(l);
          line.num(("xchg.exchange_us.L" + L).c_str(),
                   1e3 * median_ms(200, [&] { plan.exchange(data); }));
          line.num(("xchg.messages.L" + L).c_str(),
                   double(plan.messages_per_exchange()));
          line.num(("xchg.bytes.L" + L).c_str(),
                   double(plan.payload_bytes_per_exchange()));
          if (l == 0)
            l0_payload.assign(plan.payload_bytes_per_exchange() / sizeof(real_t),
                              1.0);
        }
        std::vector<real_t> frame;
        line.num("resil.frame_us.L0", 1e3 * median_ms(200, [&] {
                   resil::frame_payload_into(l0_payload, frame);
                 }));
        // distributed_solve drains its three level plans and the transfer
        // plan in turn; the quiet window dominates, so time one drain per
        // plan slot.
        const auto t0 = Clock::now();
        for (int k = 0; k < 4; ++k) plans[std::size_t(k % nl)]->drain();
        line.num("xchg.drain_ms", seconds_since(t0) * 1e3);
        if (rank == 0 && !support::durable_write_file(out_path, line.done()))
          return 2;
        return 0;
      });
  return res.ok ? 0 : 1;
}

// --- Spawner ------------------------------------------------------------------

/// Runs argv[0..] as a child and reports its wall time, exit code and peak
/// resident memory. wait4's ru_maxrss covers the child and every process
/// it reaped (a launcher's ranks), and the high-water mark survives
/// exec: spawning from this small process, rather than from the Python
/// driver, keeps the driver's own memory out of the figure.
int run_spawn(char** cmd) {
  std::fflush(stdout);
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) return 1;
  if (pid == 0) {
    execv(cmd[0], cmd);
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) return 1;
  const double wall = seconds_since(t0);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  Line()
      .str("kind", "spawn")
      .num("wall_s", wall)
      .num("exit", code)
      .num("maxrss_kb", double(ru.ru_maxrss))
      .print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: solvebench_harness case|serial|layers|xchg ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "spawn" && argc > 3 && std::strcmp(argv[2], "--") == 0)
    return run_spawn(argv + 3);
  std::string name, workload, dir, out, backend = "tcp";
  int setups = 5, cycles = 100;
  double seconds = 10;
  std::uint64_t seed = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--case") name = v;
    else if (k == "--setups") setups = std::atoi(v);
    else if (k == "--seconds") seconds = std::atof(v);
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--cycles") cycles = std::atoi(v);
    else if (k == "--workload") workload = v;
    else if (k == "--workdir") dir = v;
    else if (k == "--out") out = v;
    else if (k == "--backend") backend = v;
    else {
      std::fprintf(stderr, "unknown option %s\n", k.c_str());
      return 2;
    }
  }
  if (mode == "xchg")  // forks: before any pool use
    return run_xchg(backend == "shm" ? smp::GroupBackend::Shm
                                     : smp::GroupBackend::Tcp,
                    out);
  if (mode == "case") {
    if (name == Nsu3dCase::kName) {
      print_provenance(Nsu3dCase::kThreads, 1);
      return run_case<Nsu3dCase>(setups, seconds, seed);
    }
    if (name == Cart3dCase::kName) {
      print_provenance(Cart3dCase::kThreads, 1);
      return run_case<Cart3dCase>(setups, seconds, seed);
    }
    std::fprintf(stderr, "unknown --case %s\n", name.c_str());
    return 2;
  }
  if (mode == "serial") return run_serial(cycles);
  if (mode == "layers") {
    print_provenance(2, 1);
    return run_layers(workload, dir);
  }
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
