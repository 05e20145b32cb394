"""Correctness checks of the solve benchmark.

Every check is a property of the program's output or a comparison with an
independent computation, never a copy of an earlier output. Each one is
also run on a deliberately perturbed result (its anti-test), which it must
reject; a check that accepts its perturbed input makes the run incorrect.
"""
import math

ORDERS = 3.0
# The final fine-level residual, recomputed with the scalar reference
# kernel, must be ORDERS below the recomputed initial one, up to this
# relative slack (the reference sums serially, the solver in pool chunks).
REFERENCE_RTOL = 1e-6
# Sphere at zero incidence: the force across the freestream (y and z) must
# stay below this fraction of the total force (mirror symmetry).
SYMMETRY_FRACTION = 1e-3
# 2-rank launch against the in-process serial solve of the same case.
# Bit-identical today; the tolerance leaves room for owner-computes
# decomposition, which changes summation order.
LAUNCH_RESIDUAL_RTOL = 1e-6
LAUNCH_FORCE_ATOL = 1e-6


def reached_orders(history, cap):
    """The solve reached ORDERS within its cycle cap."""
    cycles = len(history) - 1
    return (1 <= cycles <= cap and history[0] > 0
            and history[-1] <= history[0] * 10.0 ** -ORDERS)


def reference_drop(ref_initial, ref_final):
    """Independently recomputed residual dropped ORDERS (within tolerance)."""
    return (ref_initial > 0 and math.isfinite(ref_final)
            and ref_final <= ref_initial * 10.0 ** -ORDERS * (1 + REFERENCE_RTOL))


def forces_finite(values):
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def lateral_symmetric(force):
    """|(Fy, Fz)| <= SYMMETRY_FRACTION * |F| for flow along x."""
    fx, fy, fz = force
    total = math.sqrt(fx * fx + fy * fy + fz * fz)
    return total > 0 and math.hypot(fy, fz) <= SYMMETRY_FRACTION * total


def identical(a, b):
    """Bit-identical float sequences (JSON round-trips doubles exactly)."""
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def launch_matches(history, cl, cd, ref_history, ref_cl, ref_cd):
    """2-rank history/forces match the serial solve within tolerance."""
    if not history or len(history) != len(ref_history):
        return False
    r, ref = history[-1], ref_history[-1]
    return (abs(r - ref) <= LAUNCH_RESIDUAL_RTOL * abs(ref)
            and abs(cl - ref_cl) <= LAUNCH_FORCE_ATOL
            and abs(cd - ref_cd) <= LAUNCH_FORCE_ATOL)


def launch_ok(code, status):
    return code == 0 and status == "ok"


def transport_clean(counters):
    """No timeouts, retransmits, lost peers or relaunches."""
    return all(counters.get(k, 1) == 0
               for k in ("timeout", "retransmit", "peer_lost", "relaunches"))


# --- Perturbations for the anti-tests -------------------------------------

def flip_last_bit(x):
    m, e = math.frexp(x)
    return math.ldexp(m + math.copysign(2.0 ** -53, m), e)


def rotate_off_axis(force, rng):
    """Turns the force 1-5 degrees about a random axis across x."""
    angle = math.radians(rng.uniform(1.0, 5.0))
    phi = rng.uniform(0.0, 2 * math.pi)
    ay, az = math.cos(phi), math.sin(phi)  # unit axis (0, ay, az)
    fx, fy, fz = force
    c, s = math.cos(angle), math.sin(angle)
    # Rodrigues' rotation of F about (0, ay, az).
    dot = fy * ay + fz * az
    cx, cy, cz = (ay * fz - az * fy, az * fx, -ay * fx)  # axis x F
    return (fx * c + cx * s,
            fy * c + cy * s + ay * dot * (1 - c),
            fz * c + cz * s + az * dot * (1 - c))


class Ledger:
    """Counts checks as operations: attempted, failed, and anti-tests that
    a check wrongly accepted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.anti_missed = []

    def check(self, name, ok, perturbed_ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        if perturbed_ok:
            self.anti_missed.append(name)

    @property
    def correct(self):
        return self.failed == 0 and not self.anti_missed
