"""Microwave-driven two-level amplitude dynamics and Rabi-period extraction.

The amplitude equations (with level frequencies w0, w1 and a cosine drive)

    dC0/dt = -i w0 C0 - i (D00 C0 + D01 C1) cos(w t)
    dC1/dt = -i w1 C1 - i (D11 C1 + D10 C0) cos(w t)

are integrated with a fixed-step classical 4th-order Runge-Kutta scheme for
deterministic, regression-friendly output.  Being linear, each RK4 step is a
2x2 matrix, built by matrix products on stacked (..., 2, 2) arrays, and a
trigonometric polynomial of degree 4 in the drive phase.  Its harmonic
coefficients at each position in a block of steps are fitted once per
integration; a chunk of step matrices is then one BLAS product with the
harmonics of each block's start phase, and the matrices are applied by a
blocked prefix scan, so no Python code runs once per step.  A run keeps
every stride-th step and the norm drift over all of them, and hands each
chunk's populations to a consumer such as ``PeriodScan``, so its memory
follows the rows it keeps, not its length.  ``PeriodScan`` keeps one running
sum of p1 per drive period and returns the period, a float, from the first
peak of those drive-period means.  The step-by-step loop is kept as
``scalar_rk4`` in ``tests/references.py``, the reference the tests compare
against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potential
from .constants import CONSTANTS
from .eigensolver import Levels

STEP_SAFETY = 200.0  # dt must resolve the fastest frequency by this factor
STEP_FACTOR = 1000.0  # suggested steps per period of the fastest frequency
MIN_PEAK = 0.05  # smallest p1 maximum that counts as an oscillation
PERIOD_METHOD = "double_first_peak_quadratic_smoothed"  # of PeriodScan
# A cap on the step count, and so on run time: ~0.1 us a step on one core
# of a 2-vCPU x86 VM with one BLAS thread, ~10 s at the cap.  A row-capped
# run holds its rows, a chunk of step matrices and the period scan's one sum
# per drive period (at most MAX_STEPS / STEP_FACTOR = 1e5 floats).
MAX_STEPS = 1e8
CHUNK_STEPS = 8192  # steps whose matrices are held in memory at once
BLOCK_STEPS = 32  # steps per prefix-product block
HARMONICS = 4  # degree of an RK4 step matrix in the drive phase


class StepSizeError(ValueError):
    """Integration step too coarse for the fastest frequency present."""


class NoOscillationError(RuntimeError):
    """Trajectory shows no usable population oscillation."""


class StrongDriveWarning(UserWarning):
    """Drive coupling too strong for the weak-drive Rabi period estimate."""


@dataclass(frozen=True)
class RabiParameters:
    """Two-level frequencies, drive frequency, and coupling matrix (rad/s)."""

    omega0: float
    omega1: float
    omega_drive: float
    D: np.ndarray  # 2x2 real, symmetric for real eigenfunctions

    def max_frequency(self) -> float:
        return max(abs(self.omega0), abs(self.omega1), abs(self.omega_drive))


@dataclass(frozen=True)
class RabiTrajectory:
    """Kept rows of a run: times and both amplitudes, and ``norm_drift``,
    max |p0 + p1 - 1| over every step of the run, kept or not."""

    times: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    norm_drift: float

    @property
    def p0(self) -> np.ndarray:
        return np.abs(self.c0) ** 2

    @property
    def p1(self) -> np.ndarray:
        return np.abs(self.c1) ** 2


def rabi_coefficients(levels: Levels, V_e: float) -> np.ndarray:
    """Coupling matrix D_ij = (V_e/hbar) <i| sech^2(z/a) |j> (rad/s).

    This is the matrix element of the actual drive perturbation
    V_e cos(wt)/cosh^2(z/a), with V_e in J; the levels' grid is in natural
    units (z/a).
    """
    return (V_e / CONSTANTS.hbar) * levels.matrix(
        potential.drive_profile(levels.grid.points))


def suggested_step(params: RabiParameters) -> float:
    """Default integration step resolving the fastest frequency."""
    return 2.0 * math.pi / (STEP_FACTOR * params.max_frequency())


def _step_increments(params: RabiParameters, dt: float, cos_a, cos_b,
                     cos_c) -> np.ndarray:
    """RK4 step matrices less the identity, M - I, complex and shaped
    (..., 2, 2), for the drive cosines ``cos_a``, ``cos_b`` and ``cos_c``
    (broadcast together) at the start, midpoint and end of a step.

    With dC/dt = -i H(t) C, H = diag(w0, w1) + D cos(w t), and G = dt H at
    the start (a), midpoint (b) and end (c) of a step, one RK4 step maps C
    to M C with
        M = I - i (Ga + 4 Gb + Gc)/6 - (Gb Ga + Gb^2 + Gc Gb)/6
              + i (Gb^2 Ga + Gc Gb^2)/12 + Gc Gb^2 Ga/24.
    """
    g0 = np.diag([dt * params.omega0, dt * params.omega1])
    ga, gb, gc = (g0 + dt * params.D * np.asarray(cos)[..., None, None]
                  for cos in (cos_a, cos_b, cos_c))
    gb2 = gb @ gb
    gcgb2 = gc @ gb2
    return (-(gb @ ga + gb2 + gc @ gb) / 6.0 + gcgb2 @ ga / 24.0
            + 1j * ((gb2 @ ga + gcgb2) / 12.0 - (ga + 4.0 * gb + gc) / 6.0))


def _step_matrices(params: RabiParameters, dt: float, cos_a, cos_b,
                   cos_c) -> np.ndarray:
    """RK4 step matrices M, the identity plus ``_step_increments``."""
    return np.eye(2) + _step_increments(params, dt, cos_a, cos_b, cos_c)


def _harmonics(phase, degree: int = HARMONICS) -> np.ndarray:
    """[1, cos p, sin p, cos 2p, sin 2p, ..., sin degree*p] of ``phase``,
    stacked on a new first axis."""
    kp = np.multiply.outer(np.arange(1, degree + 1), phase)
    h = np.empty((2 * degree + 1, *np.shape(phase)))
    h[0] = 1.0
    np.cos(kp, out=h[1::2])
    np.sin(kp, out=h[2::2])
    return h


def _step_harmonics(params: RabiParameters, dt: float,
                    degree: int = HARMONICS) -> np.ndarray:
    """The RK4 step matrices of a block, less the identity, as
    trigonometric polynomials in the drive phase p at the block's start.

    Step j of the block has the drive cosines cos(p + j w dt),
    cos(p + (j + 1/2) w dt) and cos(p + (j + 1) w dt).  M - I is a sum of
    products of at most four G factors, each affine in one of them, so it
    is a trigonometric polynomial of degree 4 in p, found exactly from
    2 * degree + 1 equispaced phases.  Returns the complex
    (BLOCK_STEPS * 4, 2 * degree + 1) coefficient matrix on the basis of
    ``_harmonics``, rows laid out [j, row, column].
    """
    n = 2 * degree + 1
    phase = 2.0 * math.pi * np.arange(n) / n
    # [phase, j]
    a = phase[:, None] + params.omega_drive * dt * np.arange(BLOCK_STEPS)
    g = _step_increments(params, dt, np.cos(a),
                         np.cos(a + params.omega_drive * dt / 2.0),
                         np.cos(a + params.omega_drive * dt))
    return np.linalg.solve(_harmonics(phase, degree).T, g.reshape(n, -1)).T


def step_grid(t_span: tuple[float, float], dt: float) -> tuple[int, float]:
    """Step count and step of a fixed-step run over ``t_span``: the fewest
    equal steps no longer than ``dt``, at most MAX_STEPS of them."""
    t0, t1 = t_span
    if not (dt > 0 and (t1 - t0) / dt <= MAX_STEPS):
        raise StepSizeError(
            f"span {t1 - t0:.3e} s at dt={dt:.3e} s is not a finite count "
            f"of at most {MAX_STEPS:.0e} steps")
    n_steps = max(1, int(math.ceil((t1 - t0) / dt)))
    return n_steps, (t1 - t0) / n_steps


def integrate_rabi(params: RabiParameters, t_span: tuple[float, float],
                   dt: float, initial: tuple[complex, complex],
                   max_rows: int | None = None,
                   on_chunk=None) -> RabiTrajectory:
    """Fixed-step RK4 integration of the amplitude equations.

    The equations are linear, so each RK4 step is a 2x2 matrix
    (``_step_matrices``), a trigonometric polynomial in the drive phase at
    the start of its block whose coefficients (``_step_harmonics``) are
    computed once here.  The steps are taken CHUNK_STEPS at a time: the
    chunk's matrices are one (128, 9) @ (9, CHUNK_STEPS / BLOCK_STEPS)
    product with the harmonics of the blocks' start phases.  In a chunk,
    prefix products run over blocks of BLOCK_STEPS consecutive steps, one
    vectorized pass per position in the block across all blocks; the state
    is then carried from block to block and from chunk to chunk.  Python
    work grows with the number of blocks, not of steps.

    The result keeps every step, or at most ``max_rows`` (>= 2) rows: the
    initial state and every stride-th step after it, the stride fixed from
    the step count before the run.  Its norm drift covers every step.
    ``on_chunk(times, p1)``, when given, is called with each chunk's times
    and excited populations in order, the initial state leading the first
    chunk.
    """
    c0, c1 = complex(initial[0]), complex(initial[1])
    norm = abs(c0) ** 2 + abs(c1) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"initial state not normalized: |C0|^2+|C1|^2={norm}")
    wmax = params.max_frequency()
    if dt > 2.0 * math.pi / (STEP_SAFETY * wmax):
        raise StepSizeError(
            f"dt={dt:.3e} exceeds 2*pi/({STEP_SAFETY:.0f}*max_frequency)="
            f"{2.0 * math.pi / (STEP_SAFETY * wmax):.3e}")
    t0 = t_span[0]
    n_steps, dt = step_grid(t_span, dt)
    stride = 1 if max_rows is None else -(-n_steps // (max_rows - 1))

    times = t0 + dt * np.arange(0, n_steps + 1, stride)
    out0 = np.empty(times.size, dtype=complex)
    out1 = np.empty(times.size, dtype=complex)
    out0[0] = c0
    out1[0] = c1
    drift = 0.0

    coef = _step_harmonics(params, dt)
    for start in range(0, n_steps, CHUNK_STEPS):
        count = min(CHUNK_STEPS, n_steps - start)
        n_blocks = -(-count // BLOCK_STEPS)
        # step matrices m[j, row, column, b] of the steps from block b's start
        theta = params.omega_drive * (
            t0 + dt * (start + BLOCK_STEPS * np.arange(n_blocks)))
        m = (coef @ _harmonics(theta)).reshape(BLOCK_STEPS, 2, 2, n_blocks)
        m[:, 0, 0] += 1.0  # M = I + (M - I)
        m[:, 1, 1] += 1.0
        for j in range(1, BLOCK_STEPS):
            # m[j] <- m[j] @ m[j - 1], one 2x2 product per block
            np.add(m[j, :, :1] * m[j - 1, :1], m[j, :, 1:] * m[j - 1, 1:],
                   out=m[j])
        # state entering each block; only the last chunk can end inside a
        # block, and its padding steps are computed but not kept
        s0 = np.empty(n_blocks, dtype=complex)
        s1 = np.empty(n_blocks, dtype=complex)
        p00, p01, p10, p11 = (m[-1, r, c].tolist() for r in (0, 1)
                              for c in (0, 1))
        for b in range(n_blocks):
            s0[b], s1[b] = c0, c1
            c0, c1 = p00[b] * c0 + p01[b] * c1, p10[b] * c0 + p11[b] * c1
        k = start + 1  # a0[j], a1[j]: the state after step k + j
        a0 = (m[:, 0, 0] * s0 + m[:, 0, 1] * s1).T.ravel()[:count]
        a1 = (m[:, 1, 0] * s0 + m[:, 1, 1] * s1).T.ravel()[:count]
        if start == 0:  # the initial state leads the first chunk
            k, a0, a1 = 0, np.insert(a0, 0, out0[0]), np.insert(a1, 0, out1[0])
        p1 = np.abs(a1) ** 2
        drift = np.maximum(drift, np.max(np.abs(np.abs(a0) ** 2 + p1 - 1.0)))
        row = -(-k // stride)
        kept = slice(row * stride - k, None, stride)
        out0[row:row + a0[kept].size] = a0[kept]
        out1[row:row + a1[kept].size] = a1[kept]
        if on_chunk is not None:
            on_chunk(t0 + dt * np.arange(k, k + a1.size), p1)

    return RabiTrajectory(times=times, c0=out0, c1=out1,
                          norm_drift=float(drift))


def rwa_population(Omega: float, detuning: float, t) -> float | np.ndarray:
    """Analytic rotating-wave excited-state population.

    (Omega^2/(Omega^2+Delta^2)) sin^2(sqrt(Omega^2+Delta^2) t / 2).
    """
    geff = math.hypot(Omega, detuning)
    t = np.asarray(t, dtype=float)
    if geff == 0.0:
        out = np.zeros_like(t)
        return out if out.shape else 0.0
    out = (Omega**2 / geff**2) * np.sin(geff * t / 2.0) ** 2
    return out if out.shape else float(out)


class PeriodScan:
    """Rabi period from a trajectory fed chunk by chunk.

    Call it with consecutive chunks of times and p1 (it fits
    ``integrate_rabi``'s ``on_chunk``), then take ``period()``.  p1 is
    averaged over consecutive windows of ``window`` samples, about one
    drive period each, so that drive-frequency micromotion cannot fake an
    early peak.  Only the running sum of p1 at each window's last sample
    is kept, the sum carried across chunks as np.cumsum over [carry,
    chunk]: one float per window, at most n_steps / STEP_FACTOR of them
    for a drive period of ``suggested_step`` steps.
    """

    def __init__(self, window: int):
        self.window = window
        self.count = 0  # samples fed
        self.carry = 0.0  # running sum through the last sample fed
        self.ends = []  # running sums at the window ends, chunk by chunk
        self.start = np.empty(0)  # the first two times

    def __call__(self, times: np.ndarray, p1: np.ndarray) -> None:
        if self.start.size < 2:
            self.start = np.concatenate((self.start,
                                         times[:2 - self.start.size]))
        s = np.cumsum(np.concatenate(([self.carry], p1)))
        self.carry = s[-1]
        # s[j] sums samples 0 .. count - 1 + j; windows end where
        # count + j is a multiple of the window (a copy: a view would keep
        # the chunk's sums)
        self.ends.append(s[self.window - self.count % self.window::
                           self.window].copy())
        self.count += p1.size

    def means(self) -> np.ndarray:
        """Mean p1 over each whole window fed so far."""
        return np.diff(np.concatenate(self.ends), prepend=0.0) / self.window

    def period(self) -> float:
        """Twice the time of the first maximum of the window means, as a
        float in the units of the times fed (``PERIOD_METHOD``).

        The discrete peak is refined by a quadratic fit through its
        neighbors and placed at its window's center; the doubling assumes
        a sin^2-like signal starting from p1(0) ~ 0, on evenly spaced
        times.
        """
        w = self.window
        if w > self.count:
            raise NoOscillationError(
                f"smoothing window of {w} samples exceeds the {self.count}"
                f"-sample trajectory: it spans less than one drive period")
        y = self.means()
        mid = y[1:-1]
        peaks = np.flatnonzero((mid > y[:-2]) & (mid >= y[2:])
                               & (mid >= MIN_PEAK)) + 1
        if not peaks.size:
            if y.max() < MIN_PEAK:
                raise NoOscillationError(
                    f"max p1 = {y.max():.4f} < {MIN_PEAK}; no oscillation "
                    f"detected")
            raise NoOscillationError("population rises but never turns "
                                     "over; extend the trajectory")
        i = int(peaks[0])
        y0, y1, y2 = y[i - 1:i + 2]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
        center = (i + 1) * w - 1 - (w - 1) // 2  # sample at the center
        dt = self.start[1] - self.start[0]
        return 2.0 * float(dt * (center + shift * w))
