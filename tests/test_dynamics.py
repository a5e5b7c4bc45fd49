import math
import tracemalloc

import numpy as np
import pytest

from sawqubit import dynamics, oracles, pipeline
from sawqubit.dynamics import (NoOscillationError, RabiParameters,
                               StepSizeError, integrate_rabi,
                               rwa_population, suggested_step)
from sawqubit.params import DeviceConfig

import references

NORM_DRIFT_TOL = 1e-8
PERIOD_RTOL = 1e-4


def _synthetic_params(omega1=10.0, d01=1.0, d00=0.0, d11=0.0):
    return RabiParameters(
        omega0=0.0, omega1=omega1, omega_drive=omega1,
        D=np.array([[d00, d01], [d01, d11]]))


def test_free_evolution_is_pure_phase():
    params = RabiParameters(omega0=2.0, omega1=5.0, omega_drive=3.0,
                            D=np.zeros((2, 2)))
    traj = integrate_rabi(params, (0.0, 4.0), 1e-3, (1.0, 0.0))
    expected = np.exp(-2j * traj.times)
    np.testing.assert_allclose(traj.c0, expected, atol=1e-8)
    assert traj.p1.max() == 0.0


def test_rwa_oracle(oracle_results):
    r = oracle_results["rwa_two_level"]
    assert r.passed, r.measured
    assert r.measured["max_abs_deviation"] <= 1e-3
    assert r.measured["norm_drift"] <= NORM_DRIFT_TOL


def test_norm_conservation_with_diagonal_terms():
    params = _synthetic_params(d01=0.5, d00=2.0, d11=1.5)
    dt = suggested_step(params)
    traj = integrate_rabi(params, (0.0, 4.0 * math.pi), dt, (1.0, 0.0))
    assert traj.norm_drift <= NORM_DRIFT_TOL


def test_step_halving_convergence_order():
    params = _synthetic_params()
    t_end = 1.0
    results = {}
    for dt in (2e-3, 1e-3, 5e-4):
        traj = integrate_rabi(params, (0.0, t_end), dt, (1.0, 0.0))
        results[dt] = traj.c1[-1]
    ref = integrate_rabi(params, (0.0, t_end), 1.25e-4, (1.0, 0.0)).c1[-1]
    e1 = abs(results[2e-3] - ref)
    e2 = abs(results[1e-3] - ref)
    e3 = abs(results[5e-4] - ref)
    order = 0.5 * (math.log2(e1 / e2) + math.log2(e2 / e3))
    assert order >= 3.8


def test_global_phase_invariance():
    params = _synthetic_params(d01=0.8)
    dt = suggested_step(params)
    span = (0.0, 2.0)
    a = integrate_rabi(params, span, dt, (1.0, 0.0))
    phase = np.exp(0.7j)
    b = integrate_rabi(params, span, dt, (phase, 0.0))
    np.testing.assert_allclose(a.p0, b.p0, atol=1e-12)
    np.testing.assert_allclose(a.p1, b.p1, atol=1e-12)


def test_rejects_coarse_step():
    params = _synthetic_params(omega1=1e3)
    with pytest.raises(StepSizeError):
        integrate_rabi(params, (0.0, 1.0), 1.0, (1.0, 0.0))
    # more steps than the output arrays can hold, or no finite count
    for span in ((0.0, 1e4), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(StepSizeError, match="steps"):
            integrate_rabi(params, span, 1e-5, (1.0, 0.0))


B, C = dynamics.BLOCK_STEPS, dynamics.CHUNK_STEPS
# the block and chunk edges, plus fixed counts inside a chunk
STEP_COUNTS = sorted({1, B - 1, B, B + 1, C - 1, C + 1, 2 * C + 1,
                      63, 64, 65, 4095, 4097})


@pytest.mark.parametrize("case", ["default_device", "diagonal_terms",
                                  *STEP_COUNTS])
def test_vectorized_rk4_matches_scalar_loop(case, request):
    """The chunked blocked scan reproduces the step-by-step RK4 loop, on
    the solved device and at step counts around the block and chunk
    edges (from BLOCK_STEPS and CHUNK_STEPS, so they follow a retune)."""
    initial = (1.0, 0.0)
    if case == "default_device":
        params = pipeline.rabi_parameters(
            request.getfixturevalue("qubit_solution"))
        dt = suggested_step(params)
        span = (0.0, 3.0 * math.pi / abs(params.D[0, 1]))
    elif case == "diagonal_terms":
        params = _synthetic_params(d01=0.5, d00=2.0, d11=1.5)
        dt = suggested_step(params)
        span = (0.0, 4.0 * math.pi)
    else:
        params = _synthetic_params(d01=0.5, d00=2.0, d11=1.5)
        dt = suggested_step(params)
        span = (0.3, 0.3 + case * dt)
        dt *= 1.0 + 1e-9  # so that rounding cannot add a step
        initial = (0.6, 0.8j)
    fast = integrate_rabi(params, span, dt, initial)
    slow = references.scalar_rk4(params, span, dt, initial)
    if isinstance(case, int):
        assert fast.times.size == case + 1
    np.testing.assert_array_equal(fast.times, slow.times)
    dc = max(np.abs(fast.c0 - slow.c0).max(), np.abs(fast.c1 - slow.c1).max())
    assert dc <= 1e-10


def _device_params(case, request):
    if case == "default_device":
        return pipeline.rabi_parameters(
            request.getfixturevalue("qubit_solution"))
    if case == "narrow_device":
        return pipeline.rabi_parameters(pipeline.solve_qubit(
            DeviceConfig(gamma=0.3625, a=4.083e-7)))
    return _synthetic_params(d01=0.5, d00=2.0, d11=1.5)


@pytest.mark.parametrize("case", ["default_device", "narrow_device"])
def test_device_rk4_matches_scalar_loop_to_rounding(case, request):
    """Over 3 pi/|D01| on the solved devices, the scan stays within 1e-12
    of the step-by-step loop: offsets inside a block are exact multiples
    of w dt, so only rounding separates the two."""
    params = _device_params(case, request)
    dt = suggested_step(params)
    span = (0.0, 3.0 * math.pi / abs(params.D[0, 1]))
    fast = integrate_rabi(params, span, dt, (1.0, 0.0))
    slow = references.scalar_rk4(params, span, dt, (1.0, 0.0))
    dc = max(np.abs(fast.c0 - slow.c0).max(), np.abs(fast.c1 - slow.c1).max())
    assert dc <= 1e-12


@pytest.mark.parametrize("case", ["default_device", "diagonal_terms"])
def test_step_harmonics_match_closed_form(case, request):
    """The fitted harmonics reproduce the closed-form RK4 step matrix at
    every position in a block, at random block start phases."""
    params = _device_params(case, request)
    dt = suggested_step(params)
    w = params.omega_drive
    theta = np.random.default_rng(7).uniform(-50.0, 50.0, 50)
    g = (dynamics._step_harmonics(params, dt)
         @ dynamics._harmonics(theta)).reshape(B, 2, 2, theta.size)
    fitted = np.moveaxis(g, -1, 0) + np.eye(2)
    a = theta[:, None] + w * dt * np.arange(B)  # [block, j]
    closed = dynamics._step_matrices(params, dt, np.cos(a),
                                     np.cos(a + w * dt / 2.0),
                                     np.cos(a + w * dt))
    assert closed.shape == (50, B, 2, 2)
    assert np.abs(fitted - closed).max() <= 1e-14


@pytest.mark.parametrize("case", ["default_device", "diagonal_terms"])
def test_step_matrix_is_degree_four_in_the_drive_phase(case, request):
    """Refitted to degree 5, the step matrices have a 4th harmonic but no
    5th, and the production fit is the refit without its 5th harmonic:
    the degree-4 fit is exact, not a truncation."""
    params = _device_params(case, request)
    dt = suggested_step(params)
    coef = dynamics._step_harmonics(params, dt, degree=5)
    assert coef.shape == (4 * B, 11)
    scale = np.abs(coef).max()
    fifth = np.abs(coef[:, -2:]).max()
    assert fifth <= 1e-15 * scale
    assert np.abs(coef[:, -4:-2]).max() >= 1e3 * fifth
    assert np.abs(dynamics._step_harmonics(params, dt)
                  - coef[:, :-2]).max() <= 1e-15 * scale


def test_transient_memory_is_bounded_by_the_chunk():
    """Beyond its output (times and two amplitude arrays), a 100k-step
    integration holds a few chunks' worth of step matrices at a time:
    at most 8 times one chunk's complex 2x2 matrices (4.2 MB at 8192
    steps a chunk)."""
    params = _synthetic_params(d01=0.5, d00=2.0, d11=1.5)
    dt = suggested_step(params)
    span = (0.0, 100_000 * dt)
    integrate_rabi(params, span, dt, (1.0, 0.0))  # warm numpy's caches
    tracemalloc.start()
    try:
        traj = integrate_rabi(params, span, dt, (1.0, 0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = traj.times.nbytes + traj.c0.nbytes + traj.c1.nbytes
    assert traj.times.size >= 100_000
    chunk_bytes = 4 * 16 * dynamics.CHUNK_STEPS
    assert peak - output <= 8 * chunk_bytes


def test_streamed_memory_is_bounded_by_rows_and_window():
    """A row-capped integration feeding the period scan holds at most 8
    chunks' step matrices and the kept rows; ten times the steps stays
    within the same bound.  The scan alone, fed three windows of a
    million samples chunk by chunk, holds a few chunks of sums."""
    params = _synthetic_params(d01=1e-3, d00=2.0, d11=1.5)
    dt = suggested_step(params)
    window = int(round(2.0 * math.pi / params.omega_drive / dt))
    rows = 4001
    bound = 8 * 4 * 16 * dynamics.CHUNK_STEPS + rows * (8 + 16 + 16)
    for n_steps in (40_000, 400_000):
        span = (0.0, n_steps * dt)
        integrate_rabi(params, span, dt, (1.0, 0.0), max_rows=rows,
                       on_chunk=dynamics.PeriodScan(window))  # warm caches
        tracemalloc.start()
        try:
            traj = integrate_rabi(params, span, dt, (1.0, 0.0),
                                  max_rows=rows,
                                  on_chunk=dynamics.PeriodScan(window))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times.size == rows
        assert peak <= bound, (n_steps, peak, bound)

    window, chunk = 10**6, dynamics.CHUNK_STEPS + 1
    times = np.arange(chunk, dtype=float)
    p1 = np.full(chunk, 0.5)  # no peak ends the scan early
    tracemalloc.start()
    try:
        scan = dynamics.PeriodScan(window)
        for _ in range(3 * window // chunk + 1):
            scan(times, p1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.count >= 3 * window
    assert peak <= 4 * 8 * chunk, peak


def test_rwa_oracle_memory_is_bounded_by_the_chunk():
    """The oracle folds its deviation chunk by chunk: its 1e6 steps peak
    below 8 chunks' step matrices (4.2 MB), not at ~56 MB of trajectory."""
    oracles.check_rwa_integration()  # warm numpy's caches
    tracemalloc.start()
    try:
        oracles.check_rwa_integration()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 4 * 16 * dynamics.CHUNK_STEPS


def _window_means(p1, window):
    """Means of p1 over consecutive whole windows, in one pass: the
    running sum, every window-th value of it, differenced."""
    return np.diff(np.cumsum(p1)[window - 1::window], prepend=0.0) / window


def _first_peak(y):
    """Index of the first sample of y above both neighbors (equal to the
    right one allowed) and at least MIN_PEAK, or None."""
    for i in range(1, y.size - 1):
        if y[i - 1] < y[i] >= y[i + 1] and y[i] >= dynamics.MIN_PEAK:
            return i
    return None


def _one_pass_period(times, p1, window):
    """The single-pass period extraction: the window means of the whole
    p1, their first peak refined by a quadratic fit, at its window's
    center."""
    if window > p1.size:
        raise NoOscillationError(
            f"smoothing window of {window} samples exceeds the {p1.size}"
            f"-sample trajectory: it spans less than one drive period")
    y = _window_means(p1, window)
    i = _first_peak(y)
    if i is None:
        if y.max() < dynamics.MIN_PEAK:
            raise NoOscillationError(f"max p1 = {y.max():.4f} < "
                                     f"{dynamics.MIN_PEAK}; no oscillation "
                                     f"detected")
        raise NoOscillationError("population rises but never turns over; "
                                 "extend the trajectory")
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    center = (i + 1) * window - 1 - (window - 1) // 2
    dt = times[1] - times[0]
    return 2.0 * float(dt * (center + shift * window))


def _outcome(extract, *args):
    """The period, or the NoOscillationError message."""
    try:
        return extract(*args)
    except NoOscillationError as err:
        return str(err)


def _fed(times, p1, window, cuts=()):
    """PeriodScan fed (times, p1) in the pieces between ``cuts``."""
    scan = dynamics.PeriodScan(window)
    edges = [0, *sorted({c for c in cuts if 0 < c < times.size}), times.size]
    for a, b in zip(edges[:-1], edges[1:]):
        scan(times[a:b], p1[a:b])
    return scan.period()


def _flip_trajectory():
    params = _synthetic_params(d01=1.0, d00=0.3, d11=0.2)
    dt = suggested_step(params)
    return integrate_rabi(params, (0.0, 3.0 * math.pi), dt, (1.0, 0.0)), \
        int(round(2.0 * math.pi / params.omega_drive / dt))


@pytest.mark.parametrize("case", ["drive_period", "unsmoothed", "wide",
                                  "whole", "flat", "flat_unsmoothed",
                                  "rising_unsmoothed", "too_wide"])
def test_streamed_period_equals_one_pass(case):
    """Fed in any chunking, the period scan gives the single-pass period
    bit for bit, or the same NoOscillationError message: chunk edges on,
    just before and just after the ends of the peak's window and of the
    window that confirms it, chunks smaller than the window, one chunk.
    The unsmoothed cases have a one-sample window."""
    traj, window = _flip_trajectory()
    times, p1 = traj.times, traj.p1
    if case == "unsmoothed":
        window = 1
    elif case == "wide":  # a window larger than the chunks below
        window = 3 * 997
    elif case == "whole":  # one window: nothing to compare it with
        window = times.size
    elif case.startswith("flat"):
        times = np.linspace(0.0, 1.0, 20_001)
        p1 = np.full(times.size, 0.01)
        window = 1 if case == "flat_unsmoothed" else 500
    elif case == "rising_unsmoothed":
        times = np.linspace(0.0, 1.0, 20_001)
        p1, window = np.sin(times) ** 2, 1
    elif case == "too_wide":
        window = times.size + 1
    n = times.size
    expected = _outcome(_one_pass_period, times, p1, window)
    if isinstance(expected, str):
        assert case in ("whole", "flat", "flat_unsmoothed",
                        "rising_unsmoothed", "too_wide"), expected
        assert "no oscillation" in expected or "never turns" in expected \
            or "exceeds" in expected
    else:
        assert case in ("drive_period", "unsmoothed", "wide")
    i = _first_peak(_window_means(p1, window)) if window <= n else None
    i = n // (2 * window) if i is None else i
    ends = [(i + 1) * window - 1, (i + 2) * window - 1]  # last samples
    chunkings = [[], list(range(997, n, 997)),
                 list(range(dynamics.CHUNK_STEPS, n, dynamics.CHUNK_STEPS)),
                 *([e + d] for e in ends for d in (-1, 0, 1, 2)),
                 [ends[0], ends[1] + 1], [1, 2, ends[0] + 1]]
    for cuts in chunkings:
        assert _outcome(_fed, times, p1, window, cuts) == expected, cuts


def test_row_capped_run_keeps_the_full_runs_rows_and_figures():
    """Rows kept at a stride are the stride-1 rows bit for bit; the norm
    drift covers every step; the streamed period is the one-pass one."""
    traj, window = _flip_trajectory()
    params = _synthetic_params(d01=1.0, d00=0.3, d11=0.2)
    dt = suggested_step(params)
    for max_rows in (2, 101, 4001, traj.times.size, 10 * traj.times.size):
        scan = dynamics.PeriodScan(window)
        kept = integrate_rabi(params, (0.0, 3.0 * math.pi), dt, (1.0, 0.0),
                              max_rows=max_rows, on_chunk=scan)
        assert kept.times.size <= max_rows
        stride = int(round(kept.times[1] / traj.times[1]))
        for name in ("times", "c0", "c1"):
            np.testing.assert_array_equal(getattr(kept, name),
                                          getattr(traj, name)[::stride])
        assert kept.norm_drift == traj.norm_drift
        assert scan.period() == _one_pass_period(traj.times, traj.p1,
                                                 window)


def test_default_device_streamed_rabi_matches_full(rabi_result):
    """The row-capped default ``rabi`` run keeps the stride-1 run's rows
    and norm drift bit for bit, and its period is the one-pass one."""
    params = rabi_result.params
    duration = pipeline.RABI_SPAN_PERIODS * rabi_result.estimated_period
    full = integrate_rabi(params, (0.0, duration), suggested_step(params),
                          (1.0, 0.0))
    capped = rabi_result.trajectory
    assert capped.times.size <= pipeline.MAX_TRAJECTORY_ROWS
    stride = int(round(capped.times[1] / full.times[1]))
    assert stride > 1
    for name in ("times", "c0", "c1"):
        np.testing.assert_array_equal(getattr(capped, name),
                                      getattr(full, name)[::stride])
    assert capped.norm_drift == full.norm_drift
    window = int(round(2.0 * math.pi / params.omega_drive
                       / (full.times[1] - full.times[0])))
    assert rabi_result.period == _one_pass_period(full.times, full.p1,
                                                  window)


def test_rwa_oracle_figures_match_the_full_trajectory(oracle_results):
    """The oracle's chunk-by-chunk deviation and norm drift equal those of
    the whole stride-1 trajectory."""
    d01 = 1e-3 * 1e6
    params = RabiParameters(omega0=0.0, omega1=1e6, omega_drive=1e6,
                            D=np.array([[0.0, d01], [d01, 0.0]]))
    traj = integrate_rabi(params, (0.0, 2.0 * math.pi / d01),
                          suggested_step(params), (1.0, 0.0))
    measured = oracle_results["rwa_two_level"].measured
    assert measured["max_abs_deviation"] == float(np.max(np.abs(
        traj.p1 - rwa_population(d01, 0.0, traj.times))))
    assert measured["norm_drift"] == traj.norm_drift


def test_rejects_unnormalized_state():
    params = _synthetic_params()
    with pytest.raises(ValueError, match="normalized"):
        integrate_rabi(params, (0.0, 1.0), 1e-3, (1.0, 0.5))


def test_rwa_population_values():
    assert rwa_population(1.0, 0.0, 0.0) == 0.0
    assert rwa_population(1.0, 0.0, math.pi) == pytest.approx(1.0, rel=1e-12)
    # detuned ceiling: Delta = Omega caps the transfer at 1/2
    omega = 2.0
    t = np.linspace(0.0, 20.0, 4001)
    p = rwa_population(omega, omega, t)
    assert p.max() == pytest.approx(0.5, abs=1e-4)


def test_rwa_population_zero_coupling():
    assert rwa_population(0.0, 0.0, 1.0) == 0.0


def test_extract_period_synthetic():
    """A sin^2 flip gives its period, with a one-sample window and with
    a wider one."""
    omega = 3.0
    times = np.linspace(0.0, 3.0 * math.pi / omega, 20001)
    for window in (1, 21):
        period = _fed(times, np.sin(omega * times / 2.0) ** 2, window)
        assert period == pytest.approx(2.0 * math.pi / omega,
                                       rel=PERIOD_RTOL)


def test_extract_period_flat_signal():
    with pytest.raises(NoOscillationError, match="no oscillation"):
        _fed(np.linspace(0.0, 1.0, 101), np.zeros(101), 10)


def test_extract_period_smoothing_rejects_micromotion():
    """A fast small ripple on the sin^2 envelope must not truncate the
    extracted period when the window spans one ripple period."""
    omega = 1.0
    ripple_omega = 200.0
    times = np.linspace(0.0, 3.0 * math.pi / omega, 60001)
    p1 = (np.sin(omega * times / 2.0) ** 2
          + 0.03 * np.sin(ripple_omega * times) ** 2)
    raw = _fed(times, p1, 1)
    dt = times[1] - times[0]
    window = int(round(2.0 * math.pi / ripple_omega / dt))
    smooth = _fed(times, p1, window)
    assert raw < 0.5 * (2.0 * math.pi / omega)  # fooled by the ripple
    # a window of whole ripple periods averages it out to a constant
    assert smooth == pytest.approx(2.0 * math.pi / omega, rel=1e-3)


@pytest.mark.parametrize("n, window", [(10, 10), (11, 4), (100, 7),
                                       (1000, 1), (5000, 4999), (12, 3),
                                       (3000, 1000)])
def test_moving_average_matches_convolution(n, window):
    """The scan's window means, fed three samples at a time, are the mean
    of each whole window of p1, i.e. the flat-kernel moving average taken
    at every window-th sample."""
    x = np.random.default_rng(n).random(n)
    scan = dynamics.PeriodScan(window)
    for k in range(0, n, 3):
        scan(np.arange(k, min(k + 3, n)), x[k:k + 3])
    means = scan.means()
    expected = [x[k * window:(k + 1) * window].mean()
                for k in range(n // window)]
    np.testing.assert_allclose(means, expected, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        means, np.convolve(x, np.ones(window) / window, "valid")[::window],
        rtol=0.0, atol=1e-12)


def test_default_device_full_flip(rabi_result):
    """Resonant drive from the solved spectrum reaches full inversion and
    the extracted period matches 2*pi/|D01|, on the default and the narrow
    device."""
    narrow = pipeline.simulate_rabi(pipeline.solve_qubit(
        DeviceConfig(gamma=0.3625, a=4.083e-7)))
    for result in (rabi_result, narrow):
        traj = result.trajectory
        assert traj.p1.max() > 0.999
        assert traj.norm_drift <= NORM_DRIFT_TOL
        # as a ratio: approx's default abs of 1e-12 would pass any period
        # within 1e-12 s, 1% of these
        assert result.period / result.estimated_period \
            == pytest.approx(1.0, rel=1e-3)


def test_coefficient_matrix_symmetric(qubit_solution, rabi_result):
    D = rabi_result.params.D
    assert D[0, 1] == D[1, 0]
    # diagonal elements positive: sech^2 is a positive operator
    assert D[0, 0] > 0 and D[1, 1] > 0


def test_zero_drive_amplitude_gives_zero_coupling(qubit_solution):
    sol = qubit_solution
    D = dynamics.rabi_coefficients(sol.levels, 0.0)
    np.testing.assert_array_equal(D, np.zeros((2, 2)))
