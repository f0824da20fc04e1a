import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityfall import (
    CavitySpec,
    DomainError,
    GravityProfile,
    Grid1D,
    Trace,
    ValidationError,
    effective_mass,
    init_gaussian,
    phase_gradient,
    propagate,
)
from cavityfall import propagator
from cavityfall.propagator import (
    _ANCHOR_INTERVAL,
    MAX_ROWS,
    _block_moments,
    _spectral_moments,
    recording_schedule,
)
from cavityfall.units import hbar as hbar_si
from oracles import _envelope_moments, analytic_gaussian_oracle, exact_accelerating_gaussian

GRID = Grid1D(-32.0, 32.0, 1024)
# magnitudes from 1e-15 to 1e15: the sigma0/mass units of such a run stay
# far from overflow (g_tilde in those units is at most 1e90)
LOG_UNIFORM = st.floats(-15.0, 15.0).map(lambda e: 10.0**e)


def l2_distance(u, v, dy):
    return math.sqrt(float(np.sum(np.abs(u - v) ** 2)) * dy)


def measure(u, grid=GRID, mass=1.0, g_tilde=0.0, t=0.0):
    """{Trace field: value} of the samples u at time t, measured by the
    scalar reference moments as propagate measures its record 0; mass and
    g_tilde define the Hamiltonian of the energy, whose <V> = m*g_tilde*<y>
    exactly for a linear potential."""
    norm, centroid, width, phase_gradient = _envelope_moments(u, grid.y_values(), grid.dy)
    mean_k, mean_k2 = _spectral_moments(np.fft.fft(u), grid.k_values())
    energy = mean_k2 / (2.0 * mass) + mass * g_tilde * centroid
    return dict(zip(Trace._fields, (t, centroid, width, mean_k, norm, energy, phase_gradient)))


def strang_reference(u, grid, mass, g_tilde, dt, n_steps):
    """Step-by-step complex128 Strang loop: the scheme propagate composes in
    closed form.  Reference only; half potential, full kinetic, half potential."""
    half_potential = np.exp(-0.5j * mass * g_tilde * grid.y_values() * dt)
    kinetic = np.exp(-0.5j * grid.k_values() ** 2 * dt / mass)
    for _ in range(n_steps):
        u = half_potential * np.fft.ifft(kinetic * np.fft.fft(half_potential * u))
    return u


def closed_form_reference(grid, u0, *, mass, g_tilde, dt, n_steps, stride=1):
    """Trace of the per-record closed form: each record's lab-frame state
    exp(-i F t y) IFFT[exp(-i theta(k)) FFT u(0)], theta less its
    k-independent term, measured with measure().  Reference only; it stops
    where the composed phase leaves double range, as propagate must."""
    y, k = grid.y_values(), grid.k_values()
    force = mass * g_tilde
    spread_rate, drift_rate = k * k / (2.0 * mass), k / (2.0 * mass)
    spectrum0 = np.fft.fft(u0)
    rows = []
    for i in recording_schedule(n_steps, stride):
        t = i * dt
        ft = force * t
        offset = force * ft * (t * t / 3.0 - dt * dt / 12.0)
        v = np.fft.ifft(np.exp(-1j * (spread_rate * t - drift_rate * (ft * t))) * spectrum0)
        if not (math.isfinite(ft) and math.isfinite(offset) and np.all(np.isfinite(v))):
            raise DomainError(f"non-finite amplitudes after step {i}")
        rows.append(list(measure(np.exp(-1j * ft * y) * v, grid, mass, g_tilde, t).values()))
    return Trace(*np.array(rows, dtype=float).T)


def allocating_propagate(grid, u0, *, mass, g_tilde, dt, n_steps, stride=1):
    """propagate's loop with every temporary written out: the wavenumbers
    held for the run, each phasor one expression, each record's envelope
    scanned for non-finite samples before its moments (propagate scans
    only a record whose norm sum is not finite), each record measured alone
    by the scalar reference moments, and the records a list of Trace rows.
    Reference only; the spectral sums are propagate's own."""
    schedule = recording_schedule(n_steps, stride)
    y, dy = grid.y_values(), grid.dy
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=dy)
    force = mass * g_tilde
    tau = min(stride, n_steps) * dt

    def phasor(a, b):
        phase = k * k / (2.0 * mass) * a - k / (2.0 * mass) * b
        out = np.empty(k.size, dtype=complex)
        out.real = 0.0
        out.imag = -phase
        return np.exp(out)

    initial_norm = _envelope_moments(u0, y, dy)[0]
    spectrum = np.fft.fft(u0)
    mean_k0, mean_k20 = _spectral_moments(spectrum, k)
    with np.errstate(over="ignore", invalid="ignore"):
        step = phasor(tau, force * tau * tau)
        turn = phasor(0.0, 2.0 * force * tau * tau)
    records = []
    v, ft, offset, t = u0, 0.0, 0.0, 0.0
    for r, i in enumerate(schedule):
        if i:
            t = i * dt
            ft = force * t
            offset = force * ft * (t * t / 3.0 - dt * dt / 12.0)
            with np.errstate(over="ignore", invalid="ignore"):
                if i == r * stride and r % _ANCHOR_INTERVAL:
                    spectrum *= step
                    step *= turn
                else:
                    spectrum = phasor(t, ft * t) * np.fft.fft(u0)
                    if i == r * stride:
                        step = phasor(tau, force * tau * tau * (2 * r + 1))
                v = np.fft.ifft(spectrum)
            if not (math.isfinite(ft) and math.isfinite(offset) and np.all(np.isfinite(v))):
                raise DomainError(f"non-finite amplitudes after step {i}")
        norm, centroid, width, phase_grad = _envelope_moments(v, y, dy)
        if norm > initial_norm * (1.0 + 1e-12):
            raise DomainError(f"norm grew beyond roundoff at step {i}: {norm!r}")
        clearance = 4.0 * width
        if centroid - clearance < grid.y_min or centroid + clearance > grid.y_max:
            needed = abs(centroid) + clearance
            raise DomainError(
                f"packet within 4 sigma of the domain edge at step {i} "
                f"(t = {t:g}); enlarge the grid to at least +/- {1.25 * needed:g}"
            )
        kinetic = (mean_k20 - 2.0 * ft * mean_k0 + ft * ft) / (2.0 * mass)
        records.append(Trace(t, centroid, width, mean_k0 - ft, norm, kinetic + force * centroid, phase_grad - ft))
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.exp(-1j * (ft * y + offset / (2.0 * mass))) * v
    if not np.all(np.isfinite(u)):
        raise DomainError(f"non-finite amplitudes after step {schedule[-1]}")
    return u, Trace(*np.array(records, dtype=float).T)


def propagate_steps(u0, dt, mass=1.0, g_tilde=0.0, n_steps=1):
    final, _ = propagate(GRID, u0, mass=mass, g_tilde=g_tilde, dt=dt, n_steps=n_steps)
    return final


class TestGrid1D:
    def test_spacing_and_axes(self):
        assert GRID.dy == 64.0 / 1024
        y = GRID.y_values()
        assert y[0] == -32.0
        assert len(y) == 1024
        k = GRID.k_values()
        assert k[0] == 0.0
        assert np.max(k) == pytest.approx(math.pi / GRID.dy, rel=1e-2)

    @pytest.mark.parametrize("n", [32, 100, 1023, 2**40])
    def test_rejects_bad_point_counts(self, n):
        with pytest.raises(ValidationError):
            Grid1D(-1.0, 1.0, n)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            Grid1D(1.0, -1.0, 128)

    @pytest.mark.parametrize("half", [5e199, 5e155, 1e154, 1e308])
    def test_rejects_an_extent_whose_square_overflows(self, half):
        # y^2 of a packet launched at y = 0 could overflow on such a grid
        with pytest.raises(ValidationError, match="must have a square in double range"):
            Grid1D(-half, half, 8192)

    def test_accepts_an_extent_whose_square_is_finite(self):
        assert Grid1D(-5e153, 5e153, 8192).extent ** 2 == pytest.approx(1e308)

    @pytest.mark.parametrize(
        "n, extent",
        [(64, 1.0), (1024, 64.0), (4096, 0.3), (2**20, 7e5)]
        + [(2**p, extent) for p in range(6, 21) for extent in (1e-300, 2.0 / 3.0, 1e154)],
    )
    def test_wavenumbers_are_fftfreq_bit_for_bit(self, n, extent):
        # every grid size, on extents whose spacing is inexact or extreme,
        # on a grid placed asymmetrically about y = 0
        grid = Grid1D(-0.25 * extent, 0.75 * extent, n)
        expected = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dy)
        assert grid.k_values().tobytes() == expected.tobytes()


class TestRecordingSchedule:
    def test_steps_stride_and_final_partial_stride(self):
        assert recording_schedule(10, 3) == [0, 3, 6, 9, 10]
        assert recording_schedule(10, 5) == [0, 5, 10]

    def test_row_budget_checked_before_building_the_list(self):
        # 10**12 rows would need terabytes; the check must come first
        with pytest.raises(ValidationError, match="over the budget") as err:
            recording_schedule(10**12, 1)
        assert err.value.key == "stride"
        # one row past the budget, on and off the stride; the count in the
        # message is the number of rows the schedule would write
        for n_steps, stride in ((MAX_ROWS, 1), (2 * MAX_ROWS - 1, 2)):
            with pytest.raises(ValidationError, match=f"is {MAX_ROWS + 1} rows, over the budget of {MAX_ROWS} rows"):
                recording_schedule(n_steps, stride)


class TestScenarioValidation:
    # a run's scenario is propagate's keyword parameters; each bad value
    # names its parameter and is checked before the work budget and the
    # samples' shape, so u0 is empty
    CASES = [
        ({"mass": 0.0}, "mass: m/hbar must be finite and > 0, got 0.0"),
        ({"g_tilde": -1.0}, "g_tilde: must be >= 0, got -1.0"),
        ({"dt": 0.0}, "dt: must be > 0, got 0.0"),
        ({"n_steps": 0}, "n_steps: must be an integer >= 1, got 0"),
        ({"n_steps": 2.5}, "n_steps: must be an integer >= 1, got 2.5"),
        ({"n_steps": True}, "n_steps: must be an integer >= 1, got True"),
        ({"stride": 0}, "stride: must be an integer >= 1, got 0"),
        ({"stride": True}, "stride: must be an integer >= 1, got True"),
    ]

    def test_rejects_bad_parameters(self):
        for bad, line in self.CASES:
            run = {"mass": 1.0, "g_tilde": 1.0, "dt": 0.1, "n_steps": 10, "stride": 1, **bad}
            with pytest.raises(ValidationError) as err:
                propagate(GRID, np.empty(0, dtype=complex), **run)
            assert err.value.key == next(iter(bad)), bad
            assert str(err.value) == line


class TestInitGaussian:
    def test_zero_momentum_profile_is_real(self):
        u = init_gaussian(GRID, sigma0=1.0)
        assert np.all(u.imag == 0.0)
        assert np.all(u.real > 0.0)
        assert abs(measure(u)["mean_k"]) < 1e-10

    def test_measured_moments(self):
        # 8 sigma of edge clearance: wrapped tails are then below the 1e-6
        # width contract (at 5 sigma they already bias the variance by ~7e-6)
        rec = measure(init_gaussian(GRID, sigma0=4.0))
        assert rec["norm"] == pytest.approx(1.0, rel=1e-14)
        assert rec["centroid"] == pytest.approx(0.0, abs=1e-12)
        assert rec["width"] == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("sigma0", [-1.0, math.nan])
    def test_width_must_be_positive_and_finite(self, sigma0):
        with pytest.raises(ValidationError, match=f"must be > 0, got {sigma0!r}") as err:
            init_gaussian(GRID, sigma0)
        assert err.value.key == "sigma0"

    def test_unresolved_gaussian_rejected(self):
        with pytest.raises(DomainError, match="unresolved"):
            init_gaussian(GRID, sigma0=3.9 * GRID.dy)

    def test_oversized_gaussian_rejected(self):
        with pytest.raises(DomainError, match="oversized"):
            init_gaussian(GRID, sigma0=17.0)

    def test_launch_point_off_the_grid_rejected(self):
        # every sample of a packet at y = 0 would underflow to 0 on this grid
        with pytest.raises(DomainError, match=re.escape("the launch point y = 0 is off the grid [100, 228]")):
            init_gaussian(Grid1D(100.0, 228.0, 1024), sigma0=1.0)


class TestObservables:
    def test_lattice_phase_shifts_mean_k_exactly(self):
        q = 8.0 * 2.0 * math.pi / 64.0
        u = init_gaussian(GRID, sigma0=1.0)
        rec0 = measure(u)
        rec1 = measure(u * np.exp(1j * q * GRID.y_values()))
        assert rec1["mean_k"] - rec0["mean_k"] == pytest.approx(q, rel=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(DomainError, match="norm"):
            measure(np.zeros(1024, dtype=complex))

    def test_energy_is_conserved_along_a_run(self):
        _, trace = propagate(GRID, init_gaussian(GRID, 1.0), mass=1.0, g_tilde=0.5, dt=1 / 64, n_steps=128, stride=16)
        drift = np.max(np.abs(trace.energy - trace.energy[0]) / abs(trace.energy[0]))
        assert drift < 1e-10


class TestEnvelopeMoments:
    """A record whose norm sum is zero or not finite stops the block pass
    before it, and propagate finds its non-finite samples through that sum,
    with no warning (pytest turns RuntimeWarnings into errors)."""

    Y = GRID.y_values()

    @staticmethod
    def propagate_with(u, step, monkeypatch):
        """propagate on GRID with samples u as record 0 (step None), or with u
        in place of the envelope of record step (1-15, the block after record
        0) as the IFFT leaves it."""
        u0 = init_gaussian(GRID, 1.0)
        if step is None:
            u0 = u
        else:
            ifft = np.fft.ifft

            def replaced(a, *args, **kwargs):
                v = ifft(a, *args, **kwargs)
                v[step - 1] = u
                return v

            monkeypatch.setattr(np.fft, "ifft", replaced)
        propagate(GRID, u0, mass=1.0, g_tilde=0.5, dt=1 / 64, n_steps=20)

    @pytest.mark.parametrize(
        "bad",
        [
            {100: np.nan},
            {100: np.inf},
            {100: complex(0.0, -np.inf)},
            {100: np.nan, 101: 1e200},
            {5: 1e200, 900: np.nan},
        ],
        ids=["nan", "inf", "imaginary-inf", "nan-beside-1e200", "1e200-then-nan"],
    )
    def test_non_finite_sample_names_the_step(self, bad, monkeypatch):
        good = init_gaussian(GRID, 1.0)
        u = good.copy()
        for index, value in bad.items():
            u[index] = value
        assert _block_moments(np.stack([good, u, good]), self.Y, GRID.dy) == [_envelope_moments(good, self.Y, GRID.dy)]
        with pytest.raises(DomainError, match=r"^state has zero or non-finite norm$"):
            self.propagate_with(u, None, monkeypatch)
        with pytest.raises(DomainError, match=r"^non-finite amplitudes after step 7$"):
            self.propagate_with(u, 7, monkeypatch)

    @pytest.mark.parametrize("step", [None, 7])
    def test_finite_state_whose_squares_overflow_has_no_norm(self, step, monkeypatch):
        u = np.full(GRID.n_points, 1e200 + 1e200j)
        assert _block_moments(u[np.newaxis], self.Y, GRID.dy) == []
        with pytest.raises(DomainError, match=r"^state has zero or non-finite norm$"):
            self.propagate_with(u, step, monkeypatch)

    def test_finite_state_is_measured_as_without_a_step(self):
        # each row as the scalar reference measures it alone: centred at
        # y = 3 (48 samples along) and moving at k = 0.5, and at rest
        u = np.roll(init_gaussian(GRID, 1.0), 48) * np.exp(1j * 0.5 * GRID.y_values())
        rows = np.stack([u, init_gaussian(GRID, 2.0)])
        assert _block_moments(rows, self.Y, GRID.dy) == [_envelope_moments(row, self.Y, GRID.dy) for row in rows]


class TestPhaseGradient:
    def test_closed_form_fit_matches_polyfit(self):
        # random phases on packets centred anywhere on the grid, most often
        # near an edge, and as narrow as half a sample, so that centroids at
        # the edges clamp the 5-sample window inside the grid; reference:
        # np.polyfit of the unwrapped window phases against y - centroid, at
        # the centroid the pass returns
        rng = np.random.default_rng(7)
        y = GRID.y_values()
        centre = GRID.y_min + GRID.extent * rng.beta(0.2, 0.2, (200, 1))
        spread = GRID.dy * 10.0 ** rng.uniform(-0.3, 3.0, (200, 1))
        envelope = np.exp(-(((y - centre) / spread) ** 2)) * rng.uniform(0.5, 2.0, (200, y.size))
        u = envelope * np.exp(1j * rng.uniform(-math.pi, math.pi, (200, y.size)))
        nyquist = math.pi / GRID.dy
        clamped = 0
        for row, (_, centroid, _, gradient) in zip(u, _block_moments(u, y, GRID.dy), strict=True):
            nearest = int(np.argmin(np.abs(y - centroid)))
            clamped += not 2 <= nearest <= y.size - 3
            idx = min(max(nearest, 2), y.size - 3)
            window = slice(idx - 2, idx + 3)
            reference = np.polyfit(y[window] - centroid, np.unwrap(np.angle(row[window])), 2)[1]
            assert abs(gradient - reference) <= 1e-12 * nyquist
        assert clamped >= 10


class TestStep:
    """Single and double steps of propagate (one step is one Strang step)."""

    def test_free_step_preserves_norm_and_centroid(self):
        rec = measure(propagate_steps(init_gaussian(GRID, 1.0), dt=0.05))
        assert rec["norm"] == pytest.approx(1.0, abs=1e-14)
        assert rec["centroid"] == pytest.approx(0.0, abs=1e-12)

    def test_single_step_impulse(self):
        # a linear potential transfers exactly -m*g_tilde*dt of momentum;
        # Strang splitting reproduces it to roundoff (splitting errors are
        # global phases for linear potentials)
        mass, g_tilde, dt = 2.0, 1.5, 0.02
        rec = measure(propagate_steps(init_gaussian(GRID, 1.0), dt, mass, g_tilde), GRID, mass, g_tilde)
        assert rec["mean_k"] == pytest.approx(-mass * g_tilde * dt, abs=1e-12)

    def test_two_half_steps_match_one_full_step_to_third_order(self):
        # Richardson pair: the deviation is a pure phase ~ m*g_tilde^2*dt^3,
        # so halving dt must shrink it by 8
        u0 = init_gaussian(GRID, 1.0)
        deviations = []
        for dt in (0.25, 0.125):
            full = propagate_steps(u0, dt, g_tilde=4.0)
            halves = propagate_steps(u0, dt / 2, g_tilde=4.0, n_steps=2)
            deviations.append(l2_distance(full, halves, GRID.dy))
        ratio = deviations[0] / deviations[1]
        assert deviations[0] < 0.25**3
        assert ratio == pytest.approx(8.0, rel=0.05)

    def test_non_finite_amplitudes_raise(self):
        u0 = init_gaussian(GRID, 1.0)
        u0[100] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            propagate_steps(u0, dt=0.1, g_tilde=1.0)

    def test_overflowing_step_raises_non_finite(self):
        # t^3 overflows to inf in the composed phase; the run must stop with
        # a DomainError naming the step, not return NaN observables
        with pytest.raises(DomainError, match="non-finite amplitudes after step 1"):
            propagate_steps(init_gaussian(GRID, 1.0), dt=1e120, g_tilde=1.0)


class TestStrangComposition:
    """propagate against the step-by-step Strang loop it replaces."""

    @settings(max_examples=25, deadline=None)
    @given(
        mass=st.floats(0.5, 4.0),
        g_tilde=st.floats(0.0, 2.0),
        n_steps=st.integers(1, 2000),
        span=st.floats(0.01, 1.0),
    )
    def test_composed_state_matches_stepped_state(self, mass, g_tilde, n_steps, span):
        # t_final keeps the packet clear of the edges: a fall of at most 8
        # and a width of at most 2 leave >= 12 sigma to the nearest edge
        # (>= 8 sigma initially, where the edges are 32 sigma away)
        t_max = min(2.0 * math.sqrt(3.0) * mass, math.sqrt(16.0 / g_tilde) if g_tilde > 0 else math.inf)
        dt = span * t_max / n_steps
        u0 = init_gaussian(GRID, 1.0)
        final = propagate_steps(u0, dt, mass, g_tilde, n_steps)
        stepped = strang_reference(u0, GRID, mass, g_tilde, dt, n_steps)
        rec = measure(final, GRID, mass, g_tilde)
        assert rec["centroid"] - 8.0 * rec["width"] > GRID.y_min and rec["centroid"] + 8.0 * rec["width"] < GRID.y_max
        assert l2_distance(final, stepped, GRID.dy) <= 1e-12


class TestPhasorRecurrence:
    """Records between closed-form anchors advance by phasor multiplies;
    every column against the per-record closed form."""

    @pytest.mark.parametrize(
        "run, k0",
        [
            # stride 1 over 20 anchor intervals
            ({"mass": 1.0, "g_tilde": 0.5, "dt": 1 / 80, "n_steps": 20 * _ANCHOR_INTERVAL + 5}, 0.0),
            # stride 4, the final record off the stride
            ({"mass": 1.0, "g_tilde": 0.5, "dt": 1 / 50, "n_steps": 203, "stride": 4}, 0.0),
            # no gravity: a packet launched at a lattice wavenumber
            ({"mass": 1.0, "g_tilde": 0.0, "dt": 1 / 64, "n_steps": 200, "stride": 3}, math.pi / 4),
        ],
        ids=["stride-1", "off-stride-final", "no-gravity"],
    )
    def test_every_column_matches_the_closed_form(self, run, k0):
        # the momentum stays below 3 and the packet >= 8 sigma from the edges,
        # so the lab-frame reference measures every column unaliased
        u0 = init_gaussian(GRID, 1.0) * np.exp(1j * k0 * GRID.y_values())
        _, trace = propagate(GRID, u0, **run)
        reference = closed_form_reference(GRID, u0, **run)
        assert len(trace.t) == len(reference.t)
        for name, column, expected in zip(Trace._fields, trace, reference):
            assert np.max(np.abs(column - expected)) <= 1e-12 * np.max(np.abs(expected)), name

    def test_phase_overflow_between_anchors_stops_where_the_closed_form_does(self):
        # F = m*g_tilde = 6e153: the composed phase's F^2 t^3/3 leaves double
        # range at t ~ 2.5 of 4, on a record between two anchors
        run = {"mass": 1.2e154, "g_tilde": 0.5, "dt": 1 / 64, "n_steps": 256, "stride": 16}
        u0 = init_gaussian(GRID, 1.0)
        with pytest.raises(DomainError) as closed_form:
            closed_form_reference(GRID, u0, **run)
        message = str(closed_form.value)
        record = int(message.rsplit(" ", 1)[1]) // run["stride"]
        assert 1 < record < len(recording_schedule(run["n_steps"], run["stride"])) - 1
        assert record % _ANCHOR_INTERVAL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                propagate(GRID, u0, **run)


def extreme_input(rng, n=None):
    """One draw of the comparison with allocating_propagate: mass, g_tilde
    and dt from 1e-300 to 1e300, strides 1-40, 64-256 points (or n points
    and at most 21 records), amplitudes scaled by up to 1e+-160.  A third of
    the draws are anywhere in that range; a third fall to the grid's edge
    near t_final; a third are heavy packets whose composed phase F^2 t^3/3
    leaves double range near t_final."""
    if n is None:
        n = 64 * 2 ** int(rng.integers(0, 3))
        n_steps, stride = int(rng.integers(1, 401)), int(rng.integers(1, 41))
    else:
        n_steps = int(rng.integers(1, 401))
        stride = int(rng.integers(max(1, n_steps // 20), 41))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        log_mass, log_g, log_t = rng.uniform(-300.0, 300.0, 3)
    elif kind == 1:
        log_g = rng.uniform(-300.0, 300.0)
        log_t = 0.5 * (math.log10(n / 8) - log_g) + rng.uniform(-0.5, 0.5)
        log_mass = rng.uniform(min(max(log_t, -300.0), 300.0), 300.0)
    else:
        log_t = rng.uniform(-100.0, 100.0)
        log_mass = rng.uniform(160.0 + 0.5 * log_t, 300.0)
        log_g = (308.0 + math.log10(3.0) - 3.0 * log_t) / 2.0 - log_mass
        log_t += rng.uniform(-0.3, 0.5)
    log_dt = min(max(log_t - math.log10(n_steps), -300.0), 300.0)
    grid = Grid1D(-n / 16, n / 16, n)
    u0 = init_gaussian(grid, 1.0) * 10.0 ** rng.uniform(-160.0, 160.0)
    run = {
        "mass": float(10.0**log_mass),
        "g_tilde": float(10.0**log_g),
        "dt": float(10.0**log_dt),
        "n_steps": n_steps,
        "stride": stride,
    }
    return grid, u0, run


def outcome(propagator_fn, grid, u0, run):
    """(result or (exception type, message), messages of the warnings raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = propagator_fn(grid, u0, **run)
        except (DomainError, ValidationError) as exc:
            result = (type(exc), str(exc))
    return result, {str(w.message) for w in caught}


def propagate_peak(grid):
    """tracemalloc peak of propagate on grid: 65 records of a packet of
    sigma0 = 2 falling at g_tilde = 0.05, after one untraced run."""
    u0 = init_gaussian(grid, 2.0)
    run = {"mass": 1.0, "g_tilde": 0.05, "dt": 0.05, "n_steps": 64}
    propagate(grid, u0, **run)
    tracemalloc.start()
    try:
        propagate(grid, u0, **run)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHeldBuffer:
    """propagate rounds as its loop written out in full, and holds no more
    N-point arrays than a record needs."""

    def test_matches_the_allocating_loop_bit_for_bit(self):
        # 64-256 points take 16-row blocks, 4096 points 8-row, 8192 points
        # 4-row and 16384 points 1-row blocks, most of which advance from the
        # carried spectrum of the block before
        rng = np.random.default_rng(20261018)
        finished = {64: 0, 4096: 0, 8192: 0, 16384: 0}
        # runs that raise at a record of a block that starts off an anchor
        raised_in_carried_block, block_rows = 0, {4096: 8, 8192: 4, 16384: 1}
        for n in [None] * 200 + [4096] * 40 + [8192] * 40 + [16384] * 20:
            grid, u0, run = extreme_input(rng, n)
            expected, expected_warnings = outcome(allocating_propagate, grid, u0, run)
            result, result_warnings = outcome(propagate, grid, u0, run)
            assert result_warnings <= expected_warnings, run
            if isinstance(expected[0], type):
                assert result == expected, run
                if n in block_rows and (step := re.search(r"step (\d+)", expected[1])):
                    r = recording_schedule(run["n_steps"], run["stride"]).index(int(step[1]))
                    raised_in_carried_block += r // block_rows[n] * block_rows[n] % _ANCHOR_INTERVAL != 0
                continue
            finished[n or 64] += 1
            (final, trace), (expected_final, expected_trace) = result, expected
            assert final.tobytes() == expected_final.tobytes(), run
            for name, column, reference in zip(Trace._fields, trace, expected_trace):
                assert column.tobytes() == reference.tobytes(), (name, run)
        assert finished[64] >= 20 and min(finished[4096], finished[8192], finished[16384]) >= 4
        assert raised_in_carried_block >= 3

    def test_no_n_point_array_beyond_the_allocating_loop(self):
        # 16384 points, the smallest grid whose blocks hold one row: 65
        # records, five of them anchors.  propagate peaks at 1.453 MB here
        # (Python 3.11, numpy 2.4, glibc x86-64): 5.5 N-point complex arrays
        # of 262144 bytes (grid, the row transformed in place, the carried
        # spectrum, two phasors and the pass's two real moment buffers) and
        # ~11 kB of records and small objects.  The bound, 6 such arrays, is
        # within 9 % of that peak; one more held N-point real array (131072
        # bytes), such as fftfreq's temporaries beside the wavenumbers,
        # would exceed it.
        grid = Grid1D(-1024.0, 1024.0, 16384)
        assert propagate_peak(grid) <= 6 * 16 * grid.n_points

    def test_block_holds_one_anchor_interval_of_records(self):
        # 2048 points, the largest grid whose records are measured 16 at a
        # time: 65 records in blocks of up to 16.  propagate peaks at
        # 1.305 MB here (Python 3.11, numpy 2.4, glibc x86-64): 39.8 N-point
        # complex arrays of 32768 bytes (grid, two phasors, the 16 rows of
        # spectra transformed in place, the carried spectrum, the block
        # pass's two 16-row real buffers, and numpy's 16384-double iterator
        # buffers of its broadcasting subtract) and ~10 kB of records and
        # small objects.  The bound, 41 such arrays, is within 3 % of that
        # peak; a block of envelopes beside the spectra (16 arrays), or one
        # more 16-row real buffer (8), would exceed it.
        grid = Grid1D(-128.0, 128.0, 2048)
        assert propagate_peak(grid) <= 41 * 16 * grid.n_points

    # 65 records in blocks of up to 8 rows on 4096 points and 4 on 8192, most
    # of which start off an anchor.  propagate peaks here (Python 3.11,
    # numpy 2.4, glibc x86-64) at 1.352 MB on 4096 points, 20.6 N-point
    # complex arrays of 65536 bytes, and at 1.519 MB on 8192 points, 11.6
    # arrays of 131072 bytes: the grid, two phasors, the rows of spectra
    # transformed in place, the carried spectrum and the block pass's two
    # real buffers of as many rows (19.5 and 11.5 arrays), with numpy's
    # 8192-double iterator buffer of the pass's broadcasting subtract on 4096
    # points, and 8-12 kB of records and small objects.  Each bound is within
    # 5 % of its peak; one more held N-point complex array, or a block of
    # envelopes beside the spectra, would exceed it.
    @pytest.mark.parametrize("n_points, arrays", [(4096, 21.5), (8192, 12)])
    def test_shorter_block_carries_one_spectrum(self, n_points, arrays):
        grid = Grid1D(-n_points / 32, n_points / 32, n_points)
        assert propagate_peak(grid) <= arrays * 16 * n_points


class TestUnitInvariance:
    """The propagator runs in any units: an SI run and the same run in
    units of sigma0 and the mass agree."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        mass=LOG_UNIFORM,
        sigma0=LOG_UNIFORM,
        g_tilde=LOG_UNIFORM,
        n_steps=st.integers(1, 2000),
        span=st.floats(0.01, 1.0),
    )
    def test_si_run_matches_sigma0_mass_units(self, mass, sigma0, g_tilde, n_steps, span):
        # mass is m/hbar; the reference units are L = sigma0 and
        # T = m sigma0^2 / hbar, in which mass, sigma0 and hbar are all 1
        length, time = sigma0, mass * sigma0**2
        g_scaled = g_tilde * time**2 / length
        # the scaled run falls at most 8 and spreads to at most 2 on a
        # +/- 32 grid: >= 12 sigma of clearance (8 sigma initially); its
        # momentum stays below 16, a third of the grid's Nyquist wavenumber
        t_max = min(2.0 * math.sqrt(3.0), math.sqrt(16.0 / g_scaled), 16.0 / g_scaled)
        dt = span * t_max * time / n_steps
        stride = max(1, n_steps // 8)
        si_grid = Grid1D(-32.0 * length, 32.0 * length, 1024)
        _, si = propagate(
            si_grid,
            init_gaussian(si_grid, sigma0),
            mass=mass,
            g_tilde=g_tilde,
            dt=dt,
            n_steps=n_steps,
            stride=stride,
        )
        scaled_grid = Grid1D(si_grid.y_min / length, si_grid.y_max / length, 1024)
        _, scaled = propagate(
            scaled_grid,
            init_gaussian(scaled_grid, 1.0),
            mass=1.0,
            g_tilde=g_scaled,
            dt=dt / time,
            n_steps=n_steps,
            stride=stride,
        )
        # each column's scale: its largest magnitude, at least its unit
        for si_column, reference, unit in (
            (si.centroid, scaled.centroid * length, length),
            (si.width, scaled.width * length, length),
            (si.mean_k, scaled.mean_k / length, 1.0 / length),
            (si.phase_gradient, scaled.phase_gradient / length, 1.0 / length),
        ):
            scale = max(np.max(np.abs(reference)), unit)
            assert np.max(np.abs(si_column - reference)) <= 1e-10 * scale


class TestPropagate:
    def test_free_packet_spreads_on_schedule(self):
        _, trace = propagate(GRID, init_gaussian(GRID, 1.0), mass=1.0, g_tilde=0.0, dt=1 / 64, n_steps=256, stride=32)
        assert np.max(np.abs(trace.centroid)) < 1e-12
        expected = np.sqrt(1.0 + (trace.t / 2.0) ** 2)
        assert np.max(np.abs(trace.width - expected) / expected) < 1e-6

    def test_centroid_falls_on_the_parabola(self):
        _, trace = propagate(GRID, init_gaussian(GRID, 1.0), mass=1.0, g_tilde=1.0, dt=1 / 64, n_steps=256, stride=16)
        final_drop = 0.5 * 1.0 * 4.0**2
        assert np.max(np.abs(trace.centroid + 0.5 * trace.t**2)) < 1e-8 * final_drop

    def test_centroid_trace_is_mass_independent(self):
        traces = []
        for mass in (1.0, 10.0):
            _, trace = propagate(
                GRID, init_gaussian(GRID, 1.0), mass=mass, g_tilde=1.0, dt=1 / 64, n_steps=128, stride=16
            )
            traces.append(trace.centroid)
        assert np.max(np.abs(traces[0] - traces[1])) < 1e-10 * 2.0

    def test_records_include_final_partial_stride(self):
        _, trace = propagate(GRID, init_gaussian(GRID, 1.0), mass=1.0, g_tilde=0.0, dt=0.1, n_steps=10, stride=3)
        assert trace.t[0] == 0.0
        assert trace.t[-1] == pytest.approx(1.0, rel=1e-15)
        assert np.all(np.diff(trace.t) > 0)

    def test_moments_taken_once_per_record(self, monkeypatch):
        # record 0 reuses the one-row pass that checks the initial state; the
        # other 15 records are block passes of up to 16 rows on 1024 points,
        # 8 on 4096, 4 on 8192 and one on 16384
        for grid, passes in (
            (GRID, [1, 15]),
            (Grid1D(-128.0, 128.0, 4096), [1, 7, 8]),
            (Grid1D(-128.0, 128.0, 8192), [1, 3, 4, 4, 4]),
            (Grid1D(-128.0, 128.0, 16384), [1] * 16),
        ):
            u0 = init_gaussian(grid, 1.0)
            initial = measure(u0, grid)
            rows = []

            def counted(*args):
                measured = _block_moments(*args)
                rows.append(len(measured))
                return measured

            monkeypatch.setattr(propagator, "_block_moments", counted)
            _, trace = propagate(grid, u0, mass=1.0, g_tilde=0.5, dt=1 / 64, n_steps=100, stride=7)
            assert rows == passes
            assert sum(rows) == len(trace.t) == len(recording_schedule(100, 7))
            assert (trace.norm[0], trace.centroid[0], trace.width[0], trace.phase_gradient[0]) == (
                initial["norm"],
                initial["centroid"],
                initial["width"],
                initial["phase_gradient"],
            )

    @pytest.mark.parametrize("n_steps, stride", [(1024, 1), (2048, 2), (2047, 2)])
    def test_work_budget_checked_before_any_allocation(self, n_steps, stride):
        # one record past 2**30 samples on the largest grid, counted as the
        # schedule counts its records, the final off-stride one included
        grid = Grid1D(-2048.0, 2048.0, 2**20)
        u0 = init_gaussian(grid, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as err:
                propagate(grid, u0, mass=1.0, g_tilde=0.0, dt=1e-3, n_steps=n_steps, stride=stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        records = len(recording_schedule(n_steps, stride))
        assert records == 1025
        expected = f"stride: {records} records of n_points = 1048576 samples are over the work budget of 1073741824"
        assert str(err.value).startswith(expected)
        assert peak < grid.n_points

    @pytest.mark.parametrize("shape", [(512,), (1024, 1), ()])
    def test_samples_must_match_the_grid(self, shape):
        expected = f"u0: must hold the grid's 1024 samples, got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            propagate(GRID, np.ones(shape, dtype=complex), mass=1.0, g_tilde=0.0, dt=0.1, n_steps=5)

    def test_domain_escape_suggests_larger_grid(self):
        small = Grid1D(-8.0, 8.0, 128)
        with pytest.raises(DomainError, match="enlarge the grid"):
            propagate(small, init_gaussian(small, 1.0), mass=1.0, g_tilde=2.0, dt=1 / 32, n_steps=128, stride=4)

    def test_non_finite_initial_state_rejected(self):
        u0 = init_gaussian(GRID, 1.0)
        u0[0] = np.inf
        with pytest.raises(DomainError):
            propagate(GRID, u0, mass=1.0, g_tilde=1.0, dt=0.1, n_steps=5)

    def test_norm_growth_names_the_step(self, monkeypatch):
        # record 7's envelope (row 6 of the block after record 0) scaled by
        # 1 + 1e-9, as a step that is not unitary would leave it
        ifft = np.fft.ifft

        def grown(a, *args, **kwargs):
            v = ifft(a, *args, **kwargs)
            v[6] *= 1.0 + 1e-9
            return v

        monkeypatch.setattr(np.fft, "ifft", grown)
        with pytest.raises(DomainError, match=r"^norm grew beyond roundoff at step 7: "):
            propagate(GRID, init_gaussian(GRID, 1.0), mass=1.0, g_tilde=0.5, dt=1 / 64, n_steps=20)

    def test_final_state_out_of_double_range_names_the_last_step(self):
        # every record passes its checks, then F t y overflows in the phase
        # that returns the final state to the lab frame
        grid = Grid1D(-1.3e154, 3e152, 1024)
        with pytest.raises(DomainError, match=r"^non-finite amplitudes after step 3$"):
            propagate(grid, init_gaussian(grid, 6e151), mass=1.0, g_tilde=1e154, dt=0.5, n_steps=3, stride=1)


class TestAnalyticOracle:
    def test_release_point(self):
        m = analytic_gaussian_oracle(1.0, 1.0, 1.0, 0.0)
        assert m == (0.0, 1.0, 0.0, 0.0)

    def test_characteristic_spreading_time(self):
        # hbar*t/(2*m*sigma0^2) = 1 doubles the variance
        sigma0, mass = 0.7, 3.0
        t = 2.0 * mass * sigma0**2
        m = analytic_gaussian_oracle(sigma0, mass, 0.0, t)
        assert m.width == pytest.approx(sigma0 * math.sqrt(2.0), rel=1e-15)

    def test_si_phase_gradient_matches_lab_frame_law(self):
        # m_s*g_tilde*t/hbar with the dielectric mass and renormalized
        # acceleration equals omega0*g*t/c^2 exactly
        cav = CavitySpec.from_rest_wavelength(1.064e-6, n_s=1.43)
        profile = GravityProfile(g=9.81, n_s=1.43)
        t = 0.37
        m = analytic_gaussian_oracle(0.1, effective_mass(cav) / hbar_si, profile.g_tilde, t)
        assert m.phase_gradient == pytest.approx(phase_gradient(cav, profile, t), rel=1e-12)
        assert m.mean_k == pytest.approx(-m.phase_gradient, rel=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            analytic_gaussian_oracle(1.0, 1.0, 1.0, -0.1)


class TestOracleEquivalence:
    def test_observables_match_closed_form(self):
        mass, g_tilde = 1.0, 1.0
        _, trace = propagate(
            GRID, init_gaussian(GRID, 1.0), mass=mass, g_tilde=g_tilde, dt=1 / 64, n_steps=192, stride=16
        )
        final_drop = 0.5 * g_tilde * 3.0**2
        for i, t in enumerate(trace.t):
            m = analytic_gaussian_oracle(1.0, mass, g_tilde, float(t))
            assert abs(trace.centroid[i] - m.centroid) < 1e-6 * final_drop
            assert trace.width[i] == pytest.approx(m.width, rel=1e-6)
            assert abs(trace.mean_k[i] - m.mean_k) < 1e-6 * mass * g_tilde * 3.0
            if t > 0:
                assert abs(trace.phase_gradient[i]) == pytest.approx(m.phase_gradient, rel=1e-6)

    def test_second_order_convergence_of_the_full_state(self):
        # against the closed-form accelerated Gaussian (global phase included);
        # for a linear potential the only splitting error is that phase, with
        # magnitude m*g_tilde^2*t_final*dt^2/24
        mass, g_tilde, t_final = 1.0, 1.0, 2.0
        errors = []
        dts = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
        exact = exact_accelerating_gaussian(GRID, 1.0, mass, g_tilde, t_final)
        for dt in dts:
            n_steps = int(t_final / dt)  # exact: dt divides t_final
            final, _ = propagate(
                GRID, init_gaussian(GRID, 1.0), mass=mass, g_tilde=g_tilde, dt=dt, n_steps=n_steps, stride=10**9
            )
            errors.append(l2_distance(final, exact, GRID.dy))
        errors = np.array(errors)
        ratios = errors[:-1] / errors[1:]
        assert np.all(np.abs(ratios - 4.0) < 0.2)
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)
        predicted = mass * g_tilde**2 * t_final * np.array(dts) ** 2 / 24.0
        assert np.max(np.abs(errors / predicted - 1.0)) < 0.05

    def test_dropped_centre_off_the_grid_rejected(self):
        # the packet falls to y = -400, where every sample would underflow to 0
        grid = Grid1D(-64.0, 64.0, 1024)
        expected = "the dropped centre -g_tilde t^2/2 = -400 is off the grid [-64, 64]"
        with pytest.raises(DomainError, match=f"^{re.escape(expected)}$"):
            exact_accelerating_gaussian(grid, 0.5, 100.0, 2.0, 20.0)

    def test_unresolved_packet_rejected(self):
        # sigma0 = 1e-3 centred at -dy/2, between two samples: every sample
        # would underflow to 0 and the normalisation divide 0 by 0
        grid = Grid1D(-64.0, 64.0, 1024)
        expected = "unresolved Gaussian: sigma0 = 0.001 must exceed 4*dy = 0.5"
        with pytest.raises(DomainError, match=f"^{re.escape(expected)}$"):
            exact_accelerating_gaussian(grid, 1e-3, 1e6, 1.0, math.sqrt(0.125))

    def test_phase_gradient_law_in_scaled_units(self):
        mass, g_tilde = 2.0449, 0.4
        _, trace = propagate(
            GRID, init_gaussian(GRID, 1.0), mass=mass, g_tilde=g_tilde, dt=1 / 64, n_steps=128, stride=16
        )
        for i, t in enumerate(trace.t[1:], start=1):
            assert abs(trace.phase_gradient[i]) == pytest.approx(mass * g_tilde * t, rel=1e-4)

    def test_dielectric_drag_ratio(self):
        ns_squared = 1.43**2
        traces = {}
        for label, g_tilde in (("vacuum", 1.0), ("dielectric", 1.0 / ns_squared)):
            _, traces[label] = propagate(
                GRID, init_gaussian(GRID, 1.0), mass=1.0, g_tilde=g_tilde, dt=1 / 64, n_steps=96, stride=16
            )
        ratio = traces["vacuum"].centroid[1:] / traces["dielectric"].centroid[1:]
        assert np.max(np.abs(ratio - ns_squared) / ns_squared) < 1e-8


class TestConservation:
    def test_norm_is_conserved_to_roundoff(self):
        _, trace = propagate(GRID, init_gaussian(GRID, 1.0), mass=1.0, g_tilde=0.5, dt=1 / 128, n_steps=768, stride=64)
        assert np.max(np.abs(trace.norm - trace.norm[0])) < 1e-12
