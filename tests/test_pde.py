import logging
import tracemalloc

import numpy as np
import pytest

from bo_soliton.errors import (
    BlowupDetected,
    BoundaryContamination,
    DomainError,
    GridMismatch,
    NonFiniteInput,
)
from bo_soliton.pde import (
    PdeConfig,
    _Stepper,
    compare,
    run,
    step,
)
from bo_soliton.profiles import GridField, SolitonParameters, profile_values


def small_cfg(**kw):
    base = dict(domain_half_width=50.0, modes=512, dt=1e-3, t_end=0.01)
    base.update(kw)
    return PdeConfig(**base)


class TestStep:
    def test_zero_fixed_point(self):
        cfg = small_cfg()
        out = step(np.zeros(cfg.modes // 2 + 1, dtype=complex), cfg)
        assert np.abs(out).max() == 0

    def test_constant_preserved(self):
        cfg = small_cfg()
        state = np.fft.rfft(np.full(cfg.modes, 0.7))
        out = step(state, cfg)
        assert np.abs(np.fft.irfft(out, cfg.modes) - 0.7).max() < 1e-13

    def test_linear_phase_rotation(self, rng):
        cfg = small_cfg()
        size = cfg.modes // 2 + 1
        state = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        out = _Stepper(cfg).e_full * state
        k = cfg.wavenumbers()
        assert np.abs(np.abs(out) - np.abs(state)).max() < 1e-13 * np.abs(state).max()
        assert np.abs(out - np.exp(1j * np.abs(k) * k * cfg.dt) * state).max() < 1e-12

    def test_rejects_full_spectrum(self):
        cfg = small_cfg()
        with pytest.raises(DomainError):
            step(np.zeros(cfg.modes, dtype=complex), cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            PdeConfig(modes=100)
        with pytest.raises(DomainError):
            PdeConfig(modes=1000)  # not a power of two
        with pytest.raises(DomainError):
            PdeConfig(dt=0.0)
        for bad in (dict(dt=np.inf), dict(dt=np.nan), dict(t_end=np.inf),
                    dict(t_end=np.nan), dict(domain_half_width=np.inf),
                    dict(domain_half_width=np.nan), dict(snapshot_dt=np.inf),
                    dict(snapshot_dt=np.nan), dict(snapshot_dt=0.0),
                    dict(snapshot_dt=-0.1), dict(modes=256.0),
                    dict(dt=1e-3, t_end=0.0104, snapshot_dt=0.0034)):
            with pytest.raises(DomainError):
                PdeConfig(**bad)

    @pytest.mark.parametrize("field", ["domain_half_width", "dt", "t_end",
                                       "snapshot_dt"])
    def test_lengths_are_real_scalars(self, field):
        with pytest.raises(DomainError, match="must be real, not complex"):
            PdeConfig(**{field: 1j})
        with pytest.raises(NonFiniteInput, match="float range"):
            PdeConfig(**{field: 10 ** 400})
        assert type(getattr(PdeConfig(t_end=1, snapshot_dt=1), field)) is float

    @pytest.mark.parametrize("half_width", [0.0, -1.0])
    def test_domain_half_width_must_be_positive(self, half_width):
        with pytest.raises(DomainError,
                           match="domain half-width must be positive"):
            PdeConfig(domain_half_width=half_width)

    def test_no_aliasing(self, rng):
        cfg = small_cfg()
        size = cfg.modes // 2 + 1
        state = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        before = state.copy()
        first = step(state, cfg)
        assert np.array_equal(state, before)
        assert not np.shares_memory(first, state)
        second = step(first, cfg)
        assert not np.shares_memory(second, first)

    def test_stepper_allocates_no_state_arrays(self):
        # the step writes into the stepper's workspace and the spare buffer
        cfg = PdeConfig(domain_half_width=400.0, modes=2 ** 14, dt=1e-3)
        stepper = _Stepper(cfg)
        params = SolitonParameters((-5.0 - 1j, 5.0 - 0.5j))
        state = np.fft.rfft(profile_values(params, cfg.grid()))
        spare = np.empty_like(state)
        state, spare = stepper.advance(state, spare), state  # warm-up
        tracemalloc.start()
        try:
            for _ in range(10):
                state, spare = stepper.advance(state, spare), state
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.nbytes / 2


class TestRun:
    def test_traveling_soliton(self):
        params = SolitonParameters((0.0 - 1j,))
        cfg = PdeConfig(domain_half_width=300.0, modes=2 ** 13, dt=2e-3,
                        t_end=5.0, snapshot_dt=1.0)
        snaps = run(params, cfg)
        for t, field in snaps:
            exact = GridField(field.x0, field.dx,
                              profile_values(params.shifted(t), field.xs()))
            l2_rel, _ = compare(field, exact)
            assert l2_rel < 1e-4

    def test_mass_conserved(self):
        params = SolitonParameters((1.0 - 0.8j,))
        cfg = PdeConfig(domain_half_width=200.0, modes=2 ** 12, dt=2e-3,
                        t_end=1.0, snapshot_dt=0.25)
        snaps = run(params, cfg)
        masses = [f.values.sum() * f.dx for _, f in snaps]
        assert (max(masses) - min(masses)) / abs(masses[0]) < 1e-8

    def test_matches_iterated_step(self):
        params = SolitonParameters((-10.0 - 1j, 10.0 - 0.5j))
        cfg = small_cfg(domain_half_width=400.0, modes=2 ** 12, t_end=0.02)
        _, field = run(params, cfg)[-1]
        state = np.fft.rfft(profile_values(params, cfg.grid()))
        for _ in range(20):
            state = step(state, cfg)
        expected = np.fft.irfft(state, cfg.modes)
        assert np.abs(field.values - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_snapshots_do_not_alias(self):
        params = SolitonParameters((0.0 - 1j,))
        cfg = small_cfg(domain_half_width=400.0, snapshot_dt=2e-3)
        snaps = run(params, cfg)
        assert len(snaps) == 6
        fields = [f.values for _, f in snaps]
        for i, a in enumerate(fields):
            for b in fields[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_boundary_guard(self):
        params = SolitonParameters((195.0 - 1j,))  # parked next to the edge
        cfg = PdeConfig(domain_half_width=200.0, modes=2 ** 12, dt=1e-3,
                        t_end=0.01)
        with pytest.raises(BoundaryContamination):
            run(params, cfg)

    def test_blowup_raises_only_the_typed_error(self):
        # a narrow soliton at a step far past stability overflows; the
        # suite turns RuntimeWarning into an error, so a numpy warning on
        # the way would surface instead of BlowupDetected
        cfg = PdeConfig(domain_half_width=50.0, modes=256, dt=0.5, t_end=40.0,
                        snapshot_dt=40.0)
        with pytest.raises(BlowupDetected, match="non-finite field at t = 40"):
            run(SolitonParameters((-0.05j,)), cfg)

    def test_underflowed_eta_is_domain_error(self):
        # eta**2 underflows, so u is infinite at x = 0 of the grid: the
        # initial profile is refused before any step, with no raw warning
        cfg = PdeConfig(domain_half_width=50.0, modes=256, dt=0.5, t_end=1.0,
                        snapshot_dt=0.5)
        with pytest.raises(DomainError, match="grid values must be finite"):
            run(SolitonParameters((-1e-200j,)), cfg)

    def test_huge_eta_runs_on_its_zero_profile(self):
        # eta**2 overflows: the soliton's profile is 0 to the last bit, and
        # so is every snapshot
        cfg = small_cfg()
        snaps = run(SolitonParameters((1 - 1e300j,)), cfg)
        assert all(np.array_equal(f.values, np.zeros(cfg.modes))
                   for _, f in snaps)


# Oracle: the full complex-spectrum integrator the half-spectrum state
# replaced, kept verbatim (two complex FFTs per nonlinear evaluation, the
# mask and -i k applied per call) so that step() can be checked against it.
def _oracle_nonlinear(state, k, mask):
    u = np.fft.ifft(state).real
    return -1j * k * (np.fft.fft(u * u) * mask)


def _oracle_rk4(state, dt, k, mask, e_full, e_half):
    n1 = _oracle_nonlinear(state, k, mask)
    u2 = e_half * state + (dt / 2) * e_half * n1
    n2 = _oracle_nonlinear(u2, k, mask)
    u3 = e_half * state + (dt / 2) * n2
    n3 = _oracle_nonlinear(u3, k, mask)
    u4 = e_full * state + dt * e_half * n3
    n4 = _oracle_nonlinear(u4, k, mask)
    return e_full * state + (dt / 6) * (e_full * n1 + 2 * e_half * (n2 + n3) + n4)


def _oracle_field(params, cfg, n_steps):
    k = 2 * np.pi * np.fft.fftfreq(cfg.modes, d=cfg.dx)
    mask = np.abs(k) <= (2.0 / 3.0) * np.abs(k).max()
    e_full = np.exp(1j * np.abs(k) * k * cfg.dt)
    e_half = np.exp(1j * np.abs(k) * k * (cfg.dt / 2))
    state = np.fft.fft(profile_values(params, cfg.grid()))
    for _ in range(n_steps):
        state = _oracle_rk4(state, cfg.dt, k, mask, e_full, e_half)
    return np.fft.ifft(state).real


@pytest.mark.parametrize("modes", [512, 4096])
def test_half_spectrum_matches_full_spectrum_oracle(modes):
    # at 512 modes (dx 0.39) the product u^2 has much of its spectrum past
    # the 2/3 cut, so the mask and every propagator factor show in the field
    params = SolitonParameters((-10.0 - 1j, 10.0 - 0.5j))
    cfg = small_cfg(domain_half_width=100.0, modes=modes)
    state = np.fft.rfft(profile_values(params, cfg.grid()))
    for _ in range(20):
        state = step(state, cfg)
    field = np.fft.irfft(state, cfg.modes)
    expected = _oracle_field(params, cfg, 20)
    assert np.abs(field - expected).max() < 1e-13 * np.abs(expected).max()


class _NumpyStepper(_Stepper):
    """The stepper on np.fft: irfft and rfft with numpy's normalisation, and
    weights without the 1/modes^2 that the unnormalised c2r/r2c need."""

    def __init__(self, cfg):
        super().__init__(cfg)
        for name in ("w2", "w3", "w4", "c1", "c23", "c4"):
            setattr(self, name, getattr(self, name) * cfg.modes ** 2)

    def _square(self, v):
        u = np.fft.irfft(v, out=self.u)
        u *= u
        return np.fft.rfft(u, out=self.p)[:self.band]


@pytest.mark.parametrize("modes", [256, 2 ** 14])
def test_pocketfft_stepper_matches_numpy_fft(modes):
    # the same arithmetic up to the exact power-of-two scaling; a tolerance,
    # not bitwise equality, as numpy's and scipy's pocketfft builds may differ
    params = SolitonParameters((-10.0 - 3j, 10.0 - 2j))
    cfg = PdeConfig(domain_half_width=800.0, modes=modes, dt=1e-3,
                    t_end=0.02, snapshot_dt=0.01)
    state = np.fft.rfft(profile_values(params, cfg.grid()))
    reference = _NumpyStepper(cfg)

    def sup_rel(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    expected = reference.advance(state, np.empty_like(state))
    assert sup_rel(step(state, cfg), expected) <= 1e-14
    for _ in range(19):
        expected = reference.advance(expected, np.empty_like(expected))
    _, field = run(params, cfg)[-1]
    assert sup_rel(field.values, np.fft.irfft(expected, modes)) <= 1e-14


class TestCompare:
    def test_identical(self):
        f = GridField(0.0, 0.1, np.linspace(1, 2, 64))
        assert compare(f, f) == (0.0, 0.0)

    def test_noise_scaling(self, rng):
        vals = 2.0 / (1.0 + np.linspace(-10, 10, 1000) ** 2)
        noise = 1e-6 * rng.standard_normal(vals.size)
        a = GridField(-10.0, 20 / 999, vals + noise)
        b = GridField(-10.0, 20 / 999, vals)
        l2_rel, sup = compare(a, b)
        assert l2_rel == pytest.approx(
            np.linalg.norm(noise) / np.linalg.norm(vals), rel=1e-12)
        assert sup == pytest.approx(np.abs(noise).max(), rel=1e-12)

    def test_grid_mismatch(self):
        a = GridField(0.0, 0.1, np.zeros(16))
        b = GridField(0.0, 0.2, np.zeros(16))
        with pytest.raises(GridMismatch):
            compare(a, b)

    def test_initial_frame_matches_synthesis(self):
        params = SolitonParameters((0.5 - 1.5j,))
        cfg = small_cfg(domain_half_width=250.0, modes=2 ** 12)
        t0, field = run(params, cfg)[0]
        assert t0 == 0.0
        exact = GridField(field.x0, field.dx, profile_values(params, field.xs()))
        l2_rel, sup = compare(field, exact)
        assert sup < 1e-12


def test_run_logs_timing(caplog):
    cfg = small_cfg(domain_half_width=200.0, t_end=0.005)
    with caplog.at_level(logging.DEBUG, logger="bo_soliton.pde"):
        run(SolitonParameters((0.0 - 1j,)), cfg)
    (rec,) = [r for r in caplog.records if r.name == "bo_soliton.pde"]
    assert rec.levelno == logging.DEBUG
    msg = rec.getMessage()
    assert msg.startswith("run: 512 modes, 5 steps, dt 0.001, ")
    assert msg.endswith(" ms/step")
