"""Pseudospectral reference integrator on a large periodic domain.

The equation u_t = H u_xx - (u^2)_x becomes, mode by mode,

    d/dt uhat(k) = i |k| k uhat(k) - i k (u^2)^hat(k),

so the Hilbert transform is the multiplier -i sign(k) and the linear part is
purely dispersive.  Time stepping is integrating-factor RK4 with the exact
propagator exp(i |k| k dt); the quadratic term is 2/3-rule dealiased.

The field is real, so its transform is Hermitian, uhat(-k) = conj(uhat(k)),
and both sides of the equation keep that symmetry: the propagator and the
multiplier -i k take conjugate values at -k.  The state is therefore the
half-spectrum ``rfft(u)``, the ``modes // 2 + 1`` entries with k >= 0, and
each nonlinear evaluation is one inverse/forward real FFT pair.  The Nyquist
entry is the one mode whose propagator is not conjugate-symmetric; the
inverse keeps only its real part, which is what the real part of a full
complex inverse keeps too.  The derivative, the dealiasing mask and the sign
are folded into one multiplier g = -i k [|k| <= (2/3) max|k|], and g is
folded into each RK4 weight, so the weighted updates run only over the band
where g is nonzero.

The FFTs are scipy's compiled pocketfft, ``c2r`` and ``r2c``, bound by
:mod:`bo_soliton._lapack` (numpy's ``np.fft`` runs the same pocketfft code
behind a slower call layer).  Inside a step both are unnormalised, so the
square of a stage comes out ``modes**2`` times ``rfft(irfft(v)**2)``; the
factor ``1/modes**2`` is folded into g, and with it into every weight.
``modes`` is a power of two, so that scaling is exact: a step gives the same
bits as with ``np.fft.irfft``/``rfft`` and unscaled weights, wherever
numpy's and scipy's pocketfft agree bit for bit (``tests/test_lapack.py``
checks that they do).  The first transform of a run is ``r2c`` and each
snapshot is ``c2r`` divided by ``modes``, as ``rfft`` and ``irfft`` are.
Every call runs on one thread.  The stepper holding the weights is built
once per run; its transforms and products write into a fixed workspace, so
a step allocates no array.  The module is purely numerical: ``run`` returns
its snapshots and writes no file.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import (
    BlowupDetected,
    BoundaryContamination,
    DomainError,
    GridMismatch,
)
from .profiles import GridField, profile_values, real_array

log = logging.getLogger("bo_soliton.pde")


@dataclass(frozen=True)
class PdeConfig:
    domain_half_width: float = 400.0
    modes: int = 2 ** 14
    dt: float = 1e-3
    t_end: float = 1.0
    snapshot_dt: float = 0.1

    def __post_init__(self):
        m = self.modes
        if not isinstance(m, (int, np.integer)) or m < 256 or m & (m - 1):
            raise DomainError("modes must be an integer power of two >= 256")
        for f in ("domain_half_width", "dt", "t_end", "snapshot_dt"):
            value = float(real_array(getattr(self, f), f))
            object.__setattr__(self, f, value)
        lengths = (self.domain_half_width, self.dt, self.t_end, self.snapshot_dt)
        if not np.all(np.isfinite(lengths)):
            raise DomainError(
                "domain half-width, dt, t_end and snapshot_dt must be finite")
        if not (self.dt > 0 and self.t_end >= 0 and self.snapshot_dt > 0):
            raise DomainError("need dt > 0, t_end >= 0 and snapshot_dt > 0")
        if not (self.domain_half_width > 0):
            raise DomainError("domain half-width must be positive")
        for name in ("t_end", "snapshot_dt"):
            steps = getattr(self, name) / self.dt
            if abs(steps - round(steps)) > 1e-9 * steps:
                raise DomainError(f"{name} / dt = {steps:.6g} is not whole")

    @property
    def dx(self):
        return 2 * self.domain_half_width / self.modes

    def grid(self):
        return -self.domain_half_width + self.dx * np.arange(self.modes)

    def wavenumbers(self):
        """Wavenumbers k >= 0 of the half-spectrum, ``modes // 2 + 1`` of them."""
        return 2 * np.pi * np.fft.rfftfreq(self.modes, d=self.dx)


class _Stepper:
    """Integrating-factor RK4 on a fixed workspace, built once per run.

    With p = r2c(c2r(v)^2), the nonlinear term of stage input v is g p, so
    g, which holds the 1/modes^2 of the two unnormalised transforms, is
    folded into every weight that multiplies p.  Stage 1 starts the sum
    with c1 p; stages 2-4 run (weight, base, after) over (w2, half, c23),
    (w3, half, c23), (w4, full, c4): stage = base + weight p, p =
    square(stage), sum += after p.  g vanishes past the 2/3 cut, so the
    weights touch only the first ``band`` entries, past which each stage is
    its base.  Every transform and product writes into the workspace;
    ``advance`` never writes to its input."""

    def __init__(self, cfg):
        dt = cfg.dt
        # on the half-spectrum k >= 0: the folded nonlinear multiplier
        # g = -i k (2/3-rule mask) and the exact linear propagators
        # exp(i |k| k t) = exp(i k^2 t) over a full step and a half step;
        # g also takes the 1/modes^2 of c2r and r2c, an exact power of two
        k = cfg.wavenumbers()
        g = -1j * k * (k <= (2.0 / 3.0) * k.max()) / cfg.modes ** 2
        self.e_full = np.exp(1j * k * k * dt)
        self.e_half = np.exp(1j * k * k * (dt / 2))
        band = int(np.flatnonzero(g)[-1]) + 1  # g is zero past the 2/3 cut
        g, e_full, e_half = g[:band], self.e_full[:band], self.e_half[:band]
        self.band = band
        self.w2 = (dt / 2) * e_half * g      # stage 2: half + w2 p1
        self.w3 = (dt / 2) * g               # stage 3: half + w3 p2
        self.w4 = dt * e_half * g            # stage 4: full + w4 p3
        self.c1 = (dt / 6) * e_full * g      # result: full + c1 p1
        self.c23 = (dt / 3) * e_half * g     #   + c23 (p2 + p3)
        self.c4 = (dt / 6) * g               #   + c4 p4
        self.modes = cfg.modes
        size = cfg.modes // 2 + 1
        self.half = np.empty(size, dtype=complex)
        self.stage = np.empty(size, dtype=complex)
        self.p = np.empty(size, dtype=complex)
        self.u = np.empty(cfg.modes)
        self.acc = np.empty(band, dtype=complex)
        self.w = np.empty(band, dtype=complex)

    def _square(self, v):
        """p = r2c(c2r(v)^2), unnormalised: modes^2 times rfft(irfft(v)^2)."""
        u = _lapack.c2r(v, (0,), self.modes, False, 0, self.u, 1)
        u *= u
        return _lapack.r2c(u, (0,), True, 0, self.p, 1)[:self.band]

    def advance(self, state, out):
        """Write one step from ``state`` into ``out`` (distinct arrays)."""
        b, half, stage, w = self.band, self.half, self.stage, self.w
        np.multiply(self.e_half, state, out=half)
        np.multiply(self.e_full, state, out=out)  # out holds full until the end
        p = self._square(state)
        np.multiply(self.c1, p, out=self.acc)
        for weight, base, after in ((self.w2, half, self.c23),
                                    (self.w3, half, self.c23),
                                    (self.w4, out, self.c4)):
            np.add(base[:b], np.multiply(weight, p, out=w), out=stage[:b])
            stage[b:] = base[b:]
            p = self._square(stage)
            self.acc += np.multiply(after, p, out=w)
        out[:b] += self.acc
        return out


def step(state, cfg):
    """One integrating-factor RK4 step of the half-spectrum ``rfft(u)``.

    Returns a new array; ``state`` is left unchanged."""
    state = np.asarray(state, dtype=complex)
    if state.size != cfg.modes // 2 + 1:
        raise DomainError("state length must equal cfg.modes // 2 + 1")
    return _Stepper(cfg).advance(state, np.empty_like(state))


def run(params0, cfg):
    """Integrate from the soliton profile; returns [(t, GridField), ...].

    Aborts on non-finite modes; raises if significant amplitude reaches the
    edges of the periodic box.  Logs modes, steps, dt and timing at debug
    level on the ``bo_soliton.pde`` logger.
    """
    t0 = time.perf_counter()
    x = cfg.grid()
    u0 = profile_values(params0, x)
    dt = cfg.dt

    n_steps = int(round(cfg.t_end / dt))
    every = int(round(cfg.snapshot_dt / dt))

    def snap(i, state):
        u = _lapack.c2r(state, (0,), cfg.modes, False, 2, None, 1)  # irfft
        if not np.all(np.isfinite(u)):
            raise BlowupDetected(f"non-finite field at t = {i * dt:.6g}")
        edge = max(abs(u[0]), abs(u[-1]))
        if edge > 1e-4:
            raise BoundaryContamination(
                f"edge magnitude {edge:.3e} at t = {i * dt:.6g}")
        return (i * dt, GridField(float(x[0]), cfg.dx, u))

    state = _lapack.r2c(u0, (0,), True, 0, None, 1)  # rfft
    spare = np.empty_like(state)
    out = [snap(0, state)]
    # after the first transforms: pocketfft's cached plan, allocated amid
    # the stepper's workspace, kept about 1.5 MB of heap resident
    stepper = _Stepper(cfg)
    # a blow-up overflows the squares, then turns them into NaN; the next
    # snapshot raises BlowupDetected for it, which numpy's warnings would
    # precede, or replace where warnings are errors
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_steps + 1):
            state, spare = stepper.advance(state, spare), state
            if i % every == 0 or i == n_steps:
                out.append(snap(i, state))
    wall = time.perf_counter() - t0
    log.debug("run: %d modes, %d steps, dt %g, %.3f s, %.3f ms/step",
              cfg.modes, n_steps, dt, wall, 1e3 * wall / max(n_steps, 1))
    return out


def compare(pde_field, explicit_field):
    """(relative L2, absolute sup) difference on a shared grid."""
    if not pde_field.same_grid(explicit_field):
        raise GridMismatch("fields live on different grids")
    diff = pde_field.values - explicit_field.values
    ref = np.linalg.norm(explicit_field.values)
    l2_rel = float(np.linalg.norm(diff) / ref) if ref > 0 else float(
        np.linalg.norm(diff))
    return l2_rel, float(np.abs(diff).max())

