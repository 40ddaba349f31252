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
each nonlinear evaluation is one ``irfft``/``rfft`` pair.  The Nyquist entry
is the one mode whose propagator is not conjugate-symmetric; ``irfft`` keeps
only its real part, which is what the real part of a full complex inverse
keeps too.  The derivative, the dealiasing mask and the sign are folded into
one multiplier g = -i k [|k| <= (2/3) max|k|], built once per run.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowupDetected,
    BoundaryContamination,
    DomainError,
    GridMismatch,
)
from .profiles import GridField, profile_values
from .tableio import write_frames

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
        if m < 256 or (m & (m - 1)) != 0:
            raise DomainError("modes must be a power of two, at least 256")
        if not (self.dt > 0 and self.t_end >= 0):
            raise DomainError("need dt > 0 and t_end >= 0")
        if not (self.domain_half_width > 0):
            raise DomainError("domain half-width must be positive")

    @property
    def dx(self):
        return 2 * self.domain_half_width / self.modes

    def grid(self):
        return -self.domain_half_width + self.dx * np.arange(self.modes)

    def wavenumbers(self):
        """Wavenumbers k >= 0 of the half-spectrum, ``modes // 2 + 1`` of them."""
        return 2 * np.pi * np.fft.rfftfreq(self.modes, d=self.dx)


def _propagators(cfg):
    """The folded nonlinear multiplier g = -i k (2/3-rule mask) and the
    exact linear propagators exp(i |k| k t) = exp(i k^2 t) over a full step
    and a half step, all on the half-spectrum k >= 0."""
    k = cfg.wavenumbers()
    g = -1j * k * (k <= (2.0 / 3.0) * k.max())
    e_full = np.exp(1j * k * k * cfg.dt)
    e_half = np.exp(1j * k * k * (cfg.dt / 2))
    return g, e_full, e_half


def _nonlinear(state, g):
    # modes is even, so irfft's default length 2 (len(state) - 1) is modes
    u = np.fft.irfft(state)
    return g * np.fft.rfft(u * u)


def _rk4(state, dt, g, e_full, e_half):
    """One integrating-factor RK4 step with precomputed propagators."""
    half = e_half * state
    full = e_full * state
    n1 = _nonlinear(state, g)
    n2 = _nonlinear(half + (dt / 2) * e_half * n1, g)
    n3 = _nonlinear(half + (dt / 2) * n2, g)
    n4 = _nonlinear(full + dt * e_half * n3, g)
    return full + (dt / 6) * (e_full * n1 + 2 * e_half * (n2 + n3) + n4)


def step(state, cfg):
    """One integrating-factor RK4 step of the half-spectrum ``rfft(u)``."""
    state = np.asarray(state, dtype=complex)
    if state.size != cfg.modes // 2 + 1:
        raise DomainError("state length must equal cfg.modes // 2 + 1")
    return _rk4(state, cfg.dt, *_propagators(cfg))


def run(params0, cfg):
    """Integrate from the soliton profile; returns [(t, GridField), ...].

    Aborts on non-finite modes; raises if significant amplitude reaches the
    edges of the periodic box.  Logs modes, steps, dt and timing at debug
    level on the ``bo_soliton.pde`` logger.
    """
    t0 = time.perf_counter()
    x = cfg.grid()
    u0 = profile_values(params0, x)
    prop = _propagators(cfg)
    dt = cfg.dt

    n_steps = int(round(cfg.t_end / dt))
    every = max(1, int(round(cfg.snapshot_dt / dt)))

    def snap(i, state):
        u = np.fft.irfft(state)
        if not np.all(np.isfinite(u)):
            raise BlowupDetected(f"non-finite field at t = {i * dt:.6g}")
        edge = max(abs(u[0]), abs(u[-1]))
        if edge > 1e-4:
            raise BoundaryContamination(
                f"edge magnitude {edge:.3e} at t = {i * dt:.6g}")
        return (i * dt, GridField(float(x[0]), cfg.dx, u))

    state = np.fft.rfft(u0)
    out = [snap(0, state)]
    for i in range(1, n_steps + 1):
        state = _rk4(state, dt, *prop)
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


def write_snapshots(snapshots, outdir):
    """Dump (t, GridField) pairs as frame_t<t>.csv files; returns the paths."""
    return write_frames(outdir, ((t, f.xs(), f.values) for t, f in snapshots))
