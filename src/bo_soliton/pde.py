"""Pseudospectral reference integrator on a large periodic domain.

The equation u_t = H u_xx - (u^2)_x becomes, mode by mode,

    d/dt uhat(k) = i |k| k uhat(k) - i k (u^2)^hat(k),

so the Hilbert transform is the multiplier -i sign(k) and the linear part is
purely dispersive.  Time stepping is integrating-factor RK4 with the exact
propagator exp(i |k| k dt); the quadratic term is 2/3-rule dealiased.
"""

from __future__ import annotations

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
        return 2 * np.pi * np.fft.fftfreq(self.modes, d=self.dx)


def _propagators(cfg):
    """Wavenumbers, the 2/3-rule dealias mask, and the exact linear
    propagators exp(i |k| k t) over a full step and a half step."""
    k = cfg.wavenumbers()
    mask = np.abs(k) <= (2.0 / 3.0) * np.abs(k).max()
    e_full = np.exp(1j * np.abs(k) * k * cfg.dt)
    e_half = np.exp(1j * np.abs(k) * k * (cfg.dt / 2))
    return k, mask, e_full, e_half


def _nonlinear(state, k, mask):
    u = np.fft.ifft(state).real
    return -1j * k * (np.fft.fft(u * u) * mask)


def _rk4(state, dt, k, mask, e_full, e_half):
    """One integrating-factor RK4 step with precomputed propagators."""
    n1 = _nonlinear(state, k, mask)
    u2 = e_half * state + (dt / 2) * e_half * n1
    n2 = _nonlinear(u2, k, mask)
    u3 = e_half * state + (dt / 2) * n2
    n3 = _nonlinear(u3, k, mask)
    u4 = e_full * state + dt * e_half * n3
    n4 = _nonlinear(u4, k, mask)
    return e_full * state + (dt / 6) * (e_full * n1 + 2 * e_half * (n2 + n3) + n4)


def step(state, cfg):
    """One integrating-factor RK4 step of the spectral state."""
    state = np.asarray(state, dtype=complex)
    if state.size != cfg.modes:
        raise DomainError("state length must equal cfg.modes")
    return _rk4(state, cfg.dt, *_propagators(cfg))


def run(params0, cfg):
    """Integrate from the soliton profile; returns [(t, GridField), ...].

    Aborts on non-finite modes; raises if significant amplitude reaches the
    edges of the periodic box.
    """
    x = cfg.grid()
    u0 = profile_values(params0, x)
    prop = _propagators(cfg)
    dt = cfg.dt

    n_steps = int(round(cfg.t_end / dt))
    every = max(1, int(round(cfg.snapshot_dt / dt)))

    def snap(i, state):
        u = np.fft.ifft(state).real
        if not np.all(np.isfinite(u)):
            raise BlowupDetected(f"non-finite field at t = {i * dt:.6g}")
        edge = max(abs(u[0]), abs(u[-1]))
        if edge > 1e-4:
            raise BoundaryContamination(
                f"edge magnitude {edge:.3e} at t = {i * dt:.6g}")
        return (i * dt, GridField(float(x[0]), cfg.dx, u))

    state = np.fft.fft(u0)
    out = [snap(0, state)]
    for i in range(1, n_steps + 1):
        state = _rk4(state, dt, *prop)
        if i % every == 0 or i == n_steps:
            out.append(snap(i, state))
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
