"""The binding of scipy's compiled extensions: its own LAPACK, BLAS and
pocketfft routines, without scipy.linalg or scipy.fft."""

import sys
from importlib.machinery import ModuleSpec

import pytest

from bo_soliton import _lapack
from test_startup import run_fresh

# Binds the routines first, then imports scipy.linalg and scipy.fft: each
# routine must be the very object scipy exposes, and give the same bits on a
# few matrices; so must the Schur form of the resolvent pairing.  The real
# FFTs must give the same bits as numpy's, the inverse normalised by 1/n.
SAME_ROUTINES = """
import sys
import numpy as np
from bo_soliton import _lapack
from bo_soliton.action_angle import _resolvent_pairing, _unsorted
from bo_soliton.spectral import m_formula, mt_generator

def outputs(lapack, blas):
    rng = np.random.default_rng(7)
    out = []
    for n in (1, 3, 8):
        a, b = (np.asfortranarray(rng.normal(size=(n, n))
                                  + 1j * rng.normal(size=(n, n)))
                for _ in range(2))
        g = mt_generator(-np.arange(1, n + 1) * (0.5 + 1j))[0]
        lwork = int(lapack.zgees(_unsorted, a, lwork=-1)[-2][0].real)
        out += [lapack.zgees(_unsorted, a, lwork=lwork),
                lapack.zgeev(a, compute_vl=0, compute_vr=0),
                lapack.zheevd(a + a.conj().T, lower=1),
                lapack.ztrsyl(g, g, 1j * np.eye(n), trana="N", tranb="C",
                              isgn=-1),
                blas.zgemm(1.0, a, b, trans_a=2), blas.ztrmm(1.0, g, a)]
    return [np.asarray(x).tobytes() for call in out
            for x in (call if isinstance(call, tuple) else (call,))]

mine = outputs(_lapack, _lapack)
lam = -np.array([3.0, 2.0, 0.5, 0.25])
m = m_formula(lam, np.array([-1.0, 0.0, 2.0, 5.0]))
tri, q = _resolvent_pairing(m, lam, 0.3)[1]
rng = np.random.default_rng(11)
for n in (256, 1024, 2 ** 14):
    x = rng.normal(size=n)
    spectrum = _lapack.r2c(x, (0,), True, 0, None, 1)
    assert spectrum.tobytes() == np.fft.rfft(x).tobytes(), n
    back = _lapack.c2r(spectrum, (0,), n, False, 2, None, 1)
    assert back.tobytes() == np.fft.irfft(spectrum, n).tobytes(), n
assert not {"scipy.linalg", "scipy.fft"} & set(sys.modules)

import scipy.fft
import scipy.linalg
from scipy.fft._pocketfft import pypocketfft
from scipy.linalg import blas, lapack, schur

modules = {"_flapack": lapack, "_fblas": blas, "pypocketfft": pypocketfft}
for extension, names in _lapack.ROUTINES.items():
    for name in names:
        module = modules[extension]
        assert getattr(module, name) is getattr(_lapack, name), name
assert outputs(lapack, blas) == mine
ref_tri, ref_q = schur(m, output="complex")
assert tri.tobytes() == ref_tri.tobytes() and q.tobytes() == ref_q.tobytes()
print("same")
"""


def test_routines_are_scipys_own(tmp_path):
    assert run_fresh(SAME_ROUTINES, tmp_path).strip() == "same"


def test_missing_extension_names_the_directories(tmp_path, monkeypatch):
    # a scipy whose linalg and fft directories hold no compiled extension
    fake = ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(_lapack, "find_spec", lambda name: fake)
    for name, package in (("_flapack", "linalg"),
                          ("pypocketfft", "fft._pocketfft")):
        qualified = f"scipy.{package}.{name}"
        monkeypatch.delitem(sys.modules, qualified, raising=False)
        with pytest.raises(ImportError,
                           match=f"no scipy extension {name}") as info:
            _lapack._extension(name)
        assert str(tmp_path.joinpath(*package.split("."))) in str(info.value)
        assert qualified not in sys.modules
