"""The scipy.linalg routines of :mod:`spectral` and :mod:`action_angle`.

Importing scipy.linalg takes 0.15-0.3 s, more than a ``synth`` or ``torus``
run spends on everything else, and neither of those nor the pseudospectral
reference (:mod:`pde`) calls LAPACK.  So this module imports scipy.linalg
when one of its names is first read (PEP 562) and stores every routine as a
module global; each later read is a plain attribute lookup, with no import
statement on the call path.  No other module of the package imports scipy.
"""

ROUTINES = ("schur", "zgeev", "zgemm", "zheevd", "ztrmm", "ztrsyl")


def __getattr__(name):
    if name not in ROUTINES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import schur
    from scipy.linalg.blas import zgemm, ztrmm
    from scipy.linalg.lapack import zgeev, zheevd, ztrsyl

    globals().update(schur=schur, zgeev=zgeev, zgemm=zgemm, zheevd=zheevd,
                     ztrmm=ztrmm, ztrsyl=ztrsyl)
    return globals()[name]
