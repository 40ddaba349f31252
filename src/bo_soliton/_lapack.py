"""The compiled routines the package takes from scipy: the LAPACK and BLAS
routines of :mod:`spectral` and :mod:`action_angle`, from scipy's f2py
extensions ``scipy/linalg/_flapack`` and ``_fblas``, and the real FFTs of
:mod:`pde`, from scipy's pocketfft extension
``scipy/fft/_pocketfft/pypocketfft``.  Importing scipy.linalg to reach the
first two takes 0.15-0.2 s, mostly in scipy's array-API layer, and
scipy.fft goes through the same layer, so each extension is loaded straight
from its directory in the installed scipy (a few ms each) and registered in
``sys.modules`` under its own name; an entry already there is reused, so a
later ``import scipy.linalg`` or ``import scipy.fft`` shares the same module
objects.  A missing extension raises ImportError naming the directories
searched.  An extension loads when one of its routine names is first read
(PEP 562), and only that extension: ``synth`` and ``torus`` load none,
:mod:`pde` no LAPACK and :mod:`spectral` no pocketfft.  Every routine is
then a module global.  No other module of the package reaches scipy.
"""

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec, spec_from_file_location

ROUTINES = {"_flapack": ("zgees", "zgeev", "zheevd", "ztrsyl"),
            "_fblas": ("zgemm", "ztrmm"),
            "pypocketfft": ("r2c", "c2r")}
# the package of each extension, under scipy
PACKAGES = {"_flapack": "linalg", "_fblas": "linalg",
            "pypocketfft": "fft._pocketfft"}


def _extension(name):
    """The module ``scipy.<package>.<name>``, from ``sys.modules`` or loaded
    from the package's directory in the installed scipy, which
    ``find_spec("scipy")`` locates without importing it."""
    package = PACKAGES[name]
    qualified = f"scipy.{package}.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    scipy = find_spec("scipy")
    dirs = [os.path.join(path, *package.split("."))
            for path in scipy.submodule_search_locations] if scipy else []
    found = PathFinder.find_spec(name, dirs)
    if found is None:
        raise ImportError(f"no scipy extension {name} in {dirs}",
                          name=qualified)
    spec = spec_from_file_location(qualified, found.origin)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[qualified] = module
    return module


def __getattr__(name):
    for extension, names in ROUTINES.items():
        if name in names:
            module = _extension(extension)
            globals().update((routine, getattr(module, routine))
                             for routine in names)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
