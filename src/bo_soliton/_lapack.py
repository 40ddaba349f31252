"""The LAPACK and BLAS routines of :mod:`spectral` and :mod:`action_angle`:
scipy's own f2py wrappers, from its compiled ``_flapack`` and ``_fblas``
extensions.  Importing scipy.linalg to reach them takes 0.15-0.2 s, mostly
in scipy's array-API layer, so each extension is loaded straight from
scipy's installed ``linalg`` directory (about 5 ms for both) and registered
in ``sys.modules`` under its own name; an entry already there is reused, so
a later ``import scipy.linalg`` shares the same module objects.  A missing
extension raises ImportError naming the directories searched.  ``synth``,
``torus`` and :mod:`pde` call no LAPACK, so the extensions load when a
routine name is first read (PEP 562); every routine is then a module
global.  No other module of the package reaches scipy.
"""

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec, spec_from_file_location

ROUTINES = {"_flapack": ("zgees", "zgeev", "zheevd", "ztrsyl"),
            "_fblas": ("zgemm", "ztrmm")}


def _extension(name):
    """The module ``scipy.linalg.<name>``, from ``sys.modules`` or loaded
    from the ``linalg`` directory of the installed scipy, which
    ``find_spec("scipy")`` locates without importing it."""
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    scipy = find_spec("scipy")
    dirs = [os.path.join(path, "linalg")
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
    if not any(name in names for names in ROUTINES.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for extension, names in ROUTINES.items():
        module = _extension(extension)
        globals().update((routine, getattr(module, routine))
                         for routine in names)
    return globals()[name]
