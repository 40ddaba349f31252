"""Every file the package writes, each replaced atomically: CSV tables
(17-significant-digit floats, LF endings) and plot scripts.  Only writers
and ``all_or_none`` live here; which files to write is the caller's choice."""

import os
import tempfile
from contextlib import contextmanager, suppress

import numpy as np


def fmt(v):
    return f"{float(v):.17g}"


def _write_atomic(path, text):
    """Write the text to a temporary file, then rename; an OSError names
    ``path``, not the temporary file.  The file gets the mode that ``open``
    gives a new file, 0o666 less the umask, where mkstemp makes it 0o600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = ""
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(path, header, rows):
    """Atomic CSV write: header plus rows of already-formatted strings."""
    _write_atomic(path, "".join(",".join(row) + "\n"
                                for row in (header, *rows)))


def write_xy(path, header, *columns):
    """Atomic numeric table: the header, then one row per point across the
    equal-length ``columns`` (two for an (x, y) frame).

    The body is one ``%`` format over the interleaved values, which gives
    the same bytes as ``fmt`` applied to each value.
    """
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    _write_atomic(path, ",".join(header) + "\n"
                  + (row * len(table)) % tuple(table.ravel().tolist()))


@contextmanager
def all_or_none(outdir):
    """Yield a list for the files that a block writes, into ``outdir`` or
    elsewhere.

    If the block raises, each listed file is removed, then each directory
    of the path of ``outdir`` that was missing on entry, innermost first and
    only if empty; then the error propagates.  Files not listed stay.
    """
    missing = []
    path = os.path.abspath(outdir)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    written = []
    try:
        yield written
    except BaseException:
        for path in written:
            with suppress(OSError):
                os.unlink(path)
        for path in missing:
            with suppress(OSError):
                os.rmdir(path)
        raise


def write_plot_script(path, csv_paths, ylabel):
    """A standalone matplotlib script that plots each CSV of ``csv_paths``."""
    lines = [
        "#!/usr/bin/env python3",
        "import matplotlib.pyplot as plt",
        "import numpy as np",
        "",
        f"files = {[os.path.abspath(p) for p in csv_paths]!r}",
        "for f in files:",
        "    data = np.genfromtxt(f, delimiter=',', names=True)",
        "    cols = data.dtype.names",
        "    plt.plot(data[cols[0]], data[cols[1]], label=f)",
        "plt.xlabel('x')",
        f"plt.ylabel({ylabel!r})",
        "plt.legend(fontsize=6)",
        "plt.show()",
    ]
    _write_atomic(path, "\n".join(lines) + "\n")
