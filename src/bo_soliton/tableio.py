"""Every file the package writes, each replaced atomically: CSV tables
(17-significant-digit floats, LF endings), frame files and plot scripts."""

import os
import tempfile
from contextlib import contextmanager, suppress

import numpy as np

from .errors import DomainError


def fmt(v):
    return f"{float(v):.17g}"


def _write_atomic(path, text):
    """Write the text to a temporary file, then rename; an OSError names
    ``path``, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = ""
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
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


def write_frames(outdir, times, frame, written):
    """Write frame(t) = (xs, us) for each t of ``times`` as
    outdir/frame_t<t>.csv, and append each path to ``written`` once it is
    written (see ``all_or_none``); returns the path of each time, as a dict
    {path: t} in the order of ``times``.

    All names are fixed before anything is written, ``outdir`` included.
    ``times`` may be any iterable, and is read only up to the first time
    whose name at four decimals repeats an earlier one, which raises a
    DomainError.
    """
    paths = {}
    for t in times:
        path = os.path.join(outdir, f"frame_t{t:.4f}.csv")
        if path in paths:
            raise DomainError(f"two frame times share the file {path}")
        paths[path] = t
    os.makedirs(outdir, exist_ok=True)
    for path, t in paths.items():
        write_xy(path, ("x", "u"), *frame(t))
        written.append(path)
    return paths


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
