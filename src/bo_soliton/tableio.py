"""Shared CSV output helpers: 17-significant-digit floats, LF endings,
atomic replace, and the (x, y) frame files of profiles and evolutions."""

import os
import tempfile

import numpy as np

from .errors import DomainError


def fmt(v):
    return f"{float(v):.17g}"


def _write_atomic(path, header, body):
    """Write the header line and the body to a temporary file, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Atomic CSV write: header plus rows of already-formatted strings."""
    _write_atomic(path, header, "".join(",".join(row) + "\n" for row in rows))


def write_xy(path, header, xs, ys):
    """Atomic two-column table: the header, then one (x, y) row per point.

    The body is one ``%`` format over the interleaved values, which gives
    the same bytes as ``fmt`` applied to each value.
    """
    pairs = np.column_stack((np.asarray(xs, dtype=float),
                             np.asarray(ys, dtype=float)))
    body = ("%.17g,%.17g\n" * len(pairs)) % tuple(pairs.ravel().tolist())
    _write_atomic(path, header, body)


def write_frames(outdir, times, frame):
    """Write frame(t) = (xs, us) for each t of ``times`` as
    outdir/frame_t<t>.csv; returns the path of each time, as a dict
    {path: t} in the order of ``times``.

    All names are fixed before anything is written.  ``times`` may be any
    iterable, and is read only up to the first time whose name at four
    decimals repeats an earlier one, which raises a DomainError.
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
    return paths
