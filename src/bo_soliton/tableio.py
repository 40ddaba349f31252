"""Shared CSV output helpers: 17-significant-digit floats, LF endings,
atomic replace, and the (x, y) frame files of profiles and evolutions."""

import os
import tempfile

import numpy as np


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


def write_frames(outdir, frames):
    """Write each (t, xs, us) as outdir/frame_t<t>.csv; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for t, xs, us in frames:
        paths.append(os.path.join(outdir, f"frame_t{t:.4f}.csv"))
        write_xy(paths[-1], ("x", "u"), xs, us)
    return paths
