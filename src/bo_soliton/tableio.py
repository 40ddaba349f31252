"""Every file the package writes, each replaced atomically: CSV tables
(17-significant-digit floats, LF endings) and plot scripts.  Only writers
and ``all_or_none`` live here; which files to write is the caller's choice.

Every writer takes one path: it stages its file as a temporary file beside
the output, then renames that onto the output, at once or, inside
``all_or_none``, when the block ends.  A writer formats and writes
``ROWS_PER_CHUNK`` rows at a time, so its memory is O(chunk), not O(file);
it writes its whole file before it returns."""

import errno
import os
import tempfile
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from itertools import islice

import numpy as np

# rows a writer formats and writes at a time: 2048 rows of an (x, u) frame
# are about 80 KB of text, below glibc's 128 KB mmap threshold, so no chunk
# is mapped and faulted in anew (4096 rows cost about 0.6 ms more per
# 2e4-row frame when that threshold is fixed, and the same otherwise)
ROWS_PER_CHUNK = 2048
# the (temporary, path) pairs staged inside the innermost all_or_none block
_pending = ContextVar("pending", default=None)
# looked up once: fmt runs once per value of a frame
_float_format = float.__format__


def fmt(v):
    """17 significant digits: ``f"{float(v):.17g}"``.  A float, np.float64
    among them, is formatted as it is; anything else (int, bool,
    np.float32) is converted by ``float`` first."""
    try:
        return _float_format(v, ".17g")
    except TypeError:
        return f"{float(v):.17g}"


@contextmanager
def _naming(path):
    """Re-raise an OSError as one that names ``path``, not a temporary file."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def _stage(path, chunks):
    """Write the chunks, an iterable of strings, to a new temporary file
    beside ``path``; return its name.

    The temporary name is the base name of ``path`` plus a suffix, so a base
    name too long for the file system fails here, and so does a directory
    at ``path``: what is left is a rename.  The file gets the mode that
    ``open`` gives a new file, 0o666 less the umask, where mkstemp makes it
    0o600.  If anything raises, the temporary file is removed; an OSError of
    the file system names ``path``, and an error raised while a chunk is
    made (say, by a caller's rows) propagates as it is.
    """
    umask = os.umask(0)
    os.umask(umask)
    with _naming(path):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=os.path.basename(path) + ".",
                                   suffix=".tmp")
    try:
        fh = os.fdopen(fd, "w", newline="")
        try:
            # each chunk is made outside _naming, so that an error of the
            # caller's rows is not relabelled
            for chunk in chunks:
                with _naming(path):
                    fh.write(chunk)
        finally:
            with _naming(path):
                fh.close()
        with _naming(path):
            os.chmod(tmp, 0o666 & ~umask)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _discard(staged):
    for tmp, _ in staged:
        with suppress(OSError):
            os.unlink(tmp)


def _commit(staged):
    """Rename each staged temporary onto its path, in order; if a rename
    fails, the temporaries left are removed and its error names its path."""
    try:
        for tmp, path in staged:
            with _naming(path):
                os.replace(tmp, path)
    except BaseException:
        _discard(staged)
        raise


def _write_atomic(path, chunks):
    """Stage the chunks for ``path``, then rename the file there: at once,
    or when the enclosing ``all_or_none`` block ends."""
    staged = (_stage(path, chunks), path)
    pending = _pending.get()
    if pending is None:
        _commit([staged])
    else:
        pending.append(staged)


def write_csv(path, header, rows):
    """Atomic CSV write: header plus rows of already-formatted strings.

    ``rows`` may be any iterable, a generator among them; it is read
    ``ROWS_PER_CHUNK`` rows at a time and never held whole.
    """
    rows = iter(rows)

    def chunks():
        yield ",".join(header) + "\n"
        while block := list(islice(rows, ROWS_PER_CHUNK)):
            yield "\n".join(map(",".join, block)) + "\n"

    _write_atomic(path, chunks())


def write_xy(path, header, *columns):
    """Atomic numeric table: the header, then one row per point across the
    equal-length ``columns`` (two for an (x, y) frame).

    The columns are converted to 1-D float arrays and checked to have one
    length before anything is staged (else ValueError).  Each block of
    ``ROWS_PER_CHUNK`` rows is one ``%`` format over its interleaved
    values, which gives the same bytes as ``fmt`` applied to each value.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if not columns or any(c.ndim != 1 or len(c) != len(columns[0])
                          for c in columns):
        raise ValueError("write_xy needs 1-D columns of one length, got "
                         f"shapes {[c.shape for c in columns]}")
    row = ",".join(["%.17g"] * len(columns)) + "\n"

    def chunks():
        yield ",".join(header) + "\n"
        for start in range(0, len(columns[0]), ROWS_PER_CHUNK):
            block = np.column_stack([c[start:start + ROWS_PER_CHUNK]
                                     for c in columns])
            yield (row * len(block)) % tuple(block.ravel().tolist())

    _write_atomic(path, chunks())


@contextmanager
def all_or_none(outdir):
    """Write every file of a block, into ``outdir`` or elsewhere, or none.

    Each file a writer of this module writes in the block is staged; when
    the block ends, each is renamed onto its path, in the order written.
    If the block raises, the staged files are removed, then each directory
    of the path of ``outdir`` that was missing on entry, innermost first and
    only if empty; then the error propagates, and no output path was
    touched.  Only a rename failing after the staging (say, another process
    making a directory at a path) leaves the files renamed before it.
    """
    missing = []
    path = os.path.abspath(outdir)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    staged = []
    token = _pending.set(staged)
    try:
        try:
            yield
        finally:
            _pending.reset(token)
        _commit(staged)
    except BaseException:
        _discard(staged)
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
    _write_atomic(path, ["\n".join(lines) + "\n"])
