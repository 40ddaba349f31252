import errno
import os
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from bo_soliton import tableio
from bo_soliton.tableio import (ROWS_PER_CHUNK, all_or_none, fmt, write_csv,
                                write_xy)

EDGE = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                 0.1, 1 / 3, 2.0 ** 60 + 2.0 ** 8, 3.0, -7.0])


def per_value_body(*columns):
    return "".join(",".join(fmt(v) for v in row) + "\n"
                   for row in zip(*columns))


@pytest.mark.parametrize("width", [1, 2, 4])
def test_write_xy_bytes_match_fmt(tmp_path, width):
    columns = (EDGE, EDGE[::-1], np.roll(EDGE, 4), -np.roll(EDGE, 7))[:width]
    header = ("x", "u", "r", "alpha")[:width]
    path = tmp_path / "xy.csv"
    write_xy(str(path), header, *columns)
    assert path.read_bytes() == (",".join(header) + "\n"
                                 + per_value_body(*columns)).encode()


def test_write_xy_integer_input(tmp_path):
    xs = np.arange(-3, 4)
    ys = [10 ** 20, 0, -1, 2 ** 53 + 1, 5, 6, 7]
    path = tmp_path / "ints.csv"
    write_xy(str(path), ("x", "u"), xs, ys)
    assert path.read_bytes() == ("x,u\n" + per_value_body(xs, ys)).encode()


def test_write_csv_rows(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [(str(j), fmt(v)) for j, v in enumerate(EDGE)]
    write_csv(str(path), ("j", "v"), iter(rows))
    body = "".join(f"{j},{v}\n" for j, v in rows)
    assert path.read_bytes() == ("j,v\n" + body).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def as_kind(kind):
    """EDGE, nan and +-inf as ``kind``: np.float32 rounds (1e308 to inf),
    an integer kind keeps the values it can hold."""
    out = []
    for v in [*EDGE.tolist(), np.nan, np.inf, -np.inf]:
        with np.errstate(over="ignore"):
            try:
                out.append(kind(v))
            except (ValueError, OverflowError):
                pass
    return out


@pytest.mark.parametrize("kind", [float, np.float64, np.float32, np.int64,
                                  int, bool])
def test_fmt_is_float_then_17_digits(kind):
    values = as_kind(kind)
    assert values and all(type(v) is kind for v in values)
    for v in values:
        assert fmt(v) == f"{float(v):.17g}"


@pytest.mark.parametrize("rows", [
    lambda: [(str(j), fmt(v)) for j, v in enumerate(EDGE)],
    lambda: ((str(j), fmt(v)) for j, v in enumerate(EDGE)),
    lambda: [],
], ids=["list", "generator", "header-only"])
def test_write_csv_bytes(tmp_path, rows):
    path = tmp_path / "rows.csv"
    write_csv(str(path), ("j", "v"), rows())
    body = "".join(f"{j},{v}\n" for j, v in rows())
    assert path.read_bytes() == ("j,v\n" + body).encode()


def test_write_error_names_the_output(tmp_path):
    path = str(tmp_path / "missing" / "u.csv")
    with pytest.raises(FileNotFoundError) as info:
        write_xy(path, ("x",), [1.0])
    assert info.value.filename == path
    assert str(info.value).endswith(f"'{path}'")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["022", "077"])
def test_written_file_follows_the_umask(tmp_path, umask, mode):
    path = tmp_path / "u.csv"
    previous = os.umask(umask)
    try:
        write_xy(str(path), ("x",), [1.0])
        first = path.stat().st_mode & 0o777
        write_xy(str(path), ("x",), [2.0])  # an overwrite, too
    finally:
        os.umask(previous)
    assert first == path.stat().st_mode & 0o777 == mode


def test_all_or_none_replaces_when_the_block_ends(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("old")
    with all_or_none(str(tmp_path)):
        write_xy(str(path), ("x",), [1.0])
        write_xy(str(tmp_path / "v.csv"), ("x",), [2.0])
        assert path.read_text() == "old"
        assert not (tmp_path / "v.csv").exists()
    assert path.read_text() == "x\n1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["u.csv", "v.csv"]


def test_all_or_none_failure_touches_no_path(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("old")
    with pytest.raises(ZeroDivisionError):
        with all_or_none(str(tmp_path / "new")):
            write_xy(str(path), ("x",), [1.0])
            os.mkdir(tmp_path / "new")
            write_xy(str(tmp_path / "new" / "v.csv"), ("x",), [2.0])
            1 / 0
    assert [p.name for p in tmp_path.iterdir()] == ["u.csv"]
    assert path.read_text() == "old"


C = ROWS_PER_CHUNK
ROW_COUNTS = [0, 1, C - 1, C, C + 1, 3 * C + 7]


def numbered_columns(n, width):
    """``width`` columns of ``n`` rows: the row number over 7, so that every
    row differs, then EDGE repeated and rolled."""
    return [np.arange(n) / 7] + [np.resize(np.roll(EDGE, 3 * k), n)
                                 for k in range(1, width)]


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("width", [1, 2, 4])
def test_write_xy_across_chunk_boundaries(tmp_path, width, n):
    columns = numbered_columns(n, width)
    header = ("x", "u", "r", "alpha")[:width]
    path = tmp_path / "xy.csv"
    write_xy(str(path), header, *columns)
    assert path.read_bytes() == (",".join(header) + "\n"
                                 + per_value_body(*columns)).encode()


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("kind", ["list", "generator"])
def test_write_csv_across_chunk_boundaries(tmp_path, kind, n):
    js, vs = range(n), numbered_columns(n, 2)[1]
    rows = [(str(j), fmt(v)) for j, v in zip(js, vs)]
    path = tmp_path / "rows.csv"
    write_csv(str(path), ("j", "v"),
              rows if kind == "list" else (row for row in rows))
    assert path.read_bytes() == ("j,v\n" + per_value_body(js, vs)).encode()


@pytest.mark.parametrize("columns", [([], [1.0]), ([1.0, 2.0], [1.0]),
                                     ([1.0], [1.0, 2.0]), ([[1.0, 2.0]],)],
                         ids=["empty-first", "longer-first", "shorter-first",
                              "2-d"])
def test_write_xy_refuses_unequal_columns_before_staging(tmp_path,
                                                         monkeypatch, columns):
    def no_staging(*args, **kwargs):
        raise AssertionError("a temporary file was made")

    monkeypatch.setattr(tableio.tempfile, "mkstemp", no_staging)
    with pytest.raises(ValueError):
        write_xy(str(tmp_path / "u.csv"), ("x", "u")[:len(columns)], *columns)
    assert list(tmp_path.iterdir()) == []


def rows_then(error, directory, n):
    """``n`` rows, then ``error``, raised once a temporary file holds the
    chunks written so far."""
    for j in range(n):
        yield str(j), "0"
    staged = [p for p in directory.iterdir() if p.name.endswith(".tmp")]
    assert len(staged) == 1 and staged[0].stat().st_size > 0
    raise error


@pytest.mark.parametrize("error", [ValueError("bad row"),
                                   OSError(errno.EIO, "a row read failed")],
                         ids=["ValueError", "OSError"])
@pytest.mark.parametrize("block", [False, True], ids=["alone", "all_or_none"])
def test_failure_mid_stream_touches_no_path(tmp_path, block, error):
    path = tmp_path / "u.csv"
    path.write_bytes(b"old")
    with pytest.raises(type(error)) as info:
        with all_or_none(str(tmp_path)) if block else nullcontext():
            write_csv(str(path), ("j", "v"),
                      rows_then(error, tmp_path, 2 * C + 5))
    # raised as it is: an error of the rows is not relabelled with the path
    assert info.value is error
    assert [p.name for p in tmp_path.iterdir()] == ["u.csv"]
    assert path.read_bytes() == b"old"


class FullDisk:
    """A staged file whose write, or only its close (the last flush), fails
    as on a full disk; a buffered file retries a failed flush on close."""

    def __init__(self, fail):
        self.fail = fail

    def write(self, text):
        if self.fail == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def close(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@pytest.mark.parametrize("fail", ["write", "close"])
def test_a_full_disk_names_the_output(tmp_path, monkeypatch, fail):
    def fdopen(fd, *args, **kwargs):
        os.close(fd)
        return FullDisk(fail)

    monkeypatch.setattr(tableio.os, "fdopen", fdopen)
    path = str(tmp_path / "u.csv")
    with pytest.raises(OSError) as info:
        write_xy(path, ("x", "u"), np.arange(3 * C), np.arange(3 * C))
    assert info.value.errno == errno.ENOSPC and info.value.filename == path
    assert list(tmp_path.iterdir()) == []


def traced_peak(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_memory_is_bounded_by_the_chunk(tmp_path):
    xs = np.linspace(-50, 50, 200_000)
    us = np.sin(xs)
    path = str(tmp_path / "u.csv")
    assert traced_peak(lambda: write_xy(path, ("x", "u"), xs, us)) < 2e6
    rows = [(fmt(x), fmt(u)) for x, u in zip(xs[:20_000], us[:20_000])]
    assert traced_peak(lambda: write_csv(path, ("x", "u"), rows)) < 1e6
