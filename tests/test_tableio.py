import os

import numpy as np
import pytest

from bo_soliton.tableio import all_or_none, fmt, write_csv, write_xy

EDGE = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                 0.1, 1 / 3, 2.0 ** 60 + 2.0 ** 8, 3.0, -7.0])


def per_value_body(*columns):
    return "".join(",".join(fmt(v) for v in row) + "\n"
                   for row in zip(*columns))


@pytest.mark.parametrize("width", [2, 4])
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
