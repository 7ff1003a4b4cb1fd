"""Readers and writers for the harness's CSV and JSON files.

All text files are UTF-8 with LF line endings.  Floats are written with
17 significant digits; every double but a signed or payload NaN (read as
plain NaN) round-trips bit-exactly, so a rerun is byte-identical.  Points
are written in row blocks whose digits a numpy kernel makes, with
:func:`format_float` for the values it hands over (ties, inf, NaN, and
nonzero magnitudes off [1e-200, 1e200)); the bytes are
:func:`format_float`'s text of every value.  Both points parsers
split lines as ``str.splitlines`` does and skip whitespace-only ones.  A
line parser, which names a bad line, reads a file ``np.loadtxt`` rejects,
or with a width unlike its header's, a blank body, US, or non-UTF-8 bytes.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .estimator import _real_array
from .subspace import Subspace

__all__ = [
    "format_float",
    "write_points_csv",
    "read_points_csv",
    "write_truth_json",
    "read_truth_json",
    "write_rows_csv",
    "write_json",
]


def format_float(value):
    """Render a double with enough digits to round-trip, bar signed or payload NaNs."""
    return f"{float(value):.17g}"


# values per write_points_csv block, whatever D is: a block's scratch then
# stays in cache (1 << 16 wrote the cli-files set about 1.6x slower)
_BLOCK_CELLS = 1 << 14


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_points_csv(path, points):
    """Write row points with the header ``x0,...,x{D-1}``.

    Each value is written as :func:`format_float` writes it.
    """
    points = _real_array(points, "points")
    if points.ndim != 2 or 0 in points.shape:
        raise ValueError(f"points must be a 2-d array with rows and columns, got {points.shape}")
    width = points.shape[1]
    rows = max(1, _BLOCK_CELLS // width)
    seps = np.tile(np.frombuffer(b"," * (width - 1) + b"\n", np.uint8), rows)
    with open(path, "wb") as out:
        out.write(",".join(f"x{i}" for i in range(width)).encode() + b"\n")
        for start in range(0, len(points), rows):
            out.write(_format_block(points[start:start + rows].ravel(), seps))


# The points writer makes format_float's text in numpy.  A double v with
# 1e-200 <= |v| < 1e200 is written as the 17-digit integer n nearest to
# |v| * 10**(16 - e), e = floor(log10 |v|), with the point and exponent of
# %g.  That product is taken in double-double arithmetic: Dekker's exact
# product of |v| and the double nearest 10**(16 - e), plus |v| times the
# power's remainder.  It is within about 1e-14 of the exact product, so n is
# taken only where the product's fraction is more than _NEAR_HALF from 1/2.
# Every other value (ties and near ties, an n off [1e16, 1e17) where log10
# is off by one or rounding carries, other magnitudes, inf and NaN) goes
# through format_float.  Zeros, 2/5 of the values of a synth set with
# D = 20 and d = 4, are laid out with the exponent-0 group.
_SPLIT = 2.0**27 + 1  # Dekker's splitter of a double into two 26-bit halves
_NEAR_HALF = 1e-9
_PAD = 0  # no text has it, and it sorts below "." and "0" for _lay_out
_CELL = 25  # the sign and the longest %.17g text, 24 bytes, and a separator
_OTHER = 1000  # the sort key of format_float's values, after every exponent


def _ten_powers(low, high):
    """``(hi, hi_top, hi_bottom, lo)`` for 10**j, j = low..high: hi is the
    nearest double, hi_top + hi_bottom its Dekker split, and hi + lo is
    10**j within about 2**-106 of it.  CPython's int division rounds
    correctly."""
    hi, lo = [], []
    for j in range(low, high + 1):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        near = num / den
        near_num, near_den = near.as_integer_ratio()
        hi.append(near)
        lo.append((num * near_den - near_num * den) / (den * near_den))
    hi = np.array(hi)
    top = hi * _SPLIT - (hi * _SPLIT - hi)
    return np.stack([hi, top, hi - top, np.array(lo)])


# 10**(16 - e) for e = 200..-201 at column 200 - e: log10 of a magnitude in
# [1e-200, 1e200) floors to one of those
_TENS = _ten_powers(16 - 200, 16 + 201)


def _quad_texts():
    """The texts 0000..9999 as "<u4", then each with its trailing zeros padded out."""
    places = np.array([1000, 100, 10, 1], np.int16)
    text = (np.arange(10_000, dtype=np.int16)[:, None] // places % 10 + ord("0")).astype(np.uint8)
    trailing = np.logical_and.accumulate(text[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    padded = np.where(trailing, _PAD, text).astype(np.uint8)
    return np.concatenate([text, padded]).view("<u4").ravel()


_QUADS = _quad_texts()


def _format_block(values, seps):
    """The text of the flat ``values``, each followed by its byte of ``seps``."""
    size = values.size
    mag = np.abs(values)
    fast = (mag >= 1e-200) & (mag < 1e200)
    mag[~fast] = 1.0  # any magnitude in range: these digits are not used
    exp = np.floor(np.log10(mag)).astype(np.intp)
    hi, hi_top, hi_bottom, lo = _TENS.take(200 - exp, axis=1)
    prod = mag * hi
    top = mag * _SPLIT
    top -= top - mag
    bottom = mag - top
    rest = ((top * hi_top - prod) + top * hi_bottom + bottom * hi_top) + bottom * hi_bottom
    rest += mag * lo
    whole = prod + rest  # an integer wherever it is 2**53 or more
    rest -= whole - prod  # whole + rest is the product
    below = np.floor(rest)
    rest -= below
    digits = whole.astype(np.int64) + below.astype(np.int64)
    fast &= (np.abs(rest - 0.5) > _NEAR_HALF) & (digits >= 10**16)
    digits += rest > 0.5
    fast &= digits < 10**17
    zero = values == 0  # the digits 0 at exponent 0 (mag 1.0 above) lay out as "0"
    digits[zero] = 0
    fast |= zero

    key = np.where(fast, exp, _OTHER).astype(np.int16)
    order = np.argsort(key, kind="stable")  # one pass of groups by exponent
    key = key[order]
    bounds = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), size]
    text = _digit_text(digits[order[: np.count_nonzero(fast)]])
    cells = np.full((size, _CELL), _PAD, np.uint8)
    cells[:, 0] = np.signbit(values[order]) * np.uint8(ord("-"))
    for start, stop in zip(bounds, bounds[1:]):
        group = int(key[start])
        if group == _OTHER:
            other = [format_float(v) for v in values[order[start:stop]].tolist()]
            other = np.array(other, f"S{_CELL - 1}")  # padded with zero bytes, _PAD
            cells[start:stop, :-1] = other.view(np.uint8).reshape(stop - start, -1)
        else:
            _lay_out(cells[start:stop], text[start:stop], group)
    back = np.empty_like(order)
    back[order] = np.arange(size)
    out = cells.take(back, axis=0)
    out[:, -1] = seps[:size]
    out = out.reshape(-1)
    return out[out != _PAD]


def _digit_text(digits):
    """Rows of the 17 digits of each of ``digits``, trailing zeros padded out."""
    lead = digits // 10**16
    digits -= lead * 10**16
    high = digits // 10**8
    low = (digits - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    first, third = high // 10_000, low // 10_000
    second, fourth = high - first * 10_000, low - third * 10_000
    # the second half of _QUADS pads out trailing zeros: a quad takes it
    # where every later quad is zero
    padded = np.int32(10_000)
    quads = (
        lead,
        first + padded * ((second == 0) & (low == 0)),
        second + padded * (low == 0),
        third + padded * (fourth == 0),
        fourth + padded,
    )
    text = np.empty((len(lead), 5), "<u4")
    for col, quad in enumerate(quads):
        text[:, col] = _QUADS.take(quad)
    return text.view(np.uint8)[:, 3:]


def _lay_out(cells, text, exp):
    """Write the %g text of 17-digit ``text`` rows at decimal exponent ``exp``
    into ``cells`` after the sign column."""
    if exp < -4 or exp >= 17:
        head, point, tail = b"", 1, b"e%+03d" % exp
    elif exp < 0:
        head, point, tail = b"0." + b"0" * (-exp - 1), 0, b""
    else:
        head, point, tail = b"", exp + 1, b""
    col = 1 + len(head)
    cells[:, 1:col] = list(head)
    # the integer part keeps its zeros; the point goes where the fraction does
    cells[:, col:col + point] = np.maximum(text[:, :point], ord("0"))
    col += point
    if 0 < point < 17:
        cells[:, col] = np.minimum(text[:, point], ord("."))
        col += 1
    cells[:, col:col + 17 - point] = text[:, point:]
    col += 17 - point
    cells[:, col:col + len(tail)] = list(tail)


_BLOCK_CHARS = 1 << 16  # characters per read of a points file, then the rest of its line


def _split_lines(src):
    """The lines of an open text file, split as ``str.splitlines`` splits its text."""
    while block := src.read(_BLOCK_CHARS) + src.readline():
        if "\x1f" in block:  # US: numpy strips it as a space, float rejects it
            raise ValueError("unit separator")
        yield from block.splitlines()


def read_points_csv(path):
    """Read a points CSV back into an ``(N, D)`` float array.

    The first line is the header; malformed data lines are rejected with
    their line number, and every ``ValueError`` starts with the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as src:
            lines = _split_lines(src)
            width = len(next(lines, "").split(","))
            body = filter(str.strip, lines)
            first = next(body, None)  # numpy warns on an empty body
            if first is not None:
                points = np.loadtxt(chain([first], body), delimiter=",", ndmin=2, comments=None)
                if points.shape[1] == width:
                    return points
    except ValueError:
        pass  # the line parser below names the line, or the bytes that are not UTF-8
    try:
        with open(path, "r", encoding="utf-8") as src:
            lines = src.read().splitlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header line")
    width = len(lines[0].split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(
                f"{path}:{lineno}: expected {width} columns, found {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def write_truth_json(path, subspace):
    """Write a subspace as ``{D, d, basis}`` with a flat row-major basis."""
    payload = {
        "D": subspace.ambient_dim,
        "d": subspace.dim,
        "basis": [float(v) for v in subspace.basis.ravel(order="C")],
    }
    write_json(path, payload)


def read_truth_json(path):
    """Read a subspace written by :func:`write_truth_json`.

    ``D`` and ``d`` must be integers with ``1 <= d <= D``, and ``basis`` a
    flat list of ``D * d`` JSON numbers.  Every ``ValueError`` from reading,
    decoding or shaping the file starts with the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as src:
            payload = json.load(src)
        sizes = [payload["D"], payload["d"]]
        if any(isinstance(size, bool) or int(size) != size for size in sizes):
            raise ValueError(f"D and d must be integers, found {sizes}")
        ambient, dim = map(int, sizes)
        if not 1 <= dim <= ambient:
            raise ValueError(f"need 1 <= d <= D, got D={ambient} and d={dim}")
        flat = payload["basis"]
        if type(flat) is not list or any(type(v) not in (int, float) for v in flat):
            raise ValueError(f"basis must be a flat list of numbers, found {flat!r:.60}")
        if len(flat) != ambient * dim:
            raise ValueError(f"basis has {len(flat)} entries, expected {ambient * dim}")
        return Subspace(np.asarray(flat, dtype=float).reshape(ambient, dim))
    except (KeyError, TypeError) as err:
        raise ValueError(f"{path}: not a truth file ({err})") from None
    except (ValueError, OverflowError) as err:
        raise ValueError(f"{path}: {err}") from None


def write_rows_csv(path, header, rows):
    """Write a generic CSV; floats round-trip, other cells via ``str``."""
    with _open_out(path) as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for value in row:
                if value is None:
                    cells.append("")
                elif isinstance(value, float):
                    cells.append(format_float(value))
                else:
                    cells.append(str(value))
            out.write(",".join(cells) + "\n")


def write_json(path, payload):
    """Write JSON with sorted keys and a trailing newline."""
    with _open_out(path) as out:
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")
