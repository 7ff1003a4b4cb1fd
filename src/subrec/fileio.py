"""Readers and writers for the harness's CSV and JSON files.

All text files are UTF-8 with LF line endings.  Floats are written with
17 significant digits; every double but a signed or payload NaN (read as
plain NaN) round-trips bit-exactly, so a rerun is byte-identical.  Points
are written in row blocks with one format string and read by numpy's
``loadtxt``, with a line parser as the fallback that names a bad line.
"""

from __future__ import annotations

import json

import numpy as np

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


_BLOCK_CELLS = 1 << 16  # values per write_points_csv block, whatever D is


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def write_points_csv(path, points):
    """Write row points with the header ``x0,...,x{D-1}``."""
    points = np.asarray(points, dtype=float)
    width = points.shape[1]
    rows = max(1, _BLOCK_CELLS // max(width, 1))
    line = ",".join(["%.17g"] * width) + "\n"  # format_float's text, per value
    with _open_out(path) as out:
        out.write(",".join(f"x{i}" for i in range(width)) + "\n")
        for start in range(0, len(points), rows):
            block = points[start:start + rows]
            out.write(line * len(block) % tuple(block.ravel().tolist()))


def read_points_csv(path):
    """Read a points CSV back into an ``(N, D)`` float array.

    The first line is the header; malformed data lines are rejected
    with their line number.
    """
    with open(path, "r", encoding="utf-8") as src:
        lines = src.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected a header line")
    width = len(lines[0].split(","))
    if any(line.strip() for line in lines[1:]):  # numpy warns on a blank body
        try:
            points = np.loadtxt(lines, delimiter=",", skiprows=1, ndmin=2, comments=None)
            if len(points) and points.shape[1] == width:
                return points
        except ValueError:
            pass  # the line parser below names the line
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

    Every ``ValueError`` from reading, decoding or shaping the file
    starts with the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as src:
            payload = json.load(src)
        ambient = int(payload["D"])
        dim = int(payload["d"])
        flat = np.asarray(payload["basis"], dtype=float)
        if flat.size != ambient * dim:
            raise ValueError(f"basis has {flat.size} entries, expected {ambient * dim}")
        return Subspace(flat.reshape(ambient, dim))
    except (KeyError, TypeError) as err:
        raise ValueError(f"{path}: not a truth file ({err})") from None
    except ValueError as err:
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
