"""End-to-end command line checks plus the file round-trip contracts."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from reference import line_parsed_points_csv

import subrec
from subrec import fileio
from subrec.cli import main
from subrec.estimator import EstimatorConfig, estimate
from subrec.fileio import (
    format_float,
    read_points_csv,
    read_truth_json,
    write_points_csv,
    write_rows_csv,
    write_truth_json,
)
from subrec.subspace import AmbiguousSubspaceWarning, Subspace
from subrec.synthetic import SyntheticModel, generate

ROOT = Path(__file__).resolve().parents[1]

COLLINEAR = np.array(
    [[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.3, 1.0], [-0.2, 1.0]]
)


# ------------------------------------------------------------------- file IO


def test_format_float_round_trips():
    for value in (1 / 3, 0.1, -2.5e-17, 1e-300, 123456789.123456789):
        assert float(format_float(value)) == value
    assert format_float(0.0) == "0"


def test_points_csv_round_trip(tmp_path):
    rng = np.random.default_rng(80)
    points = rng.standard_normal((7, 3)) * np.exp(rng.uniform(-20, 20, (7, 3)))
    path = tmp_path / "pts.csv"
    write_points_csv(path, points)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,x2"
    assert len(lines) == 8
    back = read_points_csv(path)
    assert np.array_equal(back, points)


def test_points_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match=r"bad.csv:3: expected 2 columns"):
        read_points_csv(path)


def test_points_csv_rejects_text_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\n1.0,oops\n")
    with pytest.raises(ValueError, match=r"bad.csv:2: non-numeric cell"):
        read_points_csv(path)


@pytest.mark.filterwarnings("error")
def test_points_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        read_points_csv(path)
    for body in ("", "\n", "\n \n\t\n"):
        path.write_text("x0,x1\n" + body)
        with pytest.raises(ValueError, match="no data rows"):
            read_points_csv(path)


# One file per way a points CSV can stray from what the writer makes.
ODD_POINTS_CSV = {
    "spaces": "x0,x1\n 1.5 , -2 \n\t3,4\t\n",
    "blank-lines": "x0,x1\n\n1,2\n\n3,4\n\n",
    "whitespace-lines": "x0,x1\n1,2\n   \n\t\n3,4\n",
    "crlf": "x0,x1\r\n1,2\r\n3,4\r\n",
    "nan-infinity": "x0,x1\nnan,Infinity\n-inf,NaN\n",
    "underscore": "x0,x1\n1_0,2\n",
    "signs-dots": "x0,x1\n+1,.5\n-.5,1.e3\n",
    "no-final-newline": "x0,x1\n1,2\n3,4",
    "one-column": "x0\n1\n-2\n3e-5\n",
    "hash": "x0,x1\n# note\n1,2 # note\n",
    "quotes": 'x0,x1\n"1",2\n',
    "hex": "x0,x1\n0x10,2\n",
    "overflow": "x0,x1\n1e400,-1e400\n",
    "subnormal": "x0,x1\n5e-324,2.2250738585072009e-308\n4e-324,1e-310\n",
    "ragged": "x0,x1\n1,2\n3\n",
    "empty-cells": "x0,x1\n1,\n",
    "header-only": "x0,x1\n",
    "header-blank-lines": "x0,x1\n\n  \n",
    "form-feed": "x0,x1\n1,2\x0c3,4\n",
    "header-wider": "x0,x1,x2\n1,2\n3,4\n",
    "arabic-digit": "x0,x1\n\u0661,2\n",
    # a line break only str.splitlines sees, beside a field
    "group-separator": "x0,x1\n2.5\x1d,1\n",
    "paragraph-separator": "x0,x1\nnan,\u2029-3\n",
    "form-feed-in-field": "x0,x1\n2.5\x0c,1\n",
    "next-line": "x0,x1\n1\x85,2\n",
    # a space to numpy, not to float
    "unit-separator": "x0,x1\n1\x1f,2\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(ODD_POINTS_CSV))
def test_points_csv_reads_like_the_line_parser(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(ODD_POINTS_CSV[name].encode("utf-8"))
    try:
        expected = line_parsed_points_csv(path)
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            read_points_csv(path)
        assert str(raised.value) == str(err)
        return
    got = read_points_csv(path)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("block_chars", [2, 3, 5])
def test_points_csv_finds_a_line_break_across_scan_reads(tmp_path, monkeypatch, block_chars):
    monkeypatch.setattr(fileio, "_BLOCK_CHARS", block_chars)
    path = tmp_path / "pts.csv"
    for pad in range(2 * block_chars):
        path.write_text("x0,x1\n1,2\n" + " " * pad + "3\u2028,4\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"pts.csv:3: expected 2 columns, found 1"):
            read_points_csv(path)


# Pieces of random points files: cells, characters put inside a line (line
# breaks only str.splitlines sees, US, NUL, CR, spaces float strips and numpy
# may not), line ends, and lines that are blank or whitespace-only.
FUZZ_CELLS = ["1", "-2.5", "3e-5", ".5", "+1.", "nan", "-inf", "1e400", "1_0", "\u0663", "\uff13"]
FUZZ_BAD_CELLS = ["", "x", "0x1", "1 2"]
FUZZ_CHARS = list("\x00\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029\xa0\u3000\r\t _")
FUZZ_ENDS = ["\n", "\n", "\n", "\r\n", "\r"]
FUZZ_LINES = ["", " ", " \t", "\u3000", "\xa0"]
FUZZ_HEADERS = ["", " ", "x0,,x2", "x0\x1c,x1", "x0\x1f", "\ufeffx0,x1"]


def _fuzz_line(rng, width):
    """One data line: ``width`` cells, a cell more or fewer, or a bad cell,
    with a character from ``FUZZ_CHARS`` put in now and then."""
    count = width + int(rng.choice([0] * 12 + [-1, 1]))
    bad = rng.random() < 0.1
    cells = [
        str(rng.choice(FUZZ_BAD_CELLS if bad and i == 0 else FUZZ_CELLS))
        for i in range(max(count, 1))
    ]
    line = ",".join(cells)
    while rng.random() < 0.25:
        at = int(rng.integers(len(line) + 1))
        line = line[:at] + str(rng.choice(FUZZ_CHARS)) + line[at:]
    return line


def _fuzz_points_text(rng):
    width = int(rng.integers(1, 4))
    if rng.random() < 0.1:
        header = str(rng.choice(FUZZ_HEADERS))
    else:
        header = ",".join(f"x{i}" for i in range(width))
    lines = [header]
    for _ in range(int(rng.integers(0, 6))):
        blank = rng.random() < 0.2
        lines.append(str(rng.choice(FUZZ_LINES)) if blank else _fuzz_line(rng, width))
    ends = [str(rng.choice(FUZZ_ENDS)) for _ in lines]
    if rng.random() < 0.2:
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _read_or_message(reader, path):
    try:
        return reader(path)
    except ValueError as err:
        return str(err)


@pytest.mark.filterwarnings("error")
def test_points_csv_reads_random_files_like_the_line_parser(tmp_path, monkeypatch):
    rng = np.random.default_rng(82)
    path = tmp_path / "pts.csv"
    outcomes = set()
    default = fileio._BLOCK_CHARS
    for _ in range(2_000):
        path.write_bytes(_fuzz_points_text(rng).encode("utf-8"))
        expected = _read_or_message(line_parsed_points_csv, path)
        outcomes.add(type(expected))
        for block_chars in (default, 1, 3):
            monkeypatch.setattr(fileio, "_BLOCK_CHARS", block_chars)
            got = _read_or_message(read_points_csv, path)
            if isinstance(expected, str):
                assert got == expected
            else:
                assert isinstance(got, np.ndarray) and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
    assert outcomes == {str, np.ndarray}


def test_points_csv_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x0,x1\n1,2\n\xff,3\n")
    with pytest.raises(ValueError) as raised:
        read_points_csv(path)
    assert str(raised.value) == (
        f"{path}: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
    )


def test_points_csv_read_holds_one_copy_of_the_data(tmp_path):
    points = np.random.default_rng(81).standard_normal((20_000, 20))
    path = tmp_path / "pts.csv"
    write_points_csv(path, points)
    text = path.read_text()
    middle = text.index("\n", len(text) // 2) + 1
    spaced = tmp_path / "spaced.csv"  # a whitespace-only line in the body
    spaced.write_text(text[:middle] + " \t\n" + text[middle:])
    for source in (path, spaced):
        tracemalloc.start()
        try:
            back = read_points_csv(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.tobytes() == points.tobytes()
        assert peak < 1.5 * points.nbytes, source.name


@pytest.mark.parametrize("dim", [1, 3, 20, 200])
def test_points_csv_blocks_write_format_float_bytes(tmp_path, dim):
    block = fileio._BLOCK_CELLS // dim
    rng = np.random.default_rng(dim)
    points = rng.standard_normal((2 * block + 3, dim)) * np.exp(
        rng.uniform(-30, 30, (2 * block + 3, dim))
    )
    special = [-0.0, 5e-324, np.inf, -np.inf, np.nan, 1e300, -1e300, 0.0]
    cells = points.reshape(-1)[::5]  # a view, so the specials land in points
    cells[:] = np.resize(special, cells.size)
    lines = [",".join(format_float(v) for v in row) + "\n" for row in points]
    header = ",".join(f"x{i}" for i in range(dim)) + "\n"
    path = tmp_path / "pts.csv"
    for n in (1, block - 1, block, block + 1, 2 * block + 3):
        write_points_csv(path, points[:n])
        assert path.read_bytes() == (header + "".join(lines[:n])).encode()
        back = read_points_csv(path)
        assert back.tobytes() == points[:n].tobytes()


def test_points_csv_writes_format_float_bytes_at_the_edges(tmp_path, monkeypatch):
    # the writer's numpy digits, value by value against format_float, on
    # random bit patterns and on the values its fast path must either get
    # right or hand to format_float
    rng = np.random.default_rng(31)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.array([1e-200, 1e200])
    cases = np.concatenate([
        [0.0, np.inf, np.nan],
        np.ldexp(1.0, np.arange(-1074, 1024)),  # 2**-n is a tie at 17 digits for n >= 25
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
        [float(10**p + d) for p in (16, 17) for d in range(-3, 4)],
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
    ])
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float)
    values = np.concatenate([cases, -cases, bits])
    texts = [format_float(v) for v in values.tolist()]
    handed = []

    def counted(value):
        handed.append(value)
        return format_float(value)

    monkeypatch.setattr(fileio, "format_float", counted)
    path = tmp_path / "pts.csv"
    for width in (1, 3, 20):
        size = values.size // width * width
        header = ",".join(f"x{i}" for i in range(width)) + "\n"
        lines = [",".join(texts[i:i + width]) + "\n" for i in range(0, size, width)]
        handed.clear()
        write_points_csv(path, values[:size].reshape(-1, width))
        assert path.read_bytes() == (header + "".join(lines)).encode(), width
        # ties, infinities, NaNs and magnitudes off [1e-200, 1e200) take
        # the fallback, and not every value does: zeros do not
        assert {2.0**-25, -np.inf, 1e-300} <= set(handed)
        assert any(np.isnan(handed))
        assert 0.0 not in handed
        assert 0 < len(handed) < size


@pytest.mark.parametrize(
    "shape", [(), (3,), (2, 2, 2), (3, 0), (0, 3)],
    ids=["0-d", "1-d", "3-d", "no-columns", "no-rows"],
)
def test_points_csv_writer_refuses_what_it_cannot_read_back(tmp_path, shape):
    path = tmp_path / "pts.csv"
    with pytest.raises(ValueError, match="2-d array with rows and columns"):
        write_points_csv(path, np.zeros(shape))
    assert not path.exists()


def test_points_csv_writer_refuses_complex_points(tmp_path):
    path = tmp_path / "pts.csv"
    with pytest.raises(ValueError, match="points must be real, got complex128"):
        write_points_csv(path, [[1 + 2j, 3]])
    assert not path.exists()


def test_truth_json_round_trip(tmp_path):
    _, truth = generate(
        SyntheticModel(
            ambient_dim=5, subspace_dim=2, n_inliers=1, n_outliers=0, seed=1, rotate=True
        )
    )
    path = tmp_path / "truth.json"
    write_truth_json(path, truth)
    back = read_truth_json(path)
    assert np.array_equal(back.basis, truth.basis)


def test_truth_json_rejects_garbage(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"D": 3}\n')
    with pytest.raises(ValueError, match="not a truth file"):
        read_truth_json(path)
    path.write_text('{"D": 3, "d": 2, "basis": [1.0, 0.0]}\n')
    with pytest.raises(ValueError, match="expected 6"):
        read_truth_json(path)
    # every other malformed file names itself too
    for text, message in [
        ('{"D": "abc", "d": 1, "basis": [1.0]}\n', "invalid literal for int"),
        ('{"D": 2.9, "d": 1, "basis": [1.0, 0.0]}\n', "D and d must be integers"),
        ('{"D": 1, "d": true, "basis": [1.0]}\n', "D and d must be integers"),
        ('{"D": "2", "d": 1, "basis": [1.0, 0.0]}\n', "D and d must be integers"),
        ('{"D": Infinity, "d": 1, "basis": [1.0]}\n', "cannot convert float infinity"),
        ('{"D": -1, "d": -1, "basis": [1.0]}\n', "need 1 <= d <= D, got D=-1 and d=-1"),
        ('{"D": 2, "d": 3, "basis": [1.0]}\n', "need 1 <= d <= D, got D=2 and d=3"),
        ('{"D": 2, "d": 0, "basis": []}\n', "need 1 <= d <= D"),
        # a basis is a flat list of numbers: strings, bools and nested rows are not e1
        ('{"D": 2, "d": 1, "basis": ["1", "0"]}\n', "basis must be a flat list of numbers"),
        ('{"D": 2, "d": 1, "basis": [true, false]}\n', "basis must be a flat list of numbers"),
        ('{"D": 2, "d": 1, "basis": [[1.0, 0.0]]}\n', "basis must be a flat list of numbers"),
        ('{"D": 1, "d": 1, "basis": 1.0}\n', "basis must be a flat list of numbers"),
        ("not json\n", "Expecting value"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_truth_json(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)


def test_rows_csv_blank_for_none(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(path, ["a", "b", "c"], [(1, 0.5, None), (2, None, "x")])
    assert path.read_text() == "a,b,c\n1,0.5,\n2,,x\n"


# --------------------------------------------------------------------- synth


def synth_args(tmp_path, seed=3, force=False):
    args = [
        "synth", "--D", "4", "--d", "2", "--n-inliers", "8", "--n-outliers", "5",
        "--seed", str(seed),
        "--out", str(tmp_path / "points.csv"),
        "--truth-out", str(tmp_path / "truth.json"),
    ]
    if force:
        args.append("--force")
    return args


def test_synth_writes_model_files(tmp_path):
    assert main(synth_args(tmp_path)) == 0
    points = read_points_csv(tmp_path / "points.csv")
    truth = read_truth_json(tmp_path / "truth.json")
    assert points.shape == (13, 4)
    assert truth.ambient_dim == 4 and truth.dim == 2
    # the outlier block is the unit-cube rows
    assert np.all((points[8:] >= 0.0) & (points[8:] <= 1.0))
    # byte-for-byte what the library generates
    model = SyntheticModel(ambient_dim=4, subspace_dim=2, n_inliers=8, n_outliers=5, seed=3)
    expected, _ = generate(model)
    assert np.array_equal(points, expected)


def test_synth_refuses_overwrite(tmp_path, capsys):
    assert main(synth_args(tmp_path)) == 0
    assert main(synth_args(tmp_path)) == 1
    assert "pass --force to overwrite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "out, truth_out",
    [("p", "p"), ("q.csv", "q.csv.manifest.json"), ("r.csv", "sub/../r.csv")],
)
def test_synth_refuses_colliding_outputs(tmp_path, capsys, out, truth_out):
    # --force must not let one output overwrite another or the manifest
    argv = synth_args(tmp_path, force=True)
    argv[argv.index("--out") + 1] = str(tmp_path / out)
    argv[argv.index("--truth-out") + 1] = str(tmp_path / truth_out)
    assert main(argv) == 1
    assert "not distinct files" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_force_rerun_is_byte_identical(tmp_path):
    assert main(synth_args(tmp_path)) == 0
    first = (tmp_path / "points.csv").read_bytes()
    first_truth = (tmp_path / "truth.json").read_bytes()
    assert main(synth_args(tmp_path, force=True)) == 0
    assert (tmp_path / "points.csv").read_bytes() == first
    assert (tmp_path / "truth.json").read_bytes() == first_truth


def test_synth_manifest(tmp_path):
    assert main(synth_args(tmp_path)) == 0
    manifest = json.loads((tmp_path / "points.csv.manifest.json").read_text())
    assert manifest["command_line"][:2] == ["subrec", "synth"]
    assert manifest["seeds"] == [3]
    assert manifest["config"]["D"] == 4 and manifest["config"]["d"] == 2
    assert manifest["inputs"] == []
    assert [p.endswith((".csv", ".json")) for p in manifest["outputs"]] == [True, True]
    assert manifest["duration_seconds"] >= 0.0
    assert manifest["version"] == subrec.__version__


# ------------------------------------------------------------------ estimate


def write_inputs(tmp_path, points, truth=None):
    write_points_csv(tmp_path / "in.csv", points)
    if truth is not None:
        write_truth_json(tmp_path / "truth.json", truth)


def test_estimate_result_payload(tmp_path):
    model = SyntheticModel(ambient_dim=4, subspace_dim=2, n_inliers=14, n_outliers=6, seed=1)
    points, truth = generate(model)
    write_inputs(tmp_path, points, truth)
    rc = main([
        "estimate", "--in", str(tmp_path / "in.csv"), "--d", "2",
        "--truth", str(tmp_path / "truth.json"),
        "--out", str(tmp_path / "result.json"),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["D"] == 4 and payload["d"] == 2
    # 14 of 20 points on the plane puts this in the recovery regime, so
    # the run may end in a clean collapse rather than convergence
    assert payload["termination"] in ("converged", "breakdown")
    assert payload["iterations"] > 0
    assert payload["recovery_error"] < 1e-5
    sigma = np.array(payload["sigma"]).reshape(4, 4)
    assert np.array_equal(sigma, sigma.T)
    assert abs(np.trace(sigma) - 1.0) <= 1e-12
    basis = np.array(payload["basis"]).reshape(4, 2)
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-10)
    # the CLI adds nothing: an in-process estimate on the same file matches
    records = []
    library = estimate(
        read_points_csv(tmp_path / "in.csv"), observer=lambda sigma, rec: records.append(rec)
    )
    assert payload["sigma"] == [float(v) for v in library.sigma.ravel()]
    assert payload["iterations"] == library.iterations
    assert payload["objective"] == records[-1].objective


def test_estimate_one_step_on_standard_basis(tmp_path):
    write_inputs(tmp_path, np.eye(2))
    rc = main([
        "estimate", "--in", str(tmp_path / "in.csv"), "--d", "2",
        "--out", str(tmp_path / "result.json"),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["termination"] == "converged"
    assert payload["iterations"] == 1
    assert payload["sigma"] == [0.5, 0.0, 0.0, 0.5]
    assert abs(payload["objective"]) < 1e-12
    assert "recovery_error" not in payload


def test_estimate_trace_with_truth(tmp_path):
    write_inputs(tmp_path, COLLINEAR, Subspace([[1.0], [0.0]]))
    rc = main([
        "estimate", "--in", str(tmp_path / "in.csv"), "--d", "1",
        "--truth", str(tmp_path / "truth.json"),
        "--out", str(tmp_path / "result.json"),
        "--trace", str(tmp_path / "trace.csv"),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["recovery_error"] < 1e-6
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,objective,rel_step,lambda_min,recovery_error"
    assert len(lines) == 1 + payload["iterations"]
    rows = [line.split(",") for line in lines[1:]]
    ks = [int(r[0]) for r in rows]
    assert ks == list(range(1, payload["iterations"] + 1))
    objectives = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(objectives) <= 1e-12)
    errors = [float(r[4]) for r in rows]
    assert errors[-1] < 1e-6


def test_estimate_trace_without_truth_leaves_error_blank(tmp_path):
    write_inputs(tmp_path, COLLINEAR)
    rc = main([
        "estimate", "--in", str(tmp_path / "in.csv"), "--d", "1",
        "--out", str(tmp_path / "result.json"),
        "--trace", str(tmp_path / "trace.csv"),
    ])
    assert rc == 0
    rows = [line.split(",") for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
    assert all(r[4] == "" for r in rows)


def counted_eigensolves(monkeypatch):
    """A list that gets one entry per call of the solver's eigensolve."""
    real, calls = subrec.estimator._SYEV, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(subrec.estimator, "_SYEV", counting)
    return calls


@pytest.mark.parametrize("trace", [False, True])
def test_estimate_makes_no_eigensolve_on_an_interior_set(tmp_path, monkeypatch, trace):
    # 80 inliers of 180 on a 5-dim subspace of R^10 is below the transition:
    # the iterates stay far from collapse, so the solver never eigensolves,
    # whether or not the command writes a trace
    model = SyntheticModel(ambient_dim=10, subspace_dim=5, n_inliers=80, n_outliers=100, seed=1)
    write_inputs(tmp_path, *generate(model))
    argv = [
        "estimate", "--in", str(tmp_path / "in.csv"), "--d", "5",
        "--truth", str(tmp_path / "truth.json"), "--out", str(tmp_path / "result.json"),
    ]
    calls = counted_eigensolves(monkeypatch)
    assert main([*argv, "--trace", str(tmp_path / "trace.csv")] if trace else argv) == 0
    payload = json.loads((tmp_path / "result.json").read_text())
    assert (payload["termination"], payload["iterations"]) == ("converged", 80)
    assert calls == []


@pytest.mark.parametrize(
    "points, tol",
    [(COLLINEAR, "1e-300"), (generate(SyntheticModel(10, 5, 80, 100, seed=1))[0], "1e-8")],
    ids=["collapsing", "interior"],
)
def test_trace_lambda_min_is_the_observed_iterates_smallest_eigenvalue(tmp_path, points, tol):
    # the trace computes lambda_min from the iterate the observer is handed
    write_inputs(tmp_path, points)
    rc = main([
        "estimate", "--in", str(tmp_path / "in.csv"), "--d", "1", "--tol", tol,
        "--out", str(tmp_path / "result.json"), "--trace", str(tmp_path / "trace.csv"),
    ])
    assert rc == 0
    rows = [line.split(",") for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
    iterates = []
    config = EstimatorConfig(tol=float(tol))
    estimate(read_points_csv(tmp_path / "in.csv"), config, lambda sigma, _: iterates.append(sigma))
    assert len(rows) == len(iterates) > 1
    assert [float(r[3]) for r in rows] == [float(np.linalg.eigvalsh(it)[0]) for it in iterates]


@pytest.mark.parametrize(
    "breakage, message",
    [
        ("ragged", "columns"),
        ("missing", "No such file"),
        ("bad_d", "1 <= d"),
    ],
)
def test_estimate_failures_exit_nonzero(tmp_path, capsys, breakage, message):
    argv = ["estimate", "--in", str(tmp_path / "in.csv"), "--d", "2",
            "--out", str(tmp_path / "result.json")]
    if breakage == "ragged":
        (tmp_path / "in.csv").write_text("x0,x1\n1.0\n")
    elif breakage == "bad_d":
        write_inputs(tmp_path, np.eye(2))
        argv[4] = "5"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("subrec: ")
    assert message in err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize(
    "d, truth_dim, message",
    [
        ("9", 6, "need 1 <= d <= 6, got d=9"),
        ("0", None, "need 1 <= d <= 6, got d=0"),
        ("2", 7, "ambient dimensions differ: 6 vs 7"),
    ],
)
def test_estimate_checks_d_and_truth_before_the_solve(
    tmp_path, capsys, monkeypatch, d, truth_dim, message
):
    def solve(*args, **kwargs):
        raise AssertionError("estimate ran")

    monkeypatch.setattr("subrec.cli.estimate", solve)
    points, _ = generate(SyntheticModel(6, 2, 10, 4, seed=0))
    truth = None if truth_dim is None else Subspace(np.eye(truth_dim)[:, :2])
    write_inputs(tmp_path, points, truth)
    argv = ["estimate", "--in", str(tmp_path / "in.csv"), "--d", d,
            "--out", str(tmp_path / "result.json"), "--trace", str(tmp_path / "trace.csv")]
    if truth is not None:
        argv += ["--truth", str(tmp_path / "truth.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"subrec: {message}\n"
    assert not (tmp_path / "result.json").exists() and not (tmp_path / "trace.csv").exists()


def test_estimate_warning_raised_as_error_exits_nonzero(tmp_path, capsys):
    # a rank-3 set in R^10 stops at I/D, whose equal eigenvalues leave the
    # top eigenspace ambiguous: a warning by default, under -W error a
    # one-line message and exit status 1, not a traceback
    points, _ = generate(SyntheticModel(10, 3, 50, 0, seed=0))
    write_inputs(tmp_path, points)
    argv = ["estimate", "--in", str(tmp_path / "in.csv"), "--d", "3",
            "--out", str(tmp_path / "result.json")]
    with pytest.warns(AmbiguousSubspaceWarning):
        assert main(argv) == 0
    (tmp_path / "result.json").unlink()
    (tmp_path / "result.json.manifest.json").unlink()
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("subrec: eigenvalues 3 and 4 agree")
    assert err.count("\n") == 1
    assert not (tmp_path / "result.json").exists()


# --------------------------------------------------------------- experiments


def test_experiment_exact_recovery(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "experiment", "exact-recovery", "--D", "4", "--d", "2", "--n-outliers", "6",
        "--n-inliers-range", "6:14:4", "--trials", "2", "--seed", "2",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_inliers,mean_recovery_error,std,trials"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [6, 10, 14]
    assert all(r[3] == "2" for r in rows)
    # macroscopic error at the balanced count, exact recovery past it
    assert float(rows[0][1]) > 1e-5
    assert float(rows[2][1]) < 1e-5


def test_experiment_single_cell_matches_trial(tmp_path):
    from subrec.experiments import recovery_trial

    out = tmp_path / "one.csv"
    rc = main([
        "experiment", "exact-recovery", "--D", "4", "--d", "2", "--n-outliers", "6",
        "--n-inliers-range", "12:12:1", "--trials", "1", "--seed", "9",
        "--out", str(out),
    ])
    assert rc == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[1]) == recovery_trial(4, 2, 12, 6, 0.0, 9)


def test_experiment_convergence(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main([
        "experiment", "convergence", "--D", "4", "--d", "2",
        "--n-inliers", "12", "--n-outliers", "6", "--seed", "1",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,sigma_diff_to_final,recovery_error_k"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) >= 5
    assert float(rows[-1][1]) == 0.0


def test_experiment_noise(tmp_path):
    out = tmp_path / "noise.csv"
    rc = main([
        "experiment", "noise", "--D", "4", "--d", "2",
        "--n-inliers", "12", "--n-outliers", "6",
        "--noise-range", "0.001:0.1:3", "--trials", "2", "--seed", "3",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,mean_recovery_error,std"
    eps = [float(line.split(",")[0]) for line in lines[1:]]
    np.testing.assert_allclose(eps, [1e-3, 1e-2, 1e-1], rtol=1e-12)


MODEL_FLAGS = ["--D", "4", "--d", "2", "--n-inliers", "8", "--n-outliers", "5"]


@pytest.mark.parametrize(
    "argv, seeds, inputs",
    [
        (["estimate", "--in", "{in}", "--d", "2", "--out", "{out}"], [], ["{in}"]),
        # --in comes first in the manifest, whatever the order of the flags
        (
            ["estimate", "--truth", "{truth}", "--in", "{in}", "--d", "2",
             "--trace", "{dir}/trace.csv", "--out", "{out}"],
            [],
            ["{in}", "{truth}"],
        ),
        (
            ["experiment", "exact-recovery", "--D", "4", "--d", "2", "--n-outliers", "5",
             "--n-inliers-range", "8:8:1", "--trials", "1", "--seed", "5", "--out", "{out}"],
            [5],
            [],
        ),
        (["experiment", "convergence", *MODEL_FLAGS, "--seed", "6", "--out", "{out}"], [6], []),
        (
            ["experiment", "noise", *MODEL_FLAGS, "--noise-range", "0.01:0.01:1",
             "--trials", "1", "--seed", "7", "--out", "{out}"],
            [7],
            [],
        ),
    ],
    ids=["estimate", "estimate-truth", "exact-recovery", "convergence", "noise"],
)
def test_manifest_seeds_and_inputs(tmp_path, argv, seeds, inputs):
    points, truth = generate(SyntheticModel(4, 2, 8, 5, seed=3))
    write_inputs(tmp_path, points, truth)
    paths = {
        "in": str(tmp_path / "in.csv"),
        "truth": str(tmp_path / "truth.json"),
        "out": str(tmp_path / "out"),
        "dir": str(tmp_path),
    }
    assert main([arg.format(**paths) for arg in argv]) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["seeds"] == seeds
    assert manifest["inputs"] == [p.format(**paths) for p in inputs]


@pytest.mark.parametrize(
    "argv_tail, message",
    [
        (["exact-recovery", "--D", "4", "--d", "2", "--n-outliers", "6",
          "--n-inliers-range", "5", "--out", "x.csv"], "lo:hi:step"),
        (["noise", "--D", "4", "--d", "2", "--n-inliers", "12", "--n-outliers", "6",
          "--noise-range", "0:1:2", "--out", "x.csv"], "0 < lo"),
        (["exact-recovery", "--D", "4", "--d", "2", "--n-outliers", "6",
          "--n-inliers-range", "8:8:1", "--trials", "0", "--out", "x.csv"],
         "trials must be at least 1, got 0"),
        (["noise", "--D", "4", "--d", "2", "--n-inliers", "12", "--n-outliers", "6",
          "--noise-range", "0.01:0.01:1", "--trials", "-3", "--out", "x.csv"],
         "trials must be at least 1, got -3"),
        (["noise", "--D", "4", "--d", "2", "--n-inliers", "12", "--n-outliers", "6",
          "--noise-range", "0.001:inf:3", "--out", "x.csv"], "0 < lo"),
        (["noise", "--D", "4", "--d", "2", "--n-inliers", "12", "--n-outliers", "6",
          "--noise-range", "0.001:1e400:3", "--out", "x.csv"], "0 < lo"),
    ],
)
def test_experiment_rejects_bad_ranges(tmp_path, capsys, argv_tail, message):
    argv = ["experiment", *argv_tail]
    argv[argv.index("x.csv")] = str(tmp_path / "x.csv")
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------- misc


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_installed_entry_point():
    # Start the console script that pyproject.toml declares, the way the
    # wrapper an install generates does, so the declaration is checked
    # without an install; an installed script on PATH is run as well.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    expected = f"subrec {project['version']}\n"
    entry = importlib.metadata.EntryPoint(
        name="subrec", value=project["scripts"]["subrec"], group="console_scripts"
    )
    wrapper = (
        "import sys\n"
        f"from {entry.module} import {entry.attr.split('.')[0]}\n"
        "sys.argv[0] = 'subrec'\n"
        f"sys.exit({entry.attr}())\n"
    )
    package_root = str(Path(subrec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    commands = [[sys.executable, "-c", wrapper, "--version"]]
    exe = shutil.which("subrec")
    if exe is not None:
        commands.append([exe, "--version"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


def test_cli_import_leaves_scipy_linalg_and_the_trial_pool_out():
    # a fresh process: subrec loads SciPy's compiled BLAS and LAPACK
    # wrappers without the Python layer of scipy.linalg, and no thread pool
    probe = (
        "import sys, subrec.cli\n"
        "print(sorted({'scipy.linalg', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    package_root = str(Path(subrec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
