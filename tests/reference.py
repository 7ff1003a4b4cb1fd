"""Independent reference routes the tests cross-check the library against.

Everything here takes the textbook path on purpose: explicit inverses
of the full matrix, per-point and per-subset Python loops, forward
substitution in extended precision and a line-by-line CSV parser.  The
library inverts only the triangular Cholesky factor, never the full
matrix, tests candidate subsets in stacked chunks and parses well-formed
CSV bodies with numpy, so agreement between the two routes is evidence,
not a tautology.  The per-row scaling of the data is also kept on a loop
over rows with ``math.frexp``, and the synthetic generator on its
earlier stacking path (separate inlier and outlier blocks joined by
``vstack``); the library must match both bit for bit.
"""

import math

import numpy as np

from subrec.estimator import _SAFE_EXPONENT, _validate
from subrec.oracles import ConditionReport, iter_subsets
from subrec.subspace import Subspace, span_of_points, subspace_members


def random_spd(rng, dim, log_spread=2.0):
    """Random SPD matrix with eigenvalues log-uniform in exp([-s, s])."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = np.exp(rng.uniform(-log_spread, log_spread, size=dim))
    return (q * vals) @ q.T


def random_points(rng, n, dim):
    """Gaussian row points; full span and no zero rows almost surely."""
    return rng.standard_normal((n, dim))


def geometric_mean(s1, s2):
    """Midpoint ``s1^(1/2) (s1^(-1/2) s2 s1^(-1/2))^(1/2) s1^(1/2)`` of the
    affine-invariant geodesic between two SPD matrices, by ``eigh``."""
    vals, vecs = np.linalg.eigh(s1)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    vals, vecs = np.linalg.eigh(inv_root @ s2 @ inv_root)
    mean = root @ (vecs * np.sqrt(vals)) @ vecs.T @ root
    return (mean + mean.T) / 2.0


def inv_quadratic_forms(sigma, points):
    """Quadratic forms through an explicit inverse."""
    inv = np.linalg.inv(sigma)
    return np.einsum("ni,ij,nj->n", points, inv, points)


def longdouble_quadratic_forms(lower, points):
    """Quadratic forms ``|solve(L, x)|^2`` on a given lower Cholesky
    factor, by row-by-row forward substitution in ``np.longdouble``.

    Where ``longdouble`` is wider than ``float`` (80-bit extended on x86
    Linux), this is a more accurate route to the forms of that very
    factor, so it measures the library's own rounding and not the
    factorization's.
    """
    lower = np.asarray(lower, dtype=np.longdouble)
    y = np.array(points, dtype=np.longdouble).T
    for i in range(lower.shape[0]):
        y[i] = (y[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    return np.einsum("in,in->n", y, y)


def inv_objective(sigma, points):
    """Tyler cost via explicit inverse plus slogdet."""
    q = inv_quadratic_forms(sigma, points)
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise ValueError("reference objective needs a positive definite matrix")
    return float(np.mean(np.log(q)) + logdet / sigma.shape[0])


def inv_step(sigma, points):
    """One fixed-point update via explicit inverse and a per-point loop."""
    inv = np.linalg.inv(sigma)
    total = np.zeros_like(np.asarray(sigma, dtype=float))
    for x in points:
        total = total + np.outer(x, x) / float(x @ inv @ x)
    return total / np.trace(total)


def inv_estimate(points, tol=1e-8, max_iter=5000):
    """Plain reference loop from identity/D; returns the final iterate."""
    dim = points.shape[1]
    sigma = np.eye(dim) / dim
    for _ in range(max_iter):
        nxt = inv_step(sigma, points)
        if np.linalg.norm(nxt - sigma) / np.linalg.norm(nxt) < tol:
            return nxt
        sigma = nxt
    return sigma


def pointwise_gap(sigma, anchor, points):
    """Majorization gap as the mean of u - log(u) - 1 over the points.

    With u the per-point ratio of quadratic forms at ``sigma`` and at
    ``anchor``, the log-determinant terms of surrogate and cost cancel
    and the gap reduces to this mean, each term of which is nonnegative.
    """
    u = inv_quadratic_forms(sigma, points) / inv_quadratic_forms(anchor, points)
    return float(np.mean(u - np.log(u) - 1.0))


def per_row_prepared(points):
    """The solver's scaling of valid data one row at a time: ``(prepared,
    offset)``.  Every row takes the largest entry's exponent when it is
    beyond +-_SAFE_EXPONENT, else 0; a row whose largest entry is still
    below 2**-(_SAFE_EXPONENT + 1) after that takes its own exponent."""
    points = np.asarray(points, dtype=float)
    tops = [max(abs(v) for v in row) for row in points.tolist()]
    shift = math.frexp(max(tops))[1]
    if abs(shift) <= _SAFE_EXPONENT:
        shift = 0
    exponents = [
        math.frexp(top)[1] if math.ldexp(top, -shift) < 2.0 ** -(_SAFE_EXPONENT + 1) else shift
        for top in tops
    ]
    prepared = np.array(
        [[math.ldexp(v, -e) for v in row] for row, e in zip(points.tolist(), exponents)]
    ).reshape(points.shape)
    return prepared, 2.0 * (sum(exponents) / len(exponents)) * math.log(2.0)


def subset_loop_violations(points, seed=0):
    """The uniqueness check one candidate subset at a time.

    Returns ``(method, violations)``.  ``violations`` lazily yields
    ``(position, report)`` for every enumerated subset whose span holds
    at least its dim/D share of the points, in enumeration order; each
    span goes through the public ``span_of_points`` and each count
    through the public ``subspace_members``.
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    method, subsets = iter_subsets(n, range(1, dim), rng=np.random.default_rng(seed))

    def violations():
        for position, idx in enumerate(subsets):
            rank, basis = span_of_points(points[list(idx)])
            if rank == 0 or rank >= dim:
                continue
            candidate = Subspace(basis)
            count = int(np.count_nonzero(subspace_members(points, candidate)))
            if count * dim >= rank * n:
                yield position, ConditionReport(
                    False, method, count / n, rank / dim, count, candidate
                )

    return method, violations()


def subset_loop_uniqueness(points, seed=0):
    """Uniqueness report of the first violating subset, or a pass."""
    method, violations = subset_loop_violations(points, seed)
    first = next(violations, None)
    return ConditionReport(holds=True, method=method) if first is None else first[1]


def line_parsed_points_csv(path):
    """A points CSV parsed one line at a time with ``float``, and the
    error messages ``read_points_csv`` must give for a malformed file."""
    with open(path, "r", encoding="utf-8") as src:
        lines = src.read().splitlines()
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


def stacked_generate(model):
    """``generate`` on its earlier path: an inlier block and an outlier
    block, stacked, noise added to a new array, the stack validated."""
    rng = np.random.default_rng(model.seed)
    if model.rotate:
        square = rng.standard_normal((model.ambient_dim, model.ambient_dim))
        q, r = np.linalg.qr(square)
        basis = (q * np.sign(np.diag(r)))[:, : model.subspace_dim]
    else:
        basis = np.eye(model.ambient_dim)[:, : model.subspace_dim]
    blocks = []
    if model.n_inliers:
        coords = rng.standard_normal((model.n_inliers, model.subspace_dim))
        blocks.append(coords @ basis.T)
    if model.n_outliers:
        blocks.append(rng.random((model.n_outliers, model.ambient_dim)))
    points = np.vstack(blocks)
    if model.noise > 0.0:
        points = points + model.noise * rng.standard_normal(points.shape)
    return _validate(points)[0], Subspace(basis)
