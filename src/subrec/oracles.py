"""Certificates for the estimator's two data-set regimes.

Two combinatorial conditions on a data set decide what the estimator
does: the well-posedness condition (every proper subspace holds a
fraction of points strictly below dim/D, so the minimizer is unique and
interior) and the recovery condition (some subspace holds a fraction
strictly above dim/D, so the iterates collapse onto it).  Both are
fractions of points counted inside candidate subspaces, and a
maximizing candidate can always be taken to be the span of a subset of
the points, which is what the enumeration walks.

The majorization gap is an independent per-pair certificate of the
solver's monotone descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .estimator import NotSPDError, _check_number, _factor, _prepare, _singular
from .subspace import Subspace, _members, _rank, subspace_members

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "RANDOM_SUBSETS",
    "ConditionReport",
    "iter_subsets",
    "uniqueness_condition",
    "recovery_condition",
    "majorization_gap",
]

# Enumerate exhaustively while the subset count stays at or below this.
EXHAUSTIVE_LIMIT = 100_000
# Sample count for the randomized fallback on larger instances.
RANDOM_SUBSETS = 10_000
# Candidate subsets are drawn and tested this many at a time; the membership
# scratch of a uniqueness check holds 2 * _CHUNK * N * D floats.
_CHUNK = 256


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a combinatorial certificate check.

    ``method`` is "exhaustive" when every candidate was enumerated and
    "randomized" when a sampled subset of candidates was checked (a
    probabilistic pass).  When ``holds`` is false the ``witness``
    subspace, the ``member_count`` of points found inside it, and the
    violated ``threshold`` (its dim/D bound) make the verdict
    independently recheckable.  ``fraction`` is ``member_count`` over
    the data-set size.
    """

    holds: bool
    method: str
    fraction: float | None = None
    threshold: float | None = None
    member_count: int | None = None
    witness: Subspace | None = None


def iter_subsets(n, sizes, rng=None):
    """Yield index tuples of the given subset sizes, plus the method used.

    Returns ``(method, iterator)``.  When the total number of subsets
    over all ``sizes`` is at most ``EXHAUSTIVE_LIMIT`` the iterator is
    exhaustive; otherwise it yields ``RANDOM_SUBSETS`` random subsets
    with sizes drawn uniformly from ``sizes`` (requires ``rng``), drawn
    ``_CHUNK`` at a time: reproducible per seed.
    """
    sizes = [k for k in sizes if 1 <= k <= n]
    if not sizes:
        return "exhaustive", iter(())
    total = sum(math.comb(n, k) for k in sizes)
    if total <= EXHAUSTIVE_LIMIT:
        def exhaustive():
            for k in sizes:
                yield from combinations(range(n), k)
        return "exhaustive", exhaustive()
    if rng is None:
        raise ValueError("randomized subset sampling needs an rng")

    def sampled():
        for start in range(0, RANDOM_SUBSETS, _CHUNK):
            m = min(_CHUNK, RANDOM_SUBSETS - start)
            counts = np.array(sizes)[rng.integers(len(sizes), size=m)]
            # Floyd's algorithm on all rows at once: step i of a size-k row draws
            # t in 0..j, j = n-k+i, and takes j if t is taken; later columns go unread
            picked = np.empty((m, max(sizes)), dtype=np.int64)
            for i in range(picked.shape[1]):
                top = n - counts + i
                t = rng.integers(0, top + 1)
                picked[:, i] = np.where((picked[:, :i] == t[:, None]).any(axis=1), top, t)
            yield from (tuple(row[:k]) for k, row in zip(counts.tolist(), picked.tolist()))
    return "randomized", sampled()


def _subset_chunks(subsets):
    """Draw ``subsets`` lazily, ``_CHUNK`` at a time; per chunk yield an
    ``(order, idx)`` pair per subset size, ``idx`` that size's ``(S, k)``
    index array and ``order`` its positions in the chunk."""
    while chunk := list(islice(subsets, _CHUNK)):
        sizes = np.array([len(idx) for idx in chunk])
        groups = []
        for k in np.unique(sizes):
            order = np.flatnonzero(sizes == k)
            groups.append((order, np.array([chunk[i] for i in order])))
        yield groups


def uniqueness_condition(data, seed=0):
    """Check that every proper subspace holds strictly fewer points than dim/D allows.

    Candidates are the spans of point subsets of sizes 1 through D-1; a
    subset's span uses its numerical rank, so collinear or coplanar
    subsets are tested against the bound of their actual dimension.
    The comparison ``member_count / N < rank / D`` is done in exact
    integer arithmetic.  Spans and counts use each row scaled by a power
    of two as the estimator scales it, so a row's magnitude does not
    change the rank of a subset holding it.

    Exhaustive up to ``EXHAUSTIVE_LIMIT`` candidate subsets (intended
    for small N); beyond that a randomized sample of candidates is
    checked and the report says so.  Candidates are tested in stacked
    chunks; the report names the first violator in enumeration order.
    """
    _check_number("seed", seed, least=0)
    points, _ = _prepare(data)
    n, dim = points.shape
    method, subsets = iter_subsets(
        n, range(1, dim), rng=np.random.default_rng(seed)
    )
    # one for every chunk: the temporaries of _members at rank r <= D - 1
    scratch = np.empty(_CHUNK * n * 2 * dim)
    for chunk in _subset_chunks(subsets):
        found = []
        for order, idx in chunk:
            u, s, _ = np.linalg.svd(points[idx].transpose(0, 2, 1), full_matrices=False)
            ranks = _rank(s)
            # sizes stop at D-1 and prepared rows are nonzero, so every rank is in 1..D-1
            for rank in np.unique(ranks):
                hit = np.flatnonzero(ranks == rank)
                basis = u[hit, :, :rank]
                counts = np.count_nonzero(_members(points, basis, scratch), axis=1)
                # violation when count/n >= rank/dim
                bad = np.flatnonzero(counts * dim >= rank * n)
                if bad.size:
                    j = bad[0]
                    found.append((order[hit[j]], int(rank), int(counts[j]), basis[j]))
        if found:
            _, rank, count, basis = min(found, key=lambda hit: hit[0])
            return ConditionReport(
                holds=False,
                method=method,
                fraction=count / n,
                threshold=rank / dim,
                member_count=count,
                witness=Subspace(basis),
            )
    return ConditionReport(holds=True, method=method)


def recovery_condition(data, candidate):
    """Check that ``candidate`` holds a fraction of points strictly above dim/D.

    D is the ambient dimension, not the rank of the data's span, so on data
    that does not span R^D the check is lenient: a solve in a span of rank
    r < D needs a share above dim/r, and this counts against dim/D.
    """
    members = subspace_members(data, candidate)
    n, dim = members.size, candidate.ambient_dim
    count = int(np.count_nonzero(members))
    return ConditionReport(
        holds=bool(count * dim > candidate.dim * n),
        method="exhaustive",
        fraction=count / n,
        threshold=candidate.dim / dim,
        member_count=count,
        witness=candidate,
    )


def majorization_gap(sigma, anchor, data):
    """Gap between the quadratic surrogate anchored at ``anchor`` and the cost at ``sigma``.

    The surrogate is ``<weighted_moment(anchor), inv(sigma)> +
    log(det(sigma))/D + c`` with the constant ``c`` fixed so that the
    gap vanishes when ``sigma == anchor``.  Surrogate and cost carry the
    same ``log(det(sigma))/D``, which cancels, and what is left is the
    mean over the points of ``u - 1 - log(u)``, where ``u`` is the ratio
    of the point's quadratic forms at ``sigma`` and at ``anchor``.  Each
    term is nonnegative, which is the certificate that one fixed-point
    update never increases the cost.  It is invariant to the data's scale.
    """
    points, _ = _prepare(data)
    _, q_anchor, _ = _factor(anchor, points, "majorization_gap")
    if _singular(q_anchor):
        raise ValueError("majorization_gap: anchor is numerically singular on this data")
    _, q, _ = _factor(sigma, points, "majorization_gap")
    if _singular(q):
        raise NotSPDError("majorization_gap: sigma is numerically singular on this data")
    with np.errstate(all="ignore"):  # a ratio that overflows makes the gap inf or NaN
        ratio = q / q_anchor
        gap = float(np.mean(ratio - 1.0 - np.log(ratio)))
    if not math.isfinite(gap):
        raise ValueError("majorization_gap: the gap is not finite on this data")
    return gap
