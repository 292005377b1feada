"""Independent oracles the tests compare against.

Everything here is computed from first principles with none of the package's
algebra machinery, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

_FINITE_EDGES = {
    ("A", 1): [],
    ("A", 2): [(1, 2)],
    ("A", 3): [(1, 2), (2, 3)],
    ("A", 4): [(1, 2), (2, 3), (3, 4)],
    ("D", 4): [(1, 2), (2, 3), (2, 4)],
    ("D", 5): [(1, 2), (2, 3), (3, 4), (3, 5)],
}


def cartan_matrix(kind: str, rank: int) -> list[list[int]]:
    edges = _FINITE_EDGES[(kind, rank)]
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for a, b in edges:
        c[a - 1][b - 1] = -1
        c[b - 1][a - 1] = -1
    return c


def positive_roots(kind: str, rank: int) -> list[tuple[int, ...]]:
    """All positive roots, found by brute force: v > 0 with v^T C v = 2."""
    c = cartan_matrix(kind, rank)
    roots = []
    for v in itertools.product(range(4), repeat=rank):
        if not any(v):
            continue
        q = sum(v[i] * c[i][j] * v[j] for i in range(rank) for j in range(rank))
        if q == 2:
            roots.append(v)
    return roots


def preprojective_total_dim(kind: str, rank: int) -> int:
    """Sum of coordinate sums over positive roots."""
    return sum(sum(r) for r in positive_roots(kind, rank))


def kleinian_z2_dims(max_deg: int) -> list[int]:
    """Graded dimensions of the sign-invariant subring of k[x,y].

    Counted directly: a degree-d monomial x^i y^(d-i) is fixed by
    (x,y) -> (-x,-y) exactly when d is even.
    """
    out = []
    for d in range(max_deg + 1):
        count = sum(1 for i in range(d + 1) if (-1) ** d == 1)
        out.append(count)
    return out


def path_counts(vertices, arrows, max_len: int) -> list[int]:
    """Number of paths of each length 0..max_len via adjacency powers.

    ``arrows`` is a list of (source, target) pairs; multiplicities matter.
    """
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    adj = [[0] * n for _ in range(n)]
    for s, t in arrows:
        adj[index[t]][index[s]] += 1
    counts = [n]
    power = [[1 * (i == j) for j in range(n)] for i in range(n)]
    for _ in range(max_len):
        power = [[sum(adj[i][k] * power[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
        counts.append(sum(map(sum, power)))
    return counts


def rational_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def reference_reduce(f, basis) -> dict:
    """Terms of the full division remainder of f by the listed polynomials.

    The plain textbook loop: each basis polynomial's leading exponents are
    recomputed on every call, and the first one dividing the largest
    remaining term cancels it.  Kept as the reference that cached-lead
    normal forms must match exactly.
    """
    key = f.ring.key
    work = dict(f.terms)
    out = {}
    leads = [(max(g.terms, key=key), g) for g in basis]
    while work:
        exps = max(work, key=key)
        coef = work.pop(exps)
        for le, g in leads:
            if all(x <= y for x, y in zip(le, exps)):
                shift = tuple(x - y for x, y in zip(exps, le))
                factor = coef / g.terms[le]
                for e2, c2 in g.terms.items():
                    if e2 == le:
                        continue
                    e = tuple(a + b for a, b in zip(e2, shift))
                    v = work.get(e, Fraction(0)) - factor * c2
                    if v:
                        work[e] = v
                    else:
                        work.pop(e, None)
                break
        else:
            out[exps] = coef
    return out
