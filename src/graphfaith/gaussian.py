"""Exact Gaussian conditional independence from rational covariance matrices.

Everything here is exact: faithfulness is a zero/nonzero dichotomy, so a
floating-point test of a partial covariance would make the axiom checkers
unsound.  Decimal input is parsed to exact fractions, and each row is scaled to
int by the lcm of its denominators for Bareiss's fraction-free elimination
(*Sylvester's identity and multistep integer-preserving Gaussian elimination*,
1968); row scaling multiplies a minor by its rows' scales, never zeroes it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import MatrixError, ParseError
from .graphs import LINE, MixedGraph
from .limits import DEFAULT_CAPS
from .models import IndependenceModel, _require_label, model_from_elementary


@dataclass(frozen=True)
class RationalMatrix:
    """Square matrix of exact fractions with row/column node labels."""

    labels: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise MatrixError("duplicate labels")
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise MatrixError(f"matrix must be {n}x{n} to match its labels")

    @classmethod
    def from_rows(cls, labels: Sequence[str], rows: Iterable[Iterable]) -> "RationalMatrix":
        frac_rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        return cls(tuple(labels), frac_rows)

    @classmethod
    def identity(cls, labels: Sequence[str]) -> "RationalMatrix":
        n = len(labels)
        return cls(
            tuple(labels),
            tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)),
        )

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def entry(self, a: str, b: str) -> Fraction:
        return self.rows[self._index[a]][self._index[b]]

    def is_symmetric(self) -> bool:
        return self._asymmetric_pair() is None

    def _asymmetric_pair(self) -> tuple[int, int] | None:
        """The first (i, j), i < j in row order, with entries (i,j) and (j,i) unequal."""
        return next(
            ((i, j) for i in range(self.n) for j in range(i + 1, self.n) if self.rows[i][j] != self.rows[j][i]),
            None,
        )


def _integer(rows: Sequence[Sequence[Fraction]]) -> tuple[list[int], list[list[int]]]:
    """Each row's lcm of denominators, and each row times its lcm, as int."""
    dens = [math.lcm(*(x.denominator for x in row)) for row in rows]
    return dens, [[x.numerator * (d // x.denominator) for x in row] for d, row in zip(dens, rows)]


def _bareiss(rows: list[list[int]], k: int, prev: int, targets: Sequence[int], cols: Iterable[int]) -> None:
    """Bareiss's step on the pivot p = rows[k][k] after the pivot prev: entry
    (x, y) becomes (p*a_xy - a_xk*a_ky) // prev for x in `targets`, y in `cols`.
    Rows are replaced, not mutated, so a shallow copy keeps the parent intact."""
    pivot_row = rows[k]
    p = pivot_row[k]
    for x in targets:
        row = rows[x]
        f = row[k]
        new = rows[x] = row[:]
        for y in cols:
            new[y] = (p * row[y] - f * pivot_row[y]) // prev


def _eliminate(rows: list[list[int]]) -> int:
    """Fraction-free Gauss-Jordan on the leading square block A of `rows`, in
    place, swapping rows to a nonzero pivot; det A, or 0 (stopped) if singular.
    Column c takes one Bareiss step on every other row.  A swap reorders only
    rows not yet pivoted, so a row holds minors of the reordered PA as in
    `_walk`, or, once pivoted, p times a Cramer solution: all divisions are
    exact.  At the end A is p*I, p the last pivot, and columns B after it p*A^-1 B."""
    n = len(rows)
    sign = prev = 1
    for c in range(n):
        r = next((r for r in range(c, n) if rows[r][c]), None)
        if r is None:
            return 0
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            sign = -sign
        _bareiss(rows, c, prev, [x for x in range(n) if x != c], range(len(rows[c])))
        prev = rows[c][c]
    return sign * prev


def leading_principal_minors(m: RationalMatrix) -> list[Fraction]:
    """Determinants of the top-left k x k blocks, k = 1..n, computed exactly."""
    dens, a = _integer(m.rows)
    return [Fraction(_eliminate([row[:k] for row in a[:k]]), math.prod(dens[:k])) for k in range(1, m.n + 1)]


def is_positive_definite(m: RationalMatrix) -> bool:
    """All leading principal minors strictly positive (exact)."""
    return m.is_symmetric() and all(minor > 0 for minor in leading_principal_minors(m))


def is_m_matrix(m: RationalMatrix) -> bool:
    """Positive diagonal and non-positive off-diagonal entries."""
    n = m.n
    for i in range(n):
        if m.rows[i][i] <= 0:
            return False
        for j in range(n):
            if i != j and m.rows[i][j] > 0:
                return False
    return True


def inverse(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse, the adjugate over the determinant; raises on singular input."""
    n = m.n
    dens, a = _integer(m.rows)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    if _eliminate(rows) == 0:
        raise MatrixError("matrix is singular")
    # rows is [p*I | p * a^-1] for the last pivot p, and m^-1 = a^-1 diag(dens).
    inv = tuple(tuple(Fraction(x * d, row[i]) for x, d in zip(row[n:], dens)) for i, row in enumerate(rows))
    return RationalMatrix(m.labels, inv)


def partial_covariance(m: RationalMatrix, i: int, j: int, given: Sequence[int]) -> Fraction:
    """sigma_ij - sigma_iC (sigma_CC)^-1 sigma_Cj, exactly, as the Schur
    determinant ratio det[[sigma_ij, sigma_iC], [sigma_Cj, sigma_CC]] / det sigma_CC."""
    dens, a = _integer([[m.rows[r][c] for c in [j, *given]] for r in [i, *given]])
    block = _eliminate([row[1:] for row in a[1:]])
    if block == 0:
        raise MatrixError("conditioning block of the covariance is singular")
    return Fraction(_eliminate(a), block * dens[0])


def _walk(rows: list[list[int]], dm: int = 0, prev: int = 1) -> Iterator[tuple[int, list[int], list[list[int]]]]:
    """(D, rest, rows) for every mask D over the nodes of an int matrix a, a
    positive definite one with scaled rows, depth first: rest lists the nodes
    outside D; rows[x][y], x, y in rest, is m_xy = det a[D+x, D+y] (D, then x, y).
    The child D + {k}, k above D's highest node, takes one Bareiss step on the
    pivot p = m_kk > 0 after prev = det a[D, D], on the entries outside D + {k}.
    It is exact by Sylvester's identity: with the Schur complements
    s_uv = a_uv - a[u, D] a[D, D]^-1 a[D, v] = m_uv / prev, the 2x2 Schur complement
    of a[D, D] in a[D+k+x, D+k+y] gives that minor as
    prev * (s_kk*s_xy - s_xk*s_ky) = (p*m_xy - m_xk*m_ky) / prev.  A row of D keeps
    its minors over the part of D below its node; they are no minors over D."""
    rest = [x for x in range(len(rows)) if not dm >> x & 1]
    yield dm, rest, rows
    for k in range(dm.bit_length(), len(rows)):
        others = [x for x in rest if x != k]
        child = list(rows)
        _bareiss(child, k, prev, others, others)
        yield from _walk(child, dm | 1 << k, rows[k][k])


def model_from_covariance(sigma: RationalMatrix, *, cap: int = DEFAULT_CAPS.model_nodes) -> IndependenceModel:
    """The independence model of the regular Gaussian with this covariance.
    <x,y|C> holds exactly when the partial covariance, a positive multiple of
    m_xy at D = C in `_walk`, is zero; set statements follow by composition and
    decomposition, which regular Gaussian models satisfy."""
    return _model(sigma, "covariance", cap, jacobi=False)


def model_from_concentration(k_matrix: RationalMatrix, *, cap: int = DEFAULT_CAPS.model_nodes) -> IndependenceModel:
    """Same, with the matrix K read as a concentration, and never inverted.
    <x,y|C> holds exactly when m_xy over K at D = V - C - {x, y} is zero (Jacobi):
    with T = C + {x, y}, the covariance of x, y given C inverts the 2x2 block at
    x, y of the marginal concentration (K^-1[T, T])^-1 = K[T, T] - K[T, D] K[D, D]^-1
    K[D, T], whose entry (x, y) is det K[D+x, D+y] / det K[D, D]; a 2x2 positive
    definite matrix and its inverse are diagonal together."""
    return _model(k_matrix, "concentration", cap, jacobi=True)


def _model(m: RationalMatrix, role: str, cap: int, *, jacobi: bool) -> IndependenceModel:
    """Check the cap, symmetry and positive definiteness, then read the walk."""
    n = m.n
    if n > cap:
        raise MatrixError(f"matrix has {n} rows, above the cap {cap}")
    bad = m._asymmetric_pair()
    if bad is not None:
        raise MatrixError(f"{role} must be symmetric; entries ({m.labels[bad[0]]},{m.labels[bad[1]]}) differ")
    for k, minor in enumerate(leading_principal_minors(m), start=1):
        if minor <= 0:
            raise MatrixError(f"{role} is not positive definite: leading principal minor {k} is {minor}")
    a = _integer(m.rows)[1]
    order = sorted(range(n), key=lambda r: m.labels[r])
    full = (1 << n) - 1
    table = {(x, y): 0 for x in range(n) for y in range(x + 1, n)}
    for dm, rest, rows in _walk([[a[r][c] for c in order] for r in order]):
        for i, x in enumerate(rest):
            row = rows[x]
            for y in rest[i + 1 :]:
                if not row[y]:
                    table[(x, y)] |= 1 << (full ^ dm ^ 1 << x ^ 1 << y if jacobi else dm)
    return model_from_elementary(tuple(m.labels[r] for r in order), table)


def adjacency_weight_matrix(g: MixedGraph, eps: Fraction | int | str) -> RationalMatrix:
    """Identity plus eps at adjacent pairs of an undirected graph.

    With positive eps this is the classical candidate covariance for a
    distribution faithful to the graph; with -eps it is the matching
    concentration matrix (an M-matrix by construction).
    """
    if any(e.kind != LINE for e in g.edges):
        raise MatrixError("adjacency weight matrix needs an undirected (lines-only) graph")
    eps = Fraction(eps)
    labels = tuple(sorted(g.nodes))
    rows = []
    for a in labels:
        row = []
        for b in labels:
            if a == b:
                row.append(Fraction(1))
            elif g.is_adjacent(a, b):
                row.append(eps)
            else:
                row.append(Fraction(0))
        rows.append(tuple(row))
    return RationalMatrix(labels, tuple(rows))


# ----------------------------------------------------------------------
# CSV format: header row of labels, then one row of `p/q` or decimal entries
# per label, in header order.
# ----------------------------------------------------------------------


def parse_matrix_csv(text: str, *, path: str | None = None) -> RationalMatrix:
    rows_raw = [
        (lineno, row)
        for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1)
        if row and not (len(row) >= 1 and row[0].lstrip().startswith("#"))
        and any(cell.strip() for cell in row)
    ]
    if not rows_raw:
        raise ParseError("empty matrix file", path=path)
    header_line, header_row = rows_raw[0]
    header = [cell.strip() for cell in header_row]
    for col, label in enumerate(header, start=1):
        _require_label(label, f"header cell {col} ({label!r})", path, header_line)
    n = len(header)
    if len(rows_raw) - 1 != n:
        raise ParseError(
            f"expected {n} data rows after the header, found {len(rows_raw) - 1}", path=path
        )
    data = []
    for lineno, row in rows_raw[1:]:
        cells = [cell.strip() for cell in row]
        if len(cells) != n:
            raise ParseError(f"expected {n} entries, found {len(cells)}", path=path, line=lineno)
        parsed = []
        for cell in cells:
            _, exp_mark, exponent = cell.upper().partition("E")
            try:  # Fraction would build 10**exponent: bound it as int() bounds digits
                if exp_mark and abs(int(exponent)) > 4300:
                    raise ValueError(cell)
                parsed.append(Fraction(cell))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"cannot parse entry {cell!r} as a rational", path=path, line=lineno)
        data.append(tuple(parsed))
    try:
        return RationalMatrix(tuple(header), tuple(data))
    except MatrixError as exc:
        raise ParseError(str(exc), path=path) from None


def matrix_to_csv(m: RationalMatrix) -> str:
    """Serialize; a label that the parser would reject raises its ParseError here."""
    for label in m.labels:
        _require_label(label, f"label {label!r}", None, None)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(m.labels)
    for row in m.rows:
        writer.writerow([str(x) for x in row])
    return out.getvalue()
