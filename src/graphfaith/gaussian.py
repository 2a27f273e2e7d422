"""Exact Gaussian conditional independence from rational covariance matrices.

Everything here is exact over the rationals: faithfulness is a zero/nonzero
dichotomy, so a floating-point test of a partial covariance would make the
axiom checkers unsound.  Decimal input is parsed to exact fractions.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import MatrixError, ParseError
from .graphs import LINE, MixedGraph
from .limits import DEFAULT_CAPS
from .models import IndependenceModel, _require_label, elementary_table, model_from_elementary


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


def _pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """One exact Gauss-Jordan step on the nonzero entry rows[r][c], in place:
    row r is scaled to a unit pivot and column c is cleared from every other
    row.  Rows are replaced, never mutated, so a shallow copy of `rows` keeps
    the unpivoted matrix intact."""
    p = rows[r][c]
    pivot_row = rows[r] = [x / p for x in rows[r]]
    for i, row in enumerate(rows):
        factor = row[c]
        if factor and i != r:
            rows[i] = [x - factor * y for x, y in zip(row, pivot_row)]


def _reduce(rows: list[list[Fraction]]) -> Fraction:
    """Gauss-Jordan on the leading square block of `rows`, in place, swapping
    rows to a nonzero pivot; returns the block's determinant, or 0 (with
    elimination stopped) when it is singular."""
    det = Fraction(1)
    for c in range(len(rows)):
        r = next((r for r in range(c, len(rows)) if rows[r][c] != 0), None)
        if r is None:
            return Fraction(0)
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        det *= rows[c][c]
        _pivot(rows, c, c)
    return det


def leading_principal_minors(m: RationalMatrix) -> list[Fraction]:
    """Determinants of the top-left k x k blocks, k = 1..n, computed exactly."""
    return [_reduce([list(row[:k]) for row in m.rows[:k]]) for k in range(1, m.n + 1)]


def is_positive_definite(m: RationalMatrix) -> bool:
    """All leading principal minors strictly positive (exact)."""
    if not m.is_symmetric():
        return False
    return all(minor > 0 for minor in leading_principal_minors(m))


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
    """Exact Gauss-Jordan inverse; raises on singular input."""
    n = m.n
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.rows)]
    if _reduce(rows) == 0:
        raise MatrixError("matrix is singular")
    return RationalMatrix(m.labels, tuple(tuple(row[n:]) for row in rows))


def partial_covariance(m: RationalMatrix, i: int, j: int, given: Sequence[int]) -> Fraction:
    """sigma_ij - sigma_iC (sigma_CC)^-1 sigma_Cj, exactly, as the Schur
    determinant ratio det[[sigma_ij, sigma_iC], [sigma_Cj, sigma_CC]] / det sigma_CC."""
    block = _reduce([[m.rows[r][c] for c in given] for r in given])
    if block == 0:
        raise MatrixError("conditioning block of the covariance is singular")
    bordered = _reduce([[m.rows[r][c] for c in [j, *given]] for r in [i, *given]])
    return bordered / block


def _require_positive_definite(m: RationalMatrix, role: str) -> None:
    """Raise naming the first leading principal minor that is not positive."""
    for k, minor in enumerate(leading_principal_minors(m)):
        if minor <= 0:
            raise MatrixError(
                f"{role} is not positive definite: leading principal minor {k + 1} is {minor}"
            )


def model_from_covariance(
    sigma: RationalMatrix, *, cap: int = DEFAULT_CAPS.model_nodes
) -> IndependenceModel:
    """The independence model of the regular Gaussian with this covariance.

    An elementary statement holds exactly when the partial covariance is
    zero; set statements follow from their elementary ones, which is valid
    because regular Gaussian models satisfy composition and decomposition.
    """
    if sigma.n > cap:
        raise MatrixError(f"matrix has {sigma.n} rows, above the cap {cap}")
    bad = sigma._asymmetric_pair()
    if bad is not None:
        raise MatrixError(
            f"covariance must be symmetric; entries ({sigma.labels[bad[0]]},{sigma.labels[bad[1]]}) differ"
        )
    _require_positive_definite(sigma, "covariance")
    return _covariance_model(sigma)


def _covariance_model(sigma: RationalMatrix) -> IndependenceModel:
    """The model of a symmetric positive definite covariance: one checked by
    the caller, or the exact inverse of a checked concentration."""
    n = sigma.n
    order = sorted(range(n), key=lambda r: sigma.labels[r])
    ground = tuple(sigma.labels[r] for r in order)
    zero: set[tuple[int, int, int]] = set()

    def walk(cm: int, rows: list[list[Fraction]]) -> None:
        # rows is sigma pivoted on C: entry (a, b) with a, b outside C is the
        # partial covariance of a and b given C.  Children add a node above
        # C's highest, each with one diagonal pivot, positive since sigma is PD.
        rest = [a for a in range(n) if not cm >> a & 1]
        zero.update((a, b, cm) for x, a in enumerate(rest) for b in rest[x + 1 :] if rows[a][b] == 0)
        for k in range(cm.bit_length(), n):
            child = list(rows)
            _pivot(child, k, k)
            walk(cm | 1 << k, child)

    walk(0, [[sigma.rows[r][c] for c in order] for r in order])
    return model_from_elementary(ground, elementary_table(n, lambda a, b, cm: (a, b, cm) in zero))


def model_from_concentration(
    k_matrix: RationalMatrix, *, cap: int = DEFAULT_CAPS.model_nodes
) -> IndependenceModel:
    """Same, with the matrix read as a concentration (inverse covariance).

    K is checked before it is inverted: it is positive definite exactly when
    its inverse is, and an error should name the matrix the caller gave."""
    if not k_matrix.is_symmetric():
        raise MatrixError("concentration matrix must be symmetric")
    if k_matrix.n > cap:
        raise MatrixError(f"matrix has {k_matrix.n} rows, above the cap {cap}")
    _require_positive_definite(k_matrix, "concentration")
    return _covariance_model(inverse(k_matrix))


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
            try:
                parsed.append(Fraction(cell))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"cannot parse entry {cell!r} as a rational", path=path, line=lineno)
        data.append(tuple(parsed))
    try:
        return RationalMatrix(tuple(header), tuple(data))
    except MatrixError as exc:
        raise ParseError(str(exc), path=path) from None


def matrix_to_csv(m: RationalMatrix) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(m.labels)
    for row in m.rows:
        writer.writerow([str(x) for x in row])
    return out.getvalue()
