"""Independence models over a finite ground set, and their closure properties.

An independence model is a set of triples <A,B|C> of pairwise-disjoint node
sets.  Triples with A or B empty are treated as always present and are never
stored.  Storage is one bit per disjoint ordered triple: each node of the
ground set takes one of four roles (out, first side, second side,
conditioning), giving a base-4 code; the bit for the code with the two sides
in canonical order is set.  Subset and equality are then plain integer
operations, and so is the set-axiom gate: a one-node step of an axiom moves
one digit, which is a shift of the whole member integer.  Lookups and scans
read a cached byte view of the same bits (code c is bit c & 7 of byte
c >> 3), so a membership test reads one byte instead of shifting a 4^n-bit
integer, and every function that makes a model writes its members into a
bytearray of that layout, turned into the integer once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ModelError, ParseError
from .limits import DEFAULT_CAPS, HARD_MAX_ELEMENTARY_NODES, require_within

if TYPE_CHECKING:  # only for annotations; avoids an import cycle
    from .preorders import Preorder

NodeSet = frozenset[str]
Triple = tuple[NodeSet, NodeSet, NodeSet]


def _base4_weights(n: int) -> tuple[int, ...]:
    """weights[mask] = sum of 4**v over the set bits v of mask."""
    out = [0] * (1 << n)
    for v in range(n):
        place = 4**v
        bit = 1 << v
        for m in range(bit):
            out[m | bit] = out[m] + place
    return tuple(out)


@lru_cache(maxsize=4)
def _digit_masks(n: int) -> tuple[tuple[tuple[int, int, int, int], ...], int]:
    """(digit, no_b) over the 4^n codes of n nodes: digit[v][k] has the bit
    of every code whose base-4 digit v is k, and no_b the bit of every code
    with no digit 2 (an empty second side)."""
    digit = []
    for v in range(n):
        place = 4**v
        block, width = (1 << place) - 1, 4 * place  # digit v is 0, in one period
        while width < 4**n:
            block |= block << width
            width *= 2
        digit.append(tuple(block << k * place for k in range(4)))
    no_b = 1
    for v in range(n):
        no_b |= (no_b << 4**v) | (no_b << 3 * 4**v)
    return tuple(digit), no_b


@lru_cache(maxsize=4)
def _sets_holding(n: int) -> tuple[int, ...]:
    """holding[k]: the conditioning sets that hold node k, as bits of a
    2^n-bit elementary row (bit C is set when bit k of C is)."""
    holding = []
    for k in range(n):
        mask, width = ((1 << (1 << k)) - 1) << (1 << k), 2 << k
        while width < 1 << n:
            mask |= mask << width
            width <<= 1
        holding.append(mask)
    return tuple(holding)


def _breaks_by_set(rows: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """From (k, row) pairs: (C, the mask of the k whose row holds bit C)
    for each C in some row, C increasing."""
    union = 0
    for _, row in rows:
        union |= row
    return tuple((cm, sum(1 << k for k, row in rows if (row >> cm) & 1)) for cm in _iter_bits(union))


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _iter_submasks(mask: int) -> Iterator[int]:
    """All non-empty submasks of mask (mask itself included), increasing."""
    sub = 0
    while True:
        sub = (sub - mask) & mask
        if sub == 0:
            return
        yield sub


def _iter_subsets(mask: int) -> Iterator[int]:
    """All submasks of mask, the empty one first, increasing: the
    conditioning sets drawn from `mask`."""
    yield 0
    yield from _iter_submasks(mask)


# The runs of non-zero bytes in a member byte view.
_NONZERO_RUN = re.compile(rb"[^\x00]+")
# _BYTE_BITS[b]: the set bit positions of byte b, increasing.
_BYTE_BITS = tuple(tuple(k for k in range(8) if (b >> k) & 1) for b in range(256))


def _byte_digits(b: int) -> tuple[int, int, int]:
    """Masks of the base-4 digits 1, 2 and 3 among the four digits of byte b."""
    masks = [0, 0, 0, 0]
    for pos in range(4):
        masks[(b >> (2 * pos)) & 3] |= 1 << pos
    return masks[1], masks[2], masks[3]


_BYTE_DIGITS = tuple(_byte_digits(b) for b in range(256))


def _decode_masks(code: int) -> tuple[int, int, int]:
    """The (A, B, C) masks of a triple code, four digits per byte."""
    am = bm = cm = 0
    shift = 0
    while code:
        a, b, c = _BYTE_DIGITS[code & 255]
        am |= a << shift
        bm |= b << shift
        cm |= c << shift
        code >>= 8
        shift += 4
    return am, bm, cm


def _member_buffer(n: int) -> bytearray:
    """A zeroed member set over n nodes: code c is bit c & 7 of byte c >> 3."""
    return bytearray((4**n + 7) >> 3)


def _set_code(buf: bytearray, code: int) -> None:
    """Set the bit of `code`, growing `buf` when it is too short: builders
    from explicit statements start empty, so a wide ground with few
    statements costs what its highest code needs, not 4^n bits."""
    k = code >> 3
    if k >= len(buf):
        buf.extend(bytes(k + 1 - len(buf)))
    buf[k] |= 1 << (code & 7)


def _members_of(buf: bytearray) -> int:
    return int.from_bytes(buf, "little")


@dataclass(frozen=True)
class IndependenceModel:
    """A set of independence triples over a fixed, sorted ground tuple.

    `members` holds one bit per canonically-ordered disjoint triple with both
    sides non-empty.  Models are immutable; all derived structure is cached.
    """

    ground: tuple[str, ...]
    members: int

    def __post_init__(self) -> None:
        if tuple(sorted(self.ground)) != self.ground:
            raise ModelError("ground tuple must be sorted")
        if len(set(self.ground)) != len(self.ground):
            raise ModelError("ground contains duplicate labels")

    # -- index plumbing ------------------------------------------------

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.ground)}

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        return _base4_weights(len(self.ground))

    @property
    def n(self) -> int:
        return len(self.ground)

    def _mask_of(self, labels: Iterable[str]) -> int:
        idx = self._index
        mask = 0
        it = iter(labels)
        for lab in it:
            try:
                mask |= 1 << idx[lab]
            except KeyError:  # name the smallest unknown label, whatever the set order
                raise ModelError(f"unknown node label {min({lab, *it} - idx.keys())!r}") from None
        return mask

    def _labels_of(self, mask: int) -> NodeSet:
        g = self.ground
        return frozenset(g[i] for i in _iter_bits(mask))

    def _code(self, amask: int, bmask: int, cmask: int) -> int:
        """Canonical triple code; the side with the larger weight is digit 1."""
        w = self._weights
        wa, wb = w[amask], w[bmask]
        if wa < wb:
            wa, wb = wb, wa
        return wa + 2 * wb + 3 * w[cmask]

    @cached_property
    def _bytes(self) -> bytes:
        """`members` as little-endian bytes, trailing zero bytes dropped."""
        return self.members.to_bytes((self.members.bit_length() + 7) >> 3, "little")

    def _has(self, amask: int, bmask: int, cmask: int) -> bool:
        code = self._code(amask, bmask, cmask)
        try:
            return bool((self._bytes[code >> 3] >> (code & 7)) & 1)
        except IndexError:  # above the highest member
            return False

    def _codes(self) -> Iterator[int]:
        """The member codes in increasing order, read from the byte view."""
        bits = _BYTE_BITS
        for k, byte in enumerate(self._bytes):
            if byte:
                base = k << 3
                for b in bits[byte]:
                    yield base | b

    def _triples(self) -> Iterator[tuple[int, int, int]]:
        """The (A, B, C) masks of the members in increasing code order.

        Only the runs of non-zero bytes are read.  Bits 0-7 of a code, its
        four low digits, are its byte's place in a block of 32 bytes and the
        bit, decoded by one `_BYTE_DIGITS` lookup; its higher digits are
        those of the block, decoded once per block."""
        bits, digits = _BYTE_BITS, _BYTE_DIGITS
        block = -1
        for run in _NONZERO_RUN.finditer(self._bytes):
            k = run.start()
            for byte in run.group():
                if k >> 5 != block:
                    block = k >> 5
                    ha, hb, hc = _decode_masks(block << 8)
                low = (k & 31) << 3
                for b in bits[byte]:
                    a, bm, c = digits[low | b]
                    yield ha | a, hb | bm, hc | c
                k += 1

    @cached_property
    def _elementary(self) -> dict[tuple[int, int], int]:
        """The elementary statements, one row per pair i < j: bit C of the
        row is set when <i,j|C> is a member, read from the byte view at code
        4^j + 2 * 4^i + 3 * w[C].  The mapping that `model_from_elementary`
        takes."""
        n, w, data = self.n, self._weights, self._bytes
        limit = len(data) << 3
        full = (1 << n) - 1
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                base = 4**j + 2 * 4**i
                row = 0
                for cm in _iter_subsets(full ^ (1 << i) ^ (1 << j)):
                    code = base + 3 * w[cm]
                    if code >= limit:  # codes rise with C
                        break
                    if (data[code >> 3] >> (code & 7)) & 1:
                        row |= 1 << cm
                table[(i, j)] = row
        return table

    @cached_property
    def _skeleton(self) -> tuple[tuple[int, int], ...]:
        """The pairs i < j whose elementary row is empty, in `_elementary`'s
        order: the skeleton's edges, in the order the directing search
        places them."""
        return tuple(pair for pair, row in self._elementary.items() if not row)

    @cached_property
    def _stability_table(self) -> tuple[tuple[int, int, int, int, tuple, tuple], ...]:
        """What the ordered stabilities of any preorder can trip on.

        One row per pair i < j that some single k breaks: (i, j, up_any,
        down_any, ups, downs).  For each member <i,j|C>, `ups` holds (C, up)
        with up the nodes k outside C whose addition leaves the model, and
        `downs` holds (C, down) with down the k in C whose removal does;
        empty masks are left out.  up_any and down_any are their unions.
        """
        holding = _sets_holding(self.n)
        table = []
        for (i, j), row in self._elementary.items():
            if not row:
                continue
            # U_k: the C in the row without k whose C u {k} is not; D_k: the
            # C in the row with k whose C minus k is not.
            up_rows, down_rows = [], []
            for k, h in enumerate(holding):
                if k != i and k != j:
                    if u := row & ~h & ~(row >> (1 << k)):
                        up_rows.append((k, u))
                    if d := row & h & ~(row << (1 << k)):
                        down_rows.append((k, d))
            if up_rows or down_rows:
                ups, downs = _breaks_by_set(up_rows), _breaks_by_set(down_rows)
                up_any = sum(1 << k for k, _ in up_rows)
                down_any = sum(1 << k for k, _ in down_rows)
                table.append((i, j, up_any, down_any, ups, downs))
        return tuple(table)

    @cached_property
    def _symmetric(self) -> int:
        """The members in both side orders: digits 1 and 2 swapped at every node."""
        swapped = self.members
        for v, (d0, d1, d2, d3) in enumerate(_digit_masks(self.n)[0]):
            place = 4**v
            swapped = (swapped & (d0 | d3)) | ((swapped & d1) << place) | ((swapped & d2) >> place)
        return self.members | swapped

    @cached_property
    def _semi_graphoid(self) -> bool:
        """Decomposition, weak union and contraction, decided by one-node steps.

        On the symmetric set S, for every node v: decomposition drops v from
        the second side (digit 2 -> 0), weak union moves it to the
        conditioning set (2 -> 3), and a result with a non-empty second side
        must be in S; contraction with D = {v} is `_joins_hold(self, 3, 0)`.
        That is exact: chaining one-node moves gives decomposition and weak
        union for any D, and contraction follows by induction on |D|.  For
        D = D' u {v}, <A,D|C> gives <A,D'|C> by decomposition and
        <A,{v}|C u D'> by weak union; the one-node step turns the latter and
        <A,B|C u D> into <A,B u {v}|C u D'>, and contraction over D' (the
        induction) with <A,D'|C> gives <A,B u D|C>.
        """
        s = self._symmetric
        digit, no_b = _digit_masks(self.n)
        missing_with_b = ~(s | no_b)
        for v, (_, _, d2, _) in enumerate(digit):
            with_v = s & d2
            if ((with_v >> 2 * 4**v) | (with_v << 4**v)) & missing_with_b:
                return False
        return _joins_hold(self, 3, 0)

    @cached_property
    def _compositional(self) -> bool:
        """A semi-graphoid closed under composition (see check_composition).
        Every separation model is one."""
        return self._semi_graphoid and _joins_hold(self, 0, 0)

    # -- construction --------------------------------------------------

    @classmethod
    def from_statements(
        cls,
        ground: Iterable[str],
        statements: Iterable[tuple[Iterable[str], Iterable[str], Iterable[str]]] = (),
    ) -> "IndependenceModel":
        """Build a model from explicit statements, symmetrized, no closure.

        The statements are stored exactly as given (plus symmetry); no axiom
        is applied, since the point of this package is to *check* axioms.
        """
        gtuple = tuple(sorted(set(ground)))
        model = cls(gtuple, 0)
        buf = bytearray()
        for a, b, c in statements:
            am, bm, cm = model._mask_of(a), model._mask_of(b), model._mask_of(c)
            _require_disjoint_masks(model, am, bm, cm)
            if not am or not bm:
                continue  # trivial statements are implicit
            _set_code(buf, model._code(am, bm, cm))
        return cls(gtuple, _members_of(buf))

    @classmethod
    def from_member_mask(cls, ground: Sequence[str], mask: int) -> "IndependenceModel":
        """Build from a raw member bitmask, validating every set bit.

        Each bit must sit at the canonical code of a disjoint triple with
        both sides non-empty.  The plain constructor skips this check and is
        meant for masks produced by this module.
        """
        model = cls(tuple(sorted(set(ground))), mask)
        if mask < 0 or mask >> (4 ** len(model.ground)):
            raise ModelError("member mask has bits outside the triple code range")
        w = model._weights
        for am, bm, cm in model._triples():
            code = w[am] + 2 * w[bm] + 3 * w[cm]
            if not am or not bm:
                raise ModelError(f"mask bit {code} is not a valid disjoint triple code")
            if w[am] < w[bm]:
                raise ModelError(f"mask bit {code} is not in canonical side order")
        return model

    @classmethod
    def full_independence(cls, ground: Iterable[str]) -> "IndependenceModel":
        """The model containing every disjoint triple (everything independent)."""
        gtuple = tuple(sorted(set(ground)))
        n = len(gtuple)
        every_set = (1 << (1 << n)) - 1  # <i,j|C> for every conditioning set C
        return model_from_elementary(gtuple, {(i, j): every_set for i in range(n) for j in range(i + 1, n)})

    # -- queries ---------------------------------------------------------

    def contains(self, a: Iterable[str], b: Iterable[str], c: Iterable[str] = ()) -> bool:
        """Membership of <A,B|C>; triples with empty A or B are always present."""
        am, bm, cm = self._mask_of(a), self._mask_of(b), self._mask_of(c)
        _require_disjoint_masks(self, am, bm, cm)
        if not am or not bm:
            return True
        return self._has(am, bm, cm)

    def statements(self) -> Iterator[Triple]:
        """All stored (non-trivial) statements in increasing code order."""
        labels = self._labels_of
        for am, bm, cm in self._triples():
            yield labels(am), labels(bm), labels(cm)

    def elementary_statements(self) -> Iterator[tuple[str, str, NodeSet]]:
        """Stored statements with singleton sides, as (i, j, C) with i < j."""
        for a, b, c in self.statements():
            if len(a) == 1 and len(b) == 1:
                i, j = sorted((next(iter(a)), next(iter(b))))
                yield i, j, c

    def is_submodel_of(self, other: "IndependenceModel") -> bool:
        if self.ground != other.ground:
            raise ModelError("models are over different ground sets")
        return self.members & ~other.members == 0

    def statement_count(self) -> int:
        return self.members.bit_count()


def _require_disjoint_masks(model: IndependenceModel, am: int, bm: int, cm: int) -> None:
    overlap = (am & bm) | (am & cm) | (bm & cm)
    if overlap:
        shared = sorted(model._labels_of(overlap))
        raise ModelError(f"statement sets overlap on node {shared[0]!r}")


def _iter_triple_masks(n: int) -> Iterator[tuple[int, int, int]]:
    """All disjoint (A,B,C) masks with A,B non-empty, one orientation each.

    C first, then A within the rest, then B within what A leaves.  The
    orientation kept is the canonical one (weight of A above weight of B),
    so the emitted code equals the stored code: for disjoint sides that is
    B lying below the highest node of A, so B is drawn only from there.
    """
    full = (1 << n) - 1
    for cm in range(1 << n):
        rest = full ^ cm
        for am in _iter_submasks(rest):
            for bm in _iter_submasks(rest & ~am & ((1 << (am.bit_length() - 1)) - 1)):
                yield am, bm, cm


def _model_where(ground: tuple[str, ...], holds: Callable[[int, int, int], bool]) -> IndependenceModel:
    """The model over the sorted `ground` whose members are the disjoint
    triples that `holds(A, B, C)` accepts, each asked once, in canonical
    orientation."""
    model = IndependenceModel(ground, 0)
    buf = _member_buffer(model.n)
    for am, bm, cm in _iter_triple_masks(model.n):
        if holds(am, bm, cm):
            _set_code(buf, model._code(am, bm, cm))
    return IndependenceModel(ground, _members_of(buf))


def model_from_elementary(
    ground: Sequence[str],
    separated: Mapping[tuple[int, int], int],
) -> IndependenceModel:
    """Extend elementary statements to the full model by composition.

    `separated[(i, j)]` is a bitmask over conditioning-set masks: bit C is set
    when <i,j|C> holds (i < j as ground indices).  The extension rule is
    <A,B|C> iff <i,j|C> for every i in A, j in B, which is exact for models
    closed under composition and decomposition (graph-induced and regular
    Gaussian models both are).

    Only members are visited.  Each row is read only at the conditioning
    sets that avoid its pair, and its set bits are grouped by C: sep[C][i]
    holds the j with <i,j|C>, and the support of C the nodes with some such
    j.  For each C with a support, the non-empty A within it are walked in
    increasing submask order, keeping near[A] = near[A minus its lowest
    node] & sep[C][that node], the nodes separated from all of A; an A
    outside the support has a node with no partner, so its near is empty
    and it has no member.  The members with this A and C are then exactly
    the non-empty B within near[A] in canonical orientation (below the
    highest node of A), and each sets its bit in one bytearray.  This is the
    same rule applied to the same triples as testing every disjoint triple
    against every pair; only the order of work differs, so the result is
    identical, also for input that is not compositional.
    """
    gtuple = tuple(sorted(set(ground)))
    n = len(gtuple)
    w = _base4_weights(n)
    holding = _sets_holding(n)
    every = (1 << (1 << n)) - 1
    sep = [[0] * n for _ in range(1 << n)]
    support = [0] * (1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            row = separated[(i, j)] & (every ^ (holding[i] | holding[j]))
            bi, bj = 1 << i, 1 << j
            while row:
                low = row & -row
                cm = low.bit_length() - 1
                sep[cm][i] |= bj
                sep[cm][j] |= bi
                support[cm] |= bi | bj
                row ^= low
    buf = _member_buffer(n)
    near = [0] * (1 << n)
    for cm, rest in enumerate(support):
        if not rest:
            continue
        seps = sep[cm]
        near[0] = rest
        c3 = 3 * w[cm]
        am = 0
        while True:
            am = (am - rest) & rest
            if not am:
                break
            low = am & -am
            common = near[am ^ low] & seps[low.bit_length() - 1]
            near[am] = common
            common &= (1 << (am.bit_length() - 1)) - 1
            if common:
                base = w[am] + c3
                bm = 0
                while True:
                    bm = (bm - common) & common
                    if not bm:
                        break
                    code = base + 2 * w[bm]
                    buf[code >> 3] |= 1 << (code & 7)
    return IndependenceModel(gtuple, _members_of(buf))


def skeleton_pairs(model: IndependenceModel) -> frozenset[tuple[str, str]]:
    """Pairs {i,j} that stay dependent under every conditioning set.

    These are the edges of the model's skeleton: an edge is drawn exactly when
    no C with <i,j|C> in the model exists.
    """
    g = model.ground
    return frozenset((g[i], g[j]) for i, j in model._skeleton)


def marginalize_and_condition(
    model: IndependenceModel,
    margin: Iterable[str],
    condition: Iterable[str],
) -> IndependenceModel:
    """The model after marginalizing over `margin` and conditioning on `condition`.

    The result lives on ground minus both sets; <A,B|D> is in the result
    exactly when <A,B|D union condition> is in the input, so each input
    member whose sides avoid the margin and whose C holds the conditioning
    set gives one result member, renumbered over the kept nodes.  The cost
    is one digit test per input member and one copy per result member, so a
    sparse input over a wide ground stays cheap; the result ground's triples
    are never enumerated.
    """
    mm = model._mask_of(margin)
    cm0 = model._mask_of(condition)
    if mm & cm0:
        shared = sorted(model._labels_of(mm & cm0))
        raise ModelError(f"marginalization and conditioning sets overlap on node {shared[0]!r}")
    keep = [i for i in range(model.n) if not ((mm | cm0) >> i) & 1]
    out = sum(3 << 2 * v for v in _iter_bits(mm))  # a kept member's margin digits are 0 (out)
    given = sum(3 << 2 * v for v in _iter_bits(cm0))  # and its conditioning digits 3 (given)
    # Its digits on the kept nodes, in order, are its code in the result (the side
    # holding the highest node stays first): copy each run of consecutive kept nodes.
    steps: list[list[int]] = []  # [bit shift in the input code, run mask, bit shift in the result code]
    for pos, v in enumerate(keep):
        if pos and keep[pos - 1] == v - 1:
            steps[-1][1] = steps[-1][1] << 2 | 3
        else:
            steps.append([2 * v, 3, 2 * pos])
    buf = bytearray()
    for code in model._codes():
        if not code & out and code & given == given:
            new = 0
            for shift, run, to in steps:
                new |= ((code >> shift) & run) << to
            _set_code(buf, new)
    return IndependenceModel(tuple(model.ground[i] for i in keep), _members_of(buf))


# ----------------------------------------------------------------------
# Property checkers
# ----------------------------------------------------------------------

Witness = dict[str, object]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one property check.

    `violations` holds the lexicographically first witness per sub-axiom;
    `count` is the total number of violating instantiations found.
    """

    property_name: str
    passed: bool
    violations: tuple[Witness, ...]
    count: int

    def to_json_dict(self) -> dict:
        return {
            "property": self.property_name,
            "passed": self.passed,
            "violations": [{"witness": v} for v in self.violations],
            "count": self.count,
        }


def _sorted_labels(model: IndependenceModel, mask: int) -> tuple[str, ...]:
    return tuple(sorted(model._labels_of(mask)))


def _set_witness(model: IndependenceModel, axiom: str, am: int, bm: int, cm: int, dm: int) -> Witness:
    return {
        "axiom": axiom,
        "A": list(_sorted_labels(model, am)),
        "B": list(_sorted_labels(model, bm)),
        "C": list(_sorted_labels(model, cm)),
        "D": list(_sorted_labels(model, dm)),
    }


def _witness_key(w: Witness) -> tuple:
    return tuple((k, tuple(v) if isinstance(v, list) else v) for k, v in sorted(w.items()))


def _reduce(property_name: str, axioms: Sequence[str], found: Iterable[tuple[str, Witness]]) -> CheckReport:
    best: dict[str, Witness] = {}
    count = 0
    for axiom, witness in found:
        count += 1
        cur = best.get(axiom)
        if cur is None or _witness_key(witness) < _witness_key(cur):
            best[axiom] = witness
    violations = tuple(best[a] for a in axioms if a in best)
    return CheckReport(property_name, count == 0, violations, count)


def _check_set_cap(model: IndependenceModel, cap: int) -> None:
    require_within("ground for set-level axiom check", model.n, cap)


def _joins_hold(model: IndependenceModel, given: int, spread: int) -> bool:
    """Every one-node join of one rule holds, by whole-model shifts.

    For each node v, the codes <A,0|C'> with <A,{v}|C'> in the symmetric
    set S are widened: any of their digits `spread` may turn into 2.  With
    spread 0 that gives every <A,B|C0> with <A,{v}|C0>, with spread 3 every
    <A,B|C0> with <A,{v}|C0 u B>.  They meet the <A,B|C0> (v outside) with
    <A,B|C0 u {v}> in S (given 3) or <A,B|C0> in S (given 0), and each code
    they share must be in S with v joined to B.  So (3, 0) is contraction,
    (3, 3) intersection and (0, 0) composition, each with D = {v}.
    """
    s = model._symmetric
    missing = ~s
    digit, no_b = _digit_masks(model.n)
    for v, masks in enumerate(digit):
        place = 4**v
        widened = ((s & masks[2]) >> 2 * place) & no_b
        for u, other in enumerate(digit):
            moved = widened & other[spread]
            widened |= moved << 2 * 4**u if spread == 0 else moved >> 4**u
        if (((s & masks[given]) >> given * place & widened) << 2 * place) & missing:
            return False
    return True


def _iter_semi_graphoid_violations(model: IndependenceModel) -> Iterator[tuple[str, Witness]]:
    # Symmetry cannot fail: storage is canonicalized over the side order.
    has = model._has
    for xm, ym, cm in model._triples():
        for am, em in ((xm, ym), (ym, xm)):
            for bm in _iter_submasks(em):
                dm = em ^ bm
                if not dm:
                    continue
                if not has(am, bm, cm):
                    yield "decomposition", _set_witness(model, "decomposition", am, bm, cm, dm)
                if not has(am, bm, cm | dm):
                    yield "weak-union", _set_witness(model, "weak-union", am, bm, cm, dm)
        for am, bm in ((xm, ym), (ym, xm)):
            for dm in _iter_submasks(cm):
                c0 = cm ^ dm
                if has(am, dm, c0) and not has(am, bm | dm, c0):
                    yield "contraction", _set_witness(model, "contraction", am, bm, c0, dm)


def check_semi_graphoid(model: IndependenceModel, *, cap: int = DEFAULT_CAPS.set_axiom_nodes) -> CheckReport:
    """Symmetry, decomposition, weak union, and contraction.  A pass is
    decided by `IndependenceModel._semi_graphoid`; the exhaustive scan runs
    only to report a failure."""
    _check_set_cap(model, cap)
    return _reduce(
        "semi-graphoid",
        ("decomposition", "weak-union", "contraction"),
        () if model._semi_graphoid else _iter_semi_graphoid_violations(model),
    )


def _iter_intersection_violations(model: IndependenceModel) -> Iterator[tuple[str, Witness]]:
    has = model._has
    for xm, ym, cm in model._triples():
        for am, bm in ((xm, ym), (ym, xm)):
            for dm in _iter_submasks(cm):
                c0 = cm ^ dm
                if has(am, dm, c0 | bm) and not has(am, bm | dm, c0):
                    yield "intersection", _set_witness(model, "intersection", am, bm, c0, dm)


def check_intersection(model: IndependenceModel, *, cap: int = DEFAULT_CAPS.set_axiom_nodes) -> CheckReport:
    """Intersection: from <A,B|C u D> and <A,D|C u B> infer <A,B u D|C>.

    A semi-graphoid passes when its one-node joins hold; otherwise the scan
    decides.  For D = D' u {v}, weak union turns <A,D|C u B> into
    <A,{v}|C u B u D'> and <A,D'|C u B u {v}>; the join with <A,B|C u D>
    gives <A,B u {v}|C u D'>, and intersection over D' (induction on |D|)
    gives <A,B u D|C>.
    """
    _check_set_cap(model, cap)
    passed = model._semi_graphoid and _joins_hold(model, 3, 3)
    return _reduce("intersection", ("intersection",), () if passed else _iter_intersection_violations(model))


def _iter_composition_violations(model: IndependenceModel) -> Iterator[tuple[str, Witness]]:
    has = model._has
    full = (1 << model.n) - 1
    for xm, ym, cm in model._triples():
        free = full ^ xm ^ ym ^ cm
        for am, bm in ((xm, ym), (ym, xm)):
            for dm in _iter_submasks(free):
                if has(am, dm, cm) and not has(am, bm | dm, cm):
                    yield "composition", _set_witness(model, "composition", am, bm, cm, dm)


def check_composition(model: IndependenceModel, *, cap: int = DEFAULT_CAPS.set_axiom_nodes) -> CheckReport:
    """Composition: from <A,B|C> and <A,D|C> infer <A,B u D|C>.

    A semi-graphoid passes when its one-node joins hold; otherwise the scan
    decides.  For D = D' u {v}, decomposition turns <A,D|C> into <A,{v}|C>
    and <A,D'|C>; the join with <A,B|C> gives <A,B u {v}|C>, and
    composition over D' (induction on |D|) gives <A,B u D|C>.
    """
    _check_set_cap(model, cap)
    passed = model._compositional
    return _reduce("composition", ("composition",), () if passed else _iter_composition_violations(model))


def _iter_singleton_transitivity_violations(model: IndependenceModel) -> Iterator[tuple[str, Witness]]:
    """The violations by row shifts, pairs i < j in order, then C, then k
    increasing: for each k apart from i and j, bit C of row & (row >> 2^k)
    outside the sets holding k is a C with <i,j|C> and <i,j|C u {k}>, and
    it is a violation unless row (i, k) or row (j, k) holds it."""
    table = model._elementary
    holding = _sets_holding(model.n)
    g = model.ground
    for (i, j), row in table.items():
        if not row:
            continue
        broken = []
        for k, h in enumerate(holding):
            if k != i and k != j:
                either = table[(i, k) if i < k else (k, i)] | table[(j, k) if j < k else (k, j)]
                if v := row & (row >> (1 << k)) & ~h & ~either:
                    broken.append((k, v))
        for cm, ks in _breaks_by_set(broken):
            for k in _iter_bits(ks):
                yield "singleton-transitivity", {"i": g[i], "j": g[j], "k": g[k], "C": list(_sorted_labels(model, cm))}


def check_singleton_transitivity(
    model: IndependenceModel, *, cap: int = DEFAULT_CAPS.elementary_axiom_nodes
) -> CheckReport:
    """From <i,j|C> and <i,j|C u {k}> infer <i,k|C> or <j,k|C>."""
    require_within("ground for singleton-transitivity check", model.n, cap)
    return _reduce(
        "singleton-transitivity",
        ("singleton-transitivity",),
        _iter_singleton_transitivity_violations(model),
    )


# (i, j, C, k): the member <i,j|C> and the node k of one stability violation.
StabilityBreak = tuple[int, int, int, int]


def _columns(leq: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sim_cols, lt_cols) of a preorder's leq rows: sim_cols[k] is the mask
    of l with l ~ k, lt_cols[k] the mask of l with l < k."""
    cols = [0] * len(leq)
    for i, row in enumerate(leq):
        for k in _iter_bits(row):
            cols[k] |= 1 << i
    return (
        tuple(col & leq[k] for k, col in enumerate(cols)),
        tuple(col & ~leq[k] for k, col in enumerate(cols)),
    )


def _ordered_up_breaks(model: IndependenceModel, leq: Sequence[int]) -> Iterator[StabilityBreak]:
    """(i, j, C, k) for each member <i,j|C> and k outside C whose addition
    leaves the model although i or j is below k or k is equivalent to a node
    of C; pairs in order, then C, then k increasing.  Bit j of leq[i] means
    node i <= node j."""
    sim_col = _columns(leq)[0]
    # Nodes in a class of two or more: only they can be equivalent to a node of C.
    shared = 0
    for k, col in enumerate(sim_col):
        if col != 1 << k:
            shared |= col
    for i, j, up_any, _, ups, _ in model._stability_table:
        near = leq[i] | leq[j]
        if not up_any & (near | shared):
            continue
        for cm, up in ups:
            eligible = near
            for c in _iter_bits(cm & shared):
                eligible |= sim_col[c]
            for k in _iter_bits(up & eligible):
                yield i, j, cm, k


def _ordered_down_breaks(model: IndependenceModel, leq: Sequence[int]) -> Iterator[StabilityBreak]:
    """(i, j, C, k) for each member <i,j|C> and k in C whose removal leaves
    the model although neither i nor j is below k and no node of C is
    strictly below k; in the order of `_ordered_up_breaks`."""
    lt_col = _columns(leq)[1]
    for i, j, _, down_any, _, downs in model._stability_table:
        far = ~(leq[i] | leq[j])
        if not down_any & far:
            continue
        for cm, down in downs:
            for k in _iter_bits(down & far):
                if not lt_col[k] & cm:
                    yield i, j, cm, k


def _stability_report(
    model: IndependenceModel,
    name: str,
    breaks: Iterator[StabilityBreak],
    cap: int,
    preorder: "Preorder | None" = None,
) -> CheckReport:
    """The report of one stability over its breaks, after the cap check and,
    given a preorder, the ground check.  `breaks` must be a generator that
    has not started, so that neither check waits on the stability table."""
    require_within("ground for stability check", model.n, cap)
    if preorder is not None and tuple(preorder.ground) != model.ground:
        raise ModelError(
            f"preorder ground {tuple(preorder.ground)} does not match model ground {model.ground}"
        )
    g = model.ground
    found = (
        (name, {"i": g[i], "j": g[j], "C": list(_sorted_labels(model, cm)), "k": g[k]})
        for i, j, cm, k in breaks
    )
    return _reduce(name, (name,), found)


def check_ordered_upward_stability(
    model: IndependenceModel,
    preorder: "Preorder",
    *,
    cap: int = DEFAULT_CAPS.elementary_axiom_nodes,
) -> CheckReport:
    """Adding k to the conditioning set of <i,j|C> must preserve membership
    whenever i or j is below k, or k is equivalent to a conditioning node.

    Quantifies over elementary statements only, per the defining property.
    """
    breaks = _ordered_up_breaks(model, preorder.leq_rows)
    return _stability_report(model, "ordered-upward-stability", breaks, cap, preorder)


def check_ordered_downward_stability(
    model: IndependenceModel,
    preorder: "Preorder",
    *,
    cap: int = DEFAULT_CAPS.elementary_axiom_nodes,
) -> CheckReport:
    """Removing k from the conditioning set of <i,j|C> must preserve
    membership whenever neither i nor j is below k and no other conditioning
    node is strictly below k."""
    breaks = _ordered_down_breaks(model, preorder.leq_rows)
    return _stability_report(model, "ordered-downward-stability", breaks, cap, preorder)


def check_upward_stability(
    model: IndependenceModel, *, cap: int = DEFAULT_CAPS.elementary_axiom_nodes
) -> CheckReport:
    """Unrestricted variant: any k may be added.  This is the upward scan
    under the all-equivalent preorder, whose rows are all ones: there i is
    below every k, so every k outside C is eligible, and the breaks are the
    stability table's upward entries in the table's order."""
    full = (1 << model.n) - 1
    return _stability_report(model, "upward-stability", _ordered_up_breaks(model, (full,) * model.n), cap)


def check_downward_stability(
    model: IndependenceModel, *, cap: int = DEFAULT_CAPS.elementary_axiom_nodes
) -> CheckReport:
    """Unrestricted variant: any k may be removed.  This is the downward
    scan under the all-incomparable preorder, whose rows are the identity:
    there no node is below another, so neither i nor j is below k, no node
    of C is strictly below k, every k in C is eligible, and the breaks are
    the stability table's downward entries in the table's order."""
    identity = tuple(1 << i for i in range(model.n))
    return _stability_report(model, "downward-stability", _ordered_down_breaks(model, identity), cap)


def check_dag_ordered_stabilities(
    model: IndependenceModel,
    order: "Preorder",
    *,
    cap: int = DEFAULT_CAPS.elementary_axiom_nodes,
) -> tuple[CheckReport, CheckReport]:
    """Both ordered stabilities under a partial order (no non-trivial
    equivalence classes), as appropriate for DAGs."""
    if not order.is_partial_order():
        raise ModelError("DAG stability checks need a partial order (no equivalent pairs)")
    up = check_ordered_upward_stability(model, order, cap=cap)
    down = check_ordered_downward_stability(model, order, cap=cap)
    return up, down


def _upward_rows_mask(model: IndependenceModel) -> int:
    """The first test of the stability screen on n packed rows (row y at
    bits n*y ... n*y+n-1, as the directing search packs them): the rows meet
    this mask exactly when some table pair i, j has a node of up_any in row
    i or row j, and `_ordered_up_breaks` then finds a break."""
    n, mask = model.n, 0
    for i, j, up_any, _, _, _ in model._stability_table:
        mask |= up_any << n * i | up_any << n * j
    return mask


def _stabilities_hold(model: IndependenceModel, leq: Sequence[int]) -> bool:
    """Both ordered stabilities hold under the preorder with these leq rows;
    the screen of the directing search."""
    breaks = (_ordered_up_breaks, _ordered_down_breaks)
    return all(next(scan(model, leq), None) is None for scan in breaks)


# ----------------------------------------------------------------------
# Text format:  `a _||_ b | c d`, `a,b _||_ c,d | e`, `node x`, `#` comments
# ----------------------------------------------------------------------

SEPARATOR = "_||_"
# The edge symbols of the graph format, which no label may be.
_EDGE_SYMBOLS = ("--", "->", "<->")
# A label: no edge symbol, and characters that are not str.isspace() (\s) or ',|#'.
_LABEL = re.compile(r"(?!(?:--|->|<->)\Z)[^\s,|#]+")


def _require_label(label: str, subject: str, path: str | None, line: int | None) -> None:
    """Reject a label that the model, graph, preorder and matrix texts
    cannot all carry: the ParseError starts with `subject`, which names it."""
    if not _LABEL.fullmatch(label):
        rule = "a label must be non-empty and contain no whitespace, ',', '|' or '#'"
        if label in _EDGE_SYMBOLS:
            rule += ", and be no edge symbol ('--', '->' or '<->')"
        raise ParseError(f"{subject}: {rule}", path=path, line=line)


def _node_declaration(body: str, declared: set[str], path: str | None, lineno: int) -> str | None:
    """The label that a `node LABEL` line declares, added to `declared`, or
    None for any other line.  A statement or an edge line is no declaration,
    also when its first label is `node` (`node _||_ x`, `node -- x`)."""
    tokens = body.split()
    if tokens[0] != "node" or SEPARATOR in body or (len(tokens) > 1 and tokens[1] in _EDGE_SYMBOLS):
        return None
    if len(tokens) != 2:
        raise ParseError("expected `node LABEL`", path=path, line=lineno)
    _require_label(tokens[1], f"label {tokens[1]!r}", path, lineno)
    if tokens[1] in declared:
        raise ParseError(f"duplicate node declaration {tokens[1]!r}", path=path, line=lineno)
    declared.add(tokens[1])
    return tokens[1]


def _part_id(
    ids: dict[str, int], parts: list[tuple[str, ...]], chunk: str, given: bool, path: str | None, lineno: int
) -> int:
    """The id of a side text (a given text when `given`), made at its first
    sight after its labels pass the label rule; every empty text has id 0."""
    k = ids.get(chunk)
    if k is None:
        # a side splits at commas only, a given text also at whitespace
        tokens = chunk.replace(",", " ").split() if given else [tok.strip() for tok in chunk.split(",")]
        labels = tuple(lab for lab in tokens if lab)
        for lab in labels:
            _require_label(lab, f"label {lab!r}", path, lineno)
        k = ids[chunk] = len(parts) if labels else 0
        if labels:
            parts.append(labels)
    return k


def parse_model_text(text: str, *, path: str | None = None) -> IndependenceModel:
    """Parse the conditional-independence text format.

    Ground is the union of declared `node` labels and every label mentioned
    in a statement; an empty file yields the empty-ground model whose only
    statements are the trivial ones.
    """
    # Pass 1 reads syntax and labels, and keeps three part ids per statement.
    # Pass 2 runs once the ground is known: each id becomes a weight once,
    # and overlaps are found there, so every syntax error is reported first.
    declared: set[str] = set()
    sides, givens = {}, {}  # side texts and given texts, each to its id
    parts: list[tuple[str, ...]] = [()]  # the labels of each id
    statements: list[tuple[int, int, int]] = []  # the A, B and C ids of each statement
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = (line.split("#", 1)[0] if "#" in line else line).strip()
        if not body or body.startswith("node") and _node_declaration(body, declared, path, lineno) is not None:
            continue
        left, separator, right = body.partition(SEPARATOR)
        if not separator:
            raise ParseError(f"expected a statement containing {SEPARATOR!r}", path=path, line=lineno)
        b_part, _, c_part = right.partition("|")
        a, b, c = sides.get(left), sides.get(b_part), givens.get(c_part)
        if a is None or b is None or c is None:
            a = _part_id(sides, parts, left, False, path, lineno)
            b = _part_id(sides, parts, b_part, False, path, lineno)
            c = _part_id(givens, parts, c_part, True, path, lineno)
        if not a or not b:
            raise ParseError("both sides of a statement must be non-empty", path=path, line=lineno)
        statements.append((a, b, c))
    ground = tuple(sorted(declared.union(*parts)))
    require_within("model text ground", len(ground), HARD_MAX_ELEMENTARY_NODES)  # members take 4^n bits
    index = {lab: i for i, lab in enumerate(ground)}
    # the base-4 weight of each id: digit 1 at each of its nodes, so two
    # weights share a bit exactly when their sets share a node
    weights = [sum({4 ** index[lab] for lab in labels}) for labels in parts]
    codes = []
    for s, (a, b, c) in enumerate(statements):
        wa, wb, wc = weights[a], weights[b], weights[c]
        if (wa & wb) | (wa & wc) | (wb & wc):
            # statement s is on the s-th line that holds a separator
            lines = [n for n, line in enumerate(text.splitlines(), start=1) if SEPARATOR in line.split("#", 1)[0]]
            model = IndependenceModel(ground, 0)
            try:
                _require_disjoint_masks(model, *(model._mask_of(parts[p]) for p in (a, b, c)))
            except ModelError as exc:
                raise ParseError(str(exc), path=path, line=lines[s]) from None
        codes.append(wa + 2 * wb + 3 * wc if wa > wb else wb + 2 * wa + 3 * wc)
    buf = bytearray()
    if codes:
        _set_code(buf, max(codes))  # the buffer grows to the highest code only
    for code in codes:
        buf[code >> 3] |= 1 << (code & 7)
    return IndependenceModel(ground, _members_of(buf))


def model_to_text(model: IndependenceModel) -> str:
    """Serialize; `node` lines appear only for labels in no statement.  A label
    that the parser would reject raises its ParseError here."""
    ground = model.ground
    for label in ground:
        _require_label(label, f"label {label!r}", None, None)
    sides: dict[int, tuple[tuple[str, ...], str]] = {}  # mask -> its labels, sorted as the ground is, and their text
    givens = {0: ""}  # mask -> its `| ...` text

    def side(mask: int) -> tuple[tuple[str, ...], str]:
        labels = tuple(ground[i] for i in _iter_bits(mask))
        out = sides[mask] = (labels, ",".join(labels))
        return out

    lines = []
    for am, bm, cm in model._triples():
        a, b = sides.get(am) or side(am), sides.get(bm) or side(bm)
        if b[0] < a[0]:
            a, b = b, a
        given = givens.get(cm)
        if given is None:
            given = givens[cm] = " | " + " ".join(ground[i] for i in _iter_bits(cm))
        lines.append(f"{a[1]} {SEPARATOR} {b[1]}{given}")
    used = 0
    for mask in (*sides, *givens):
        used |= mask
    node_lines = [f"node {lab}" for i, lab in enumerate(ground) if not (used >> i) & 1]
    return "\n".join(node_lines + sorted(lines)) + ("\n" if node_lines or lines else "")
