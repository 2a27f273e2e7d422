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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ModelError, ParseError
from .limits import DEFAULT_CAPS, require_within

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

    @cached_property
    def _elementary(self) -> dict[tuple[int, int], int]:
        """The elementary statements, one row per pair i < j: bit C of the
        row is set when <i,j|C> is a member.  The mapping that
        `model_from_elementary` takes."""
        return elementary_table(self.n, lambda i, j, cm: self._has(1 << i, 1 << j, cm))

    @cached_property
    def _stability_table(self) -> tuple[tuple[int, int, int, int, tuple, tuple], ...]:
        """What the ordered stabilities of any preorder can trip on.

        One row per pair i < j that some single k breaks: (i, j, up_any,
        down_any, ups, downs).  For each member <i,j|C>, `ups` holds (C, up)
        with up the nodes k outside C whose addition leaves the model, and
        `downs` holds (C, down) with down the k in C whose removal does;
        empty masks are left out.  up_any and down_any are their unions.
        """
        full = (1 << self.n) - 1
        table = []
        for (i, j), row in self._elementary.items():
            rest = full ^ (1 << i) ^ (1 << j)
            ups, downs = [], []
            up_any = down_any = 0
            for cm in _iter_bits(row):
                up = down = 0
                for k in _iter_bits(rest ^ cm):
                    if not (row >> (cm | (1 << k))) & 1:
                        up |= 1 << k
                for k in _iter_bits(cm):
                    if not (row >> (cm ^ (1 << k))) & 1:
                        down |= 1 << k
                if up:
                    ups.append((cm, up))
                    up_any |= up
                if down:
                    downs.append((cm, down))
                    down_any |= down
            if up_any or down_any:
                table.append((i, j, up_any, down_any, tuple(ups), tuple(downs)))
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
        for code in model._codes():
            am, bm, cm = _decode_masks(code)
            if not am or not bm or (am & bm) or (am & cm) or (bm & cm):
                raise ModelError(f"mask bit {code} is not a valid disjoint triple code")
            if model._code(am, bm, cm) != code:
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
        for code in self._codes():
            am, bm, cm = _decode_masks(code)
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


def elementary_table(n: int, holds: Callable[[int, int, int], bool]) -> dict[tuple[int, int], int]:
    """{(i, j): the bitmask over conditioning masks C with holds(i, j, C)},
    for every pair i < j of n nodes and every C avoiding both."""
    full = (1 << n) - 1
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = 0
            for cm in _iter_subsets(full ^ (1 << i) ^ (1 << j)):
                if holds(i, j, cm):
                    row |= 1 << cm
            table[(i, j)] = row
    return table


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

    Only members are visited.  For each C, sep[i] holds the j outside C with
    <i,j|C>; the non-empty A within V minus C are walked in increasing
    submask order, keeping near[A] = near[A minus its lowest node] & sep[that
    node], the nodes separated from all of A.  The members with this A and C
    are then exactly the non-empty B within near[A] in canonical orientation
    (below the highest node of A), and each sets its bit in one bytearray.
    This is the same rule applied to the same triples as testing every
    disjoint triple against every pair; only the order of work differs, so
    the result is identical, also for input that is not compositional.
    """
    gtuple = tuple(sorted(set(ground)))
    n = len(gtuple)
    w = _base4_weights(n)
    full = (1 << n) - 1
    buf = _member_buffer(n)
    near = [0] * (1 << n)
    for cm in range(1 << n):
        rest = full ^ cm
        sep = [0] * n
        for i in _iter_bits(rest):
            for j in _iter_bits(rest >> (i + 1) << (i + 1)):
                if (separated[(i, j)] >> cm) & 1:
                    sep[i] |= 1 << j
                    sep[j] |= 1 << i
        near[0] = rest
        c3 = 3 * w[cm]
        am = 0
        while True:
            am = (am - rest) & rest
            if not am:
                break
            low = am & -am
            common = near[am ^ low] & sep[low.bit_length() - 1]
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
    return frozenset((g[i], g[j]) for (i, j), row in model._elementary.items() if not row)


def marginalize_and_condition(
    model: IndependenceModel,
    margin: Iterable[str],
    condition: Iterable[str],
) -> IndependenceModel:
    """The model after marginalizing over `margin` and conditioning on `condition`.

    The result lives on ground minus both sets; <A,B|D> is in the result
    exactly when <A,B|D union condition> is in the input.
    """
    mm = model._mask_of(margin)
    cm0 = model._mask_of(condition)
    if mm & cm0:
        shared = sorted(model._labels_of(mm & cm0))
        raise ModelError(f"marginalization and conditioning sets overlap on node {shared[0]!r}")
    keep = [i for i in range(model.n) if not ((mm | cm0) >> i) & 1]
    new_ground = tuple(model.ground[i] for i in keep)
    # lift[mask]: a mask over the new ground as a mask over the old one
    lift = [0] * (1 << len(keep))
    for pos, old in enumerate(keep):
        bit = 1 << pos
        for m in range(bit):
            lift[m | bit] = lift[m] | (1 << old)
    out = IndependenceModel(new_ground, 0)
    buf = _member_buffer(len(keep))
    has = model._has
    for am, bm, cmask in _iter_triple_masks(len(keep)):
        if has(lift[am], lift[bm], lift[cmask] | cm0):
            _set_code(buf, out._code(am, bm, cmask))
    return IndependenceModel(new_ground, _members_of(buf))


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
    for code in model._codes():
        xm, ym, cm = _decode_masks(code)
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
    for code in model._codes():
        xm, ym, cm = _decode_masks(code)
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
    for code in model._codes():
        xm, ym, cm = _decode_masks(code)
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
    passed = model._semi_graphoid and _joins_hold(model, 0, 0)
    return _reduce("composition", ("composition",), () if passed else _iter_composition_violations(model))


def _iter_singleton_transitivity_violations(model: IndependenceModel) -> Iterator[tuple[str, Witness]]:
    full = (1 << model.n) - 1
    table = model._elementary
    g = model.ground

    def holds(a: int, b: int, cm: int) -> int:
        return (table[(a, b) if a < b else (b, a)] >> cm) & 1

    for (i, j), row in table.items():
        rest = full ^ (1 << i) ^ (1 << j)
        for cm in _iter_bits(row):
            for k in _iter_bits(rest ^ cm):
                if (row >> (cm | (1 << k))) & 1 and not (holds(i, k, cm) or holds(j, k, cm)):
                    yield (
                        "singleton-transitivity",
                        {
                            "i": g[i],
                            "j": g[j],
                            "k": g[k],
                            "C": list(_sorted_labels(model, cm)),
                        },
                    )


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


def _ordered_up_breaks(model: IndependenceModel, preorder: "Preorder") -> Iterator[StabilityBreak]:
    """(i, j, C, k) for each member <i,j|C> and k outside C whose addition
    leaves the model although i or j is below k or k is equivalent to a node
    of C; pairs in order, then C, then k increasing."""
    leq = preorder.leq_rows
    sim_col = preorder._sim_cols
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


def _ordered_down_breaks(model: IndependenceModel, preorder: "Preorder") -> Iterator[StabilityBreak]:
    """(i, j, C, k) for each member <i,j|C> and k in C whose removal leaves
    the model although neither i nor j is below k and no node of C is
    strictly below k; in the order of `_ordered_up_breaks`."""
    leq = preorder.leq_rows
    lt_col = preorder._lt_cols
    for i, j, _, down_any, _, downs in model._stability_table:
        far = ~(leq[i] | leq[j])
        if not down_any & far:
            continue
        for cm, down in downs:
            for k in _iter_bits(down & far):
                if not lt_col[k] & cm:
                    yield i, j, cm, k


def _plain_breaks(model: IndependenceModel, upward: bool) -> Iterator[StabilityBreak]:
    """Every upward or every downward entry of the stability table, in the
    order of `_ordered_up_breaks`.  These are the ordered breaks under the
    all-equivalent preorder (upward: every k outside C is eligible) and the
    all-incomparable one (downward: C never holds i or j, and no node is
    strictly below another), so no preorder is built."""
    for i, j, _, _, ups, downs in model._stability_table:
        for cm, ks in ups if upward else downs:
            for k in _iter_bits(ks):
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
    return _stability_report(model, "ordered-upward-stability", _ordered_up_breaks(model, preorder), cap, preorder)


def check_ordered_downward_stability(
    model: IndependenceModel,
    preorder: "Preorder",
    *,
    cap: int = DEFAULT_CAPS.elementary_axiom_nodes,
) -> CheckReport:
    """Removing k from the conditioning set of <i,j|C> must preserve
    membership whenever neither i nor j is below k and no other conditioning
    node is strictly below k."""
    return _stability_report(model, "ordered-downward-stability", _ordered_down_breaks(model, preorder), cap, preorder)


def check_upward_stability(
    model: IndependenceModel, *, cap: int = DEFAULT_CAPS.elementary_axiom_nodes
) -> CheckReport:
    """Unrestricted variant: any k may be added (all nodes equivalent)."""
    return _stability_report(model, "upward-stability", _plain_breaks(model, True), cap)


def check_downward_stability(
    model: IndependenceModel, *, cap: int = DEFAULT_CAPS.elementary_axiom_nodes
) -> CheckReport:
    """Unrestricted variant: any k may be removed (all nodes incomparable)."""
    return _stability_report(model, "downward-stability", _plain_breaks(model, False), cap)


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


def _stabilities_hold(model: IndependenceModel, preorder: "Preorder") -> bool:
    """Both ordered stabilities hold; the screen of the directing search."""
    leq = preorder.leq_rows
    # Most candidates fail here, before the preorder's columns are needed.
    for i, j, up_any, _, _, _ in model._stability_table:
        if up_any & (leq[i] | leq[j]):
            return False
    breaks = (_ordered_up_breaks, _ordered_down_breaks)
    return all(next(scan(model, preorder), None) is None for scan in breaks)


# ----------------------------------------------------------------------
# Text format:  `a _||_ b | c d`, `a,b _||_ c,d | e`, `node x`, `#` comments
# ----------------------------------------------------------------------

SEPARATOR = "_||_"
# The edge symbols of the graph format, whose parser shares `_node_declaration`.
_EDGE_SYMBOLS = ("--", "->", "<->")


def _require_label(label: str, subject: str, path: str | None, line: int | None) -> None:
    """Reject a label that the model and graph texts cannot carry: the
    ParseError starts with `subject`, which names the label."""
    if not label or any(ch.isspace() or ch in ",|#" for ch in label):
        rule = "a label must be non-empty and contain no whitespace, ',', '|' or '#'"
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


def parse_model_text(text: str, *, path: str | None = None) -> IndependenceModel:
    """Parse the conditional-independence text format.

    Ground is the union of declared `node` labels and every label mentioned
    in a statement; an empty file yields the empty-ground model whose only
    statements are the trivial ones.
    """
    # Labels get provisional indices in order of first appearance; each
    # statement keeps three masks over them, remapped to the sorted ground at
    # the end.  Overlaps are reported after every syntax error, as the first
    # overlapping line; disjointness does not depend on the indices.
    index: dict[str, int] = {}
    declared: set[str] = set()
    raw: list[int] = []  # A, B and C masks of each statement, flat
    overlap: tuple[int, int, int, int] | None = None
    sides: dict[str, int] = {}  # side text -> its mask; texts repeat across lines
    givens: dict[str, int] = {}

    def mask_of(labels: Iterable[str], lineno: int) -> int:
        mask = 0
        for lab in labels:
            k = index.get(lab)
            if k is None:
                _require_label(lab, f"label {lab!r}", path, lineno)
                k = index[lab] = len(index)
            mask |= 1 << k
        return mask

    def side(chunk: str, lineno: int) -> int:
        mask = sides.get(chunk)
        if mask is None:
            mask = sides[chunk] = mask_of((tok.strip() for tok in chunk.split(",") if tok.strip()), lineno)
        return mask

    def given(chunk: str, lineno: int) -> int:
        mask = givens.get(chunk)
        if mask is None:
            mask = givens[chunk] = mask_of((tok for part in chunk.split(",") for tok in part.split()), lineno)
        return mask

    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        label = _node_declaration(body, declared, path, lineno)
        if label is not None:
            mask_of((label,), lineno)
            continue
        if SEPARATOR not in body:
            raise ParseError(f"expected a statement containing {SEPARATOR!r}", path=path, line=lineno)
        left, right = body.split(SEPARATOR, 1)
        if "|" in right:
            b_part, c_part = right.split("|", 1)
        else:
            b_part, c_part = right, ""
        am, bm, cm = side(left, lineno), side(b_part, lineno), given(c_part, lineno)
        if not am or not bm:
            raise ParseError("both sides of a statement must be non-empty", path=path, line=lineno)
        if overlap is None and (am & bm) | (am & cm) | (bm & cm):
            overlap = (lineno, am, bm, cm)
        raw += (am, bm, cm)
    ground = tuple(sorted(index))
    position = {lab: i for i, lab in enumerate(ground)}
    moved = [1 << position[lab] for lab in index]
    remapped = {0: 0}

    def remap(mask: int) -> int:
        out = remapped.get(mask)
        if out is None:
            out = remapped[mask] = sum(moved[k] for k in _iter_bits(mask))
        return out

    model = IndependenceModel(ground, 0)
    if overlap is not None:
        lineno, am, bm, cm = overlap
        try:
            _require_disjoint_masks(model, remap(am), remap(bm), remap(cm))
        except ModelError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from None
    buf = bytearray()
    code = model._code
    for k in range(0, len(raw), 3):
        _set_code(buf, code(remap(raw[k]), remap(raw[k + 1]), remap(raw[k + 2])))
    return IndependenceModel(ground, _members_of(buf))


def model_to_text(model: IndependenceModel) -> str:
    """Serialize; `node` lines appear only for labels in no statement."""
    ground = model.ground
    names: dict[int, tuple[str, ...]] = {}  # mask -> its labels, sorted as the ground is

    def labels(mask: int) -> tuple[str, ...]:
        out = names.get(mask)
        if out is None:
            out = names[mask] = tuple(ground[i] for i in _iter_bits(mask))
        return out

    lines = []
    used = 0
    for code in model._codes():
        am, bm, cm = _decode_masks(code)
        a_s, b_s = labels(am), labels(bm)
        if b_s < a_s:
            a_s, b_s = b_s, a_s
        stmt = f"{','.join(a_s)} {SEPARATOR} {','.join(b_s)}"
        if cm:
            stmt += f" | {' '.join(labels(cm))}"
        lines.append(stmt)
        used |= am | bm | cm
    node_lines = [f"node {lab}" for i, lab in enumerate(ground) if not (used >> i) & 1]
    return "\n".join(node_lines + sorted(lines)) + ("\n" if node_lines or lines else "")
