"""Independence models over a finite ground set, and their closure properties.

An independence model is a set of triples <A,B|C> of pairwise-disjoint node
sets.  Triples with A or B empty are treated as always present and are never
stored.  Storage is one bit per disjoint ordered triple: each node of the
ground set takes one of four roles (out, first side, second side,
conditioning), giving a base-4 code; the bit for the code with the two sides
in canonical order is set.  Membership, subset, and equality are then plain
integer operations, which is what makes the exhaustive axiom scans cheap
enough to run at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

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
        for lab in labels:
            try:
                mask |= 1 << idx[lab]
            except KeyError:
                raise ModelError(f"unknown node label {lab!r}") from None
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

    def _has(self, amask: int, bmask: int, cmask: int) -> bool:
        return bool((self.members >> self._code(amask, bmask, cmask)) & 1)

    @cached_property
    def _stability_table(self) -> tuple[tuple[int, int, int, int, tuple, tuple], ...]:
        """What the ordered stabilities of any preorder can trip on.

        One row per pair i < j that some single k breaks: (i, j, up_any,
        down_any, ups, downs).  For each member <i,j|C>, `ups` holds (C, up)
        with up the nodes k outside C whose addition leaves the model, and
        `downs` holds (C, down) with down the k in C whose removal does;
        empty masks are left out.  up_any and down_any are their unions.
        """
        n = self.n
        full = (1 << n) - 1
        has = self._has
        table = []
        for i in range(n):
            im = 1 << i
            for j in range(i + 1, n):
                jm = 1 << j
                rest = full ^ im ^ jm
                ups, downs = [], []
                up_any = down_any = 0
                cm = 0
                while True:
                    if has(im, jm, cm):
                        up = down = 0
                        for k in _iter_bits(rest ^ cm):
                            if not has(im, jm, cm | (1 << k)):
                                up |= 1 << k
                        for k in _iter_bits(cm):
                            if not has(im, jm, cm ^ (1 << k)):
                                down |= 1 << k
                        if up:
                            ups.append((cm, up))
                            up_any |= up
                        if down:
                            downs.append((cm, down))
                            down_any |= down
                    if cm == rest:
                        break
                    cm = (cm - rest) & rest
                if up_any or down_any:
                    table.append((i, j, up_any, down_any, tuple(ups), tuple(downs)))
        return tuple(table)

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
        mask = 0
        for a, b, c in statements:
            am, bm, cm = model._mask_of(a), model._mask_of(b), model._mask_of(c)
            _require_disjoint_masks(model, am, bm, cm)
            if not am or not bm:
                continue  # trivial statements are implicit
            mask |= 1 << model._code(am, bm, cm)
        return cls(gtuple, mask)

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
        for code in _iter_bits(mask):
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
        probe = cls(gtuple, 0)
        mask = 0
        for am, bm, cm in _iter_triple_masks(len(gtuple)):
            mask |= 1 << probe._code(am, bm, cm)
        return cls(gtuple, mask)

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
        for code in _iter_bits(self.members):
            yield self._decode(code)

    def elementary_statements(self) -> Iterator[tuple[str, str, NodeSet]]:
        """Stored statements with singleton sides, as (i, j, C) with i < j."""
        for a, b, c in self.statements():
            if len(a) == 1 and len(b) == 1:
                i, j = sorted((next(iter(a)), next(iter(b))))
                yield i, j, c

    def _decode(self, code: int) -> Triple:
        am = bm = cm = 0
        pos = 0
        while code:
            digit = code & 3
            code >>= 2
            if digit == 1:
                am |= 1 << pos
            elif digit == 2:
                bm |= 1 << pos
            elif digit == 3:
                cm |= 1 << pos
            pos += 1
        return self._labels_of(am), self._labels_of(bm), self._labels_of(cm)

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

    The orientation kept is the canonical one (weight of A above weight of B),
    so the emitted code equals the stored code.
    """
    w = _base4_weights(n)
    for code in range(4**n):
        am = bm = cm = 0
        rest = code
        pos = 0
        while rest:
            digit = rest & 3
            rest >>= 2
            if digit == 1:
                am |= 1 << pos
            elif digit == 2:
                bm |= 1 << pos
            elif digit == 3:
                cm |= 1 << pos
            pos += 1
        if am and bm and w[am] > w[bm]:
            yield am, bm, cm


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
    """
    gtuple = tuple(sorted(set(ground)))
    n = len(gtuple)
    probe = IndependenceModel(gtuple, 0)
    mask = 0
    for am, bm, cm in _iter_triple_masks(n):
        ok = True
        for i in _iter_bits(am):
            for j in _iter_bits(bm):
                key = (i, j) if i < j else (j, i)
                if not (separated[key] >> cm) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            mask |= 1 << probe._code(am, bm, cm)
    return IndependenceModel(gtuple, mask)


def skeleton_pairs(model: IndependenceModel) -> frozenset[tuple[str, str]]:
    """Pairs {i,j} that stay dependent under every conditioning set.

    These are the edges of the model's skeleton: an edge is drawn exactly when
    no C with <i,j|C> in the model exists.
    """
    n = model.n
    full = (1 << n) - 1
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            im, jm = 1 << i, 1 << j
            rest = full ^ im ^ jm
            found = False
            cm = 0
            while True:
                if model._has(im, jm, cm):
                    found = True
                    break
                if cm == rest:
                    break
                cm = (cm - rest) & rest
            if not found:
                pairs.append((model.ground[i], model.ground[j]))
    return frozenset(pairs)


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
    out = IndependenceModel(new_ground, 0)
    mask = 0
    for am, bm, cmask in _iter_triple_masks(len(new_ground)):
        old_am = _lift(am, keep)
        old_bm = _lift(bm, keep)
        old_cm = _lift(cmask, keep) | cm0
        if model._has(old_am, old_bm, old_cm):
            mask |= 1 << out._code(am, bm, cmask)
    return IndependenceModel(new_ground, mask)


def _lift(mask: int, keep: Sequence[int]) -> int:
    out = 0
    for new_pos in _iter_bits(mask):
        out |= 1 << keep[new_pos]
    return out


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


def _iter_semi_graphoid_violations(model: IndependenceModel) -> Iterator[tuple[str, Witness]]:
    # Symmetry cannot fail: storage is canonicalized over the side order.
    has = model._has
    for code in _iter_bits(model.members):
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


def _decode_masks(code: int) -> tuple[int, int, int]:
    am = bm = cm = 0
    pos = 0
    while code:
        digit = code & 3
        code >>= 2
        if digit == 1:
            am |= 1 << pos
        elif digit == 2:
            bm |= 1 << pos
        elif digit == 3:
            cm |= 1 << pos
        pos += 1
    return am, bm, cm


def check_semi_graphoid(model: IndependenceModel, *, cap: int = DEFAULT_CAPS.set_axiom_nodes) -> CheckReport:
    """Symmetry, decomposition, weak union, and contraction, exhaustively."""
    _check_set_cap(model, cap)
    return _reduce(
        "semi-graphoid",
        ("decomposition", "weak-union", "contraction"),
        _iter_semi_graphoid_violations(model),
    )


def _iter_intersection_violations(model: IndependenceModel) -> Iterator[tuple[str, Witness]]:
    has = model._has
    for code in _iter_bits(model.members):
        xm, ym, cm = _decode_masks(code)
        for am, bm in ((xm, ym), (ym, xm)):
            for dm in _iter_submasks(cm):
                c0 = cm ^ dm
                if has(am, dm, c0 | bm) and not has(am, bm | dm, c0):
                    yield "intersection", _set_witness(model, "intersection", am, bm, c0, dm)


def check_intersection(model: IndependenceModel, *, cap: int = DEFAULT_CAPS.set_axiom_nodes) -> CheckReport:
    """Intersection: from <A,B|C u D> and <A,D|C u B> infer <A,B u D|C>."""
    _check_set_cap(model, cap)
    return _reduce("intersection", ("intersection",), _iter_intersection_violations(model))


def _iter_composition_violations(model: IndependenceModel) -> Iterator[tuple[str, Witness]]:
    has = model._has
    full = (1 << model.n) - 1
    for code in _iter_bits(model.members):
        xm, ym, cm = _decode_masks(code)
        free = full ^ xm ^ ym ^ cm
        for am, bm in ((xm, ym), (ym, xm)):
            for dm in _iter_submasks(free):
                if has(am, dm, cm) and not has(am, bm | dm, cm):
                    yield "composition", _set_witness(model, "composition", am, bm, cm, dm)


def check_composition(model: IndependenceModel, *, cap: int = DEFAULT_CAPS.set_axiom_nodes) -> CheckReport:
    """Composition: from <A,B|C> and <A,D|C> infer <A,B u D|C>."""
    _check_set_cap(model, cap)
    return _reduce("composition", ("composition",), _iter_composition_violations(model))


def _iter_singleton_transitivity_violations(model: IndependenceModel) -> Iterator[tuple[str, Witness]]:
    n = model.n
    full = (1 << n) - 1
    has = model._has
    g = model.ground
    for i in range(n):
        im = 1 << i
        for j in range(i + 1, n):
            jm = 1 << j
            rest = full ^ im ^ jm
            cm = 0
            while True:
                if has(im, jm, cm):
                    for k in _iter_bits(rest ^ cm):
                        km = 1 << k
                        if has(im, jm, cm | km) and not (has(im, km, cm) or has(jm, km, cm)):
                            yield (
                                "singleton-transitivity",
                                {
                                    "i": g[i],
                                    "j": g[j],
                                    "k": g[k],
                                    "C": list(_sorted_labels(model, cm)),
                                },
                            )
                if cm == rest:
                    break
                cm = (cm - rest) & rest


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


def _require_same_ground(model: IndependenceModel, preorder: "Preorder") -> None:
    if tuple(preorder.ground) != model.ground:
        raise ModelError(
            f"preorder ground {tuple(preorder.ground)} does not match model ground {model.ground}"
        )


def _iter_ordered_up_violations(
    model: IndependenceModel, preorder: "Preorder"
) -> Iterator[tuple[str, Witness]]:
    n = model.n
    full = (1 << n) - 1
    has = model._has
    g = model.ground
    leq = preorder.leq_rows
    sim_col = preorder._sim_cols
    for i in range(n):
        im = 1 << i
        for j in range(i + 1, n):
            jm = 1 << j
            rest = full ^ im ^ jm
            up = leq[i] | leq[j]
            cm = 0
            while True:
                if has(im, jm, cm):
                    for k in _iter_bits(rest ^ cm):
                        eligible = (up >> k) & 1 or (sim_col[k] & cm)
                        if eligible and not has(im, jm, cm | (1 << k)):
                            yield (
                                "ordered-upward-stability",
                                {"i": g[i], "j": g[j], "C": list(_sorted_labels(model, cm)), "k": g[k]},
                            )
                if cm == rest:
                    break
                cm = (cm - rest) & rest


def _iter_ordered_down_violations(
    model: IndependenceModel, preorder: "Preorder"
) -> Iterator[tuple[str, Witness]]:
    n = model.n
    full = (1 << n) - 1
    has = model._has
    g = model.ground
    leq = preorder.leq_rows
    lt_col = preorder._lt_cols
    for i in range(n):
        im = 1 << i
        for j in range(i + 1, n):
            jm = 1 << j
            rest = full ^ im ^ jm
            cm = 0
            while True:
                if has(im, jm, cm):
                    for k in _iter_bits(cm):
                        km = 1 << k
                        if (leq[i] >> k) & 1 or (leq[j] >> k) & 1:
                            continue
                        if lt_col[k] & (cm ^ km):
                            continue
                        if not has(im, jm, cm ^ km):
                            yield (
                                "ordered-downward-stability",
                                {"i": g[i], "j": g[j], "C": list(_sorted_labels(model, cm)), "k": g[k]},
                            )
                if cm == rest:
                    break
                cm = (cm - rest) & rest


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
    require_within("ground for stability check", model.n, cap)
    _require_same_ground(model, preorder)
    return _reduce(
        "ordered-upward-stability",
        ("ordered-upward-stability",),
        _iter_ordered_up_violations(model, preorder),
    )


def check_ordered_downward_stability(
    model: IndependenceModel,
    preorder: "Preorder",
    *,
    cap: int = DEFAULT_CAPS.elementary_axiom_nodes,
) -> CheckReport:
    """Removing k from the conditioning set of <i,j|C> must preserve
    membership whenever neither i nor j is below k and no other conditioning
    node is strictly below k."""
    require_within("ground for stability check", model.n, cap)
    _require_same_ground(model, preorder)
    return _reduce(
        "ordered-downward-stability",
        ("ordered-downward-stability",),
        _iter_ordered_down_violations(model, preorder),
    )


def check_upward_stability(
    model: IndependenceModel, *, cap: int = DEFAULT_CAPS.elementary_axiom_nodes
) -> CheckReport:
    """Unrestricted variant: any k may be added (all nodes equivalent)."""
    from .preorders import Preorder

    report = check_ordered_upward_stability(model, Preorder.all_equivalent(model.ground), cap=cap)
    return CheckReport("upward-stability", report.passed, report.violations, report.count)


def check_downward_stability(
    model: IndependenceModel, *, cap: int = DEFAULT_CAPS.elementary_axiom_nodes
) -> CheckReport:
    """Unrestricted variant: any k may be removed (all nodes incomparable)."""
    from .preorders import Preorder

    report = check_ordered_downward_stability(model, Preorder.all_incomparable(model.ground), cap=cap)
    return CheckReport("downward-stability", report.passed, report.violations, report.count)


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
    """Both ordered stabilities hold; the screen of the directing search.

    Answers from `model._stability_table` with a few mask tests per pair.
    Upward, k outside C may be added when i or j is below k or k is
    equivalent to a node of C; downward, k in C may be removed when neither
    i nor j is below k and no node of C is strictly below k.  The violation
    generators above are the reference this must agree with.
    """
    leq = preorder.leq_rows
    table = model._stability_table
    # Most candidates fail here, before the preorder's columns are needed.
    for i, j, up_any, _, _, _ in table:
        if up_any & (leq[i] | leq[j]):
            return False
    sim_col = preorder._sim_cols
    lt_col = preorder._lt_cols
    # Nodes in a class of two or more: only they can be equivalent to a node of C.
    shared = 0
    for k, col in enumerate(sim_col):
        if col != 1 << k:
            shared |= col
    for i, j, up_any, down_any, ups, downs in table:
        near = leq[i] | leq[j]
        if up_any & shared:
            for cm, up in ups:
                if up & shared and cm & shared:
                    for c in _iter_bits(cm & shared):
                        if sim_col[c] & up:
                            return False
        if down_any & ~near:
            for cm, down in downs:
                down &= ~near
                while down:
                    low = down & -down
                    if not lt_col[low.bit_length() - 1] & cm:
                        return False
                    down ^= low
    return True


# ----------------------------------------------------------------------
# Text format:  `a _||_ b | c d`, `a,b _||_ c,d | e`, `node x`, `#` comments
# ----------------------------------------------------------------------

SEPARATOR = "_||_"


def parse_model_text(text: str, *, path: str | None = None) -> IndependenceModel:
    """Parse the conditional-independence text format.

    Ground is the union of declared `node` labels and every label mentioned
    in a statement; an empty file yields the empty-ground model whose only
    statements are the trivial ones.
    """
    declared: list[str] = []
    mentioned: set[str] = set()
    raw: list[tuple[int, tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if tokens[0] == "node":
            if len(tokens) != 2:
                raise ParseError("expected `node LABEL`", path=path, line=lineno)
            if tokens[1] in declared:
                raise ParseError(f"duplicate node declaration {tokens[1]!r}", path=path, line=lineno)
            declared.append(tokens[1])
            continue
        if SEPARATOR not in body:
            raise ParseError(f"expected a statement containing {SEPARATOR!r}", path=path, line=lineno)
        left, right = body.split(SEPARATOR, 1)
        if "|" in right:
            b_part, c_part = right.split("|", 1)
        else:
            b_part, c_part = right, ""
        a = _parse_side(left, path, lineno)
        b = _parse_side(b_part, path, lineno)
        c = tuple(tok for chunk in c_part.split(",") for tok in chunk.split())
        if not a or not b:
            raise ParseError("both sides of a statement must be non-empty", path=path, line=lineno)
        raw.append((lineno, a, b, c))
        mentioned.update(a)
        mentioned.update(b)
        mentioned.update(c)
    ground = sorted(set(declared) | mentioned)
    model = IndependenceModel(tuple(ground), 0)
    mask = 0
    for lineno, a, b, c in raw:
        try:
            am, bm, cm = model._mask_of(a), model._mask_of(b), model._mask_of(c)
            _require_disjoint_masks(model, am, bm, cm)
        except ModelError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from None
        mask |= 1 << model._code(am, bm, cm)
    return IndependenceModel(tuple(ground), mask)


def _parse_side(chunk: str, path: str | None, lineno: int) -> tuple[str, ...]:
    labels = tuple(tok.strip() for tok in chunk.split(",") if tok.strip())
    for lab in labels:
        if " " in lab or "\t" in lab:
            raise ParseError(f"set element {lab!r} contains whitespace", path=path, line=lineno)
    return labels


def model_to_text(model: IndependenceModel) -> str:
    """Serialize; `node` lines appear only for labels in no statement."""
    lines = []
    used: set[str] = set()
    for a, b, c in model.statements():
        a_s, b_s, c_s = sorted(a), sorted(b), sorted(c)
        if b_s < a_s:
            a_s, b_s = b_s, a_s
        stmt = f"{','.join(a_s)} {SEPARATOR} {','.join(b_s)}"
        if c_s:
            stmt += f" | {' '.join(c_s)}"
        lines.append(stmt)
        used.update(a_s, b_s, c_s)
    node_lines = [f"node {lab}" for lab in model.ground if lab not in used]
    return "\n".join(node_lines + sorted(lines)) + ("\n" if node_lines or lines else "")
