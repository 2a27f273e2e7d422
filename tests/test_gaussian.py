"""Exact rational Gaussian front end: matrices, CI extraction, MTP2 chain."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphfaith.gaussian as gaussian
from graphfaith.errors import MatrixError, ParseError
from graphfaith.faithfulness import is_faithful
from graphfaith.gaussian import (
    RationalMatrix,
    _integer,
    _walk,
    adjacency_weight_matrix,
    inverse,
    is_m_matrix,
    is_positive_definite,
    leading_principal_minors,
    matrix_to_csv,
    model_from_concentration,
    model_from_covariance,
    parse_matrix_csv,
    partial_covariance,
)
from graphfaith.generate import random_connected_ug
from graphfaith.graphs import MixedGraph, line, parse_graph_text
from graphfaith.models import (
    _iter_bits,
    check_composition,
    check_intersection,
    check_semi_graphoid,
    check_singleton_transitivity,
    check_upward_stability,
    skeleton_pairs,
)

from conftest import (
    LABELS,
    elementary_table,
    reference_covariance_model,
    reference_det,
    reference_inverse_rows,
    reference_leading_minors,
    reference_partial_covariance,
)

UNFAITHFUL_COV = RationalMatrix.from_rows(
    ("1", "2", "3", "4"),
    [[3, 2, 1, 2], [2, 4, 2, 1], [1, 2, 7, 1], [2, 1, 1, 6]],
)


def g(text):
    return parse_graph_text(text)


# -- matrix plumbing -------------------------------------------------------------


def test_identity_inverse():
    ident = RationalMatrix.identity(("a", "b", "c"))
    assert inverse(ident) == ident
    assert is_positive_definite(ident)
    assert is_m_matrix(ident)


def test_inverse_exact_round_trip():
    m = RationalMatrix.from_rows(("a", "b"), [[2, 1], [1, 1]])
    inv = inverse(m)
    assert inv.rows == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))


def test_inverse_singular():
    with pytest.raises(MatrixError, match="singular"):
        inverse(RationalMatrix.from_rows(("a", "b"), [[1, 1], [1, 1]]))


def test_row_swap_pivot():
    # The first pivot is zero, so the elimination must swap rows.
    swap = RationalMatrix.from_rows(("a", "b"), [[0, 1], [1, 0]])
    assert leading_principal_minors(swap) == [Fraction(0), Fraction(-1)]
    assert inverse(swap) == swap


def test_pd_rejects_indefinite():
    m = RationalMatrix.from_rows(("a", "b"), [[1, 2], [2, 1]])
    assert not is_positive_definite(m)
    assert leading_principal_minors(m) == [Fraction(1), Fraction(-3)]


def test_matrix_shape_validation():
    with pytest.raises(MatrixError, match="2x2"):
        RationalMatrix.from_rows(("a", "b"), [[1, 0]])


def test_fraction_and_decimal_entries():
    m = RationalMatrix.from_rows(("a", "b"), [["3/4", "0.25"], ["1/4", 1]])
    assert m.rows[0] == (Fraction(3, 4), Fraction(1, 4))


# -- the four-variable unfaithful covariance --------------------------------------


def test_unfaithful_cov_is_pd_with_dense_concentration():
    assert is_positive_definite(UNFAITHFUL_COV)
    conc = inverse(UNFAITHFUL_COV)
    assert all(conc.rows[i][j] != 0 for i in range(4) for j in range(4))


def test_unfaithful_cov_partial_covariance_vanishes():
    # sigma_13 - sigma_12 sigma_22^-1 sigma_23 = 1 - 2 * (1/4) * 2 = 0
    assert partial_covariance(UNFAITHFUL_COV, 0, 2, [1]) == 0
    assert UNFAITHFUL_COV.rows[0][2] - Fraction(2) * Fraction(1, 4) * Fraction(2) == 0


def test_partial_covariance_singular_conditioning_block():
    sigma = RationalMatrix.from_rows(("a", "b", "c"), [[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(MatrixError, match="singular"):
        partial_covariance(sigma, 0, 2, [1])


def test_unfaithful_cov_model():
    j = model_from_covariance(UNFAITHFUL_COV)
    statements = list(j.statements())
    assert len(statements) == 1
    a, b, c = statements[0]
    assert {min(a | b), max(a | b)} == {"1", "3"} and c == frozenset({"2"})
    assert skeleton_pairs(j) == frozenset(
        {("1", "2"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")}
    )


def test_unfaithful_cov_fails_upward_stability():
    j = model_from_covariance(UNFAITHFUL_COV)
    report = check_upward_stability(j)
    assert not report.passed
    assert report.violations[0] == {"i": "1", "j": "3", "C": ["2"], "k": "4"}


def test_unfaithful_cov_not_faithful_to_complete_graph():
    j = model_from_covariance(UNFAITHFUL_COV)
    labels = ("1", "2", "3", "4")
    complete = MixedGraph(
        frozenset(labels),
        tuple(line(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]),
    )
    assert not is_faithful(j, complete)


def test_unfaithful_cov_graphical_regression():
    # derived regression value: the model is faithful to graphs missing the
    # {1,3} edge; the witness class has 47 members
    from graphfaith.faithfulness import decide_graphical

    verdict = decide_graphical(model_from_covariance(UNFAITHFUL_COV))
    assert verdict.graphical
    assert len(verdict.witnesses) == 47


# -- identity-plus-eps-adjacency matrices ---------------------------------------------


def test_adjacency_weight_matrix_path():
    path = g("1 -- 2\n2 -- 3")
    m = adjacency_weight_matrix(path, Fraction(1, 10))
    assert m.rows == (
        (Fraction(1), Fraction(1, 10), Fraction(0)),
        (Fraction(1, 10), Fraction(1), Fraction(1, 10)),
        (Fraction(0), Fraction(1, 10), Fraction(1)),
    )


def test_adjacency_weight_matrix_edgeless_is_identity():
    graph = MixedGraph(frozenset("ab"), ())
    assert adjacency_weight_matrix(graph, Fraction(1, 7)) == RationalMatrix.identity(("a", "b"))


def test_adjacency_weight_matrix_complete_pair():
    graph = g("a -- b")
    eps = Fraction(2, 5)
    m = adjacency_weight_matrix(graph, eps)
    assert m.rows == ((Fraction(1), eps), (eps, Fraction(1)))


def test_adjacency_weight_matrix_rejects_directed():
    with pytest.raises(MatrixError, match="undirected"):
        adjacency_weight_matrix(g("a -> b"), Fraction(1, 10))


def test_positive_eps_inverse_is_not_m_matrix_on_path():
    # the (1,3) entry of the exact inverse is eps^2/(1-2 eps^2) = 1/98 > 0
    path = g("1 -- 2\n2 -- 3")
    inv = inverse(adjacency_weight_matrix(path, Fraction(1, 10)))
    assert inv.rows[0][2] == Fraction(1, 98)
    assert not is_m_matrix(inv)


def test_negative_eps_concentration_is_m_matrix():
    path = g("1 -- 2\n2 -- 3")
    k = adjacency_weight_matrix(path, Fraction(-1, 10))
    assert is_m_matrix(k)
    assert is_positive_definite(k)


# -- covariance to model ------------------------------------------------------------------


def test_identity_covariance_full_independence():
    j = model_from_covariance(RationalMatrix.identity(("a", "b", "c")))
    assert j.contains({"a"}, {"b", "c"}, set())
    assert j.contains({"a"}, {"b"}, {"c"})


def test_covariance_must_be_symmetric():
    with pytest.raises(MatrixError, match="symmetric"):
        model_from_covariance(RationalMatrix.from_rows(("a", "b"), [[1, 0], [1, 1]]))


def test_covariance_must_be_pd_with_failing_minor():
    bad = RationalMatrix.from_rows(("a", "b"), [[1, 2], [2, 1]])
    with pytest.raises(MatrixError, match="minor 2 is -3"):
        model_from_covariance(bad)


def test_concentration_checked_before_inversion(monkeypatch):
    # The error names the concentration and K's own minor (1 - 4), not a
    # minor of the inverse; neither the cap nor the minors need the inverse.
    def no_inverse(m):
        raise AssertionError("K was inverted before it was checked")

    monkeypatch.setattr(gaussian, "inverse", no_inverse)
    bad = RationalMatrix.from_rows(("a", "b"), [[1, 2], [2, 1]])
    with pytest.raises(MatrixError) as info:
        model_from_concentration(bad)
    assert str(info.value) == "concentration is not positive definite: leading principal minor 2 is -3"
    with pytest.raises(MatrixError, match="matrix has 3 rows, above the cap 2"):
        model_from_concentration(RationalMatrix.identity(("a", "b", "c")), cap=2)
    # A checked K is never inverted: its model is read off K itself.
    k = adjacency_weight_matrix(g("1 -- 2\n2 -- 3"), Fraction(-1, 10))
    assert model_from_concentration(k).contains({"1"}, {"3"}, {"2"})


def test_concentration_role_matches_inverse():
    k = adjacency_weight_matrix(g("1 -- 2\n2 -- 3"), Fraction(-1, 10))
    assert model_from_concentration(k) == model_from_covariance(inverse(k))


def test_seeded_concentration_models_match_their_inverses():
    # The concentration route checks K and skips the repeated checks of its
    # inverse; the model must be the one the covariance route gives.
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 6)
        ug = random_connected_ug(rng, LABELS[:n], 0.4)
        k = adjacency_weight_matrix(ug, Fraction(-1, rng.randint(n, 3 * n)))
        # unequal diagonal weights, still diagonally dominant
        extra = [rng.randint(0, 3) for _ in range(n)]
        k = RationalMatrix.from_rows(k.labels, [[x + extra[i] * (i == j) for j, x in enumerate(row)]
                                                for i, row in enumerate(k.rows)])
        assert model_from_concentration(k) == model_from_covariance(inverse(k))


def test_model_from_covariance_unsorted_labels():
    m = RationalMatrix.from_rows(("b", "a"), [[1, 0], [0, 1]])
    j = model_from_covariance(m)
    assert j.ground == ("a", "b")
    assert j.contains({"a"}, {"b"}, set())


@given(st.integers(0, 2**30))
def test_random_pd_covariance_is_gaussoid(seed):
    # random small PD matrix via A A^T + I; the induced model must satisfy
    # the regular-Gaussian closure properties
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    rows = [
        [
            sum(a[i][k] * a[j][k] for k in range(n)) + Fraction(int(i == j))
            for j in range(n)
        ]
        for i in range(n)
    ]
    sigma = RationalMatrix.from_rows(tuple(LABELS[:n]), rows)
    for i in range(n):
        for j_idx in range(i + 1, n):
            rest = [k for k in range(n) if k not in (i, j_idx)]
            assert partial_covariance(sigma, i, j_idx, rest) == partial_covariance(
                sigma, j_idx, i, rest
            )
    j = model_from_covariance(sigma)
    assert check_semi_graphoid(j).passed
    assert check_intersection(j).passed
    assert check_composition(j).passed
    assert check_singleton_transitivity(j).passed


def test_mtp2_chain_faithful():
    rng = random.Random(99)
    for _ in range(6):
        n = rng.randint(2, 5)
        graph = random_connected_ug(rng, LABELS[:n], extra_prob=0.3)
        k = adjacency_weight_matrix(graph, Fraction(-1, 10))
        assert is_m_matrix(k) and is_positive_definite(k)
        j = model_from_covariance(inverse(k))
        assert is_faithful(j, graph)
        assert check_upward_stability(j).passed


# -- the conditioning-set walk against per-statement routes ------------------------------


def _zero_tables(sigma):
    """The walk's elementary table, and the tables from the solve-based
    reference and from the Schur determinant ratio, over sorted labels."""
    order = sorted(range(sigma.n), key=lambda r: sigma.labels[r])

    def table(partial):
        return elementary_table(
            sigma.n,
            lambda a, b, cm: partial(sigma, order[a], order[b], [order[k] for k in _iter_bits(cm)]) == 0,
        )

    return model_from_covariance(sigma)._elementary, table(reference_partial_covariance), table(partial_covariance)


def _conditional_zeros(elementary):
    return sum((row >> 1).bit_count() for row in elementary.values())


@pytest.mark.parametrize("seed", range(6))
def test_walk_matches_references_on_ug8_covariances(seed):
    graph = random_connected_ug(random.Random(seed), tuple("abcdefgh"), 0.3)
    sigma = inverse(adjacency_weight_matrix(graph, Fraction(-1, 10)))
    walk, solved, ratio = _zero_tables(sigma)
    assert walk == solved == ratio
    assert _conditional_zeros(walk) > 0


def test_walk_matches_references_on_unfaithful_cov():
    walk, solved, ratio = _zero_tables(UNFAITHFUL_COV)
    assert walk == solved == ratio
    assert walk[(0, 2)] == 1 << 0b10  # only <1,3|2>


def test_walk_matches_references_on_sparse_gram_matrices():
    # B B^T + I with sparse integer B: partial covariances cancel to zero
    # given non-empty C, the cases an inexact pivot would get wrong.
    rng = random.Random(2024)
    zeros = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        b = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        rows = [
            [sum(b[i][k] * b[j][k] for k in range(n)) + int(i == j) for j in range(n)] for i in range(n)
        ]
        labels = tuple(rng.sample(LABELS, n))
        walk, solved, ratio = _zero_tables(RationalMatrix.from_rows(labels, rows))
        assert walk == solved == ratio
        zeros += _conditional_zeros(walk)
    assert zeros > 0


# -- the integer core against the Fraction oracles ----------------------------------------


def _assert_matches_oracles(m, *, minor_samples=0, rng=None):
    """Every public value of the integer core on the symmetric positive
    definite m equals the Fraction oracles', m read as a covariance and as a
    concentration, and so does its inverse read both ways."""
    inv_rows = reference_inverse_rows(m)
    inv = RationalMatrix(m.labels, inv_rows)
    assert inverse(m) == inv and inverse(inv).rows == m.rows
    for mat in (m, inv):
        assert leading_principal_minors(mat) == reference_leading_minors(mat)
        assert is_positive_definite(mat)
    model, inv_model = reference_covariance_model(m), reference_covariance_model(inv)
    assert model_from_covariance(m) == model_from_concentration(inv) == model
    assert model_from_covariance(inv) == model_from_concentration(m) == inv_model
    for _ in range(minor_samples if m.n > 1 else 0):
        i, j = rng.sample(range(m.n), 2)
        given = [k for k in range(m.n) if k not in (i, j) and rng.random() < 0.5]
        assert partial_covariance(m, i, j, given) == reference_partial_covariance(m, i, j, given)
    return model, inv_model


def _assert_walk_states_are_minors(m):
    """At every state D of the walk over the scaled m in sorted label order,
    entry (x, y) outside D is det a[D+x, D+y], so every floor division was
    exact; a row of D is the row its node had when it was pivoted."""
    order = sorted(range(m.n), key=lambda r: m.labels[r])
    a = _integer([[m.rows[r][c] for c in order] for r in order])[1]
    states = {}
    for dm, rest, rows in _walk(a):
        states[dm] = rows
        d = list(_iter_bits(dm))
        assert rest == [x for x in range(m.n) if x not in d]
        for x in rest:
            for y in rest:
                assert rows[x][y] == reference_det([[a[r][c] for c in [*d, y]] for r in [*d, x]])
        for x in d:
            assert rows[x] == states[dm & ((1 << x) - 1)][x]
    assert len(states) == 1 << m.n


def _ug8_concentration(seed):
    graph = random_connected_ug(random.Random(seed), tuple("abcdefgh"), 0.1)
    return adjacency_weight_matrix(graph, "-1/10")


def test_integer_core_matches_oracles_on_ug8_concentrations():
    # The inputs of the gaussian_ug8 benchmark workload's kind, as K and as Sigma.
    conditional = 0
    for seed in range(1, 41):
        model, inv_model = _assert_matches_oracles(_ug8_concentration(seed))
        conditional += _conditional_zeros(model._elementary) + _conditional_zeros(inv_model._elementary)
    assert conditional > 0


def test_integer_core_matches_oracles_on_dense_rational_covariances():
    rng = random.Random(8)
    for _ in range(10):
        b = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)] for _ in range(8)]
        rows = [
            [sum(b[i][k] * b[j][k] for k in range(8)) + Fraction(int(i == j), rng.randint(1, 5)) for j in range(8)]
            for i in range(8)
        ]
        _assert_matches_oracles(RationalMatrix.from_rows(tuple("hgfedcba"), rows), minor_samples=20, rng=rng)


@st.composite
def sparse_pd_matrices(draw, max_nodes=5):
    """B B^T + D over small rationals with a sparse B: zero entries and zero
    partial covariances given non-empty sets."""
    n = draw(st.integers(1, max_nodes))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7)])
    b = [[draw(entry) for _ in range(n)] for _ in range(n)]
    diag = [draw(st.sampled_from([1, 2, Fraction(1, 3)])) for _ in range(n)]
    rows = [[sum(b[i][k] * b[j][k] for k in range(n)) + diag[i] * (i == j) for j in range(n)] for i in range(n)]
    return RationalMatrix.from_rows(draw(st.permutations(LABELS))[:n], rows)


@given(sparse_pd_matrices(), st.integers(0, 2**30))
def test_integer_core_matches_oracles_on_sparse_pd_matrices(m, seed):
    _assert_matches_oracles(m, minor_samples=5, rng=random.Random(seed))
    _assert_walk_states_are_minors(m)
    _assert_walk_states_are_minors(inverse(m))


@pytest.mark.parametrize(
    "m",
    [
        RationalMatrix.identity(()),
        RationalMatrix.identity(("a",)),
        RationalMatrix.from_rows(("a",), [["7/3"]]),
        UNFAITHFUL_COV,
        RationalMatrix.from_rows(("a", "b", "c"), [["0.5", "0.125", 0], ["0.125", "2.5e-1", "1e-3"], [0, "1e-3", 1]]),
        RationalMatrix.from_rows(
            ("b", "a", "c"),
            [[Fraction(1, 10**30 + 7), 0, Fraction(1, 2**70)], [0, "3/1000003", 0], [Fraction(1, 2**70), 0, 1]],
        ),
    ],
)
def test_integer_core_matches_oracles_on_edge_cases(m):
    _assert_matches_oracles(m)
    _assert_walk_states_are_minors(m)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_states_are_minors_on_ug8_concentrations(seed):
    _assert_walk_states_are_minors(_ug8_concentration(seed))


def test_determinants_match_oracles_with_row_swaps_and_singular_blocks():
    # Leading blocks that are singular, or need a swap, and singular inverses.
    rng = random.Random(62)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = RationalMatrix.from_rows(
            LABELS[:n], [[rng.choice((0, 0, 0, 1, -2, Fraction(3, 4))) for _ in range(n)] for _ in range(n)]
        )
        assert leading_principal_minors(m) == reference_leading_minors(m)
        expected = reference_inverse_rows(m)
        if expected is None:
            with pytest.raises(MatrixError, match="matrix is singular"):
                inverse(m)
        else:
            assert inverse(m).rows == expected


def test_concentration_asymmetry_names_the_pair():
    k = RationalMatrix.from_rows(("b", "a", "c"), [[1, 0, 0], [0, 1, "1/2"], [0, "1/3", 1]])
    with pytest.raises(MatrixError) as info:
        model_from_concentration(k)
    assert str(info.value) == "concentration must be symmetric; entries (a,c) differ"


@pytest.mark.parametrize("build", [model_from_covariance, model_from_concentration])
def test_cap_is_checked_before_symmetry(build):
    asymmetric = RationalMatrix.from_rows(("a", "b", "c"), [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(MatrixError) as info:
        build(asymmetric, cap=2)
    assert str(info.value) == "matrix has 3 rows, above the cap 2"


# -- CSV format -----------------------------------------------------------------------------


def test_matrix_csv_round_trip():
    text = matrix_to_csv(UNFAITHFUL_COV)
    assert parse_matrix_csv(text) == UNFAITHFUL_COV


def test_matrix_csv_fractions_and_comments():
    parsed = parse_matrix_csv("# cov\na,b\n1,1/2\n0.5,1\n")
    assert parsed.rows == ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))


def test_matrix_csv_errors():
    with pytest.raises(ParseError, match="empty"):
        parse_matrix_csv("")
    with pytest.raises(ParseError, match="data rows"):
        parse_matrix_csv("a,b\n1,0\n")
    with pytest.raises(ParseError, match="entries"):
        parse_matrix_csv("a,b\n1\n0,1\n")
    with pytest.raises(ParseError, match="rational"):
        parse_matrix_csv("a,b\n1,x\n0,1\n")


def test_matrix_csv_bounds_decimal_exponents_before_building_them(monkeypatch):
    # 1e999999999 is six characters of exponent; Fraction would compute
    # 10**999999999.  The bound is the int-string digit limit, 4300.
    built = []

    def recording_fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(gaussian, "Fraction", recording_fraction)
    for cell in ("1e999999999", "2.5E-999999999", "1e4301", "-1e+4301", "1E-4301"):
        with pytest.raises(ParseError) as info:
            parse_matrix_csv(f"a,b\n1,0\n0,{cell}\n", path="m.csv")
        assert str(info.value) == f"m.csv:3: cannot parse entry {cell!r} as a rational"
        assert (cell,) not in built
    m = parse_matrix_csv("a,b\n1e4300,0\n0,-1.5E-4300\n")
    assert m.rows == ((Fraction(10**4300), 0), (0, Fraction(-3, 2 * 10**4300)))


@pytest.mark.parametrize("label", ["", "b x", "#b", "a|b", "a,b", "x\ty"])
def test_matrix_csv_rejects_labels_the_text_formats_cannot_carry(label):
    header = f'"{label}",b' if "," in label else f"{label},b"
    if label.startswith("#"):
        header = f"b,{label}"
    with pytest.raises(ParseError, match="header cell") as info:
        parse_matrix_csv(f"{header}\n1,0\n0,1\n", path="m.csv")
    assert repr(label) in str(info.value)
    assert str(info.value).startswith("m.csv:1:")
