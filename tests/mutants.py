"""Mutants that the differential tests must kill, for `scripts/mutants.py`.

Each entry breaks one optimised route in `src/graphfaith/` and names the
test files that compare that route with its slow reference.  `snippet` must
occur exactly once in `file` (else the entry is stale), and the mutant is
killed when `pytest -x` over `tests` fails with `replacement` in its place.
pytest does not collect this module: its name has no `test_` prefix.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # under src/graphfaith/
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # under tests/


MUTANTS = (
    # marginalize_and_condition copies runs of kept digits
    Mutant(
        "alpha keeps members with margin digits",
        "models.py",
        "if not code & out and code & given == given:",
        "if code & given == given:",
        ("test_models.py", "test_materialize.py"),
    ),
    Mutant(
        "alpha keeps members without the conditioning digits",
        "models.py",
        "if not code & out and code & given == given:",
        "if not code & out:",
        ("test_models.py", "test_materialize.py"),
    ),
    Mutant(
        "alpha run mask not widened",
        "models.py",
        "steps[-1][1] = steps[-1][1] << 2 | 3",
        "steps[-1][1] = steps[-1][1]",
        ("test_models.py", "test_materialize.py"),
    ),
    Mutant(
        "alpha run copied to its input place",
        "models.py",
        "steps.append([2 * v, 3, 2 * pos])",
        "steps.append([2 * v, 3, 2 * v])",
        ("test_models.py", "test_materialize.py"),
    ),
    # is_faithful by elementary rows
    Mutant(
        "is_faithful without the adjacent-row step",
        "graphs.py",
        "    if any(table[at[u], at[v]] for u, v in g.adjacent_pairs):\n        return False\n",
        "",
        ("test_verify_rows.py",),
    ),
    Mutant(
        "is_faithful without the closure step",
        "faithfulness.py",
        "return model._compositional and _table_matches(g, model._elementary)",
        "return _table_matches(g, model._elementary)",
        ("test_verify_rows.py",),
    ),
    # the separation rows of _rows_from, over MixedGraph._moves
    Mutant(
        "line move sends every set on untouched",
        "graphs.py",
        "moves[x + 2 * head] += enter[y + head]",
        "moves[x + 2 * head].append((stay[y + head][0] - 1, stay[y + head][1]))",
        ("test_set_rows.py",),
    ),
    Mutant(
        "inverted collider test of a closing section",
        "graphs.py",
        "moves[x + 2 + (e.mark_at(v) == HEAD)] += pairs",
        "moves[x + 2 + (e.mark_at(v) != HEAD)] += pairs",
        ("test_set_rows.py",),
    ),
    # the directing search's prefix state
    Mutant(
        "arc sets no forbid bits",
        "preorders.py",
        "    if head_u:\n        forbid |= 1 << n * v + u",
        "    if head_u and not head_v:\n        forbid |= 1 << n * v + u",
        ("test_preorders.py", "test_collider_prune.py"),
    ),
    # the model store
    Mutant(
        "inverted print orientation",
        "models.py",
        "if b[0] < a[0]:",
        "if b[0] > a[0]:",
        ("test_model_store.py", "test_parse_corpus.py"),
    ),
    Mutant(
        "high digits decoded per 16 bytes",
        "models.py",
        "if k >> 5 != block:\n                    block = k >> 5\n"
        "                    ha, hb, hc = _decode_masks(block << 8)",
        "if k >> 4 != block:\n                    block = k >> 4\n"
        "                    ha, hb, hc = _decode_masks(block << 7)",
        ("test_model_store.py", "test_parse_corpus.py"),
    ),
    Mutant(
        "U_k with row << 2^k",
        "models.py",
        "if u := row & ~h & ~(row >> (1 << k)):",
        "if u := row & ~h & ~(row << (1 << k)):",
        ("test_model_store.py",),
    ),
    Mutant(
        "singleton scan without r_jk",
        "models.py",
        "either = table[(i, k) if i < k else (k, i)] | table[(j, k) if j < k else (k, j)]",
        "either = table[(i, k) if i < k else (k, i)]",
        ("test_model_store.py",),
    ),
    Mutant(
        "A walk over the previous set's support",
        "models.py",
        "            am = (am - rest) & rest",
        "            am = (am - support[cm - 1]) & support[cm - 1]",
        ("test_model_store.py",),
    ),
    # the upward prune and the failure count of the directing search
    Mutant(
        "up mask on unshifted rows",
        "models.py",
        "mask |= up_any << n * i | up_any << n * j",
        "mask |= up_any << i | up_any << j",
        ("test_screen_prune.py",),
    ),
    Mutant(
        "memo key without the forbid part",
        "preorders.py",
        "key = (depth, ant & masks[depth], tuple(closed))",
        "key = (depth, ant & masks[depth])",
        ("test_screen_prune.py",),
    ),
    Mutant(
        "forbids not closed over the rows b reaches",
        "preorders.py",
        "reach = rows[z] & nodes",
        "reach = 1 << z & nodes",
        ("test_screen_prune.py",),
    ),
    # the model's demands on the directing search's packed rows
    Mutant(
        "forbid not seeded with the upward mask",
        "preorders.py",
        "states = [(_identity_rows(n), up)] + [None] * k",
        "states = [(_identity_rows(n), 0)] + [None] * k",
        ("test_collider_prune.py", "test_screen_prune.py"),
    ),
    Mutant(
        "non-collider demand on row i only",
        "faithfulness.py",
        "append(1 << n * i + k | 1 << n * j + k)",
        "append(1 << n * i + k)",
        ("test_collider_prune.py", "test_screen_prune.py"),
    ),
    Mutant(
        "non-collider demand filed at the earlier pair",
        "faithfulness.py",
        "demands[max(depth[i, k], depth[j, k])]",
        "demands[min(depth[i, k], depth[j, k])]",
        ("test_collider_prune.py", "test_screen_prune.py"),
    ),
    # the search's one skeleton order and its witness pass
    Mutant(
        "skeleton filtered on separated pairs",
        "models.py",
        "return tuple(pair for pair, row in self._elementary.items() if not row)",
        "return tuple(pair for pair, row in self._elementary.items() if row)",
        ("test_collider_prune.py",),
    ),
    Mutant(
        "witness pass skipped when every non-collider mask is empty",
        "faithfulness.py",
        "if demands is not None:",
        "if demands is not None and (any(demands) or not choice):",
        ("test_collider_prune.py",),
    ),
    Mutant(
        "screen passes recounted with the non-collider masks",
        "faithfulness.py",
        "directings = _iter_anterial_directings(model, edge_cap=edge_cap, options=options, up=up)",
        "directings = _iter_anterial_directings(model, edge_cap=edge_cap, options=options, colliders=demands, up=up)",
        ("test_collider_prune.py", "test_screen_prune.py"),
    ),
    # the frontier walk of separates
    Mutant(
        "touched head entry follows arrows out (inverted collider test)",
        "graphs.py",
        "            kept_h |= lines[v]\n            tail |= into[v]",
        "            kept_h |= lines[v]\n            head |= out[v]",
        ("test_frontier_separation.py",),
    ),
    Mutant(
        "a line from an untouched section ignores C",
        "graphs.py",
        "        tail |= line_t  # an untouched line splits by C as a closing edge does\n"
        "        head |= line_h\n"
        "        t0 = tail & free & ~seen_t0\n"
        "        h0 = head & free & ~seen_h0",
        "        t0 = (tail & free | line_t) & ~seen_t0\n"
        "        h0 = (head & free | line_h) & ~seen_h0",
        ("test_frontier_separation.py",),
    ),
    Mutant(
        "the B test reads the touched frontiers",
        "graphs.py",
        "if (t0 | h0) & bm:",
        "if (t1 | h1) & bm:",
        ("test_frontier_separation.py",),
    ),
)
