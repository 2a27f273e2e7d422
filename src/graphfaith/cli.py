"""Command-line surface: thin wrappers over the library, one verb per task.

Exit codes: 0 = check passed / decision "yes"; 1 = check failed / "no";
2 = usage or input error.  `--json` switches every verb to the documented
machine-readable schema; output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .errors import GraphFaithError, ParseError
from .faithfulness import (
    decide_graphical,
    is_faithful,
    is_markov,
    is_minimally_markov,
    is_pairwise_markov,
    restricted_graphical,
)
from .gaussian import (
    RationalMatrix,
    inverse,
    is_m_matrix,
    model_from_concentration,
    model_from_covariance,
    parse_matrix_csv,
)
from .graphs import (
    MixedGraph,
    classify,
    connecting_walk_oracle,
    graph_to_text,
    induced_model,
    parse_graph_text,
    separates,
)
from . import limits
from .limits import Caps, DEFAULT_CAPS
from .models import (
    IndependenceModel,
    check_composition,
    check_downward_stability,
    check_intersection,
    check_ordered_downward_stability,
    check_ordered_upward_stability,
    check_semi_graphoid,
    check_singleton_transitivity,
    check_upward_stability,
    marginalize_and_condition,
    model_to_text,
    parse_model_text,
)
from .preorders import Preorder, minimal_preorder, parse_preorder_text

PASS, FAIL, USAGE = 0, 1, 2


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from None


def load_graph(path: str) -> MixedGraph:
    return parse_graph_text(_read(path), path=path)


def load_model(path: str) -> IndependenceModel:
    return parse_model_text(_read(path), path=path)


def load_matrix(path: str) -> RationalMatrix:
    return parse_matrix_csv(_read(path), path=path)


def load_preorder(path: str) -> Preorder:
    return parse_preorder_text(_read(path), path=path)


def _labels(option: str | None) -> frozenset[str]:
    if not option:
        return frozenset()
    return frozenset(tok for tok in option.replace(",", " ").split() if tok)


def _caps_from(args: argparse.Namespace) -> Caps:
    if args.cap is None:
        return DEFAULT_CAPS
    return Caps(
        model_nodes=min(args.cap, limits.HARD_MAX_MODEL_NODES),
        set_axiom_nodes=min(args.cap, limits.HARD_MAX_SET_AXIOM_NODES),
        elementary_axiom_nodes=min(args.cap, limits.HARD_MAX_ELEMENTARY_NODES),
        skeleton_edges=min(args.cap, limits.HARD_MAX_SKELETON_EDGES),
    )


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


# -- verbs ---------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    report = classify(g, maximality_cap=_caps_from(args).model_nodes)
    d = report.to_json_dict()
    human = "\n".join(f"{key}: {'-' if value is None else ('yes' if value else 'no')}" for key, value in d.items())
    _emit(args, d, human)
    return PASS


def _cmd_separate(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    a, b, c = _labels(args.a), _labels(args.b), _labels(args.given)
    result = separates(g, a, b, c)
    walk = None
    if not result:
        found = connecting_walk_oracle(g, a, b, c)
        walk = str(found) if found is not None else None
    payload = {"separated": result, "connecting_walk": walk}
    human = "separated" if result else f"not separated ({walk})"
    _emit(args, payload, human)
    return PASS if result else FAIL


def _cmd_model(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    model = induced_model(g, cap=_caps_from(args).model_nodes, cross_check=args.cross_check)
    text = model_to_text(model)
    _emit(args, {"ground": list(model.ground), "model": text}, text.rstrip("\n"))
    return PASS


_AXIOM_CHECKS: dict[str, Callable] = {
    "semi-graphoid": check_semi_graphoid,
    "intersection": check_intersection,
    "composition": check_composition,
    "singleton-transitivity": check_singleton_transitivity,
}


def _report(args: argparse.Namespace, reports: list) -> int:
    """Emit axiom or stability reports; exit PASS only when all passed."""
    payload = {"reports": [r.to_json_dict() for r in reports]}
    human = "\n".join(
        f"{r.property_name}: {'pass' if r.passed else f'FAIL ({r.count} violations)'}" for r in reports
    )
    _emit(args, payload, human)
    return PASS if all(r.passed for r in reports) else FAIL


def _cmd_axioms(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    caps = _caps_from(args)
    names = args.properties.split(",") if args.properties else list(_AXIOM_CHECKS)
    reports = []
    for name in names:
        name = name.strip()
        if name not in _AXIOM_CHECKS:
            raise ParseError(f"unknown property {name!r}; choose from {', '.join(_AXIOM_CHECKS)}")
        checker = _AXIOM_CHECKS[name]
        cap = caps.elementary_axiom_nodes if name == "singleton-transitivity" else caps.set_axiom_nodes
        reports.append(checker(model, cap=cap))
    return _report(args, reports)


def _cmd_stability(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    cap = _caps_from(args).elementary_axiom_nodes
    if args.trivial == "all-equivalent":
        return _report(args, [check_upward_stability(model, cap=cap)])
    if args.trivial == "all-incomparable":
        return _report(args, [check_downward_stability(model, cap=cap)])
    if args.preorder is not None:
        p = load_preorder(args.preorder)
    else:
        g = load_graph(args.minimal_of)
        p = minimal_preorder(g)
        if frozenset(model.ground) != g.nodes:
            raise ParseError("graph nodes do not match the model ground")
    checks = (("up", check_ordered_upward_stability), ("down", check_ordered_downward_stability))
    return _report(args, [check(model, p, cap=cap) for way, check in checks if args.direction in (way, "both")])


def _cmd_markov(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    g = load_graph(args.graph)
    caps = _caps_from(args)
    if args.variant == "pairwise":
        verdict = is_pairwise_markov(model, g)
    elif args.variant == "minimal":
        verdict = is_minimally_markov(model, g, cap=caps.model_nodes)
    else:
        verdict = is_markov(model, g, cap=caps.model_nodes)
    _emit(
        args,
        {"variant": args.variant, "markov": verdict},
        f"{args.variant} markov: {'yes' if verdict else 'no'}",
    )
    return PASS if verdict else FAIL


def _cmd_faithful(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    g = load_graph(args.graph)
    verdict = is_faithful(model, g, cap=_caps_from(args).model_nodes)
    _emit(args, {"faithful": verdict}, f"faithful: {'yes' if verdict else 'no'}")
    return PASS if verdict else FAIL


def _cmd_graphical(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    caps = _caps_from(args)
    if args.class_filter:
        verdict = restricted_graphical(model, args.class_filter, caps=caps)
    else:
        verdict = decide_graphical(model, caps=caps)
    payload = verdict.to_json_dict()
    if verdict.graphical:
        human = f"graphical: yes ({len(verdict.witnesses)} witness graphs)"
        human += "".join(f"\n--- witness ---\n{graph_to_text(w)}".rstrip("\n") for w in verdict.witnesses)
    else:
        human = f"graphical: no (failed {verdict.failure.property_name})"
        if verdict.failure.witness:
            human += f"\nwitness: {json.dumps(verdict.failure.witness, sort_keys=True)}"
    _emit(args, payload, human)
    return PASS if verdict.graphical else FAIL


def _cmd_gaussian(args: argparse.Namespace) -> int:
    if args.cov is not None:
        matrix, role = load_matrix(args.cov), "covariance"
    elif args.conc is not None:
        matrix, role = load_matrix(args.conc), "concentration"
    else:
        matrix, role = load_matrix(args.matrix), args.role
    caps = _caps_from(args)
    if role == "covariance":
        model = model_from_covariance(matrix, cap=caps.model_nodes)
    else:
        model = model_from_concentration(matrix, cap=caps.model_nodes)
    info = {
        "role": role,
        "labels": list(matrix.labels),
        "positive_definite": True,  # both model constructors reject any other matrix
        "m_matrix": is_m_matrix(matrix),
        "inverse_m_matrix": is_m_matrix(inverse(matrix)),
        "statements": model.statement_count(),
    }
    lines = [
        f"role: {role}",
        "positive definite: yes",
        f"M-matrix: {'yes' if info['m_matrix'] else 'no'}",
        f"inverse is M-matrix: {'yes' if info['inverse_m_matrix'] else 'no'}",
        f"stored statements: {info['statements']}",
    ]
    if args.print_model:
        text = model_to_text(model)
        info["model"] = text
        lines.append(text.rstrip("\n"))
    _emit(args, info, "\n".join(lines))
    return PASS


def _cmd_alpha(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    margin, cond = _labels(args.marginalize), _labels(args.condition)
    result = marginalize_and_condition(model, margin, cond)
    text = model_to_text(result)
    _emit(args, {"ground": list(result.ground), "model": text}, text.rstrip("\n"))
    return PASS


# -- argument wiring -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphfaith",
        description="Markov and faithfulness analysis of independence models and mixed graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--cap", type=int, default=None, help="override the enumeration caps")

    p = sub.add_parser("classify", help="graph class flags incl. maximality")
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("separate", help="walk-based separation query")
    p.add_argument("--graph", required=True)
    p.add_argument("--a", required=True, help="comma-separated node set")
    p.add_argument("--b", required=True, help="comma-separated node set")
    p.add_argument("--given", default="", help="comma-separated conditioning set")
    common(p)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("model", help="materialize the independence model of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--cross-check", action="store_true", dest="cross_check")
    common(p)
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("axioms", help="semi-graphoid / intersection / composition / singleton-transitivity")
    p.add_argument("--model", required=True)
    p.add_argument("--properties", default=None, help="comma-separated subset of the checks")
    common(p)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("stability", help="ordered or plain upward/downward stability")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preorder", help="preorder file")
    group.add_argument("--trivial", choices=("all-equivalent", "all-incomparable"))
    group.add_argument("--minimal-of", dest="minimal_of", help="graph file; uses its minimal preorder")
    p.add_argument("--direction", choices=("up", "down", "both"), default="both")
    common(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("markov", help="global / pairwise / minimal Markov decision")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--variant", choices=("global", "pairwise", "minimal"), default="global")
    common(p)
    p.set_defaults(func=_cmd_markov)

    p = sub.add_parser("faithful", help="model equals the graph's induced model")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    common(p)
    p.set_defaults(func=_cmd_faithful)

    p = sub.add_parser("graphical", help="is the model faithful to some graph; print witnesses")
    p.add_argument("--model", required=True)
    p.add_argument("--class-filter", dest="class_filter", choices=("UG", "BG", "DAG", "AnG"))
    common(p)
    p.set_defaults(func=_cmd_graphical)

    p = sub.add_parser("gaussian", help="independence model of an exact rational covariance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cov", help="covariance CSV")
    group.add_argument("--conc", help="concentration CSV")
    group.add_argument("--matrix", help="matrix CSV, role chosen by --role")
    p.add_argument("--role", choices=("covariance", "concentration"), default="covariance")
    p.add_argument("--print-model", action="store_true", dest="print_model")
    common(p)
    p.set_defaults(func=_cmd_gaussian)

    p = sub.add_parser("alpha", help="marginalize and condition an independence model")
    p.add_argument("--model", required=True)
    p.add_argument("--marginalize", default="", help="comma-separated nodes to marginalize over")
    p.add_argument("--condition", default="", help="comma-separated nodes to condition on")
    common(p)
    p.set_defaults(func=_cmd_alpha)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except GraphFaithError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
