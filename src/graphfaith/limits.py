"""Default caps for the exhaustive computations.

Everything in this package that enumerates triples, axiom instantiations,
or edge directings is exponential in the ground-set size, so each entry
point takes a cap.  These defaults keep desk-scale runs interactive; they
can be raised per call (or via ``--cap`` on the CLI) up to a hard ceiling.
"""

from dataclasses import dataclass

from .errors import CapExceededError

# Hard ceilings; raising a cap past these is refused outright.
HARD_MAX_MODEL_NODES = 12
HARD_MAX_SET_AXIOM_NODES = 10
HARD_MAX_ELEMENTARY_NODES = 14
HARD_MAX_SKELETON_EDGES = 14


@dataclass(frozen=True)
class Caps:
    """Caps for exhaustive enumeration, grouped for CLI plumbing.

    model_nodes: full materialization of an independence model (4**n triples).
    set_axiom_nodes: semi-graphoid, intersection and composition checks; a pass
        is decided by O(n**2) shifts of the 4**n-bit member integer, and the
        scans (5**n worst case) run only to report a failure.
    elementary_axiom_nodes: singleton-transitivity and stability scans.
    skeleton_edges: edge-directing enumeration (4**edges candidates).
    """

    model_nodes: int = 10
    set_axiom_nodes: int = 8
    elementary_axiom_nodes: int = 12
    skeleton_edges: int = 12

    def __post_init__(self) -> None:
        for name, value, ceiling in (
            ("model_nodes", self.model_nodes, HARD_MAX_MODEL_NODES),
            ("set_axiom_nodes", self.set_axiom_nodes, HARD_MAX_SET_AXIOM_NODES),
            ("elementary_axiom_nodes", self.elementary_axiom_nodes, HARD_MAX_ELEMENTARY_NODES),
            ("skeleton_edges", self.skeleton_edges, HARD_MAX_SKELETON_EDGES),
        ):
            if value < 0:
                raise CapExceededError(f"cap {name} must be non-negative, got {value}")
            if value > ceiling:
                raise CapExceededError(f"cap {name}={value} exceeds hard ceiling {ceiling}")


DEFAULT_CAPS = Caps()


def require_within(kind: str, actual: int, cap: int) -> None:
    """Raise CapExceededError when `actual` exceeds `cap`, naming both."""
    if actual > cap:
        raise CapExceededError(f"{kind} size {actual} exceeds cap {cap}")
