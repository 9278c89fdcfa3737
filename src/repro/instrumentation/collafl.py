"""CollAFL-style collision-free edge IDs (paper §VI, related work).

CollAFL [Gan et al., S&P'18] removes hash collisions by *statically*
assigning edge IDs at link time: blocks with a single incoming edge get
a unique ID outright; remaining edges fall back to parameterized
hashing, re-solved until collision-free. Two properties the paper
highlights:

* the bitmap must be **sized to the static assignment** — every static
  edge needs a slot, even though only a fraction is ever visited
  (Table II: LLVM-opt has 978k static but ≤132k visited edges). The
  big map then costs AFL full-sweep time on every execution — which is
  exactly the overhead BigMap removes, making *CollAFL + BigMap* the
  natural combination (§VI: "used in combination ... to completely
  eliminate collisions while providing more efficient access");
* it only works for block/edge coverage — it cannot host N-gram or
  context metrics, unlike BigMap.

Our synthetic programs give every edge a unique (src, dst) pair, so the
static assignment covers all *materialized* edges; the ``static_edges``
metadata (the unvisited remainder of the notional binary) still forces
the map size up, reproducing the trade-off. Indirect-edge fallback
hashing is modeled with a configurable fraction, as in
:class:`~repro.instrumentation.edge_ids.TracePCGuardInstrumentation`,
and the two share one ID table.
"""

from __future__ import annotations

import numpy as np

from ..target.cfg import Program
from .edge_ids import EdgeTableInstrumentation, sequential_edge_keys


def required_map_size(program: Program) -> int:
    """Smallest power-of-two map that fits CollAFL's static assignment.

    CollAFL reserves a slot per *static* edge (visited or not); the
    paper cites this as its map-bloat drawback. A program with more
    materialized than static edges needs a slot for each of those.
    """
    needed = max(program.static_edges, program.n_edges, 1)
    size = 1
    while size < needed:
        size <<= 1
    return size


class CollAflInstrumentation(EdgeTableInstrumentation):
    """Static, collision-free edge IDs with hashed indirect fallback.

    Args:
        program: the target.
        map_size: coverage bitmap size. Must fit the static assignment
            (``required_map_size``) for the collision-free guarantee;
            smaller maps fall back to modulo wrapping (and collisions),
            which the constructor reports via ``fully_static``.
        seed: randomness for the indirect-edge fallback hashing.
        indirect_fraction: fraction of edges whose destination is not
            statically known (function pointers, virtual calls).
    """

    name = "collafl"

    def __init__(self, program: Program, map_size: int, seed: int = 0,
                 indirect_fraction: float = 0.05) -> None:
        super().__init__(program, map_size)
        self.edge_keys, self.indirect_mask = sequential_edge_keys(
            program, map_size, seed ^ 0xC0111, indirect_fraction)
        self.fully_static = map_size >= max(program.static_edges,
                                            program.n_edges)

    def direct_collision_count(self) -> int:
        """Colliding *direct* edges — zero when ``fully_static``."""
        direct = self.edge_keys[~self.indirect_mask]
        return int(direct.size - np.unique(direct).size)
