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
:class:`~repro.instrumentation.edge_ids.TracePCGuardInstrumentation`.
"""

from __future__ import annotations

import numpy as np

from ..target.cfg import Program
from .edge_ids import EdgeTableInstrumentation


def required_map_size(program: Program) -> int:
    """Smallest power-of-two map that fits CollAFL's static assignment.

    CollAFL reserves a slot per *static* edge (visited or not); the
    paper cites this as its map-bloat drawback.
    """
    needed = max(program.static_edges, 1)
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
        if not 0 <= indirect_fraction <= 1:
            raise ValueError(f"indirect_fraction must be in [0, 1], "
                             f"got {indirect_fraction}")
        rng = np.random.default_rng(np.random.PCG64(seed ^ 0xC0111))
        n = program.n_edges

        # Static pass: deterministic unique IDs, offset so that the
        # unvisited static remainder notionally occupies the tail.
        keys = np.arange(n, dtype=np.int64)
        self.fully_static = map_size >= program.static_edges
        if not self.fully_static:
            keys = keys % map_size

        # Indirect edges cannot be assigned statically: CollAFL hashes
        # them over the remaining space, with possible collisions.
        indirect = rng.random(n) < indirect_fraction
        n_ind = int(indirect.sum())
        if n_ind:
            keys[indirect] = rng.integers(0, map_size, size=n_ind,
                                          dtype=np.int64)
        self.edge_keys = keys
        self.indirect_mask = indirect

    def direct_collision_count(self) -> int:
        """Colliding *direct* edges — zero when ``fully_static``."""
        direct = self.edge_keys[~self.indirect_mask]
        return int(direct.size - np.unique(direct).size)
