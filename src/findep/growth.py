"""Random generation of cycle-law colorings.

Two samplers realize the same exact law (``cycle_law``):

* **Necklace insertion.** Start from three beads with uniformly random
  distinct colors. Each step picks a uniformly random gap between
  consecutive beads, inserts a bead whose color is uniform among those
  differing from both neighbors, and re-indexes by a uniformly random
  rotation so that the insertion location stays uniform after the step.

* **Eden growth.** Grow a random cluster of the rooted 3-regular tree one
  step at a time, always adding a uniformly chosen vertex adjacent to but
  not in the cluster. The cluster's planar dual is a stack of triangles:
  each added tree vertex glues one new triangle onto a boundary edge of
  the stack, and every vertex of the stack lies on its single outer face.
  Colors are assigned greedily: the initial triangle uniformly among the
  q(q-1)(q-2) proper colorings, each new vertex uniformly among the q-2
  colors differing from its two (mutually adjacent, hence distinctly
  colored) neighbors. Greedy coloring is uniform over all proper colorings
  of the stack because every choice sequence has the same probability and
  produces a distinct coloring. Reading the outer colors from a uniformly
  random starting vertex yields the coloring of the cycle.

The exact one-step transition shared by both procedures is exposed as
``coupling_kernel``; ``eden_vs_necklace_kernel_check`` verifies the
equality of the two step laws state by state.

Randomness. The bounds of every draw a sampler makes depend only on
(n, q), so ``necklace_sample`` and ``eden_sample`` take a replicate's
whole index sequence from one ``RngStream.indices`` call and then run a
deterministic loop. The values equal those of the step-by-step API
(``RngStream.index`` with ``insert_with_rotation``, or ``eden_init``,
``eden_step`` and ``eden_read``), which stays as the literal form of each
procedure and is the reference the tests compare the samplers against.
The necklace loop keeps its beads in a list with a rotation offset, so a
step inserts one bead and moves the offset instead of copying and
rotating the word. Eden states are validated when they are built from
scratch and once per sample before the read; ``eden_step`` and the
per-step loop of ``eden_sample`` do not validate, since a step only
inserts a color drawn from ``allowed_colors`` of its neighbors.

Interior dual structure is never materialized beyond the colors already
fixed: a read needs only the outer face, and interior colors never change.
Orientation note: the stored outer order is "clockwise" for one fixed
chirality of the embedding; the law is reflection invariant, so the choice
is immaterial (and tested to be).

States and samples are immutable; replicates should use disjoint
``RngStream`` instances (distinct ``stream`` indices) and may then run
concurrently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dist import ExactDist, Kernel
from .recurrence import b_circ
from .words import Word, rotl, tuple_is_cyclically_proper

__all__ = [
    "EdenState",
    "RngStream",
    "allowed_colors",
    "coupling_kernel",
    "eden_init",
    "eden_read",
    "eden_sample",
    "eden_state_json",
    "eden_step",
    "eden_vs_necklace_kernel_check",
    "insert_with_rotation",
    "necklace_sample",
    "validate_eden_state",
]


class RngStream:
    """Deterministic random stream: identical (seed, stream) => identical draws.

    Distinct stream indices give statistically independent streams, one per
    replicate.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def index(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"need a positive range, got {n}")
        return int(self._gen.integers(n))

    def indices(self, bounds: Sequence[int]) -> list[int]:
        """Uniform integers in [0, b) for each bound b, in one numpy call.

        Returns ``[self.index(b) for b in bounds]`` and leaves the stream
        in the same state: PCG64 keeps its spare 32-bit half inside the
        bit generator on both paths, and a bound of 1 consumes no bits.
        numpy raises ValueError if a bound is not positive.
        """
        return self._gen.integers(0, np.asarray(bounds, dtype=np.int64)).tolist()

    def choice(self, seq: Sequence):
        return seq[self.index(len(seq))]

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def allowed_colors(q: int, a: int, b: int) -> list[int]:
    """The colors in [1, q] differing from both a and b, in increasing order.

    The deterministic ordering is part of the reproducibility contract:
    samplers index into this list.
    """
    return [c for c in range(1, q + 1) if c != a and c != b]


@lru_cache(maxsize=16)
def _allowed_table(q: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``_allowed_table(q)[a][b] == tuple(allowed_colors(q, a, b))`` for a, b in [0, q]."""
    return tuple(
        tuple(tuple(allowed_colors(q, a, b)) for b in range(q + 1))
        for a in range(q + 1)
    )


def _frozen_bounds(bounds: list[int]) -> np.ndarray:
    a = np.array(bounds, dtype=np.int64)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _necklace_bounds(n: int, q: int) -> np.ndarray:
    """Bounds of ``necklace_sample``'s draws: q, q-1, q-2, then
    (m, q-2, m+1) for m = 3..n-1."""
    bounds = [q, q - 1, q - 2]
    for m in range(3, n):
        bounds += (m, q - 2, m + 1)
    return _frozen_bounds(bounds)


@lru_cache(maxsize=16)
def _eden_bounds(n: int, q: int) -> np.ndarray:
    """Bounds of ``eden_sample``'s draws: q, q-1, q-2, then (s+2, q-2)
    for s = 1..n-3, then n."""
    bounds = [q, q - 1, q - 2]
    for size in range(1, n - 2):
        bounds += (size + 2, q - 2)
    bounds.append(n)
    return _frozen_bounds(bounds)


def _first_colors(q: int, i1: int, i2: int, i3: int) -> tuple[int, int, int]:
    """The initial three distinct colors from draws in [0, q), [0, q-1), [0, q-2)."""
    colors = list(range(1, q + 1))
    c1 = colors.pop(i1)
    c2 = colors.pop(i2)
    return c1, c2, colors[i3]


def insert_with_rotation(x: Word, i: int, z: int, r: int) -> Word:
    """Insert color z just before 1-based position i, then rotate left by r.

    r may be any value in [0, n+1]; 0 and n+1 both mean the identity
    rotation of the extended word.
    """
    n = len(x)
    if not 1 <= i <= n:
        raise IndexError(f"insertion position {i} out of range [1, {n}]")
    if not 0 <= r <= n + 1:
        raise IndexError(f"rotation {r} out of range [0, {n + 1}]")
    if not 1 <= z <= x.q:
        raise ValueError(f"color {z} out of range [1, {x.q}]")
    t = x.symbols[: i - 1] + (z,) + x.symbols[i - 1 :]
    return Word(rotl(t, r), x.q)


def _insertion_row(t: tuple[int, ...], q: int) -> Counter:
    """Outcome counts of one insertion step from the cyclic word t.

    Uniform over: insertion position i in [n] (new symbol goes just before
    position i), color z differing from the cyclic neighbors at the gap,
    and rotation r in [n+1]. Each triple has weight 1; the total is
    n * (q-2) * (n+1).
    """
    n = len(t)
    row: Counter = Counter()
    for i0 in range(n):
        for z in allowed_colors(q, t[i0 - 1], t[i0]):
            y = t[:i0] + (z,) + t[i0:]
            for r in range(n + 1):
                row[rotl(y, r)] += 1
    return row


def _cyclically_proper_words(n: int, q: int):
    """DFS enumeration of the cyclically proper words in [q]**n."""
    if n == 0:
        yield ()
        return

    def extend(prefix: tuple[int, ...]):
        if len(prefix) == n:
            if n == 1 or prefix[-1] != prefix[0]:
                yield prefix
            return
        for c in range(1, q + 1):
            if c != prefix[-1]:
                yield from extend(prefix + (c,))

    for first in range(1, q + 1):
        yield from extend((first,))


def coupling_kernel(n: int, q: int) -> Kernel:
    """The exact one-step insertion kernel from length-n to length-(n+1) words.

    Rows are indexed by every cyclically proper word of length n (a
    superset of the cycle-law support); each row is the exact law of
    ``insert_with_rotation`` under uniform position, uniform non-clashing
    color, and uniform rotation. Pushing ``cycle_law(n, q)`` through this
    kernel reproduces ``cycle_law(n+1, q)`` exactly.
    """
    if n < 3:
        raise ValueError(f"kernel requires n >= 3, got {n}")
    if q < 3:
        raise ValueError(f"kernel requires q >= 3, got {q}")
    rows = {}
    for t in _cyclically_proper_words(n, q):
        counts = _insertion_row(t, q)
        rows[Word(t, q)] = ExactDist.from_weights(
            {Word(s, q): c for s, c in counts.items()}
        )
    return Kernel(rows)


def necklace_sample(n: int, q: int, rng: RngStream) -> Word:
    """One cycle-law coloring of the n-cycle by necklace insertion.

    Starts from three beads with uniformly random distinct colors and
    performs n-3 insertion steps, each with the uniform rotation applied;
    deterministic given the stream. Draws ``_necklace_bounds(n, q)``: the
    three initial colors, then per step the position i0, color index and
    rotation r of ``insert_with_rotation`` at 1-based position i0+1.
    """
    if n < 3:
        raise ValueError(f"necklace sampler requires n >= 3, got {n}")
    if q < 3:
        raise ValueError(f"necklace sampler requires q >= 3, got {q}")
    draws = rng.indices(_necklace_bounds(n, q))
    table = _allowed_table(q)
    # The word is phys[off:] + phys[:off].
    phys = list(_first_colors(q, *draws[:3]))
    off = 0
    for m, i0, ci, r in zip(range(3, n), draws[3::3], draws[4::3], draws[5::3]):
        p = (off + i0) % m
        phys.insert(p, table[phys[p - 1]][phys[p]][ci])
        if p < off:
            off += 1
        off = (off + r) % (m + 1)
    return Word(tuple(phys[off:] + phys[:off]), q)


# -- Eden growth ------------------------------------------------------------
#
# EdenState bookkeeping. The outer face of the triangle stack is a cycle of
# dual vertices; between consecutive outer vertices sits exactly one
# boundary edge, and gluing the next triangle onto that edge corresponds to
# adding one specific boundary vertex of the tree cluster. A gap record
# ties the two together: (left outer id, right outer id, boundary tree
# vertex). A cluster of size m has m+2 outer vertices and m+2 gaps.


@dataclass(frozen=True)
class EdenState:
    """Growth state: tree cluster plus colored dual outer cycle.

    ``outer[i]`` is an (id, color) pair; gap i sits between ``outer[i]``
    and ``outer[(i+1) % len]``. ``tree_edges`` records the explored part of
    the 3-regular tree: edges inside the cluster and the pending edges to
    its boundary vertices. Fresh vertex ids come from the two counters.
    """

    q: int
    size: int
    tree: tuple[int, ...]
    tree_edges: tuple[tuple[int, int], ...]
    outer: tuple[tuple[int, int], ...]
    gaps: tuple[tuple[int, int, int], ...]
    next_tree_id: int
    next_outer_id: int


def validate_eden_state(s: EdenState) -> None:
    """Raise AssertionError unless the structural invariants hold."""
    m = s.size
    if len(s.outer) != m + 2:
        raise AssertionError(f"outer size {len(s.outer)} != {m + 2}")
    if len(s.gaps) != m + 2:
        raise AssertionError(f"gap count {len(s.gaps)} != {m + 2}")
    if len(s.tree) != m:
        raise AssertionError(f"tree size {len(s.tree)} != {m}")
    n_out = len(s.outer)
    cluster = set(s.tree)
    boundary = []
    for u, v in s.tree_edges:
        if (u in cluster) != (v in cluster):
            boundary.append(v if u in cluster else u)
    if sorted(boundary) != sorted(g[2] for g in s.gaps):
        raise AssertionError(
            "gap boundary vertices must be exactly the tree boundary, once each"
        )
    for i, (left, right, _) in enumerate(s.gaps):
        if left != s.outer[i][0] or right != s.outer[(i + 1) % n_out][0]:
            raise AssertionError(f"gap {i} does not interleave with the outer cycle")
    for i in range(n_out):
        if s.outer[i][1] == s.outer[(i + 1) % n_out][1]:
            raise AssertionError(f"adjacent outer colors equal at position {i}")


def _eden_first_state(q: int, i1: int, i2: int, i3: int) -> EdenState:
    """Cluster of size 1 whose triangle gets ``_first_colors(q, i1, i2, i3)``."""
    c1, c2, c3 = _first_colors(q, i1, i2, i3)
    state = EdenState(
        q=q,
        size=1,
        tree=(0,),
        tree_edges=((0, 1), (0, 2), (0, 3)),
        outer=((0, c1), (1, c2), (2, c3)),
        gaps=((0, 1, 1), (1, 2, 2), (2, 0, 3)),
        next_tree_id=4,
        next_outer_id=3,
    )
    validate_eden_state(state)
    return state


def eden_init(q: int, rng: RngStream) -> EdenState:
    """Cluster of size 1 with a uniformly colored initial triangle."""
    if q < 3:
        raise ValueError(f"growth requires q >= 3 colors, got {q}")
    return _eden_first_state(q, rng.index(q), rng.index(q - 1), rng.index(q - 2))


def _eden_step_at(s: EdenState, gap_index: int, color_index: int) -> EdenState:
    """Grow by the boundary vertex of the given gap, with the given color choice.

    ``color_index`` selects from ``allowed_colors`` of the gap's two
    endpoint colors. Deterministic; ``eden_step`` draws the two choices.
    The result is not validated: the new color differs from both of its
    neighbors by construction.
    """
    n_out = len(s.outer)
    left_id, right_id, w = s.gaps[gap_index]
    left_color = s.outer[gap_index][1]
    right_color = s.outer[(gap_index + 1) % n_out][1]
    z = allowed_colors(s.q, left_color, right_color)[color_index]

    new_outer_id = s.next_outer_id
    t1 = s.next_tree_id
    t2 = s.next_tree_id + 1
    outer = (
        s.outer[: gap_index + 1]
        + ((new_outer_id, z),)
        + s.outer[gap_index + 1 :]
    )
    gaps = (
        s.gaps[:gap_index]
        + ((left_id, new_outer_id, t1), (new_outer_id, right_id, t2))
        + s.gaps[gap_index + 1 :]
    )
    return EdenState(
        q=s.q,
        size=s.size + 1,
        tree=s.tree + (w,),
        tree_edges=s.tree_edges + ((w, t1), (w, t2)),
        outer=outer,
        gaps=gaps,
        next_tree_id=t2 + 1,
        next_outer_id=new_outer_id + 1,
    )


def eden_step(s: EdenState, rng: RngStream) -> EdenState:
    """One growth step: uniform gap (equivalently uniform boundary tree
    vertex), then uniform non-clashing color for the stacked vertex."""
    gap_index = rng.index(len(s.gaps))
    color_index = rng.index(s.q - 2)
    return _eden_step_at(s, gap_index, color_index)


def _eden_read_from(s: EdenState, start: int) -> Word:
    n_out = len(s.outer)
    return Word(tuple(s.outer[(start + j) % n_out][1] for j in range(n_out)), s.q)


def eden_read(s: EdenState, rng: RngStream) -> Word:
    """The outer colors in stored (clockwise) order from a uniform start."""
    return _eden_read_from(s, rng.index(len(s.outer)))


def eden_state_json(s: EdenState) -> dict:
    """JSON-ready snapshot of a growth state, for debugging/visualization."""
    return {
        "schema": "findep.eden-state/1",
        "q": s.q,
        "size": s.size,
        "tree_vertices": list(s.tree),
        "tree_edges": [list(e) for e in s.tree_edges],
        "outer": [{"id": vid, "color": color} for vid, color in s.outer],
        "gaps": [
            {"left": left, "right": right, "boundary_vertex": w}
            for left, right, w in s.gaps
        ],
    }


def eden_sample(n: int, q: int, rng: RngStream) -> Word:
    """One cycle-law coloring of the n-cycle via Eden growth (n >= 3).

    Draws ``_eden_bounds(n, q)``: the initial triangle's colors, the gap
    and color of each step, then the read's start, as ``eden_init``,
    ``eden_step`` and ``eden_read`` would. The final state is validated
    before the read.
    """
    if n < 3:
        raise ValueError(f"growth sampler requires n >= 3, got {n}")
    if q < 3:
        raise ValueError(f"growth requires q >= 3 colors, got {q}")
    draws = rng.indices(_eden_bounds(n, q))
    s = _eden_first_state(q, *draws[:3])
    for gap_index, color_index in zip(draws[3:-1:2], draws[4:-1:2]):
        s = _eden_step_at(s, gap_index, color_index)
    validate_eden_state(s)
    return _eden_read_from(s, draws[-1])


def _eden_state_with_outer(x: Word) -> EdenState:
    """A valid state whose outer cycle carries the given coloring.

    The cluster is laid out as a path; the pairing of gaps with boundary
    vertices is one fixed consistent choice. The one-step law from a state
    depends on the state only through its outer coloring, so any valid
    realization serves for exhaustive checks.
    """
    n = len(x)
    if n < 3:
        raise ValueError("outer cycle needs at least 3 vertices")
    if not tuple_is_cyclically_proper(x.symbols):
        raise ValueError("outer coloring must be cyclically proper")
    size = n - 2
    path = tuple(range(size))
    edges = [(i, i + 1) for i in range(size - 1)]
    boundary = list(range(size, size + n))
    free_slots: list[int] = []  # cluster vertex owning each boundary edge
    if size == 1:
        free_slots = [0, 0, 0]
    else:
        free_slots.extend([0, 0])           # path end: root keeps 2 free
        free_slots.extend(range(1, size - 1))  # interior: 1 free each
        free_slots.extend([size - 1, size - 1])  # other end: 2 free
    edges.extend((free_slots[j], boundary[j]) for j in range(n))
    outer = tuple((i, x.symbols[i]) for i in range(n))
    gaps = tuple((i, (i + 1) % n, boundary[i]) for i in range(n))
    state = EdenState(
        q=x.q,
        size=size,
        tree=path,
        tree_edges=tuple(edges),
        outer=outer,
        gaps=gaps,
        next_tree_id=size + n,
        next_outer_id=n,
    )
    validate_eden_state(state)
    return state


def eden_vs_necklace_kernel_check(n: int, q: int) -> bool:
    """Exact equality of the Eden step-and-read law with the insertion step.

    For every reachable outer coloring t (positive insertion count), builds
    a state carrying it and counts the outcomes of all (gap, color, start)
    choices of one growth step followed by a read. ``_insertion_row(t, q)``
    counts all (gap, color, rotation) triples of one insertion step; both
    range over n (q-2) (n+1) triples of weight 1, so equal counts are equal
    laws.
    """
    for t in _cyclically_proper_words(n, q):
        if b_circ(t, q) == 0:
            continue
        s = _eden_state_with_outer(Word(t, q))
        outcomes: Counter = Counter()
        for gap_index in range(len(s.gaps)):
            for color_index in range(q - 2):
                stepped = _eden_step_at(s, gap_index, color_index)
                for start in range(len(stepped.outer)):
                    outcomes[_eden_read_from(stepped, start).symbols] += 1
        if outcomes != _insertion_row(t, q):
            return False
    return True
