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
``coupling_kernel``, a ``Kernel`` of integer-count rows kept as library
API and as the tests' literal form of the step; a row of it is
``_insertion_row``, the necklace step's count of outcomes through
``words.insertion_orbits``. ``verify coupling`` runs the step on one
engine, ``_necklace_blocks``: the nonzero cells of level n in blocks of
``_BLOCK_STATES`` states, each block's insertions computed on base-q
codes (``_necklace_codes``) and rotated arithmetically into sorted keys
(``_block_keys``). A ``coupling`` case walks them once
(``suites._necklace_step``), adding each state's count at its outcomes
(the transport) and asking ``_eden_agrees`` of each block (the Eden
check): its states stepped by the samplers' ``_insert_columns`` give
the block's keys, so the two step laws agree on every state.

Randomness. The bounds of every draw a sampler makes depend only on
(n, q) (``_necklace_bounds``, ``_eden_bounds``), so a replicate's word is
a deterministic function of its whole index sequence (``_necklace_word``,
``_eden_word``, which return the symbol tuple). ``necklace_sample`` and
``eden_sample`` take that sequence from one ``RngStream.indices`` call;
the CLI takes the same values for every replicate from
``_replicate_blocks``, which computes a block of replicates' streams at
once with numpy arithmetic, as one int64 array, and checks each block
against ``RngStream`` (``replicate_draws`` lists the same rows). The
values equal those of the step-by-step API (``RngStream.index`` with
``insert_with_rotation``, or ``eden_init``, ``eden_step`` and
``eden_read``), which stays as the literal form of each procedure and is
the reference the tests compare the samplers against.

The per-row builders grow a plain list of colors with one insertion step
(``_insert``). The necklace loop keeps its beads with a rotation offset,
so a step inserts one bead and moves the offset instead of copying and
rotating the word. The Eden loop keeps only the outer colors: the tree
never affects the coloring, and gap i of the list stands for the boundary
tree vertex of the literal state's gap i. ``eden_init`` validates the
literal state it builds; ``eden_step`` does not, since a step only
inserts a color drawn from ``allowed_colors`` of its neighbors. The CLI
builds a whole block of draw rows at once (``_necklace_words``,
``_eden_words``): up to ``_VECTOR_MAX_N`` beads, numpy runs the same step
on every row of the block (``_insert_columns``: columns shifted under a
mask, the allowed color by ``_allowed_color``) and rotates each row once
at the end; longer words are built by the per-row loop, which is faster
for them. Both count the allowed color up from 1, skipping the two
neighbour colors, so no step keeps a table over q.

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
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .dist import ExactDist, Kernel
# b_circ is no longer called here, but perfbench's self-test checks that its
# tracer rebinds it at this lookup site, so the name stays.
from .recurrence import b_circ  # noqa: F401
from .recurrence import DEFAULT_BUDGET, _INT64_MAX, _law_cells
from .words import Word, encode_digits, insertion_orbits, rotl, tuple_is_cyclically_proper

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
    "replicate_draws",
    "validate_eden_state",
]


class RngStream:
    """Deterministic random stream: identical (seed, stream) => identical draws.

    Distinct stream indices give statistically independent streams, one per
    replicate: numpy's PCG64 seeded by ``SeedSequence(entropy=seed,
    spawn_key=(stream,))``. It is the library form of a replicate's stream
    and the literal oracle of ``replicate_draws``, which yields
    ``RngStream(seed, r).indices(bounds)`` for a range of replicates r.
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

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


# -- every replicate's draws at once ----------------------------------------
#
# ``RngStream(seed, r)`` is PCG64 (XSL-RR output, O'Neill 2014) seeded by
# ``SeedSequence(entropy=seed, spawn_key=(r,))``, and ``indices`` bounds each
# 32-bit half of its outputs, low half first, by Lemire's multiply-shift
# (Lemire 2019). ``_replicate_blocks`` runs the same arithmetic on uint32 and
# uint64 arrays for a block of replicates. A 128-bit number is a (high, low)
# pair of uint64 arrays; uint64 products wrap mod 2**64.

_M32, _M64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
_U1, _U32, _U58, _U63, _U64, _U_M32 = (np.uint64(k) for k in (1, 32, 58, 63, 64, _M32))
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constants (uint32).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Raw 64-bit outputs computed per block; a block holds at least one replicate.
_BLOCK_OUTPUTS = 2**14


def _mulhi64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products x * y."""
    x0, x1, y0, y1 = x & _U_M32, x >> _U32, y & _U_M32, y >> _U32
    p01, p10, high, mid = x0 * y1, x1 * y0, x1 * y1, x0 * y0
    mid >>= _U32
    mid += p01 & _U_M32
    mid += p10 & _U_M32
    for part in (p01, p10, mid):
        part >>= _U32
        high += part
    return high


def _mul128(a, b):
    (ah, al), (bh, bl) = a, b
    high = _mulhi64(al, bl)
    high += ah * bl
    high += al * bh
    return high, al * bl


def _add128(a, b):
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _hashmix(value: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of a uint32 array; returns it and the next h."""
    value = value ^ np.uint32(h)
    h = h * mult & _M32
    value = value * np.uint32(h)
    return value ^ (value >> np.uint32(16)), h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _seed_words(seed: int) -> list[int]:
    """The uint32 words of a non-negative integer, least significant first."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    return words


def _pcg64_seeded(words: list[int], spawn: np.ndarray):
    """(state, inc) of ``PCG64(SeedSequence(entropy=seed, spawn_key=(r,)))``
    for the seed with uint32 words ``words`` and each r in the uint32 array
    ``spawn``, as 128-bit column vectors."""
    entropy = [np.full(spawn.shape, w, np.uint32) for w in words]
    entropy += [np.zeros(spawn.shape, np.uint32)] * (4 - len(words)) + [spawn]
    # mix_entropy on a pool of 4 words; the spawn word is never in the pool.
    h = _INIT_A
    pool = []
    for word in entropy[:4]:
        word, h = _hashmix(word, h, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[4:]:
        for dst in range(4):
            mixed, h = _hashmix(word, h, _MULT_A)
            pool[dst] = _mix(pool[dst], mixed)
    # generate_state(4, uint64): 8 uint32 words, paired little-endian.
    h = _INIT_B
    out = []
    for i in range(8):
        word, h = _hashmix(pool[i % 4], h, _MULT_B)
        out.append(word.astype(np.uint64)[:, None])
    seed0, seed1, seq0, seq1 = (out[i] | out[i + 1] << _U32 for i in range(0, 8, 2))
    # pcg64_set_seed: state = ((inc + seed) * mult + inc), inc = 2 seq + 1.
    inc = (seq0 << _U1 | seq1 >> _U63, seq1 << _U1 | _U1)
    state = _add128(_mul128(_add128(inc, (seed0, seed1)), _u128_row([_PCG64_MULT])), inc)
    return state, inc


def _jumps(n_out: int):
    """(A_k, C_k) for k = 1..n_out as 128-bit row vectors: k steps of PCG64
    take (state, inc) to A_k * state + C_k * inc mod 2**128."""
    a, c = 1, 0
    a_k, c_k = [], []
    for _ in range(n_out):
        a, c = a * _PCG64_MULT % 2**128, (c + a) % 2**128
        a_k.append(a)
        c_k.append(c)
    return _u128_row(a_k), _u128_row(c_k)


def _u128_row(xs: list[int]):
    """128-bit integers as a row vector of (high, low) uint64 halves."""
    return (
        np.array([x >> 64 for x in xs], dtype=np.uint64)[None, :],
        np.array([x & _M64 for x in xs], dtype=np.uint64)[None, :],
    )


def _xsl_rr(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """PCG64's 64-bit output of each 128-bit state; overwrites both halves."""
    low ^= high
    high >>= _U58  # the rotation
    out = low >> high
    np.subtract(_U64, high, out=high)
    high &= _U63
    low <<= high
    out |= low
    return out


def replicate_draws(seed: int, reps: int, bounds: Sequence[int]) -> Iterator[list[int]]:
    """``RngStream(seed, r).indices(bounds)`` for r = 0..reps-1, in order:
    the rows of ``_replicate_blocks``, each listed as Python ints."""
    # rows are listed one at a time: a block's lists of Python ints would
    # take several times the array's memory
    return (row.tolist() for block in _replicate_blocks(seed, reps, bounds) for row in block)


def _replicate_blocks(seed: int, reps: int, bounds: Sequence[int]) -> Iterator[np.ndarray]:
    """The rows ``RngStream(seed, r).indices(bounds)`` for r = 0..reps-1, in
    order, as int64 arrays of a block of rows each.

    Computes a block of replicates at once: their seeding, every PCG64
    output of a row (state k is A_k * state + C_k * inc, one broadcast) and
    the Lemire products. A row whose Lemire leftover falls below numpy's
    threshold (a rejection, which draws again; its chance is below
    b / 2**32 per draw) is taken from ``RngStream`` instead, and the first
    row of each block must equal its ``RngStream`` draws. Raises
    ValueError up front for a negative seed, more than 2**32 replicates
    (the spawn key must be one uint32 word) or a bound outside [1, 2**32]
    (larger bounds take numpy's 64-bit path, which is not modelled here);
    the blocks themselves are computed lazily.
    """
    seed = int(seed)
    words = _seed_words(seed)
    bounds = np.asarray(bounds, dtype=np.int64)
    if reps > 2**32:
        raise ValueError(f"at most 2**32 replicates share a seed, got {reps}")
    if bounds.size and not (bounds.min() >= 1 and bounds.max() <= 2**32):
        raise ValueError(f"bounds must lie in [1, 2**32], got {bounds.min()}..{bounds.max()}")
    return _draw_blocks(seed, words, reps, bounds)


def _draw_blocks(seed: int, words: list[int], reps: int, bounds: np.ndarray
                 ) -> Iterator[np.ndarray]:
    live = np.flatnonzero(bounds > 1)  # a bound of 1 draws no bits
    b = bounds[live].astype(np.uint64)
    n_out = (len(live) + 1) // 2
    jumps = _jumps(n_out)
    per_block = max(1, _BLOCK_OUTPUTS // max(n_out, 1))
    for r0 in range(0, reps, per_block):
        spawn = np.arange(r0, min(r0 + per_block, reps), dtype=np.uint32)
        values, rejected = _lemire_draws(_pcg64_seeded(words, spawn), jumps, b)
        block = np.zeros((len(spawn), len(bounds)), dtype=np.int64)
        block[:, live] = values  # every draw is below 2**32
        del values
        for i in np.flatnonzero(rejected).tolist():
            block[i] = RngStream(seed, r0 + i).indices(bounds)
        if block[0].tolist() != RngStream(seed, r0).indices(bounds):
            raise RuntimeError(
                f"replicate {r0} of seed {seed} differs from numpy's own draws; "
                "numpy's PCG64, SeedSequence or bounded integers have changed"
            )
        yield block
        del block  # before the next block's arrays


def _lemire_draws(seeded, jumps, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each seeded row's draws in [0, b) from its successive 32-bit halves,
    low half first, and whether the row has a draw that numpy rejects.
    Works in place where it can: a block's memory is a few of its arrays."""
    (state, inc), (a_k, c_k) = seeded, jumps
    high, low = _mul128(a_k, state)
    step_high, step_low = _mul128(c_k, inc)
    low += step_low
    high += step_high
    high += low < step_low  # the carry
    del step_high, step_low
    out = _xsl_rr(high, low)
    del high, low
    u32 = np.empty(out.shape + (2,), dtype=np.uint64)
    np.bitwise_and(out, _U_M32, out=u32[..., 0])
    np.right_shift(out, _U32, out=u32[..., 1])
    del out
    m = u32.reshape(len(u32), -1)[:, : len(b)]
    m *= b
    values = m >> _U32
    m &= _U_M32  # the leftover
    return values, (m < (np.uint64(2**32) - b) % b).any(axis=1)


def allowed_colors(q: int, a: int, b: int) -> list[int]:
    """The colors in [1, q] differing from both a and b, in increasing order.

    The deterministic ordering is part of the reproducibility contract:
    samplers index into this list.
    """
    return [c for c in range(1, q + 1) if c != a and c != b]


def _insert(cyc: list[int], p: int, ci: int) -> None:
    """Insert into the cyclic color list ``cyc``, just before index p, the
    color ``allowed_colors(q, cyc[p-1], cyc[p % len])[ci]``, counted up as
    ``_allowed_color`` does: the one insertion step of both samplers."""
    a, b = cyc[p - 1], cyc[p % len(cyc)]
    if a > b:
        a, b = b, a
    c = ci + 1
    if c >= a:
        c += 1
        if c >= b:
            c += 1
    cyc.insert(p, c)


def _frozen_bounds(bounds: list[int]) -> np.ndarray:
    a = np.array(bounds, dtype=np.int64)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _necklace_bounds(n: int, q: int) -> np.ndarray:
    """Bounds of ``necklace_sample``'s draws: q, q-1, q-2, then
    (m, q-2, m+1) for m = 3..n-1."""
    if n < 3:
        raise ValueError(f"necklace sampler requires n >= 3, got {n}")
    if q < 3:
        raise ValueError(f"necklace sampler requires q >= 3, got {q}")
    bounds = [q, q - 1, q - 2]
    for m in range(3, n):
        bounds += (m, q - 2, m + 1)
    return _frozen_bounds(bounds)


@lru_cache(maxsize=16)
def _eden_bounds(n: int, q: int) -> np.ndarray:
    """Bounds of ``eden_sample``'s draws: q, q-1, q-2, then (s+2, q-2)
    for s = 1..n-3, then n."""
    if n < 3:
        raise ValueError(f"growth sampler requires n >= 3, got {n}")
    if q < 3:
        raise ValueError(f"growth requires q >= 3 colors, got {q}")
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
    """Outcome counts of one insertion step from the cyclic word t: the
    ``insertion_orbits`` of every color differing from the neighbors at the
    gap, n (q-2) (n+1) triples of weight 1."""
    return insertion_orbits(t, lambda a, b: allowed_colors(q, a, b))


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
    for t in filter(tuple_is_cyclically_proper, product(range(1, q + 1), repeat=n)):
        counts = _insertion_row(t, q)
        rows[Word(t, q)] = ExactDist.from_weights({Word(s, q): c for s, c in counts.items()})
    return Kernel(rows)


def necklace_sample(n: int, q: int, rng: RngStream) -> Word:
    """One cycle-law coloring of the n-cycle by necklace insertion.

    Starts from three beads with uniformly random distinct colors and
    performs n-3 insertion steps, each with the uniform rotation applied;
    deterministic given the stream. Draws ``_necklace_bounds(n, q)``: the
    three initial colors, then per step the position i0, color index and
    rotation r of ``insert_with_rotation`` at 1-based position i0+1.
    """
    return Word(_necklace_word(n, q, rng.indices(_necklace_bounds(n, q))), q)


def _necklace_word(n: int, q: int, draws: Sequence[int]) -> tuple[int, ...]:
    """The symbols of the necklace word that the draws for
    ``_necklace_bounds(n, q)`` give."""
    # The word is phys[off:] + phys[:off].
    phys = list(_first_colors(q, *draws[:3]))
    off = 0
    for m, i0, ci, r in zip(range(3, n), draws[3::3], draws[4::3], draws[5::3]):
        p = (off + i0) % m
        _insert(phys, p, ci)
        if p < off:
            off += 1
        off = (off + r) % (m + 1)
    return tuple(phys[off:] + phys[:off])


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


def eden_init(q: int, rng: RngStream) -> EdenState:
    """Cluster of size 1 with a uniformly colored initial triangle."""
    if q < 3:
        raise ValueError(f"growth requires q >= 3 colors, got {q}")
    c1, c2, c3 = _first_colors(q, rng.index(q), rng.index(q - 1), rng.index(q - 2))
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


def _eden_step_at(s: EdenState, gap_index: int, color_index: int) -> EdenState:
    """Grow by the boundary vertex of the given gap, with the given color choice.

    ``color_index`` selects from ``allowed_colors`` of the gap's two
    endpoint colors. Deterministic; ``eden_step`` draws the two choices.
    The result is not validated: the new color differs from both of its
    neighbors by construction. This literal step tracks the tree and is
    the reference that the samplers' ``_insert`` is tested against.
    """
    left_id, right_id, w = s.gaps[gap_index]
    left_color = s.outer[gap_index][1]
    right_color = s.outer[(gap_index + 1) % len(s.outer)][1]
    z = allowed_colors(s.q, left_color, right_color)[color_index]
    new_id, t1 = s.next_outer_id, s.next_tree_id
    return EdenState(
        q=s.q,
        size=s.size + 1,
        tree=s.tree + (w,),
        tree_edges=s.tree_edges + ((w, t1), (w, t1 + 1)),
        outer=s.outer[: gap_index + 1] + ((new_id, z),) + s.outer[gap_index + 1 :],
        gaps=s.gaps[:gap_index] + ((left_id, new_id, t1), (new_id, right_id, t1 + 1))
        + s.gaps[gap_index + 1 :],
        next_tree_id=t1 + 2,
        next_outer_id=new_id + 1,
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
    ``eden_step`` and ``eden_read`` would. Only the outer colors are grown:
    the word equals the read of the literal state, whose tree never
    affects the coloring.
    """
    return Word(_eden_word(n, q, rng.indices(_eden_bounds(n, q))), q)


def _eden_word(n: int, q: int, draws: Sequence[int]) -> tuple[int, ...]:
    """The symbols of the Eden word that the draws for ``_eden_bounds(n, q)``
    give. Gap i sits between ``outer[i]`` and ``outer[(i+1) % len]``, so the
    stacked vertex goes in at index i+1."""
    outer = list(_first_colors(q, *draws[:3]))
    for gap_index, color_index in zip(draws[3:-1:2], draws[4:-1:2]):
        _insert(outer, gap_index + 1, color_index)
    start = draws[-1]
    return tuple(outer[start:] + outer[:start])


# -- a block of words at once -------------------------------------------------
#
# The CLI builds the words of a whole block of draw rows per call. Up to
# _VECTOR_MAX_N beads, numpy runs each insertion step on every row of the
# block at once. Per word, the Python loop of ``_necklace_word`` and
# ``_eden_word`` against numpy (q = 4, best of nine, 2-core box, Python
# 3.11.7, numpy 2.4.6): necklace 7.2 -> 1.1 us at n = 8, 44 -> 28 us at
# n = 64 and 88 -> 92 us at n = 128; Eden 6.0 -> 0.9, 32 -> 22 and 62 ->
# 69 us. numpy's cost per call dominates a block of few long rows, so a
# longer word is built by the loop.
_VECTOR_MAX_N = 64
# Column offsets of a gap's left and right neighbours from the column after it.
_NEIGHBOURS = np.array([-1, 0])


def _allowed_color(a, b, ci):
    """``allowed_colors(q, a, b)[ci]`` for a != b, elementwise on arrays:
    the (ci+1)-th integer from 1 up, skipping min(a, b) and then max(a, b)."""
    c = ci + 1
    c += c >= np.minimum(a, b)
    c += c >= np.maximum(a, b)
    return c


def _word_rows(word_of, n: int, q: int, draws: np.ndarray) -> np.ndarray:
    # rows are listed one at a time: a block's lists of Python ints would
    # take several times the array's memory
    return np.array([word_of(n, q, row.tolist()) for row in draws],
                    dtype=np.int64).reshape(len(draws), n)


def _first_columns(n: int, draws: np.ndarray) -> np.ndarray:
    """An (R, n) array whose first three columns hold ``_first_colors`` of
    each row of draws; the other columns are not set."""
    words = np.empty((len(draws), n), dtype=np.int64)
    c1 = draws[:, 0] + 1
    c2 = draws[:, 1] + 1
    c2 += c2 >= c1
    words[:, 0], words[:, 1], words[:, 2] = c1, c2, _allowed_color(c1, c2, draws[:, 2])
    return words


def _insert_columns(words: np.ndarray, m: int, p: np.ndarray, ci: np.ndarray) -> None:
    """``_insert`` on every row at once: each row's cyclic list is its first
    m columns, and gets ``allowed_colors(q, left, right)[ci]`` of the
    neighbours of column p (in [0, m]) inserted just before that column."""
    rows = np.arange(len(words))
    left, right = words[rows[:, None], (p[:, None] + _NEIGHBOURS) % m].T
    # copyto copies through a buffer when, as here, source and target overlap
    np.copyto(words[:, 1:m + 1], words[:, :m], where=np.arange(1, m + 1) > p[:, None])
    words[rows, p] = _allowed_color(left, right, ci)


def _rotated(words: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Each row rotated left by its shift in [0, n)."""
    n = words.shape[1]
    return np.take_along_axis(words, (shift[:, None] + np.arange(n)) % n, axis=1)


def _necklace_words(n: int, q: int, draws: np.ndarray) -> np.ndarray:
    """``_necklace_word`` of each row of ``draws``, an int64 array of rows
    of draws for ``_necklace_bounds(n, q)``, as an (R, n) array of colors."""
    if n > _VECTOR_MAX_N:
        return _word_rows(_necklace_word, n, q, draws)
    words = _first_columns(n, draws)
    # As in _necklace_word, a row's word is its columns rotated left by off.
    off = np.zeros(len(draws), dtype=np.int64)
    for m in range(3, n):
        i0, ci, r = draws[:, 3 * m - 6], draws[:, 3 * m - 5], draws[:, 3 * m - 4]
        p = (off + i0) % m
        _insert_columns(words, m, p, ci)
        off += p < off
        off += r
        off %= m + 1
    return _rotated(words, off)


def _eden_words(n: int, q: int, draws: np.ndarray) -> np.ndarray:
    """``_eden_word`` of each row of ``draws``, an int64 array of rows of
    draws for ``_eden_bounds(n, q)``, as an (R, n) array of colors."""
    if n > _VECTOR_MAX_N:
        return _word_rows(_eden_word, n, q, draws)
    words = _first_columns(n, draws)
    for m in range(3, n):
        _insert_columns(words, m, draws[:, 2 * m - 3] + 1, draws[:, 2 * m - 2])
    return _rotated(words, draws[:, -1])


# States per block of ``_necklace_blocks``: a bound on the arrays of both
# halves of ``verify coupling``, flat in the number of states.
_BLOCK_STATES = 256


def _necklace_codes(states: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, code) of every necklace insertion from the rows of ``states``,
    before rotation: each color in [1, q] differing from both neighbours of
    gap i, inserted just before ``states[:, i]``. With c the code of a row,
    color z at gap i gives (c div q^(n-i)) q^(n+1-i) + (z-1) q^(n-i) +
    c mod q^(n-i)."""
    n = states.shape[1]
    tail = q ** np.arange(n, 0, -1)[:, None]  # q^(n-i), shape (n, 1)
    z = np.arange(1, q + 1)
    c = encode_digits(states - 1, q)[:, None, None]
    inserted = c // tail * (tail * q) + (z - 1) * tail + c % tail  # [row, i, z]
    allowed = (states[:, :, None] != z) & (np.roll(states, 1, axis=1)[:, :, None] != z)
    return np.nonzero(allowed)[0], inserted[allowed]


def _block_keys(rows: np.ndarray, codes: np.ndarray, m: int, q: int) -> np.ndarray:
    """The sorted keys row * q^m + rotl(word, r) of the length-m words with
    codes ``codes``, for every r in [0, m). Rotations are arithmetic on the
    codes, rotl_r(c) = (c mod q^(m-r)) q^r + c div q^(m-r); the arrays are
    updated in place, which keeps a block's peak memory down."""
    high, keys = np.divmod(codes[:, None], q ** np.arange(m, 0, -1))
    keys *= q ** np.arange(m)
    keys += high
    keys += rows[:, None] * q**m
    keys = keys.reshape(-1)
    keys.sort()
    return keys


def _necklace_blocks(n: int, q: int) -> tuple[int, Iterator[tuple[np.ndarray, ...]]]:
    """(z, blocks): the total count z of level n's states (``_law_cells``,
    lexicographic order) and, lazily, per run of ``_BLOCK_STATES`` of them,
    their 1-based colors, counts and the sorted ``_block_keys`` of their
    necklace insertions. ``OverflowError`` first if a key could leave int64."""
    m = n + 1
    if _BLOCK_STATES * q**m > _INT64_MAX:
        raise OverflowError(f"{_BLOCK_STATES} states times {q}**{m} codes do not fit int64")
    rows, counts, z = _law_cells(n, q, DEFAULT_BUDGET, cyclic=True)
    states = rows + 1
    blocks = (slice(lo, lo + _BLOCK_STATES) for lo in range(0, len(states), _BLOCK_STATES))
    return z, ((states[b], counts[b], _block_keys(*_necklace_codes(states[b], q), m, q))
               for b in blocks)


def _eden_agrees(states: np.ndarray, keys: np.ndarray, n: int, q: int) -> bool:
    """One block of ``_necklace_blocks``: each state stepped at every
    (gap+1, color index) by ``_insert_columns`` and read from every start
    (``_block_keys``) gives the block's sorted necklace ``keys``."""
    per = n * (q - 2)
    stepped = np.pad(states.repeat(per, axis=0), ((0, 0), (0, 1)))
    gap, color = np.divmod(np.arange(len(stepped)) % per, q - 2)
    _insert_columns(stepped, n, gap + 1, color)
    eden = _block_keys(np.arange(len(states)).repeat(per),
                       encode_digits(stepped - 1, q), n + 1, q)
    return np.array_equal(eden, keys)


def eden_vs_necklace_kernel_check(n: int, q: int) -> bool:
    """Exact equality of the Eden step-and-read law with the insertion step:
    ``_eden_agrees`` on every block of ``_necklace_blocks`` (every state
    with a positive insertion count). Per state there are n (q-2) (n+1)
    outcomes of weight 1 on each side, so equal keys are equal laws. No
    state is canonicalized. ``OverflowError`` if a key could leave int64.
    """
    return all(_eden_agrees(states, keys, n, q) for states, _, keys in _necklace_blocks(n, q)[1])
