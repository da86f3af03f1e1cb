"""Indistinguishability graphs and minimum-partition solvers.

The smallest partition whose blocks pairwise clear the fidelity threshold
is a minimum clique cover of the indistinguishability graph, equivalently
a minimum coloring of its complement.  Indistinguishability is reflexive
and symmetric but not transitive, so this is a genuine covering problem
rather than a union-find pass.
"""
from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channels import ROW_TILE, Alphabet, ClassicalChannel, _pair_fidelities, _snap_cut
from .errors import ExactSolverCapError, ReportMismatchError, ValidationError, integer, unit_interval

DEFAULT_EXACT_CAP = 20
EXACT_CAP_ENV = "REVCOMP_EXACT_CAP"


def default_exact_cap() -> int:
    """Vertex cap for the exact solver, overridable via REVCOMP_EXACT_CAP."""
    raw = os.environ.get(EXACT_CAP_ENV)
    if raw is None:
        return DEFAULT_EXACT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"{EXACT_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValidationError(f"{EXACT_CAP_ENV} must be >= 1, got {cap}")
    return cap


def _bits(adj: np.ndarray) -> list[int]:
    """Boolean rows as bitmasks: bit ``j`` of mask ``i`` is ``adj[i, j]``."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return list(map(int.from_bytes, packed, itertools.repeat("little")))


@dataclass(frozen=True)
class IndistinguishabilityGraph:
    """Undirected reflexive graph on input indices.

    An edge between two inputs means their output distributions are within
    the fidelity threshold ``1 - epsilon`` of each other.  This validated
    type is the public entry for a caller's own graph; inside the library
    every graph is such an adjacency as bitmasks from :func:`_bits`.
    """

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency)
        if adj.dtype != bool:
            binary = (adj == 0) | (adj == 1)
            if not np.all(binary):
                raise ValidationError(
                    f"adjacency entries must be 0 or 1, got {adj[~binary][:1].tolist()[0]!r}")
            adj = adj.astype(bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValidationError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] == 0:
            raise ValidationError("graph must have at least one vertex")
        if not np.array_equal(adj, adj.T):
            raise ValidationError("adjacency must be symmetric")
        if not np.all(np.diag(adj)):
            raise ValidationError("adjacency must be reflexive (unit diagonal)")
        adj = adj.copy()
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]

    def are_adjacent(self, i: int, j: int) -> bool:
        for v in (i, j):
            if not 0 <= integer(v, "vertex") < self.size:
                raise ValidationError(f"vertex {v} not in [0, {self.size})")
        return bool(self.adjacency[i, j])


def graph_from_fidelity_matrix(fidelities: np.ndarray, epsilon: float) -> IndistinguishabilityGraph:
    """Threshold a pairwise fidelity matrix at ``1 - epsilon``.

    The comparison is ``>=`` on the raw float values; no rounding is
    applied before thresholding.
    """
    unit_interval(epsilon, "epsilon")
    fid = np.asarray(fidelities, dtype=float)
    return IndistinguishabilityGraph(fid >= 1.0 - epsilon)


@dataclass(frozen=True)
class Partition:
    """Partition of ``range(n)`` into disjoint nonempty blocks.

    Stored canonically: members ascending within each block, blocks ordered
    by their smallest member.  A float or bool member is refused, not truncated.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = self.blocks
        if not set(map(type, itertools.chain.from_iterable(blocks))) <= {int}:
            blocks = [[integer(x, f"partition block {b} member") for x in block]
                      for b, block in enumerate(blocks)]
        canon = [tuple(sorted(block)) for block in blocks]
        flat = list(itertools.chain.from_iterable(canon))
        if not (all(canon) and min(flat, default=0) >= 0 and len(set(flat)) == len(flat)):
            # Name the first block, in the given order, that breaks a rule.
            seen: set[int] = set()
            for members in canon:
                if len(members) == 0:
                    raise ValidationError("partition blocks must be nonempty")
                if members[0] < 0:
                    raise ValidationError(f"partition members must be >= 0, got {members[0]}")
                overlap = seen.intersection(members)
                if overlap:
                    raise ValidationError(f"partition blocks overlap on element {min(overlap)}")
                before = len(seen)
                seen.update(members)
                if len(seen) - before < len(members):
                    repeat = next(a for a, b in zip(members, members[1:]) if a == b)
                    raise ValidationError(f"partition block repeats element {repeat}")
        canon.sort(key=operator.itemgetter(0))
        object.__setattr__(self, "blocks", tuple(canon))

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        return cls((tuple(range(integer(n, "n", 1))),))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.blocks)

    def covers(self, n: int) -> bool:
        """True when the blocks tile ``range(n)`` exactly."""
        return self.cover_defect(n) is None

    def cover_defect(self, n: int) -> str | None:
        """Why the blocks do not tile ``range(n)``, or None when they do.

        Names the first member, in block order, outside ``range(n)``, or
        else the smallest element of ``range(n)`` that no block holds.  The
        members are distinct and non-negative, so once none is outside, the
        blocks tile ``range(n)`` exactly when they hold ``n`` members.
        """
        n = integer(n, "n")
        outside = next((x for b in self.blocks for x in b if x >= n), None)
        if outside is not None:
            return f"member {outside} is outside range({n})"
        if self.size < n:
            missing = min(set(range(n)).difference(*self.blocks))
            return f"element {missing} of range({n}) is in no block"
        return None

    def representatives(self) -> tuple[int, ...]:
        """Smallest member of each block, in block order."""
        return tuple(b[0] for b in self.blocks)

    def block_index(self) -> dict[int, int]:
        return {i: b for b, members in enumerate(self.blocks) for i in members}


def partition_is_clique_cover(partition: Partition, graph: IndistinguishabilityGraph) -> bool:
    """Independent validity check: exact cover and all in-block pairs adjacent.

    Reads the adjacency directly rather than trusting solver bookkeeping.
    """
    adj = graph.adjacency
    return partition.covers(graph.size) and all(
        adj[np.ix_(b, b)].all() for b in partition.blocks)


def _max_clique_size(masks: list[int], n: int) -> int:
    """Exact maximum clique via bitmask branch and bound (Tomita's MCQ).

    ``masks`` are adjacency bitmasks without self-loops.  At each node the
    candidate set is colored greedily into independent sets in label
    order, and the vertices are visited from the last color class to the
    first.  A vertex of color ``c`` leaves only vertices of colors up to
    ``c`` as candidates, so no clique through it beats ``count + c``: the
    branch is pruned once ``count + c <= best``.  The bound only prunes,
    so the returned size is the exact maximum.
    """
    best = 0

    def expand(count: int, cand: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, count)
            return
        visit = []  # (vertex, color), color classes in order
        color, rest = 0, cand
        while rest:
            color += 1
            free = rest
            while free:
                v = (free & -free).bit_length() - 1
                visit.append((v, color))
                rest ^= 1 << v
                free &= ~masks[v] & (free - 1)
        for v, c in reversed(visit):
            if count + c <= best:
                return
            expand(count + 1, cand & masks[v])
            cand ^= 1 << v

    expand(0, (1 << n) - 1)
    return best


def _first_fit(masks: list[int]) -> Iterator[int]:
    """First-fit clique cover in label order, built one block at a time.

    ``masks`` are adjacency bitmasks, with or without self bits: each step
    takes the lowest candidate out of ``cand`` before meeting its mask.  A
    block starts at the lowest uncovered vertex and takes, in label order,
    every uncovered vertex adjacent to all members so far: ``cand`` holds
    exactly those vertices.  This is the partition of the vertex-major first
    fit (each vertex joins the first block it is adjacent to in full), by
    induction over the blocks: a vertex joins block ``c`` iff it misses
    blocks ``0..c-1`` and is adjacent to every earlier member of ``c``.  It
    costs O(n + blocks) big-integer steps instead of O(n * blocks).  Yields
    each block as a bitmask of its members, blocks in order of their first
    member, so a caller that needs only the count builds no member lists.
    """
    remaining = (1 << len(masks)) - 1
    while remaining:
        before = cand = remaining
        while cand:
            low = cand & -cand
            remaining ^= low
            cand = (cand ^ low) & masks[low.bit_length() - 1]
        yield before ^ remaining


def _members(mask: int) -> tuple[int, ...]:
    """Set bits of ``mask``, ascending."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def _complement(masks: list[int]) -> list[int]:
    """Complement adjacency as bitmasks: bit ``j`` of mask ``i`` is set when
    ``i != j`` are not adjacent, so a color class of the complement is a
    clique of the graph."""
    full = (1 << len(masks)) - 1
    return [full & ~(mask | (1 << v)) for v, mask in enumerate(masks)]


def _partition_of(blocks: list[int]) -> Partition:
    """Partition with one block per bitmask of :func:`_cover`."""
    return Partition(tuple(map(_members, blocks)))


def _exact_coloring(masks: list[int]) -> list[int]:
    """Minimum coloring of the complement of the graph with adjacency
    bitmasks ``masks`` (self bits are ignored, see :func:`_complement`), as
    one bitmask per color class, so each class is a clique of the graph.

    DSATUR branch and bound (Brelaz 1979): the next vertex is the uncolored
    one whose complement neighbors already use the most colors, ties to the
    higher complement degree, then to the lower index.  It tries each color
    it may take in increasing order, and a new color only while the count
    stays below the best coloring found so far.  The first dive is the
    DSATUR coloring, and the search stops once a coloring meets the exact
    max-clique lower bound.  Deterministic.  The worst case is exponential
    and no size is checked here: :func:`_cover` refuses a graph above the
    exact cap before it calls this.
    """
    n = len(masks)
    comp_masks = _complement(masks)
    order = sorted(range(n), key=lambda v: (-comp_masks[v].bit_count(), v))
    lower = _max_clique_size(comp_masks, n)
    assign = [-1] * n
    # Colors used by each uncolored vertex's colored complement neighbors.
    seen = [0] * n
    best_count, best_assign = n + 1, assign  # the first dive always completes

    def bnb(free: int, used: int) -> None:
        nonlocal best_count, best_assign
        if not free:
            best_count, best_assign = used, assign.copy()
            return
        v, sat = -1, -1
        for u in order:
            if free >> u & 1:
                s = seen[u].bit_count()
                if s > sat:
                    v, sat = u, s
                    if sat == used:
                        break
        free ^= 1 << v
        colors = ~seen[v] & ((2 << used) - 1)  # the colors 0..used v may take
        while colors:
            bit = colors & -colors
            colors ^= bit
            c = bit.bit_length() - 1
            count = used + (c == used)
            if best_count <= lower or count >= best_count:
                break
            undo = []
            nbrs = comp_masks[v] & free
            while nbrs:
                u = (nbrs & -nbrs).bit_length() - 1
                nbrs &= nbrs - 1
                if not seen[u] & bit:
                    seen[u] |= bit
                    undo.append(u)
            assign[v] = c
            bnb(free, count)
            for u in undo:
                seen[u] ^= bit

    bnb((1 << n) - 1, 0)
    classes = [0] * best_count
    for v, c in enumerate(best_assign):
        classes[c] |= 1 << v
    return classes


def solve_exact(graph: IndistinguishabilityGraph) -> Partition:
    """Minimum clique cover, the ``"exact"`` cover of :func:`_cover`: exact
    coloring of the complement up to :func:`default_exact_cap` vertices.
    Deterministic: identical graphs yield the identical partition.
    """
    return _partition_of(_cover(_bits(graph.adjacency), "exact")[0])


def solve_greedy(graph: IndistinguishabilityGraph) -> Partition:
    """First-fit clique cover: linear-time upper bound, not optimal.

    Vertices are scanned in label order; each joins the first block it is
    adjacent to in full, otherwise it opens a new block.  The blocks are
    built one at a time by :func:`_first_fit` (through :func:`_cover`).
    """
    return _partition_of(_cover(_bits(graph.adjacency), "greedy")[0])


def _cover(masks: list[int], solver: str) -> tuple[list[int], bool]:
    """Clique cover by ``solver`` (``"exact"``, ``"greedy"`` or ``"auto"``)
    of the graph with reflexive adjacency bitmasks ``masks`` (:func:`_bits`),
    as one bitmask per block, and whether it is proved minimum.  Every
    solver reaches :func:`_exact_coloring` and :func:`_first_fit` here.

    ``"auto"`` solves exactly up to :func:`default_exact_cap` vertices and by
    first fit above; ``"exact"`` above the cap raises
    :class:`ExactSolverCapError` before any search starts.
    """
    cap = default_exact_cap()
    if solver != "greedy" and len(masks) <= cap:
        return _exact_coloring(masks), True
    if solver == "exact":
        raise ExactSolverCapError(
            f"exact solver got {len(masks)} vertices, above the cap {cap}; "
            f"use the greedy solver or raise {EXACT_CAP_ENV}")
    return list(_first_fit(masks)), False


def compressibility(num_inputs: int, num_blocks: int) -> float:
    """Fraction of removable inputs, ``(n - blocks) / (n - 1)``.

    0 means no two inputs merged, 1 means everything merged.  A one-symbol
    alphabet compresses trivially, so it is defined as 1.
    """
    num_inputs = integer(num_inputs, "num_inputs", 1)
    if not 1 <= integer(num_blocks, "num_blocks") <= num_inputs:
        raise ValidationError(f"block count {num_blocks} not in [1, {num_inputs}]")
    if num_inputs == 1:
        return 1.0
    return (num_inputs - num_blocks) / (num_inputs - 1)


@dataclass(frozen=True)
class CompressionReport:
    """Result of a single-shot compression.

    ``certificates`` holds, per block, the minimum pairwise reverse
    fidelity inside that block (1.0 for singletons); each entry is a proof
    that the block clears the threshold.  ``optimal`` records whether the
    exact solver produced the partition.
    """

    epsilon: float
    solver: str
    optimal: bool
    partition: Partition
    representatives: tuple[int, ...]
    compressibility: float
    certificates: tuple[float, ...]
    labels: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "solver": self.solver,
            "optimal": self.optimal,
            "blocks": [[self.labels[i] for i in block] for block in self.partition.blocks],
            "representatives": [self.labels[i] for i in self.representatives],
            "compressibility": self.compressibility,
            "certificates": list(self.certificates),
        }


def _block_certificates(partition: Partition, rows: np.ndarray) -> tuple[float, ...]:
    """Minimum in-block fidelity of each block, 1.0 for a singleton.

    The fidelities are the kernel's (:func:`channels._pair_fidelities`) on
    the output distributions ``rows``.  Each in-block pair is led by its
    earlier member in block order: the member at position ``p`` of a block
    of ``k`` leads the pairs with the ``k - 1 - p`` members after it.  The
    members are taken in runs that lead about ``ROW_TILE * n`` pairs, the
    size of one fidelity-kernel tile, so a partition with few merges is one
    run and a single huge block needs no n-by-n array.  Each run's pairs
    are evaluated in one call and ``np.minimum.reduceat`` takes the minimum
    per leading member, then per block.
    """
    blocks = partition.blocks
    sizes = np.fromiter(map(len, blocks), np.intp, len(blocks))
    members = np.fromiter(itertools.chain.from_iterable(blocks), np.intp)
    n = members.size
    later = np.repeat(sizes.cumsum(), sizes) - np.arange(1, n + 1)
    begin = later.cumsum() - later  # index of each member's first led pair
    lead = np.ones(n)
    s = 0
    while s < n:
        e = int(begin.searchsorted(begin[s] + ROW_TILE * n))
        count = later[s:e]
        first = np.repeat(np.arange(s, e), count)
        if first.size:
            offset = begin[s:e] - begin[s]
            second = first + np.arange(1, first.size + 1) - np.repeat(offset, count)
            leads = count > 0
            lead[s:e][leads] = np.minimum.reduceat(
                _pair_fidelities(rows, members[first], members[second]), offset[leads])
        s = e
    return tuple(np.minimum.reduceat(lead, sizes.cumsum() - sizes).tolist())


# Unit roundoff of float64.
_UNIT = 2.0 ** -53


def _gram_error(m: int) -> float:
    """Bound on ``|G - s|`` for two rows of ``m`` outputs, where ``G`` is
    their BLAS dot product ``sqrt(p) @ sqrt(q)`` and ``s`` the overlap the
    fidelity kernel sums (``sqrt(p * q)`` left to right).

    Both differ from the exact ``S = sum(sqrt(p * q))`` by a relative error
    in each term plus the summation error, with ``u = 2**-53``.  A kernel
    term is within 1.5 u of its exact value (the product, then the root); a
    Gram term within 3 u (two roots and a product, less with a fused
    multiply-add).  A sum of ``m`` nonnegative terms is within
    ``gamma_m = m u / (1 - m u)`` of exact, relative to the sum, in any
    order of evaluation, FMA included (Higham 2002, section 3.1).  The rows
    are renormalized, so ``S <= 1 + (m + 1) u`` by Cauchy-Schwarz, and
    ``|G - s| <= (2 gamma_m + 4.5 u) (1 + (m + 5) u)``, which ``4 (m + 2) u``
    exceeds for every ``m`` below 1e13.  A product ``p * q`` that underflows
    moves its root by under ``2**-537``, and a Gram product that underflows
    by under ``2**-1074``: 1e-161 per term covers both.
    """
    return 4.0 * (m + 2) * _UNIT + m * 1e-161


def _screened_masks(rows: np.ndarray, epsilon: float) -> list[int]:
    """Reflexive adjacency bitmasks (:func:`_bits`) of the graph
    :func:`graph_from_fidelity_matrix` builds from the kernel's fidelities
    of ``rows`` at ``epsilon``, without the fidelity matrix.

    The rows' square roots are taken once, and each ``ROW_TILE`` of rows
    forms the Gram product ``G`` against all ``n`` rows with BLAS.  With
    ``t = 1 - epsilon``, ``r = sqrt(t)`` rounded, the snap cut ``c`` and
    ``d = `` :func:`_gram_error` plus ``8 u`` for the rounding of ``r``, of
    the squaring and of the bounds themselves:

    - ``G >= r + d`` proves ``s >= sqrt(t)``, so the fidelity, ``s**2``
      rounded or a snapped 1.0, reaches ``t``: adjacent;
    - ``G < min(r - 8 u, c) - d`` proves ``s < c`` (the pair cannot snap)
      and ``s**2`` below the float before ``t``: not adjacent;
    - every pair in between (the band) gets its exact fidelity from
      :func:`channels._pair_fidelities` and is thresholded with ``>=``.

    Both bounds are proofs about the overlap ``s``, which is symmetric in
    the two rows, so the tile is thresholded straight into its full-width
    rows of one boolean adjacency and both triangles get the same bits
    without a mirror copy.  A band pair ``(i, j)`` with ``j > i`` gets its
    exact fidelity once; one with ``j < i`` copies ``adj[j, i]``, which the
    tile of row ``j`` or this tile's upper pairs have already decided.  So
    the masks are bit for bit the thresholded fidelity matrix's; the
    diagonal, left undecided for a band pair ``(i, i)``, is set at the end.
    No n-by-n float array is held, and no graph object is built.
    """
    n, m = rows.shape
    threshold = 1.0 - epsilon
    root = math.sqrt(threshold)
    slack = _gram_error(m) + 8 * _UNIT
    # Every fidelity is at least 0, so at t = 0 every pair is adjacent.
    hi = root + slack if threshold > 0.0 else 0.0
    lo = min(root - 8 * _UNIT, _snap_cut(m)) - slack
    roots = np.sqrt(rows)
    adj = np.empty((n, n), dtype=bool)
    for s in range(0, n, ROW_TILE):
        gram = roots[s:s + ROW_TILE] @ roots.T
        block = np.greater_equal(gram, hi, out=adj[s:s + ROW_TILE])
        band = np.greater_equal(gram, lo) > block
        if not band.any():
            continue
        i, j = np.nonzero(band)
        i += s
        upper = j > i
        first, second = i[upper], j[upper]
        if first.size:
            adj[first, second] = _pair_fidelities(rows, first, second) >= threshold
        lower = j < i
        adj[i[lower], j[lower]] = adj[j[lower], i[lower]]
    np.fill_diagonal(adj, True)
    return _bits(adj)


def compress(channel: ClassicalChannel, epsilon: float, solver: str = "auto") -> CompressionReport:
    """Smallest (or greedy) indistinguishability partition of a channel.

    ``solver`` is one of ``"exact"``, ``"greedy"``, ``"auto"``; auto uses
    the exact solver up to the cap and falls back to greedy above it.
    The graph is :func:`_screened_masks`, bit for bit the thresholded
    :func:`reverse_fidelity_matrix`, and the certificates are the exact
    fidelities of the in-block pairs, so no fidelity matrix is built.
    Deterministic: identical inputs give byte-identical reports.
    """
    if solver not in ("exact", "greedy", "auto"):
        raise ValidationError(f"unknown solver {solver!r}, expected exact, greedy or auto")
    unit_interval(epsilon, "epsilon")
    rows = channel.matrix
    masks = _screened_masks(rows, epsilon)
    blocks, optimal = _cover(masks, solver)
    partition = _partition_of(blocks)
    return CompressionReport(
        epsilon=float(epsilon),
        solver="exact" if optimal else "greedy",
        optimal=optimal,
        partition=partition,
        representatives=partition.representatives(),
        compressibility=compressibility(len(masks), partition.num_blocks),
        certificates=_block_certificates(partition, rows),
        labels=channel.input.labels,
    )


def decompression_channel(report: CompressionReport, channel: ClassicalChannel) -> ClassicalChannel:
    """Deterministic map sending each block label back to its representative.

    Composing the result with ``channel`` gives the effective channel seen
    when transmitting compressed symbols.
    """
    if report.labels != channel.input.labels:
        raise ReportMismatchError(
            "report input labels do not match the channel's input alphabet"
        )
    defect = report.partition.cover_defect(channel.num_inputs)
    if defect:
        raise ReportMismatchError(f"report partition {defect}")
    if report.representatives != report.partition.representatives():
        raise ReportMismatchError("report representatives do not match its partition")
    m = report.partition.num_blocks
    matrix = np.zeros((m, channel.num_inputs))
    for z, rep in enumerate(report.representatives):
        matrix[z, rep] = 1.0
    z_labels = Alphabet(tuple(f"z{b + 1}" for b in range(m)))
    return ClassicalChannel(z_labels, channel.input, matrix)
