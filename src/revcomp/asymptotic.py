"""Multi-use compressibility: product graphs, structured partitions, bounds.

Everything here reports finite-k evidence.  The infinite-use limit is
never extrapolated; beyond exact feasibility the functions return valid
partitions whose compressibility is a lower bound on the true value, and
they say so in their method tags.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .channels import ClassicalChannel
from .errors import ExactSolverCapError, ValidationError
from .partition import (
    IndistinguishabilityGraph,
    Partition,
    _block_certificates,
    _cover,
    _cover_count,
    compressibility,
    default_exact_cap,
    solve_exact,
)

# Above this many sequences the pairwise product-fidelity matrix is not built,
# whichever solver asks for it.
DEFAULT_GRAPH_CAP = 2048


# Boolean entries per row tile of a materialized ``gamma_k`` graph (128 KiB).
# Graphs of up to 362 sequences are one tile.
PRODUCT_TILE_ENTRIES = 1 << 17


def _next_power(fid: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The product matrix one letter longer: ``fid[i', j'] * base[a, b]``
    at ``[i' * n + a, j' * n + b]`` for an ``(n, n)`` letter matrix ``base``.

    One Kronecker step into a fresh ``(r, n, m, n)`` buffer for an
    ``(r, m)`` ``fid``, with one scalar multiply per entry of the smaller
    operand.  With ``n`` of 2-4 this is several times faster than
    ``np.kron``'s broadcast, and a one-by-one ``fid`` against a large
    letter matrix is one multiply, not ``n**2``.  IEEE multiplication is
    commutative, so both loops and the broadcast give the same products.
    """
    r, m = fid.shape
    n = base.shape[0]
    out = np.empty((r, n, m, n))
    if fid.size < base.size:
        for (i, j), f in np.ndenumerate(fid):
            np.multiply(base, f, out=out[i, :, j, :])
    else:
        for a in range(n):
            for b in range(n):
                np.multiply(fid, base[a, b], out=out[:, a, :, b])
    return out.reshape(r * n, m * n)


def product_fidelity_matrix(channel: ClassicalChannel, k: int) -> np.ndarray:
    """Pairwise reverse fidelities of all length-``k`` input sequences.

    Multiplies in one per-letter factor at a time in letter order, so each
    entry matches the letterwise product computed sequence by sequence.
    Each step is one :func:`_next_power` with the letter matrix.  Above
    ``DEFAULT_GRAPH_CAP`` sequences it raises before allocating.
    :func:`gamma_k` builds its graphs without calling this at ``k``: it
    compares the ``(k - 1)``-fold matrix with per-letter-pair cutoffs
    (:func:`_row_masks`), which decide ``>= 1 - epsilon`` exactly as this
    matrix's last products would, without forming them.
    """
    if k < 1:
        raise ValidationError(f"sequence length must be >= 1, got {k}")
    total = channel.num_inputs ** k
    if total > DEFAULT_GRAPH_CAP:
        raise ValidationError(
            f"{total} sequences exceed the graph cap {DEFAULT_GRAPH_CAP} for k={k}"
        )
    base = channel.fidelity_matrix
    fid = np.ones((1, 1))
    for _ in range(k):
        fid = _next_power(fid, base)
    return fid


def _letter_matrix(channel: ClassicalChannel) -> np.ndarray:
    """The channel's letter fidelity matrix, checked exactly symmetric, with
    entries in [0, 1] and a diagonal of exactly 1.0.

    Every product matrix then has entries in [0, 1], and this one check
    proves every product graph symmetric and reflexive (see
    :func:`_row_masks`).  ``channels._fidelity_kernel`` guarantees all
    three properties.
    """
    base = channel.fidelity_matrix
    if not np.array_equal(base, base.T):
        raise ValidationError("letter fidelity matrix must be exactly symmetric")
    if not np.all((base >= 0.0) & (base <= 1.0)):
        raise ValidationError("letter fidelity matrix entries must lie in the range [0, 1]")
    if not np.all(np.diag(base) == 1.0):
        raise ValidationError("letter fidelity matrix must have a diagonal of exactly 1.0")
    return base


def _cutoff(v: float, t: float) -> float:
    """The smallest float ``x >= 0`` with ``x * v >= t`` in float arithmetic,
    for a letter fidelity ``v`` in [0, 1] and a threshold ``t <= 1``.

    It is 0.0 when ``t <= 0``, since every ``x`` qualifies, and ``inf``
    when ``v < t``: no ``x <= 1`` qualifies, because ``x * v <= v``.
    Otherwise ``t >= 2**-53`` (it is ``1 - epsilon`` for an epsilon in
    [0, 1]), so ``v`` is normal and ``t / v`` lies within a few ulps of the
    answer; it is stepped with ``math.nextafter`` until ``x * v`` reaches
    ``t`` and its predecessor's product does not.
    """
    if t <= 0.0:
        return 0.0
    if v < t:
        return math.inf
    x = t / v
    while x * v < t:
        x = math.nextafter(x, math.inf)
    while math.nextafter(x, 0.0) * v >= t:
        x = math.nextafter(x, 0.0)
    return x


def _row_masks(prev: np.ndarray, base: np.ndarray, epsilon: float) -> list[int]:
    """Adjacency bitmasks of the sequence graph one letter longer than ``prev``.

    ``prev`` is the ``(k - 1)``-fold product matrix and ``base`` the letter
    matrix, so sequences ``i' * n + a`` and ``j' * n + b`` are adjacent
    when ``prev[i', j'] * base[a, b] >= 1 - epsilon``, as
    :func:`graph_from_fidelity_matrix` thresholds the ``k``-fold matrix.
    For ``v >= 0`` float multiplication ``x -> x * v`` is monotone, so that
    holds exactly when ``prev[i', j'] >= _cutoff(base[a, b], 1 - epsilon)``
    (:func:`_cutoff`; ``inf`` when ``v < 1 - epsilon``, ``0`` when
    ``epsilon == 1``).  No product is formed: each row tile of ``prev``,
    about ``PRODUCT_TILE_ENTRIES`` graph entries, is compared once with
    each distinct cutoff (at most ``1 + n * (n - 1) / 2`` of them), the
    comparison is copied into the ``[:, a, :, b]`` slots of one reused
    boolean tile, its self-loop bits are cleared, and it is packed straight
    into the masks: bit ``j`` of mask ``i`` is set when ``i != j`` are
    adjacent.  The masks match the thresholded ``k``-fold matrix bit for
    bit, and no ``n**k``-square array of any type is held.  The graph is
    symmetric: ``prev`` and ``base`` are (:func:`_letter_matrix`), so
    ``_cutoff(base[a, b]) == _cutoff(base[b, a])``.  It is reflexive:
    ``prev`` has a unit diagonal and ``_cutoff(1.0, t) == t <= 1``.
    """
    n = base.shape[0]
    m = prev.shape[0]
    total = m * n
    threshold = 1.0 - epsilon
    slots: dict[float, list[tuple[int, int]]] = {}
    for (a, b), v in np.ndenumerate(base):
        slots.setdefault(_cutoff(float(v), threshold), []).append((a, b))
    rows = max(1, PRODUCT_TILE_ENTRIES // (n * total))
    adj = np.empty((min(rows, m), n, m, n), dtype=bool)
    hit = np.empty((min(rows, m), m), dtype=bool)
    diag = np.arange(min(rows, m) * n)
    masks: list[int] = []
    for r in range(0, m, rows):
        h = min(rows, m - r)
        for cut, pairs in slots.items():
            np.greater_equal(prev[r:r + h], cut, out=hit[:h])
            for a, b in pairs:
                adj[:h, a, :, b] = hit[:h]
        flat = adj[:h].reshape(h * n, total)
        flat[diag[:h * n], r * n + diag[:h * n]] = False
        packed = np.packbits(flat, axis=1, bitorder="little")
        masks.extend(map(int.from_bytes, packed, itertools.repeat("little")))
    return masks


@dataclass(frozen=True)
class GammaKResult:
    """Compressibility of ``k`` channel uses plus how it was obtained.

    ``method`` is ``"exact"`` for solved instances, ``"greedy_lower_bound"``
    for a first-fit cover of the materialized sequence graph, and
    ``"closed_form"`` for the per-letter-threshold product construction.
    Non-exact values are lower bounds on the true compressibility.
    """

    k: int
    block_count: int
    gamma: float
    method: str

    def to_json_dict(self) -> dict:
        return {"k": self.k, "gamma": self.gamma, "method": self.method,
                "blocks": self.block_count}


def closed_form_letter_partition(channel: ClassicalChannel, epsilon: float, k: int) -> Partition:
    """Single-letter partition whose ``k``-fold product covers length-``k`` sequences.

    Per the factorization, letters merged at per-letter fidelity
    ``>= (1 - eps)^(1/k)`` keep length-``k`` sequences within ``1 - eps``.
    That threshold is rounded, so the partition is certified in the
    library's own arithmetic: its worst in-block fidelity ``c``, multiplied
    ``k`` times left to right as :func:`product_fidelity_matrix` does, must
    reach ``1 - epsilon``.  Float multiplication is monotone, so this one
    product bounds every in-block sequence pair.  When it falls short, the
    threshold steps just past ``c`` with ``np.nextafter`` and the letters
    are partitioned again.
    """
    # One minus the tightened epsilon, rounded as graph_from_fidelity_matrix
    # rounds ``1 - epsilon``.
    threshold = 1.0 - (1.0 - (1.0 - epsilon) ** (1.0 / k))
    fid = channel.fidelity_matrix
    while True:
        single, _ = _cover(IndistinguishabilityGraph(fid >= threshold), "auto")
        worst = min(_block_certificates(single, lambda i, j: fid[i, j]))
        # Left to right from 1, as product_fidelity_matrix multiplies.
        if math.prod([worst] * k) >= 1.0 - epsilon:
            return single
        threshold = float(np.nextafter(worst, 2.0))


def _closed_form_result(channel: ClassicalChannel, epsilon: float, k: int) -> GammaKResult:
    single = closed_form_letter_partition(channel, epsilon, k)
    blocks = single.num_blocks ** k
    total = channel.num_inputs ** k
    gamma = 1.0 if total == 1 else float(Fraction(total - blocks, total - 1))
    return GammaKResult(k=k, block_count=blocks, gamma=gamma, method="closed_form")


def _closed_form_route(channel: ClassicalChannel, epsilon: float, k: int, solver: str) -> bool:
    """Check one :func:`gamma_k` row's arguments and caps; True for the closed form."""
    cap = default_exact_cap()
    if solver not in ("auto", "exact", "greedy", "closed_form"):
        raise ValidationError(f"unknown solver {solver!r}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    total = channel.num_inputs ** k
    if solver == "closed_form" or (solver == "auto" and total > DEFAULT_GRAPH_CAP):
        return True
    if solver == "exact" and total > cap:
        raise ExactSolverCapError(f"{total} sequences exceed the exact cap {cap} for k={k}")
    if total > DEFAULT_GRAPH_CAP:
        raise ValidationError(
            f"{total} sequences exceed the graph cap {DEFAULT_GRAPH_CAP} for k={k}"
        )
    return False


def _materialized_row(prev: np.ndarray, base: np.ndarray, epsilon: float, k: int,
                      solver: str) -> GammaKResult:
    """One exact or first-fit row, counted on the masks of :func:`_row_masks`."""
    count, optimal = _cover_count(_row_masks(prev, base, epsilon), solver)
    return GammaKResult(k=k, block_count=count,
                        gamma=compressibility(base.shape[0] ** k, count),
                        method="exact" if optimal else "greedy_lower_bound")


def gamma_k(channel: ClassicalChannel, epsilon: float, k: int,
            solver: str = "auto") -> GammaKResult:
    """Compressibility of ``k`` independent uses of a channel.

    ``solver="auto"`` picks the exact solver while the sequence count fits
    the exact cap, first-fit on the materialized graph up to
    ``DEFAULT_GRAPH_CAP``, and the closed-form product construction beyond
    that.  Requesting ``"exact"`` above the exact cap raises
    :class:`ExactSolverCapError`; requesting ``"exact"`` or ``"greedy"``
    above the graph cap raises :class:`ValidationError`, whatever the
    exact cap.  The letter matrix is checked once (:func:`_letter_matrix`).
    A materialized row never forms the last products: float multiplication
    by ``v >= 0`` is monotone, so ``prev * v >= 1 - epsilon`` exactly when
    the ``(k - 1)``-fold entry ``prev`` reaches the cutoff of its letter
    pair, the smallest float whose product with ``v`` does (``inf`` when
    ``v < 1 - epsilon``, ``0`` when ``epsilon == 1``).  Those comparisons
    go straight into adjacency bitmasks (:func:`_row_masks`), which are
    symmetric because a symmetric letter matrix gives ``base[a, b]`` and
    ``base[b, a]`` one cutoff.  The row only counts the blocks of the
    cover, so it builds no ``k``-fold matrix, graph or partition.
    """
    closed_form = _closed_form_route(channel, epsilon, k, solver)
    base = _letter_matrix(channel)
    if closed_form:
        return _closed_form_result(channel, epsilon, k)
    prev = product_fidelity_matrix(channel, k - 1) if k > 1 else np.ones((1, 1))
    return _materialized_row(prev, base, epsilon, k, solver)


@dataclass(frozen=True)
class AsymptoticSweep:
    """Per-k compressibility values with method tags and an observed trend.

    ``trend`` describes the computed values only; exact entries and lower
    bounds are mixed, so it is evidence about the limit, not the limit.
    """

    epsilon: float
    results: tuple[GammaKResult, ...]
    trend: str

    def to_json_data(self) -> list[dict]:
        return [r.to_json_dict() for r in self.results]


def _observed_trend(gammas: Sequence[float]) -> str:
    if all(b == a for a, b in zip(gammas, gammas[1:])):
        return "constant"
    if all(b <= a for a, b in zip(gammas, gammas[1:])):
        return "nonincreasing"
    if all(b >= a for a, b in zip(gammas, gammas[1:])):
        return "nondecreasing"
    return "mixed"


def delta_estimate(channel: ClassicalChannel, epsilon: float, k_max: int,
                   solver: str = "auto") -> AsymptoticSweep:
    """Finite-k sweep of compressibility values for 1 <= k <= k_max.

    Evidence about the many-use limit; no extrapolation is performed.
    Every row is the :func:`gamma_k` row at its ``k``, and every row's caps
    are checked before any row runs.  The ``(k - 1)``-fold product matrix
    is carried from row to row and advanced by one :func:`_next_power` just
    before each materialized row, so no row rebuilds the chain.  Each row
    compares that matrix with per-letter-pair cutoffs instead of forming
    the ``k``-fold products (:func:`_row_masks`): ``x * v >= 1 - epsilon``
    is monotone in ``x`` for ``v >= 0``, so it holds exactly from the
    smallest such float ``x`` up, and no ``x <= 1`` qualifies (cutoff
    ``inf``) when ``v < 1 - epsilon``, every one (cutoff ``0``) when
    ``epsilon == 1``.  ``base[a, b]`` and ``base[b, a]`` are equal, so
    they share a cutoff and every row graph is symmetric.
    """
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    # Block counts are printed in decimal, which Python refuses past this many digits.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = 10 ** digits
    closed_form = []
    for k in range(1, k_max + 1):  # a capped sweep fails before any row runs
        closed_form.append(_closed_form_route(channel, epsilon, k, solver))
        if digits and channel.num_inputs ** k >= too_long:
            raise ValidationError(
                f"k={k}: the sequence count {channel.num_inputs}**{k} has more than "
                f"{digits} decimal digits, past Python's int-to-string limit"
            )
    base = _letter_matrix(channel)
    # The route depends on k only through n**k, which never falls, so the
    # materialized rows come first and the chain stays one letter behind.
    prev = np.ones((1, 1))
    results = []
    for k, closed in enumerate(closed_form, start=1):
        if closed:
            results.append(_closed_form_result(channel, epsilon, k))
            continue
        if k > 1:
            prev = _next_power(prev, base)
        results.append(_materialized_row(prev, base, epsilon, k, solver))
    return AsymptoticSweep(epsilon=float(epsilon), results=tuple(results),
                           trend=_observed_trend([r.gamma for r in results]))


# ---------------------------------------------------------------------------
# structured partitions of erasure-channel sequence spaces
# ---------------------------------------------------------------------------

def _check_s_bound_args(alphabet_size: int, k: int, s: int) -> None:
    if alphabet_size < 1:
        raise ValidationError(f"alphabet size must be >= 1, got {alphabet_size}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not 0 <= s <= k:
        raise ValidationError(f"s must lie in [0, {k}], got {s}")


def s_bound_partition(alphabet_size: int, k: int, s: int) -> Partition:
    """Group length-``k`` sequences by their first ``k - s`` letters.

    Yields ``alphabet_size ** (k - s)`` blocks whose members differ in at
    most ``s`` positions, so for an erasure channel every in-block pair has
    reverse fidelity at least ``eta ** (2 * s)``.
    """
    _check_s_bound_args(alphabet_size, k, s)
    block_size = alphabet_size ** s
    num_blocks = alphabet_size ** (k - s)
    return Partition(tuple(
        tuple(range(p * block_size, (p + 1) * block_size)) for p in range(num_blocks)
    ))


def min_s_bounded_partition_size(alphabet_size: int, k: int, s: int,
                                 max_sequences: int = 10) -> int:
    """Minimum block count over all partitions with Hamming diameter <= s.

    A minimum clique cover of the graph joining length-``k`` sequences at
    Hamming distance ``<= s``, solved by :func:`solve_exact`.  The cap is
    checked before anything of size ``alphabet_size ** k`` is built.
    """
    _check_s_bound_args(alphabet_size, k, s)
    total = alphabet_size ** k
    if total > max_sequences:
        raise ValidationError(
            f"{total} sequences exceed the exhaustive-search cap {max_sequences}"
        )
    seqs = np.array(list(itertools.product(range(alphabet_size), repeat=k))).reshape(total, k)
    dist = (seqs[:, None, :] != seqs[None, :, :]).sum(axis=2)
    return solve_exact(IndistinguishabilityGraph(dist <= s), cap=total).num_blocks


@dataclass(frozen=True)
class ConjectureRow:
    """One exhaustive check of minimum vs prefix-grouping block count."""

    s: int
    minimum: int
    bound: int

    @property
    def equal(self) -> bool:
        return self.minimum == self.bound

    def to_json_dict(self) -> dict:
        return {"s": self.s, "minimum": self.minimum, "bound": self.bound,
                "equal": self.equal}


def conjecture_report(alphabet_size: int, k: int, s_values: Sequence[int] | None = None,
                      max_sequences: int = 10) -> list[ConjectureRow]:
    """Compare exhaustive minima against ``alphabet_size ** (k - s)``.

    The equality is conjectured, not proven; a row with ``equal=False`` is a
    counterexample and is reported as data, never raised.  Equality fails at
    ``alphabet_size=2, k=5, s=2``, where the minimum is 7 rather than 8, and
    at ``k=6`` with ``s=2`` (12 rather than 16) and ``s=3`` (7 rather than 8).
    """
    if s_values is None:
        s_values = range(k + 1)
    return [
        ConjectureRow(
            s=s,
            minimum=min_s_bounded_partition_size(alphabet_size, k, s, max_sequences),
            bound=alphabet_size ** (k - s),
        )
        for s in s_values
    ]


# ---------------------------------------------------------------------------
# generalized-erasure closed form
# ---------------------------------------------------------------------------

def generalized_erasure_gamma_bound(block_sizes: Sequence[int], k: int) -> float:
    """Closed-form compressibility of the block-diagonal merge partition.

    Evaluates ``(sum(a_i**k) - d) / ((sum(a_i))**k - 1)`` in exact integer
    arithmetic before the final float conversion.  This is the value of
    one partition, the one built by
    :func:`generalized_erasure_bound_partition`, so it is a lower bound on
    the compressibility gamma wherever that partition is feasible, not
    gamma itself; see that function for when it is feasible.
    """
    sizes = [int(a) for a in block_sizes]
    if len(sizes) == 0 or any(a < 1 for a in sizes):
        raise ValidationError(f"block sizes must be positive integers, got {block_sizes!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    n = sum(sizes)
    if n == 1:
        return 1.0
    num = sum(a ** k for a in sizes) - len(sizes)
    den = n ** k - 1
    return float(Fraction(num, den))


def generalized_erasure_bound_partition(block_sizes: Sequence[int], k: int,
                                        max_sequences: int = 10 ** 5) -> Partition:
    """Partition behind the closed form: one block per all-same-group cube,
    singletons for every mixed sequence.

    For a generalized erasure channel the mixed sequences can never merge
    across groups (zero fidelity), and a cube ``A_i^k`` is mergeable only
    when ``eta_i ** (2k)`` still clears the threshold; the closed form
    assumes the most favorable case.
    """
    sizes = [int(a) for a in block_sizes]
    if len(sizes) == 0 or any(a < 1 for a in sizes):
        raise ValidationError(f"block sizes must be positive integers, got {block_sizes!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    n = sum(sizes)
    total = n ** k
    if total > max_sequences:
        raise ValidationError(f"{total} sequences exceed the cap {max_sequences}")
    offsets = np.cumsum([0] + sizes[:-1])
    weights = [n ** (k - 1 - j) for j in range(k)]
    cube_members: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    for i, a in enumerate(sizes):
        letters = range(int(offsets[i]), int(offsets[i]) + a)
        members = tuple(
            sum(w * x for w, x in zip(weights, seq))
            for seq in itertools.product(letters, repeat=k)
        )
        cube_members.update(members)
        blocks.append(members)
    blocks.extend((i,) for i in range(total) if i not in cube_members)
    return Partition(tuple(blocks))
