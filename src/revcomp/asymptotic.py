"""Multi-use compressibility: product graphs, structured partitions, bounds.

Everything here reports finite-k evidence.  The infinite-use limit is
never extrapolated; beyond exact feasibility the functions return valid
partitions whose compressibility is a lower bound on the true value, or a
value the letter graph proves optimal, and they say which in their method
tags and ``proved`` flags.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import ClassicalChannel
from .errors import ExactSolverCapError, ValidationError
from .partition import (
    Partition,
    _bits,
    _complement,
    _cover,
    _exact_coloring,
    _integer,
    _max_clique_size,
    _partition_of,
    compressibility,
    default_exact_cap,
)

# Above this many sequences no sequence graph or product-fidelity matrix is
# built, whichever solver asks for it.
DEFAULT_GRAPH_CAP = 2048
# Letter products per compare when the one-letter leaves of a sequence graph
# are built, so the float temporary stays at most 512 KiB.
LEAF_TILE_ENTRIES = 2 ** 16


def product_fidelity_matrix(channel: ClassicalChannel, k: int) -> np.ndarray:
    """Pairwise reverse fidelities of all length-``k`` input sequences.

    Multiplies in one per-letter factor at a time in letter order, so each
    entry matches the letterwise product computed sequence by sequence.
    Each step is one ``np.kron`` with the letter matrix.  Above
    ``DEFAULT_GRAPH_CAP`` sequences it raises before allocating.
    :func:`gamma_k` and :func:`delta_estimate` never call this: their
    graphs are built from running products (:func:`_sequence_masks`), which
    decide ``>= 1 - epsilon`` exactly as this matrix's entries would.
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
        fid = np.kron(fid, base)
    return fid


def _letter_matrix(channel: ClassicalChannel) -> np.ndarray:
    """The channel's letter fidelity matrix, checked exactly symmetric, with
    entries in [0, 1] and a diagonal of exactly 1.0.

    Every running product then lies in [0, 1] and never grows, and this
    one check proves every sequence graph symmetric and reflexive.
    ``channels._fidelity_kernel`` guarantees all three properties.
    """
    base = channel.fidelity_matrix
    if not np.array_equal(base, base.T):
        raise ValidationError("letter fidelity matrix must be exactly symmetric")
    if not np.all((base >= 0.0) & (base <= 1.0)):
        raise ValidationError("letter fidelity matrix entries must lie in the range [0, 1]")
    if not np.all(np.diag(base) == 1.0):
        raise ValidationError("letter fidelity matrix must have a diagonal of exactly 1.0")
    return base


def _sequence_masks(base: np.ndarray, epsilon: float, k: int,
                    memo: dict[tuple[int, float], list[int]]) -> list[int]:
    """Adjacency bitmasks, self bits set, of the length-``k`` sequence graph
    of the letter matrix ``base``: the rows of
    ``product_fidelity_matrix(channel, k) >= 1 - epsilon``, bit for bit,
    for an ``epsilon`` in [0, 1].  They are the memo entry ``R(k, 1.0)``
    itself, which :func:`partition._cover` takes as it is.

    That matrix multiplies a pair's letter values from 1.0 in letter order,
    and a label's first letter is its most significant digit.  So
    ``R(m, v)``, the graph of length-``m`` pairs whose running product,
    started at ``v``, reaches ``t = 1 - epsilon``, is the ``n``-by-``n``
    block matrix whose block ``[a, b]`` is ``R(m - 1, v * base[a, b])``,
    and the sequence graph is ``R(k, 1.0)``.  A block with
    ``v * base[a, b] < t`` is empty, since multiplying by a letter value in
    [0, 1] never raises a float (:func:`_letter_matrix` checks the range).
    ``memo`` holds each nonempty ``R(m, v)`` under the key ``(m, v)`` as
    ``n**m`` row masks with their diagonal set (``v >= t``).  The missing
    entries are found level by level from the top and built from the
    bottom up, without recursion: the missing ``R(1, v)`` are compared and
    packed together, ``LEAF_TILE_ENTRIES`` products at a time, from
    ``np.multiply.outer(values, base)``, whose slice ``v`` is ``base * v``,
    and each row of a higher entry ORs its blocks' rows shifted into place.  A
    sweep passes one memo to all its rows, so row ``k`` reuses the entries
    of row ``k - 1``, ``R(k - 1, 1.0)`` among them as its diagonal blocks.
    Length ``m`` has at most ``D**(k - m)`` entries of ``n**(2 * m)`` bits,
    and for ``n >= 2`` there are ``D <= 1 + n * (n - 1) / 2 <= n**2 / 2``
    distinct letter values, so the memo holds fewer than
    ``2 * n**(2 * k)`` bits.
    """
    n = base.shape[0]
    t = 1.0 - epsilon
    # Past one letter the graph cap keeps n <= 45; a one-letter row needs no floats in Python.
    letters = base.tolist() if k > 1 else []
    values = set(itertools.chain.from_iterable(letters))
    todo, missing = [], {1.0}
    for m in range(k, 0, -1):
        missing = {v for v in missing if (m, v) not in memo}
        if not missing:
            break
        todo.append((m, missing))
        if m > 1:
            missing = {v * w for v in missing for w in values if v * w >= t}
    for m, missing in reversed(todo):
        if m == 1:  # one compare and one pack per LEAF_TILE_ENTRIES products
            leaves = list(missing)
            step = max(1, LEAF_TILE_ENTRIES // n ** 2)
            for start in range(0, len(leaves), step):
                tile = leaves[start:start + step]
                # v * 1.0 == v: no float copy of a large letter matrix
                hits = base >= t if tile == [1.0] else np.multiply.outer(tile, base) >= t
                masks = _bits(hits.reshape(-1, n))
                for i, v in enumerate(tile):
                    memo[m, v] = masks[i * n:(i + 1) * n]
            continue
        h = n ** (m - 1)
        for v in missing:
            rows = []
            for row in letters:
                acc = None  # the diagonal block, v * 1.0 >= t, is always there
                for b, w in enumerate(row):
                    if v * w >= t:
                        block = map(operator.lshift, memo[m - 1, v * w], itertools.repeat(b * h))
                        acc = list(block) if acc is None else list(map(operator.or_, acc, block))
                rows.extend(acc)
            memo[m, v] = rows
    return memo[k, 1.0]


@dataclass(frozen=True)
class GammaKResult:
    """Compressibility of ``k`` channel uses plus how it was obtained.

    ``method`` is ``"exact"`` for a row within the exact cap, whose value is
    the exact minimum: on ``solver="auto"`` it may come from the letter
    graph (:class:`_LetterGraph`) with no sequence graph built, otherwise
    from the exact search.  ``"letter_product"`` is a row past the exact cap
    that the letter graph proves: ``ceil(n**k / omega)`` blocks when two
    differing letters never join (``M * M < 1 - epsilon``) and the letter
    graph has a cover by cliques of size ``omega`` with at most one
    singleton, or ``c**k`` blocks when the letter graph is ``c`` disjoint
    cliques whose worst in-class value, multiplied ``k`` times, still
    reaches ``1 - epsilon``.  ``"greedy_lower_bound"`` is a first-fit cover
    of the materialized sequence graph, and ``"closed_form"`` a product
    construction: the per-letter-threshold partition to the ``k``-th power,
    or, when two differing letters never join, the prefix grouping times a
    minimum cover of the last letter.  ``lower`` is a lower bound on the
    minimum block count (:func:`_bracket`), ``block_count`` itself on a
    proved row and 1 on an explicit ``"greedy"`` or ``"closed_form"`` row.
    ``proved`` says the value is the true compressibility: it is true on
    exact and letter-product rows, and on an auto first-fit or closed-form
    row exactly when ``lower == block_count``; an explicit ``"greedy"`` or
    ``"closed_form"`` row is never proved.  Any other value is a lower bound
    on the compressibility.
    """

    k: int
    block_count: int
    gamma: float
    method: str
    proved: bool
    lower: int = 1

    def to_json_dict(self) -> dict:
        return {"k": self.k, "gamma": self.gamma, "method": self.method,
                "blocks": self.block_count, "lower": self.lower, "proved": self.proved}


def closed_form_letter_partition(channel: ClassicalChannel, epsilon: float, k: int) -> Partition:
    """Single-letter partition whose ``k``-fold product covers length-``k`` sequences.

    Per the factorization, letters merged at per-letter fidelity
    ``>= (1 - eps)^(1/k)`` keep length-``k`` sequences within ``1 - eps``.
    That threshold is rounded, so the partition is certified in the
    library's own arithmetic by :func:`_letter_certificate`: its worst
    in-block fidelity ``c``, multiplied ``k`` times as
    :func:`product_fidelity_matrix` does, must reach ``1 - epsilon``.  When
    it falls short, the threshold steps just past ``c`` with
    ``np.nextafter`` and the letters are partitioned again.
    :func:`_letter_matrix` proves each letter graph symmetric and reflexive,
    so it is covered as bitmasks (:func:`_bits`).
    """
    return _closed_form_partition(_letter_matrix(channel), epsilon, k)


def _closed_form_partition(fid: np.ndarray, epsilon: float, k: int) -> Partition:
    """:func:`closed_form_letter_partition` of a letter matrix already
    checked by :func:`_letter_matrix`."""
    # One minus the tightened epsilon, rounded as graph_from_fidelity_matrix
    # rounds ``1 - epsilon``.
    threshold = 1.0 - (1.0 - (1.0 - epsilon) ** (1.0 / k))
    while True:
        single = _partition_of(_cover(_bits(fid >= threshold), "auto")[0])
        worst, product = _letter_certificate(fid, single.blocks, k)
        if product >= 1.0 - epsilon:
            return single
        threshold = float(np.nextafter(worst, 2.0))


def _letter_certificate(fid: np.ndarray, blocks: Sequence[Sequence[int]],
                        k: int) -> tuple[float, float]:
    """The worst in-block letter fidelity of ``blocks`` (1.0 on the exact
    diagonal, so for singletons), and it multiplied ``k`` times left to right
    from 1.0 as :func:`product_fidelity_matrix` multiplies.  Float products
    are monotone, so this bounds every pair of the ``k``-fold block product.
    """
    label = np.empty(len(fid), dtype=np.intp)
    for b, members in enumerate(blocks):
        label[list(members)] = b
    worst = float(fid[label[:, None] == label].min())
    return worst, math.prod([worst] * k)


class _LetterGraph:
    """The letter graph ``G_1`` of one :func:`_rows` call, the pairs of the
    letter matrix ``base`` at or above ``t = 1 - epsilon``, thresholded
    once, and what it proves about the length-``k`` sequence graphs ``G_k``.

    Built with the call: the masks of ``G_1`` (self bits set) and whether
    two differing letters never join (``cartesian``).  For ``2 <= n <=
    cap`` letters in that regime also ``cover``, a minimum clique cover of
    ``G_1`` (``theta`` blocks), its largest clique size ``omega``, and
    whether ``G_1`` has a cover by cliques of size ``omega`` with at most
    one singleton (``tight``, see :func:`_tight`); ``cover`` is empty and
    ``omega`` 0 otherwise.  Found on first use, at most once: the letter
    classes, ``alpha`` (the largest independent set, ``n <= cap`` only) and
    the isolated letters.  :func:`_bracket` reads it to answer a row; an
    explicit solver passes ``cap = 0`` and ``k_top = 0`` and reads only the
    isolated letters.

    * **Two differing letters never join** (``cartesian``).  Let ``M`` be
      the largest off-diagonal letter value, and ``n >= 2``.  When ``M * M <
      t`` in float, a pair of sequences that differ in two or more letters
      is never joined: its running product is exactly 1.0 up to its first
      differing letter, exactly that letter's value ``w`` there, at most
      ``w * w' <= M * M`` at the second (rounding is monotone), and later
      letters in [0, 1] never raise a float.  So ``G_k`` joins exactly the
      pairs that differ in one letter whose letter pair ``G_1`` joins: the
      Cartesian power of ``G_1`` (Imrich and Klavzar, *Handbook of Product
      Graphs*).
    * **Letter classes** (``classes``).  ``G_1`` is a disjoint union of
      ``c`` cliques exactly when its distinct masks are pairwise disjoint,
      that is when their popcounts sum to ``n``.  Let ``w`` be the worst
      letter value inside a clique, the least entry of ``base`` that
      ``G_1`` joins: the one :func:`_letter_certificate` takes over these
      classes (1.0 when every class is one letter).  A pair of sequences
      whose letters lie pairwise in one class multiplies values ``>= w``, so
      its product is at least ``math.prod([w] * k)`` under monotone
      rounding; a pair with a letter pair across two classes has a running
      product at most that letter's value ``< t`` there, and later letters
      keep it below.  So while ``math.prod([w] * k) >= t`` the length-``k``
      graph is the ``c**k`` disjoint cliques of class sequences.  That
      product never grows with ``k``, so these are the rows ``k = 1 ..
      last``, with ``last`` at most ``k_top``, and one multiply per length
      forms it as ``math.prod`` does.
    * **Isolated letters** (``isolated``).  Those joined to no other letter;
      :func:`_rows` factors them out of every sequence graph it builds.
    """

    def __init__(self, base: np.ndarray, epsilon: float, cap: int, k_top: int) -> None:
        n = base.shape[0]
        self.base, self.n, self.t, self.cap, self.k_top = base, n, 1.0 - epsilon, cap, k_top
        self.hits = base >= self.t
        self.masks = _bits(self.hits)
        top = float(base[~np.eye(n, dtype=bool)].max()) if n > 1 else 1.0
        self.cartesian = top * top < self.t
        self.cover, self.omega, self.tight = [], 0, False
        if self.cartesian and n <= cap:
            self.cover = _exact_coloring(self.masks)
            self.omega = _max_clique_size([m & ~(1 << v) for v, m in enumerate(self.masks)], n)
            self.tight = _tight(self.masks, self.cover, self.omega)

    @functools.cached_property
    def classes(self) -> tuple[int, int]:
        """``(c, last)``: rows ``1 .. last`` are ``c**k`` class sequences,
        ``last`` 0 when ``G_1`` is not disjoint cliques."""
        classes = set(self.masks)
        if sum(mask.bit_count() for mask in classes) != self.n:
            return 0, 0
        worst, last, product = float(self.base[self.hits].min()), 0, 1.0
        while last < self.k_top and product * worst >= self.t:
            last, product = last + 1, product * worst
        return len(classes), last

    @functools.cached_property
    def alpha(self) -> int:
        return _max_clique_size(_complement(self.masks), self.n)

    @functools.cached_property
    def isolated(self) -> tuple[int, np.ndarray]:
        """``(S, rest)``: the number ``S`` of isolated letters and the letter
        matrix of the others in their order, when ``0 < S < n``; otherwise
        ``(0, base)``.  No other letter is isolated in ``rest``: a letter
        joined to another is joined to one that is not isolated."""
        alone = np.count_nonzero(self.hits, axis=1) == 1  # the diagonal only
        isolated = int(np.count_nonzero(alone))
        if not 0 < isolated < self.n:
            return 0, self.base
        return isolated, self.base[np.ix_(~alone, ~alone)]


def _tight(masks: list[int], cover: list[int], omega: int) -> bool:
    """Whether the graph with reflexive ``masks`` and minimum clique
    ``cover`` has a cover whose blocks all have size ``omega`` but at most
    one singleton.  Such a cover is a minimum one, of ``theta`` blocks with
    ``excess = omega * theta - n`` of 0 (no singleton) or ``omega - 1``
    (one).  For ``omega <= 2`` that excess is enough.  For larger
    ``omega`` and excess ``omega - 1``, a minimum cover with a singleton has
    every other block of size ``omega``; failing that, one exists exactly
    when some vertex ``v`` leaves ``(n - 1) / omega`` cliques covering the
    graph without it, which then all have size ``omega``.
    """
    n = len(masks)
    excess = omega * len(cover) - n
    if excess == 0 or (omega == 2 and excess == 1):
        return True
    if omega < 3 or excess != omega - 1:
        return False
    if any(block & (block - 1) == 0 for block in cover):
        return True
    for v in range(n):
        low = (1 << v) - 1  # drop bit v from every other mask
        rest = [mask & low | mask >> 1 & ~low for u, mask in enumerate(masks) if u != v]
        if len(_exact_coloring(rest)) == (n - 1) // omega:
            return True
    return False


def _bracket(letters: _LetterGraph, k: int) -> tuple[int, int | None, bool]:
    """``(lower, upper, proved)`` for the length-``k`` sequence row of the
    letter graph ``letters``, from its certificates alone: ``lower`` bounds
    the minimum clique cover from below, ``upper`` is the block count of a
    cover built from the letters (``None`` when none is known), and
    ``proved`` is ``lower == upper``, the row's minimum.  The searches on
    ``G_1`` run only for ``n <= cap`` letters; above that only the letter
    classes answer.

    * **Cartesian power.**  When two differing letters never join, ``G_k``
      is the Cartesian power of ``G_1``.  Three sequences that are pairwise
      joined differ in the same place, so a clique holds at most ``omega``
      sequences and a cover needs at least ``ceil(n**k / omega)`` blocks.
      Fixing the first ``k - 1`` letters and covering the last one with
      ``cover`` gives ``n**(k - 1) * theta`` blocks, each pair's product
      exactly one letter value ``>= t``.  When ``G_1`` has a cover of
      blocks of size ``omega`` with at most one singleton (``tight``),
      ``ceil(n**k / omega)`` blocks suffice, by induction on ``k``: cover
      each first-letter copy of ``G_(k - 1)`` the same way, ``(n**(k - 1) -
      1) / omega`` cliques of size ``omega`` and one singleton ``u``; the
      ``n`` leftover sequences ``(a, u)`` form a copy of ``G_1``, covered
      by that letter cover.  That is ``(n**k - 1) / omega + 1`` blocks,
      since ``n**k`` is 1 mod ``omega``, again with one singleton, and
      ``n**k / omega`` with none.  Every in-block pair differs in one
      letter, so its running product is exactly that letter's value, ``>=
      t``.  Row 1 is ``theta``, the exact minimum of ``G_1``.
    * **Letter classes.**  For ``k <= last`` the row is ``c**k``.
    * **Strong power.**  A running product never exceeds any of its factors,
      so ``G_k`` lies in the strong power of ``G_1``, and a product of
      independent sets of ``G_1`` is independent in ``G_k``: at least
      ``alpha**k`` blocks (Shannon 1956).
    """
    n = letters.n
    if letters.tight:
        clique = -(-n ** k // letters.omega)
        return clique, clique, True
    c, last = letters.classes
    if k <= last:
        return c ** k, c ** k, True
    if n > letters.cap:
        return 1, None, False
    theta = len(letters.cover)
    if letters.cartesian and k == 1:
        return theta, theta, True
    lower = letters.alpha ** k
    if not letters.cartesian:
        return lower, None, False
    upper = n ** (k - 1) * theta
    lower = max(lower, -(-n ** k // letters.omega))
    return lower, upper, lower == upper


@functools.cache
def _decimal_limit(digits: int) -> int:
    """``10**digits``, the least int Python will not print at that many
    decimal digits, built once per limit."""
    return 10 ** digits


def _rows(channel: ClassicalChannel, epsilon: float, ks: Sequence[int],
          solver: str) -> list[GammaKResult]:
    """The :func:`gamma_k` row at each length in ``ks``: the one row routine.

    Every ``k`` is checked before any row runs.  The letter matrix is then
    thresholded once into a :class:`_LetterGraph`.  On ``"auto"``,
    :func:`_bracket` answers each row from it first, and every row it
    proves takes its count with no sequence graph and no search:
    ``"exact"`` within the exact cap, since that count is the exact
    minimum, and ``"letter_product"`` past it.  Explicit solvers never ask.
    Any other row is a product construction (``"closed_form"``, asked for or
    past the graph cap) or a cover of its sequence graph ``G_k``, and its
    gamma is :func:`compressibility` of its block count.  Past the graph
    cap, an auto row whose letters never join in pairs takes the bracket's
    cover, ``n**(k - 1) * theta`` blocks; there the per-letter closed form
    would merge nothing, since its letters' product must reach ``1 -
    epsilon`` ``k >= 2`` times over.  Every other closed-form row is
    :func:`_closed_form_partition` to the ``k``-th power.

    An auto row carries the bracket's ``lower``, and is proved exactly when
    its count meets it, a first fit or closed form included (its method
    stays).  An exact row's ``lower`` is its count; an explicit greedy or
    closed-form row carries ``lower`` 1 and is never proved.

    A graph row splits off the ``S`` isolated letters (``isolated`` of the
    :class:`_LetterGraph`), and ``G'_j`` is the length-``j`` sequence
    graph of the other letters (:func:`_sequence_masks`, one memo for all
    rows).  A pair that differs at a position holding an isolated letter has
    a running product below ``1 - epsilon`` there, and later letters never
    raise a float; equal letters multiply by exactly 1.0.  So ``G_k`` is
    the disjoint union of ``C(k, j) * S**(k - j)`` copies of ``G'_j``, each
    with ``G'_j``'s pairs and label order, and the row is ``sum(C(k, j) *
    S**(k - j) * blocks(G'_j))`` over ``j = 0 .. k``, ``blocks(G'_0) = 1``.
    The exact minimum sums over the parts, and so does first fit, which
    builds each block among its first vertex's neighbours.  The regime is
    still ``G_k``'s: the exact search on every part within the exact cap
    of ``n**k``, first fit on every part above it.  With no isolated letter,
    or every letter isolated, the only part is ``G_k`` itself.  Each part's
    count is kept per regime, so a sweep covers it once.
    """
    cap = default_exact_cap()
    if solver not in ("auto", "exact", "greedy", "closed_form"):
        raise ValidationError(f"unknown solver {solver!r}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    n = channel.num_inputs
    # Block counts are printed in decimal, which Python refuses past this many digits.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for k in ks:
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        total = n ** k
        if solver == "exact" and total > cap:
            raise ExactSolverCapError(f"{total} sequences exceed the exact cap {cap} for k={k}")
        if solver in ("exact", "greedy") and total > DEFAULT_GRAPH_CAP:
            raise ValidationError(f"{total} sequences exceed the graph cap {DEFAULT_GRAPH_CAP} for k={k}")
        if digits and total >= _decimal_limit(digits):
            raise ValidationError(f"k={k}: the sequence count {n}**{k} has more than {digits} "
                                  "decimal digits, past Python's int-to-string limit")
    base = _letter_matrix(channel)
    auto = solver == "auto"  # explicit solvers search no letter graph
    letters = _LetterGraph(base, epsilon, cap if auto else 0, max(ks) if auto else 0)
    memo: dict[tuple[int, float], list[int]] = {}
    parts: dict[tuple[int, str], int] = {}  # blocks(G'_j) per (j, regime)
    rows = []
    for k in ks:
        total = n ** k
        lower, upper, proved = _bracket(letters, k) if auto else (1, None, False)
        if proved:
            blocks, method = upper, "exact" if total <= cap else "letter_product"
        elif solver == "closed_form" or total > DEFAULT_GRAPH_CAP:
            if upper is None:
                upper = _closed_form_partition(base, epsilon, k).num_blocks ** k
            blocks, method = upper, "closed_form"
        else:
            isolated, rest = letters.isolated
            regime = "exact" if solver != "greedy" and total <= cap else "greedy"
            blocks = isolated ** k  # the j = 0 term, with blocks(G'_0) = 1
            for j in range(1, k + 1) if isolated else (k,):
                if (j, regime) not in parts:
                    parts[j, regime] = len(_cover(_sequence_masks(rest, epsilon, j, memo), regime)[0])
                blocks += math.comb(k, j) * isolated ** (k - j) * parts[j, regime]
            if regime == "exact":
                lower = blocks
            method = "exact" if regime == "exact" else "greedy_lower_bound"
        proved = lower == blocks and solver in ("auto", "exact")
        rows.append(GammaKResult(k, blocks, compressibility(total, blocks), method, proved, lower))
    return rows


def gamma_k(channel: ClassicalChannel, epsilon: float, k: int,
            solver: str = "auto") -> GammaKResult:
    """Compressibility of ``k`` independent uses of a channel (:func:`_rows`).

    On ``solver="auto"`` a row the letter graph proves is an optimum with no
    graph built (:func:`_bracket`): when two differing letters never join,
    ``ceil(n**k / omega)`` blocks at any ``k`` if the letter graph has a
    cover by cliques of size ``omega`` with at most one singleton (a
    perfect or near-perfect clique cover), and ``c**k`` blocks, the
    ``k``-fold products of the cliques, when the letter graph is ``c``
    disjoint cliques and the worst in-class value multiplied ``k`` times
    still reaches ``1 - epsilon``.  Such a row is ``"exact"`` while the
    sequence count fits the exact cap and ``"letter_product"`` above it.
    Any other auto row is solved exactly within the exact cap, by first fit
    on the materialized graph up to ``DEFAULT_GRAPH_CAP`` and by a product
    construction (``"closed_form"``) beyond that: the prefix grouping times
    a minimum letter cover, ``n**(k - 1) * theta`` blocks, when two
    differing letters never join, else the per-letter closed form.  The
    row's ``lower`` is the bracket's bound, ``ceil(n**k / omega)`` in that
    Cartesian regime and ``alpha**k`` within the exact cap of letters, and
    a first-fit or closed-form row that meets it is proved.
    beyond that.  Requesting ``"exact"`` above the
    exact cap raises :class:`ExactSolverCapError`; requesting ``"exact"`` or
    ``"greedy"`` above the graph cap raises :class:`ValidationError`,
    whatever the exact cap, as does a ``k`` whose sequence count Python
    cannot print in decimal.  A materialized row's graph is bitmasks built from shorter
    running-product graphs (:func:`_sequence_masks`), which decide each pair
    exactly as :func:`product_fidelity_matrix` would; only its cover's
    blocks are counted.  When some but not every letter is isolated, below
    ``1 - epsilon`` to every other letter, those letters never merge, and
    the row is ``sum(C(k, j) * S**(k - j) * blocks(G'_j))`` over covers of
    the other letters' shorter graphs ``G'_j`` (:func:`_rows`), the same
    count as the cover of the whole graph.
    """
    return _rows(channel, epsilon, [k], solver)[0]


@dataclass(frozen=True)
class AsymptoticSweep:
    """Per-k compressibility values with method tags and an observed trend.

    ``trend`` describes the computed values only; proved entries (exact and
    letter-product) and lower bounds are mixed, so it is evidence about the
    limit, not the limit.
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
    The rows come from :func:`_rows`, as :func:`gamma_k`'s does, so each
    equals the :func:`gamma_k` row at its ``k``; every row's caps are
    checked before any row runs.
    """
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    results = _rows(channel, epsilon, range(1, k_max + 1), solver)
    return AsymptoticSweep(epsilon=float(epsilon), results=tuple(results),
                           trend=_observed_trend([r.gamma for r in results]))


# ---------------------------------------------------------------------------
# structured partitions of erasure-channel sequence spaces
# ---------------------------------------------------------------------------

def _check_max_sequences(max_sequences: int) -> None:
    if max_sequences < 1:
        raise ValidationError(f"max_sequences must be >= 1, got {max_sequences}")


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
    Hamming distance ``<= s``.  A cap below 1 is refused first, then the
    cap is checked before anything of size ``alphabet_size ** k`` is built.

    With ``q = alphabet_size``, the anticode bound answers without a graph
    when ``s`` is 0, 1 or ``k``, or ``q >= k - s + 2``: a block of diameter
    ``<= s`` is a ``(k - s)``-intersecting family of words, which holds at
    most ``q**s`` words for ``q >= k - s + 2`` (Frankl and Furedi 1980; see
    Ahlswede and Khachatrian 1998), and for ``s = 1`` at most ``q``, since
    all its pairs differ in the same position.  So ``q**(k - s)`` blocks
    are needed, and the prefix grouping (:func:`s_bound_partition`) reaches
    that count.  Any other case, binary words with ``2 <= s < k`` among
    them, is counted by :func:`_exact_coloring` on the graph's bitmasks.
    """
    _check_max_sequences(max_sequences)
    _check_s_bound_args(alphabet_size, k, s)
    total = alphabet_size ** k
    if total > max_sequences:
        raise ValidationError(
            f"{total} sequences exceed the exhaustive-search cap {max_sequences}"
        )
    if s in (0, 1, k) or alphabet_size >= k - s + 2:
        return alphabet_size ** (k - s)
    seqs = np.array(list(itertools.product(range(alphabet_size), repeat=k))).reshape(total, k)
    dist = (seqs[:, None, :] != seqs[None, :, :]).sum(axis=2)
    return len(_exact_coloring(_bits(dist <= s)))


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

    Equality is a theorem where :func:`min_s_bounded_partition_size`'s
    anticode condition holds (``s`` in 0, 1 or ``k``, or ``alphabet_size >=
    k - s + 2``), and those rows are answered by it with no search.
    Elsewhere it is conjectured, not proven; a row with ``equal=False`` is a
    counterexample and is reported as data, never raised.  Equality fails at
    ``alphabet_size=2, k=5, s=2``, where the minimum is 7 rather than 8, and
    at ``k=6`` with ``s=2`` (12 rather than 16) and ``s=3`` (7 rather than 8).
    A cap below 1 is refused before any row runs.
    """
    _check_max_sequences(max_sequences)
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

    The partition has ``n**k - sum(a_i**k) + d`` blocks, so this is
    :func:`compressibility`, ``(sum(a_i**k) - d) / (n**k - 1)`` as one
    correctly rounded integer division.  It is the value of one partition,
    the one built by :func:`generalized_erasure_bound_partition`, so a lower
    bound on gamma wherever that partition is feasible, not gamma itself;
    see that function for when it is feasible.
    """
    sizes = _block_sizes(block_sizes, k)
    total = sum(sizes) ** k
    return compressibility(total, total - sum(a ** k for a in sizes) + len(sizes))


def _block_sizes(block_sizes: Sequence[int], k: int) -> list[int]:
    """Group sizes as ints, each a positive integer (no float or bool), and ``k >= 1``."""
    sizes = [_integer(a, f"block size {i}") for i, a in enumerate(block_sizes)]
    if len(sizes) == 0 or any(a < 1 for a in sizes):
        raise ValidationError(f"block sizes must be positive integers, got {block_sizes!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return sizes


def generalized_erasure_bound_partition(block_sizes: Sequence[int], k: int,
                                        max_sequences: int = 10 ** 5) -> Partition:
    """Partition behind the closed form: one block per all-same-group cube,
    singletons for every mixed sequence.

    For a generalized erasure channel the mixed sequences can never merge
    across groups (zero fidelity), and a cube ``A_i^k`` is mergeable only
    when ``eta_i ** (2k)`` still clears the threshold; the closed form
    assumes the most favorable case.
    """
    sizes = _block_sizes(block_sizes, k)
    n = sum(sizes)
    total = n ** k
    if total > max_sequences:
        raise ValidationError(f"{total} sequences exceed the cap {max_sequences}")
    weights = [n ** (k - 1 - j) for j in range(k)]
    blocks = [tuple(sum(w * x for w, x in zip(weights, seq))
                    for seq in itertools.product(range(e - a, e), repeat=k))
              for a, e in zip(sizes, itertools.accumulate(sizes))]
    cubes = set(itertools.chain.from_iterable(blocks))
    blocks.extend((i,) for i in range(total) if i not in cubes)
    return Partition(tuple(blocks))
