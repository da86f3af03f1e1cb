"""Finite classical channels and fidelity between their output distributions.

A channel is a row-stochastic matrix over explicit input and output
alphabets.  The reverse fidelity of two inputs is the fidelity of the
output distributions they induce; it is the quantity every partition
construction in this library thresholds on.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, UnknownLabelError, ValidationError

# Stochasticity is validated to this tolerance, then rows are renormalized.
STOCHASTIC_TOL = 1e-9
# Entrywise threshold at which two distributions are declared equal, which
# pins fidelity to exactly 1.0 instead of 1 minus a few ulps.
EQUALITY_TOL = 1e-12
# Rows per tile of the fidelity kernel: each tile's scratch is this many rows
# by n, so peak memory stays one n-by-n result plus a tile.
ROW_TILE = 64

ERASURE_SYMBOL = "α"


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct string labels; no label is converted."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise ValidationError(f"alphabet entry {i} must be a string, got {label!r}")
        if len(labels) == 0:
            raise ValidationError("alphabet must contain at least one symbol")
        if len(set(labels)) != len(labels):
            raise ValidationError("alphabet labels must be distinct")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(labels)})

    @classmethod
    def numbered(cls, n: int) -> "Alphabet":
        """Alphabet with labels ``"1" .. str(n)``."""
        if n < 1:
            raise ValidationError(f"alphabet size must be >= 1, got {n}")
        return cls(tuple(str(i) for i in range(1, n + 1)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownLabelError(f"symbol {label!r} not in alphabet {self.labels}") from None


def _validated_masses(masses: np.ndarray, what: str) -> np.ndarray:
    masses = np.asarray(masses, dtype=float)
    if masses.ndim != 1:
        raise ValidationError(f"{what} must be a vector, got shape {masses.shape}")
    if masses.size == 0:
        raise ValidationError(f"{what} must have at least one entry")
    if not np.isfinite(masses).all():
        i = int(np.flatnonzero(~np.isfinite(masses))[0])
        raise ValidationError(f"{what} entry {i} is {float(masses[i])!r}, not a finite number")
    if np.min(masses) < -STOCHASTIC_TOL or np.max(masses) > 1.0 + STOCHASTIC_TOL:
        raise ValidationError(f"{what} has entries outside [0, 1]: min {float(np.min(masses))!r}, max {float(np.max(masses))!r}")
    total = float(np.sum(masses))
    if abs(total - 1.0) > STOCHASTIC_TOL:
        raise ValidationError(f"{what} sums to {total!r}, outside {STOCHASTIC_TOL} of 1")
    clipped = np.clip(masses, 0.0, None)
    out = clipped / float(np.sum(clipped))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over an alphabet.

    Masses are validated (nonnegative, total within ``STOCHASTIC_TOL`` of 1)
    and then renormalized, so downstream code can assume an exact simplex
    point up to float rounding.
    """

    alphabet: Alphabet
    masses: np.ndarray

    def __post_init__(self) -> None:
        masses = _validated_masses(self.masses, "distribution")
        if masses.size != self.alphabet.size:
            raise DimensionMismatchError(
                f"distribution has {masses.size} masses for alphabet of size {self.alphabet.size}"
            )
        object.__setattr__(self, "masses", masses)


def _snap_cut(m: int) -> float:
    """Unsquared overlap that every pair of ``m``-output rows equal within
    ``EQUALITY_TOL`` reaches: ``(sqrt(p) - sqrt(q))**2 <= |p - q|``, so two
    rows that sum to 1 and agree within ``EQUALITY_TOL`` have an overlap of
    at least ``1 - m * EQUALITY_TOL / 2``, less a few ulps of normalization
    and summation error.  Only pairs at or above it are tested for the snap.
    """
    return 1.0 - m * (EQUALITY_TOL + 4e-16)


def _overlaps(cols: np.ndarray, first: np.ndarray, second: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Unsquared Bhattacharyya overlaps of row pairs, written into ``out``.

    Entry ``e`` of ``out`` belongs to the rows ``first[e]`` and
    ``second[e]`` of the column stack ``cols``: both are indices of a
    column (index arrays or slices) that broadcast to ``out``'s shape.
    Column ``y`` adds ``sqrt(col[first] * col[second])``, strictly left to
    right, and only one column of each side is gathered at a time.  This is
    the only summation of fidelity terms.
    """
    np.multiply(cols[0][first], cols[0][second], out=out)
    np.sqrt(out, out=out)
    scratch = np.empty_like(out)
    for col in cols[1:]:
        np.multiply(col[first], col[second], out=scratch)
        np.sqrt(scratch, out=scratch)
        out += scratch
    return out


def _snap_and_square(overlap: np.ndarray, first: np.ndarray, second: np.ndarray,
                     cols: np.ndarray) -> np.ndarray:
    """Turn unsquared overlaps into fidelities, in place.

    Entry ``e`` of ``overlap`` belongs to the rows ``first[e]`` and
    ``second[e]`` of the column stack ``cols`` (both index arrays broadcast
    to ``overlap``'s shape).  It is squared and clamped into [0, 1]; a pair
    whose overlap reaches :func:`_snap_cut` and whose rows agree within
    ``EQUALITY_TOL`` entrywise gets exactly 1.0.
    """
    hit = np.nonzero(overlap >= _snap_cut(cols.shape[0]))
    np.square(overlap, out=overlap)
    np.minimum(overlap, 1.0, out=overlap)
    if hit[0].size:
        i = np.broadcast_to(first, overlap.shape)[hit]
        j = np.broadcast_to(second, overlap.shape)[hit]
        gap = np.zeros(i.size)
        for col in cols:
            np.maximum(gap, np.abs(col[i] - col[j]), out=gap)
        equal = gap <= EQUALITY_TOL
        overlap[tuple(h[equal] for h in hit)] = 1.0
    return overlap


def _fidelity_kernel(rows: np.ndarray) -> np.ndarray:
    """Pairwise fidelities of an ``(n, m)`` stack of probability vectors.

    Squared Bhattacharyya overlap (:func:`_overlaps`, vectorized over pairs
    and looped over the ``m`` columns), then :func:`_snap_and_square`.  The
    rows are taken ``ROW_TILE`` at a time, and each tile computes its rows
    against every later row, so only the upper triangle is summed; its
    transpose is copied below the tile.  Every term is symmetric in its two
    rows, so the copy holds the values the loop would have produced and
    the result is exactly symmetric; the diagonal is set to 1.0.  Peak
    memory is one n-by-n float array plus a ``ROW_TILE``-by-n tile.
    :func:`_pair_fidelities` gives the same bits for any list of pairs.
    """
    n = rows.shape[0]
    cols = np.ascontiguousarray(rows.T)
    index = np.arange(n)
    fid = np.empty((n, n))
    for s in range(0, n, ROW_TILE):
        e = min(s + ROW_TILE, n)
        tile = _overlaps(cols, np.s_[s:e, None], np.s_[None, s:], fid[s:e, s:])
        # The diagonal is set to 1.0 at the end, so it skips the snap test.
        np.fill_diagonal(tile, 0.0)
        _snap_and_square(tile, index[s:e, None], index[None, s:], cols)
        fid[e:, s:e] = tile[:, e - s:].T
    np.fill_diagonal(fid, 1.0)
    fid.flags.writeable = False
    return fid


def _pair_fidelities(rows: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Fidelities of the row pairs ``(first[e], second[e])`` of an ``(n, m)``
    stack of probability vectors: the same column loop and snap as
    :func:`_fidelity_kernel`, so each value has the bits of that kernel's
    entry for the pair, for ``first[e] != second[e]``.
    """
    cols = rows.T
    overlap = _overlaps(cols, first, second, np.empty(len(first)))
    return _snap_and_square(overlap, first, second, cols)


def fidelity(p: Distribution, q: Distribution) -> float:
    """Fidelity between two distributions on the same alphabet.

    Equals 1 iff the distributions coincide (entrywise within
    ``EQUALITY_TOL``) and 0 iff their supports are disjoint.
    """
    if p.alphabet.labels != q.alphabet.labels:
        raise DimensionMismatchError("fidelity requires distributions on the same alphabet")
    return float(_fidelity_kernel(np.stack((p.masses, q.masses)))[0, 1])


@dataclass(frozen=True)
class ClassicalChannel:
    """Row-stochastic matrix with labeled input and output alphabets.

    Row ``i`` is the output distribution conditioned on input symbol ``i``.
    Rows are validated within ``STOCHASTIC_TOL`` and renormalized.
    """

    input: Alphabet
    output: Alphabet
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValidationError(f"channel matrix must be 2-dimensional, got shape {m.shape}")
        if m.shape != (self.input.size, self.output.size):
            raise DimensionMismatchError(
                f"channel matrix shape {m.shape} does not match alphabets "
                f"({self.input.size} inputs, {self.output.size} outputs)"
            )
        if not np.isfinite(m).all():
            i, j = (int(v) for v in np.argwhere(~np.isfinite(m))[0])
            raise ValidationError(
                f"channel entry at row {i} ({self.input.labels[i]!r}), column {j} "
                f"({self.output.labels[j]!r}) is {float(m[i, j])!r}, not a finite number"
            )
        if np.min(m) < -STOCHASTIC_TOL or np.max(m) > 1.0 + STOCHASTIC_TOL:
            i, j = np.unravel_index(int(np.argmin(m)) if np.min(m) < -STOCHASTIC_TOL else int(np.argmax(m)), m.shape)
            raise ValidationError(
                f"channel entry at row {i} ({self.input.labels[i]!r}), column {j} "
                f"({self.output.labels[j]!r}) is {float(m[i, j])!r}, outside [0, 1]"
            )
        sums = np.sum(m, axis=1)
        bad = np.where(np.abs(sums - 1.0) > STOCHASTIC_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"channel row {i} ({self.input.labels[i]!r}) sums to {float(sums[i])!r}, "
                f"outside {STOCHASTIC_TOL} of 1"
            )
        m = np.clip(m, 0.0, None)
        m = m / np.sum(m, axis=1, keepdims=True)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def num_inputs(self) -> int:
        return self.input.size

    @property
    def num_outputs(self) -> int:
        return self.output.size

    def row(self, label: str) -> np.ndarray:
        """Output mass vector conditioned on the given input symbol."""
        return self.matrix[self.input.index(label)]

    @cached_property
    def fidelity_matrix(self) -> np.ndarray:
        """Read-only :func:`reverse_fidelity_matrix` of this channel.

        Computed on first use and kept with the channel, whose matrix
        cannot change, so every product power of one channel shares it.
        """
        return reverse_fidelity_matrix(self)


def reverse_fidelity(channel: ClassicalChannel, x: str, xhat: str) -> float:
    """Fidelity of the output distributions of inputs ``x`` and ``xhat``."""
    rows = channel.matrix[[channel.input.index(x), channel.input.index(xhat)]]
    return float(_fidelity_kernel(rows)[0, 1])


def reverse_fidelity_matrix(channel: ClassicalChannel) -> np.ndarray:
    """All pairwise reverse fidelities of a channel, indexed by input."""
    return _fidelity_kernel(channel.matrix)


def compose(first: ClassicalChannel, then: ClassicalChannel) -> ClassicalChannel:
    """Channel applying ``first`` and feeding its output into ``then``."""
    if first.output.labels != then.input.labels:
        raise DimensionMismatchError(
            "composition requires the first channel's output alphabet to equal "
            "the second channel's input alphabet"
        )
    return ClassicalChannel(first.input, then.output, first.matrix @ then.matrix)


# ---------------------------------------------------------------------------
# named channel constructors
# ---------------------------------------------------------------------------

def make_identity(n: int, labels: Sequence[str] | None = None) -> ClassicalChannel:
    """Noiseless channel: each input maps to its own output symbol."""
    alphabet = Alphabet(tuple(labels)) if labels is not None else Alphabet.numbered(n)
    if alphabet.size != n:
        raise DimensionMismatchError(f"{len(alphabet.labels)} labels given for identity of size {n}")
    return ClassicalChannel(alphabet, alphabet, np.eye(n))


def make_constant(n: int, masses: Sequence[float] | None = None,
                  output_labels: Sequence[str] | None = None) -> ClassicalChannel:
    """Channel whose output distribution does not depend on the input.

    With no ``masses`` the output alphabet is a single symbol hit with
    probability one.
    """
    if n < 1:
        raise ValidationError(f"constant channel needs >= 1 inputs, got {n}")
    if masses is None:
        masses = [1.0]
    masses = np.asarray(masses, dtype=float)
    if output_labels is None:
        output_labels = [f"y{j + 1}" for j in range(masses.size)]
    row = _validated_masses(masses, "constant channel output distribution")
    matrix = np.tile(row, (n, 1))
    return ClassicalChannel(Alphabet.numbered(n), Alphabet(tuple(output_labels)), matrix)


def make_erasure(r: int, eta: float) -> ClassicalChannel:
    """Erasure channel on ``r`` symbols.

    Each input passes through unchanged with probability ``1 - eta`` and is
    replaced by the erasure symbol with probability ``eta``.
    """
    if r < 1:
        raise ValidationError(f"erasure channel needs >= 1 symbols, got {r}")
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"erasure probability must lie in [0, 1], got {eta!r}")
    inp = Alphabet.numbered(r)
    out = Alphabet(inp.labels + (ERASURE_SYMBOL,))
    matrix = np.zeros((r, r + 1))
    for i in range(r):
        matrix[i, i] = 1.0 - eta
        matrix[i, r] = eta
    return ClassicalChannel(inp, out, matrix)


def make_generalized_erasure(blocks: Sequence[Sequence[str]],
                             etas: Sequence[float]) -> ClassicalChannel:
    """Erasure channel with one erasure symbol per input block.

    Inputs in block ``i`` keep their (primed) identity with probability
    ``1 - etas[i]`` and collapse to that block's own erasure symbol with
    probability ``etas[i]``.  Distinct blocks share no output symbols, so
    their reverse fidelity is exactly zero.
    """
    if len(blocks) == 0:
        raise ValidationError("generalized erasure needs at least one block")
    if len(etas) != len(blocks):
        raise DimensionMismatchError(f"{len(blocks)} blocks but {len(etas)} erasure probabilities")
    for eta in etas:
        if not 0.0 <= eta <= 1.0:
            raise ValidationError(f"erasure probability must lie in [0, 1], got {eta!r}")
    flat: list[str] = []
    for block in blocks:
        if len(block) == 0:
            raise ValidationError("generalized erasure blocks must be nonempty")
        flat.extend(block)
    inp = Alphabet(tuple(flat))
    d = len(blocks)
    out_labels = tuple(l + "'" for l in flat) + tuple(f"{ERASURE_SYMBOL}_{i + 1}" for i in range(d))
    out = Alphabet(out_labels)
    n = inp.size
    matrix = np.zeros((n, n + d))
    pos = 0
    for i, block in enumerate(blocks):
        for _ in block:
            matrix[pos, pos] = 1.0 - etas[i]
            matrix[pos, n + i] = etas[i]
            pos += 1
    return ClassicalChannel(inp, out, matrix)


# ---------------------------------------------------------------------------
# product (multi-use) channels
# ---------------------------------------------------------------------------

def product_reverse_fidelity(channel: ClassicalChannel, xs: Sequence[str],
                             xhats: Sequence[str]) -> float:
    """Reverse fidelity of two input sequences of independent channel uses.

    The fidelity of independent products factorizes into per-letter
    fidelities, so the joint distributions are never built: one kernel
    call covers the distinct letters used, and the ``k`` per-letter
    factors are multiplied left to right from 1.0, the order in which
    :func:`revcomp.asymptotic.product_fidelity_matrix` multiplies them.
    """
    if len(xs) != len(xhats):
        raise DimensionMismatchError(
            f"sequences have different lengths {len(xs)} and {len(xhats)}"
        )
    if len(xs) == 0:
        raise ValidationError("sequences must have >= 1 symbols")
    letters = {x: i for i, x in enumerate(dict.fromkeys((*xs, *xhats)))}
    rows = channel.matrix[[channel.input.index(x) for x in letters]]
    fid = _fidelity_kernel(rows).tolist()
    result = 1.0
    for x, xhat in zip(xs, xhats):
        result *= fid[letters[x]][letters[xhat]]
    return result


def erasure_sequence_fidelity(eta: float, differences: int) -> float:
    """Closed-form reverse fidelity for erasure-channel sequences.

    Two sequences differing in ``differences`` positions have reverse
    fidelity ``eta ** (2 * differences)``: each differing position
    contributes one factor of ``eta**2`` (overlap on the erasure symbol
    only) and agreeing positions contribute 1.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"erasure probability must lie in [0, 1], got {eta!r}")
    if differences < 0:
        raise ValidationError(f"difference count must be >= 0, got {differences}")
    return float(eta) ** (2 * differences)


def erasure_epsilon_threshold(eta: float, differences: int = 1) -> float:
    """Smallest epsilon at which erasure sequences this far apart may merge.

    Merging needs ``eta**(2*differences) >= 1 - epsilon``, i.e.
    ``epsilon >= 1 - eta**(2*differences)``.  For ``eta = 0.5`` and one
    differing position this is 0.75; a figure of 0.85 sometimes quoted for
    that example does not satisfy the closed form and is reported by this
    library only as a flagged discrepancy.
    """
    return 1.0 - erasure_sequence_fidelity(eta, differences)


def erasure_max_mergeable_differences(eta: float, epsilon: float, limit: int) -> int:
    """Largest number of differing positions (up to ``limit``) still mergeable.

    Scans integers instead of inverting the power so boundary cases are
    decided by the same ``>=`` comparison the graph builder uses.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    if limit < 0:
        raise ValidationError(f"limit must be >= 0, got {limit}")
    best = 0
    for s in range(limit + 1):
        if erasure_sequence_fidelity(eta, s) >= 1.0 - epsilon:
            best = s
        else:
            break
    return best
