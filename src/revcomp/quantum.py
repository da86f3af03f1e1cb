"""Density matrices, Kraus channels, coarse grainings and vectorial kernels.

The quantum side mirrors the classical notions: a compressor channel plays
the role of a partition, its vectorial kernel (the subspace annihilated by
every output of the channel) plays the role of removed inputs, and
fidelity between channel outputs plays the role of reverse fidelity.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError, integer, unit_interval
from .partition import Partition

# Validation tolerances for states and channels.
HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
# Eigenvalues below this are treated as zero inside matrix square roots.
EIG_CLAMP = 1e-12
# Singular values below this count as zero when extracting kernels.
KERNEL_TOL = 1e-9


# Probes are drawn and pushed through the channels in tiles of as many as fit
# this many complex entries of scratch (see _probe_chunks), which bounds the
# memory of the probe loop whatever the probe count.
PROBE_TILE_ENTRIES = 1 << 15
# A product over Kraus operators takes as many operators as fit in this many
# complex entries (at least one, and for channel images at least an output's
# width), so a small stack takes one product and a large one bounded scratch.
IMAGE_TILE_ENTRIES = 1 << 16


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _check_finite(m: np.ndarray, what: str) -> None:
    """Raise naming the first entry of a ``(P, i, j)`` stack that is not finite;
    ``what`` names the matrix and is formatted with its index ``p``."""
    finite = np.isfinite(m)
    if not finite.all():
        p, i, j = (int(v) for v in np.argwhere(~finite)[0])
        raise ValidationError(f"{what.format(p)} entry ({i}, {j}) is "
                              f"{complex(m[p, i, j])!r}, not a finite number")


def _squared_norms(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm ``||M||_F^2`` of each matrix of a ``(P, i, j)`` stack."""
    return np.einsum("pij,pij->p", m.real, m.real) + np.einsum("pij,pij->p", m.imag, m.imag)


def _check_traces(traces: np.ndarray) -> None:
    worst = float(traces[np.argmax(np.abs(traces - 1.0))])
    if not abs(worst - 1.0) <= TRACE_TOL:
        raise ValidationError(f"density matrix has trace {worst!r}, outside {TRACE_TOL} of 1")


def _checked_states(m: np.ndarray) -> np.ndarray:
    """Validate a ``(P, d, d)`` stack of density matrices.

    Each must be finite, Hermitian, positive semidefinite and of unit trace
    within the module tolerances; the first violation found is raised.  A
    deviation that overflows to NaN is refused too, and the stack is halved
    before it is added to its adjoint, so symmetrizing finite entries cannot
    overflow.  Returns the stack symmetrized and trace normalized.
    """
    _check_finite(m, "density matrix")
    adj = _adjoint(m)
    herm_dev = float(np.max(np.abs(m - adj)))
    if not herm_dev <= HERMITIAN_TOL:
        raise ValidationError(f"density matrix deviates from Hermitian by {herm_dev:.3e}")
    half = m / 2.0
    m = half + _adjoint(half)
    low = float(np.min(np.linalg.eigvalsh(m)[:, 0]))
    if not low >= -PSD_TOL:
        raise ValidationError(f"density matrix has negative eigenvalue {low:.3e}")
    traces = np.real(np.trace(m, axis1=1, axis2=2))
    _check_traces(traces)
    return m / traces[:, None, None]


def _checked_factors(factors: np.ndarray) -> np.ndarray:
    """Validate a ``(P, d, r)`` stack of factors ``L`` of density matrices
    ``L L^dagger`` and return their traces.

    For finite ``L`` the Gram form ``L L^dagger`` is Hermitian and positive
    semidefinite by construction, and its trace is ``||L||_F^2``; the
    rounding a Hermiticity or eigenvalue check would see is about 1e-15 at
    unit trace, far inside the module tolerances.  So finite entries and a
    trace within ``TRACE_TOL`` of 1 are the whole density-matrix check, and
    a violation raises the messages of :func:`_checked_states`.
    """
    _check_finite(factors, "density matrix factor")
    traces = _squared_norms(factors)
    _check_traces(traces)
    return traces


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace complex matrix.

    Validated within the module tolerances, then symmetrized and trace
    normalized so later eigendecompositions start from clean data.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {m.shape}")
        m = _checked_states(m[None])[0]
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector: Sequence[complex]) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValidationError("pure state vector must be nonzero")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "DensityMatrix":
        dim = integer(dim, "dim", 1)
        if not 0 <= integer(index, "basis index") < dim:
            raise ValidationError(f"basis index {index} not in [0, {dim})")
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls.pure(v)

    @classmethod
    def diagonal(cls, masses: Sequence[float]) -> "DensityMatrix":
        return cls(np.diag(np.asarray(masses, dtype=complex)))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        dim = integer(dim, "dim", 1)
        return cls(np.eye(dim, dtype=complex) / dim)


def _walked_operators(given) -> np.ndarray:
    """Stack of operators that do not stack in one ``np.array`` call.

    Walks them in order and raises the first defect: an operator that is not
    a matrix, then one with an entry that is not finite, then one not of the
    first one's shape, then one with no entries.  Operators that have none,
    such as a generator's, are stacked.
    """
    ops = []
    for i, k in enumerate(given):
        k = np.asarray(k, dtype=complex)
        if k.ndim != 2:
            raise ValidationError(f"Kraus operator {i} must be a matrix, got shape {k.shape}")
        _check_finite(k[None], f"Kraus operator {i}")
        if ops and k.shape != ops[0].shape:
            raise DimensionMismatchError(
                f"Kraus operator {i} has shape {k.shape}, expected {ops[0].shape}")
        if not k.size:
            raise ValidationError(f"Kraus operator {i} has shape {k.shape}, with no entries")
        ops.append(k)
    if not ops:
        raise ValidationError("channel needs at least one Kraus operator")
    return np.stack(ops)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map in Kraus form.

    ``kraus`` is given as any sequence of equal-shape matrices and stored as
    one read-only ``(n, out_dim, in_dim)`` complex array, made by one
    ``np.array`` call.  Each operator must be a finite, nonempty matrix of
    the first one's shape, and the first defect in operator order is
    reported: when the call gives no nonempty 3-D stack,
    :func:`_walked_operators` names it.  Completeness (sum of K^dagger K
    equal to the identity) is validated within ``COMPLETENESS_TOL``.
    """

    kraus: np.ndarray

    def __post_init__(self) -> None:
        try:
            kraus = np.array(self.kraus, dtype=complex)
        except (ValueError, TypeError):  # operators of unequal shapes, or a generator
            kraus = None
        if kraus is not None and kraus.ndim == 3 and kraus.size:
            _check_finite(kraus, "Kraus operator {}")
        else:
            kraus = _walked_operators(self.kraus)
        # Stacked row-wise, the operators form one matrix whose Gram form is the
        # completeness sum.  Its rows that are exactly zero add exactly zero, so
        # when there are any, only the others are gathered and summed.  The sum
        # is taken one tile of rows at a time, so no conjugate copy of the
        # whole stack is made.
        _, out_dim, in_dim = kraus.shape
        rows = kraus.reshape(-1, in_dim)
        nonzero = rows.any(axis=1)
        if not nonzero.all():
            rows = rows[nonzero]
        step = out_dim * max(1, IMAGE_TILE_ENTRIES // kraus[0].size)
        total = sum(_adjoint(t) @ t for t in (rows[s:s + step] for s in range(0, len(rows), step)))
        dev = float(np.max(np.abs(total - np.eye(in_dim))))
        if not dev <= COMPLETENESS_TOL:  # NaN from overflow deviates too
            raise ValidationError(
                f"Kraus operators deviate from completeness by {dev:.3e}"
            )
        kraus.flags.writeable = False
        object.__setattr__(self, "kraus", kraus)

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[2]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[1]

    @cached_property
    def support_groups(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """The operators grouped by their set of nonzero rows.

        One ``(rows, ops)`` pair of ascending index tuples per distinct set
        of nonzero rows, in the order of each group's first operator.
        Operators with no nonzero entry are in no group, since they add
        exactly nothing to any output.  Built on first use, from one ``any``
        over the stack and the packed rows of each operator.
        """
        nonzero = self.kraus.any(axis=2)
        packed = np.packbits(nonzero, axis=1)
        keys, size = packed.tobytes(), packed.shape[1]
        groups: dict[bytes, list[int]] = {}
        for op in range(len(packed)):
            groups.setdefault(keys[op * size:(op + 1) * size], []).append(op)
        groups.pop(bytes(size), None)
        return tuple((tuple(np.flatnonzero(nonzero[ops[0]]).tolist()), tuple(ops))
                     for ops in groups.values())

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Linear action on an arbitrary operator, no state validation."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatchError(
                f"operator shape {m.shape} does not match channel input dimension {self.in_dim}"
            )
        return np.sum(self.kraus @ m @ _adjoint(self.kraus), axis=0)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Apply to a state; the output is revalidated as a density matrix."""
        return DensityMatrix(self.apply_matrix(rho.matrix))


def _fold(blocks, height: int) -> np.ndarray:
    """Factor of ``(P, height, c)`` blocks set side by side.

    Each block is appended to a running factor ``F``, and whenever ``F``
    then has more than ``height`` columns it is folded through the
    triangular QR factor ``R`` of its transpose: ``F = R^T Q^T`` with
    ``Q^T conj(Q)`` the identity, so ``R^T`` is a factor of ``F F^dagger``
    with at most ``height`` columns.  A one-row ``F`` folds to its norm
    ``||F||``, one column: ``F F^dagger`` is ``||F||^2``, and ``R^T`` is
    that norm times a phase.
    """
    out = None
    for block in blocks:
        out = block if out is None else np.concatenate([out, block], axis=2)
        if out.shape[2] > height:
            if height == 1:
                out = np.sqrt(_squared_norms(out))[:, None, None].astype(complex)
            else:
                out = np.linalg.qr(out.swapaxes(1, 2), mode="r").swapaxes(1, 2)
    return out


def _output_factors(channel: KrausChannel, factors: np.ndarray) -> np.ndarray:
    """Factors of the channel outputs of a ``(P, in_dim, r)`` factor stack.

    A factor ``L`` stands for the operator ``L L^dagger``, and a pure vector
    ``v`` is the case ``r = 1``.  The output of ``L L^dagger`` is
    ``sum_i (K_i L)(K_i L)^dagger``, so the images ``K_i L`` side by side are
    a factor of it.  Images on ``h`` output rows are formed one product per
    tile of ``max(1, h // r, IMAGE_TILE_ENTRIES // (P r h))`` operators and
    folded by :func:`_fold` to at most ``h`` columns.

    A single input (``P = 1``) takes every operator in Kraus order on all
    ``out_dim`` rows.  A stack of two or more inputs splits the operators by
    :attr:`KrausChannel.support_groups`; the all-zero operators, in no
    group, add exactly nothing and are left out.  A group with ``h <
    out_dim`` rows and more than ``h`` image columns has its images formed
    on its rows only, folded to ``h`` columns and placed back in its rows;
    the other groups' operators are taken in Kraus order on all rows.  One
    final fold to ``out_dim`` columns takes their images, then the folded
    groups, so a stack of pure inputs comes out :func:`_output_width`
    columns wide.  A single input builds no groups: their fixed cost (a
    product and a fold per group) would outweigh what they save.

    Either way ``r' <= out_dim``, so a channel applied after another is a
    second call, and the scratch memory is at most one tile or ``out_dim``
    columns of images beside the running factor, whatever the Kraus count.
    """
    count, in_dim, width = factors.shape
    out_dim = channel.out_dim
    kraus = channel.kraus
    rows = factors.swapaxes(1, 2).reshape(count * width, in_dim)

    def step(height: int) -> int:
        return max(1, height // width, IMAGE_TILE_ENTRIES // (count * width * height))

    def images(tiles, height: int):
        for tile in tiles:
            part = (rows @ tile.reshape(-1, in_dim).T).reshape(count, width, len(tile), height)
            yield part.transpose(0, 3, 2, 1).reshape(count, height, -1)

    def folded(support: tuple[int, ...], ops: tuple[int, ...]) -> np.ndarray:
        height, s = len(support), step(len(support))
        tiles = (kraus[np.ix_(ops[i:i + s], support)] for i in range(0, len(ops), s))
        part = _fold(images(tiles, height), height)
        out = np.zeros((count, out_dim, part.shape[2]), dtype=complex)
        out[:, support] = part
        return out

    s = step(out_dim)
    if count == 1:
        tiles, grouped = (kraus[i:i + s] for i in range(0, len(kraus), s)), []
    else:
        plain, grouped = [], []
        for support, ops in channel.support_groups:
            if len(support) < out_dim and width * len(ops) > len(support):
                grouped.append((support, ops))
            else:
                plain.extend(ops)
        plain.sort()
        tiles = (kraus[plain[i:i + s]] for i in range(0, len(plain), s))
    return _fold(chain(images(tiles, out_dim), (folded(*g) for g in grouped)), out_dim)


def _unit_outputs(channel: KrausChannel, factors: np.ndarray) -> np.ndarray:
    """:func:`_output_factors`, validated by :func:`_checked_factors` and
    scaled to unit trace."""
    out = _output_factors(channel, factors)
    out /= np.sqrt(_checked_factors(out))[:, None, None]
    return out


def compose_channels(first: KrausChannel, then: KrausChannel) -> KrausChannel:
    """Channel applying ``first`` and feeding its output into ``then``.

    Products that are exactly zero are left out: they add exactly zero to
    every output and to the completeness sum.  A product ``B A`` is not
    formed at all when no nonzero column of ``B`` meets a nonzero row of
    ``A``, since every term of it is then a zero times a finite number.
    Each operator of ``then`` is multiplied against the operators of
    ``first`` it meets at once, so at most ``len(first.kraus)`` products
    are held besides the kept ones.
    """
    if then.in_dim != first.out_dim:
        raise DimensionMismatchError(
            f"cannot compose: first output dimension {first.out_dim} "
            f"differs from second input dimension {then.in_dim}"
        )
    meets = then.kraus.any(axis=1) @ first.kraus.any(axis=2).T
    kept = []
    for b, row in zip(then.kraus, meets):
        products = b @ first.kraus[row]
        kept.extend(products[products.any(axis=(1, 2))])
    return KrausChannel(kept)


def _fidelities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fidelities of ``A A^dagger`` and ``B B^dagger``, pair by pair, for
    ``(P, d, ra)`` and ``(P, d, rb)`` factor stacks ``a`` and ``b``.

    Whatever factors are given, the fidelity is ``(tr |A^dagger B|)^2``
    (Jozsa 1994), the squared sum of the singular values of
    ``M = A^dagger B``.  A ``2 x 2`` ``M`` takes it in closed form: it has
    ``s_1^2 + s_2^2 = ||M||_F^2`` and ``s_1 s_2 = |det M|``, so the fidelity
    is ``||M||_F^2 + 2 |det M|``.  Any other ``M`` takes the square roots of
    the eigenvalues of its smaller Gram form, ``M M^dagger`` or
    ``M^dagger M``, from one batched ``eigvalsh``, with eigenvalues below
    ``EIG_CLAMP`` treated as zero.  Each result is clamped to at most 1.

    The closed form is exact up to rounding and clamps nothing, so it
    differs from the eigenvalue route only where a singular value of ``M``
    lies below ``sqrt(EIG_CLAMP) = 1e-6``, which that route drops, and
    there by at most ``2e-6 s_max``.  The route follows the shape of ``M``,
    not the states: padding a factor with zero columns leaves ``A A^dagger``
    as it is but can move ``M`` off ``2 x 2``, and so switch the clamp on.
    (``tr G + 2 sqrt(det G)`` of the Gram form ``G`` of a wider ``M`` would
    cancel to about 1e-8, the noise the clamp hides; ``|det M|`` of a
    ``2 x 2`` ``M`` is good to about 1e-16.)
    """
    m = _adjoint(a) @ b
    if m.shape[1:] == (2, 2):
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        return np.minimum(1.0, _squared_norms(m) + 2.0 * np.abs(det))
    gram = m @ _adjoint(m) if m.shape[1] <= m.shape[2] else _adjoint(m) @ m
    w = np.linalg.eigvalsh(gram)
    w = np.where(w < EIG_CLAMP, 0.0, w)
    val = np.sum(np.sqrt(w), axis=1)
    return np.minimum(1.0, val * val)


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """Factor ``V sqrt(W)`` of a Hermitian positive semidefinite matrix from
    its eigendecomposition, with eigenvalues below ``EIG_CLAMP`` as zero."""
    w, v = np.linalg.eigh(m)
    return v * np.sqrt(np.where(w < EIG_CLAMP, 0.0, w))


def quantum_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Fidelity of two density matrices, squared-trace-norm convention.

    Both states are factored by :func:`_psd_factor`, so eigenvalues below
    ``EIG_CLAMP`` count as zero, and :func:`_fidelities` returns the
    result clamped into [0, 1].  Its route follows the factor width, here
    the dimension: two-dimensional states take the unclamped ``2 x 2``
    closed form, so a singular value of ``A^dagger B`` below ``1e-6``
    counts there and is dropped at every other dimension.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(
            f"states have different dimensions {rho.dim} and {sigma.dim}"
        )
    return float(_fidelities(_psd_factor(rho.matrix)[None], _psd_factor(sigma.matrix)[None])[0])


def vector_kernel(channel: KrausChannel) -> tuple[int, np.ndarray]:
    """Common null space of the channel's outputs, in the output space.

    A vector ``v`` is annihilated by every output exactly when every Kraus
    adjoint kills it: ``v^dagger Phi(I) v`` is the sum of the squared norms
    of ``K_i^dagger v``, and ``Phi(rho) v`` is zero for all ``rho`` once
    each ``K_i^dagger v`` is.  The adjoints are stacked and the null space
    extracted by SVD with singular-value threshold ``KERNEL_TOL``; the SVD
    is taken of the triangular QR factor of the stack, which has the same
    singular values and right singular vectors but at most ``out_dim`` rows.
    Returns the kernel dimension and an orthonormal basis as columns.
    """
    stacked = _adjoint(channel.kraus).reshape(-1, channel.out_dim)
    _, svals, vh = np.linalg.svd(np.linalg.qr(stacked, mode="r"), full_matrices=True)
    rank = int(np.sum(svals > KERNEL_TOL))
    kernel = vh[rank:].conj().T
    return kernel.shape[1], kernel


@dataclass(frozen=True)
class CoarseGraining:
    """A compressor channel with its classical origin, if it has one.

    ``partition`` is the source partition for block coarse grainings and
    ``None`` for general compressors.  ``kernel`` holds the vectorial kernel
    of the channel as orthonormal columns, computed once by :meth:`of`.
    """

    channel: KrausChannel
    partition: Partition | None
    kernel: np.ndarray

    @classmethod
    def of(cls, channel: KrausChannel, partition: Partition | None = None) -> "CoarseGraining":
        """Wrap a compressor channel together with its kernel."""
        return cls(channel, partition, vector_kernel(channel)[1])

    @property
    def kernel_dim(self) -> int:
        return self.kernel.shape[1]

    @property
    def kind(self) -> str:
        return "general" if self.partition is None else "partition"


def make_coarse_graining(partition: Partition, in_dim: int,
                         embed_dim: int | None = None) -> CoarseGraining:
    """Channel collapsing each partition block to one basis state.

    One Kraus operator ``|z><x|`` per input index ``x``, where ``z`` is the
    index of the block containing ``x``.  By default the output space has
    one dimension per block; pass ``embed_dim`` (usually ``in_dim``) to
    embed the block labels back into a larger space, which is the
    convention under which compressibility is read off the kernel.
    """
    in_dim = integer(in_dim, "input dimension", 1)
    defect = partition.cover_defect(in_dim)
    if defect:
        raise ValidationError(f"partition {defect}")
    m = partition.num_blocks
    target = m if embed_dim is None else integer(embed_dim, "embedding dimension")
    if target < m:
        raise ValidationError(f"embedding dimension {target} is below the block count {m}")
    labels = [z for z, block in enumerate(partition.blocks) for _ in block]
    members = [x for block in partition.blocks for x in block]
    ops = np.zeros((in_dim, target, in_dim), dtype=complex)
    ops[np.arange(in_dim), labels, members] = 1.0
    return CoarseGraining.of(KrausChannel(ops), partition)


def partial_trace_coarse_graining(dim_z: int, dim_w: int) -> CoarseGraining:
    """Partial trace over the second factor of a two-part system.

    Kraus operators ``I_Z (x) <w|``; classically this is the partition of
    the product alphabet grouping all pairs with the same first component.
    """
    dim_z, dim_w = integer(dim_z, "dim_z", 1), integer(dim_w, "dim_w", 1)
    w, z = np.arange(dim_w)[:, None], np.arange(dim_z)
    ops = np.zeros((dim_w, dim_z, dim_z * dim_w), dtype=complex)
    ops[w, z, z * dim_w + w] = 1.0
    channel = KrausChannel(ops)
    blocks = tuple(tuple(z * dim_w + w for w in range(dim_w)) for z in range(dim_z))
    return CoarseGraining.of(channel, Partition(blocks))


def embed_density(rho: DensityMatrix, dim: int) -> DensityMatrix:
    """View a state inside a larger space, padding with zero rows/columns."""
    if integer(dim, "dim") < rho.dim:
        raise DimensionMismatchError(f"cannot embed a dim-{rho.dim} state into dim {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    m[: rho.dim, : rho.dim] = rho.matrix
    return DensityMatrix(m)


def make_quantum_erasure(in_dim: int, eta: float) -> KrausChannel:
    """Erasure channel: keep the state with probability ``1 - eta``, else
    replace it with a flag state orthogonal to the input space.

    Output dimension is ``in_dim + 1``; the flag occupies the extra level.
    """
    d = integer(in_dim, "input dimension", 1)
    unit_interval(eta, "erasure probability")
    ops = np.zeros((d + 1, d + 1, d), dtype=complex)
    ops[0, :d] = np.sqrt(1.0 - eta) * np.eye(d)
    ops[np.arange(1, d + 1), d, np.arange(d)] = np.sqrt(eta)
    return KrausChannel(ops)


def quantum_compressibility(compressor: KrausChannel | CoarseGraining) -> float:
    """Kernel dimension over ``in_dim - 1``, clamped into [0, 1], where
    ``in_dim`` is the compressor's input dimension.

    The quantum analogue of the removable-input fraction; a one-dimensional
    input space compresses trivially and returns 1.
    """
    if isinstance(compressor, KrausChannel):
        compressor = CoarseGraining.of(compressor)
    in_dim = compressor.channel.in_dim
    if in_dim == 1:
        return 1.0
    return min(1.0, compressor.kernel_dim / (in_dim - 1))


def erasure_output_fidelity(eta: float, input_fidelity: float) -> float:
    """Closed form for fidelity after an erasure channel.

    For any two states with fidelity ``F``, their erasure-channel images
    have fidelity ``((1 - eta) * sqrt(F) + eta) ** 2``: the kept parts
    overlap through ``sqrt(F)`` and the flag parts overlap perfectly.
    ``F`` may exceed 1 by ``1e-12`` of rounding, and is then read as 1.
    """
    unit_interval(eta, "erasure probability")
    unit_interval(input_fidelity, "fidelity", slack=1e-12)
    root = np.sqrt(min(1.0, input_fidelity))
    val = ((1.0 - eta) * root + eta) ** 2
    return float(min(1.0, val))


# ---------------------------------------------------------------------------
# randomized probes and the erasure compressibility criterion
# ---------------------------------------------------------------------------

def _random_pure_states(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``(count, dim)`` normalized vectors; each draws its real parts, then
    its imaginary parts, from ``rng``."""
    g = rng.normal(size=(count, 2, dim))
    v = g[:, 0] + 1j * g[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _output_width(channel: KrausChannel) -> int:
    """Columns of the output factor :func:`_output_factors` gives a stack of
    two or more pure inputs: a group of :attr:`KrausChannel.support_groups`
    gives the smaller of its row count and its operator count, and the
    factor is at most ``out_dim`` wide."""
    groups = channel.support_groups
    return min(channel.out_dim, sum(min(len(rows), len(ops)) for rows, ops in groups))


def _probe_chunks(dim: int, n_random: int, rng: np.random.Generator,
                  channels: Sequence[KrausChannel] = ()):
    """Unit vectors of the probe family, one per row, in probe order and in
    tiles of as many probes as fit ``PROBE_TILE_ENTRIES`` complex entries.

    A probe takes its ``dim`` entries, and for each of ``channels`` it goes
    through, ``out_dim`` times the channel's :func:`_output_width`: the
    erasure criterion's outputs are 2 columns wide, so a tile of it holds
    hundreds of probes, and a dense channel's far fewer.

    The fixed probes come first: the basis vectors, then for each basis pair
    ``i < j`` in row-major order the four vectors ``(e_i + c e_j) / sqrt(2)``,
    ``c`` in ``(1, -1, i, -i)``.  Each tile builds its own fixed probes from
    their indices and draws its random vectors from ``rng`` as it is made, so
    no probe is held outside its tile; consecutive draws from one generator
    equal a single draw of their total size.
    """
    n_random = integer(n_random, "n_random", 0)
    size = max(1, PROBE_TILE_ENTRIES // (dim + sum(c.out_dim * _output_width(c) for c in channels)))
    coef = np.array((1.0, -1.0, 1j, -1j)) / np.sqrt(2.0)
    # index of the first pair (i, i + 1) of each row i
    first = np.arange(dim) * (2 * dim - 1 - np.arange(dim)) // 2
    fixed = dim + 2 * dim * (dim - 1)
    total = fixed + n_random
    for start in range(0, total, size):
        index = np.arange(start, min(start + size, fixed))
        tile = np.zeros((min(size, total - start), dim), dtype=complex)
        head = tile[:len(index)]
        basis = index < dim
        head[basis, index[basis]] = 1.0
        pair, c = np.divmod(index[~basis] - dim, 4)
        i = np.searchsorted(first, pair, side="right") - 1
        rows = np.flatnonzero(~basis)
        head[rows, i] = coef[0]
        head[rows, pair - first[i] + i + 1] = coef[c]
        tile[len(head):] = _random_pure_states(len(tile) - len(head), dim, rng)
        yield tile


def probe_states(dim: int, n_random: int, rng: np.random.Generator) -> list[DensityMatrix]:
    """Deterministic probe family plus seeded random pure states.

    Basis states, the four standard two-level superpositions of every
    basis pair, then ``n_random`` random pure states.
    """
    dim = integer(dim, "dim", 1)
    return [DensityMatrix.pure(v) for chunk in _probe_chunks(dim, n_random, rng) for v in chunk]


@dataclass(frozen=True)
class ProbeResult:
    """Worst output fidelity found over a probe family.

    A sampled minimum: an upper bound on the true worst case, not a
    certificate of it.
    """

    min_fidelity: float
    witness: DensityMatrix
    probe_count: int
    seed: int


def channel_indistinguishability(a: KrausChannel, b: KrausChannel,
                                 n_random: int = 1000, seed: int = 0) -> ProbeResult:
    """Minimum output fidelity of two channels over a probe family.

    The probe family is the deterministic set from :func:`probe_states`
    plus ``n_random`` seeded random pure states, so identical arguments
    reproduce identical results.  Probes are drawn and go through both
    channels one tile at a time, as many as :func:`_probe_chunks` fits in
    ``PROBE_TILE_ENTRIES`` with both outputs.  A probe ``v`` is a factor of
    ``v v^dagger``, and both channels' outputs are formed as factors by
    :func:`_output_factors`, so no ``d x d`` output matrix is formed.  Every
    probe and both outputs are validated by :func:`_checked_factors` (a
    factor ``L`` makes ``L L^dagger`` Hermitian and positive semidefinite by
    construction, with trace ``||L||_F^2``), and the outputs are scaled to
    unit trace.  The fidelities of a tile then take one :func:`_fidelities`
    call and no matrix square root: a closed form for the erasure
    criterion's two-column outputs, one ``eigvalsh`` for any other width.  The
    witness is the first probe, in probe order, that attains the minimum.
    """
    if a.in_dim != b.in_dim or a.out_dim != b.out_dim:
        raise DimensionMismatchError(
            f"channels have different shapes ({a.in_dim}->{a.out_dim} vs {b.in_dim}->{b.out_dim})"
        )
    seed = integer(seed, "seed", 0)
    best, witness, count = np.inf, None, 0
    for v in _probe_chunks(a.in_dim, n_random, np.random.default_rng(seed), (a, b)):
        v = v[:, :, None]
        _checked_factors(v)
        fids = _fidelities(_unit_outputs(a, v), _unit_outputs(b, v))
        low = int(np.argmin(fids))
        if fids[low] < best:
            best, witness = float(fids[low]), v[low, :, 0].copy()
        count += len(v)
    return ProbeResult(min_fidelity=best, witness=DensityMatrix.pure(witness),
                       probe_count=count, seed=seed)


def erasure_compressor_suite(dim: int) -> list[CoarseGraining]:
    """Compressors with nontrivial kernels used by the erasure criterion.

    Block coarse grainings embedded back into the input space, plus one
    genuinely non-classical compressor (project onto the lower levels and
    reset the top level), so the converse direction is exercised beyond
    partition-shaped maps.
    """
    if integer(dim, "dim") < 2:
        raise ValidationError(f"compressor suite needs dimension >= 2, got {dim}")
    suite = [make_coarse_graining(Partition.single_block(dim), dim, embed_dim=dim)]
    if dim >= 3:
        half = dim // 2
        halves = Partition((tuple(range(half)), tuple(range(half, dim))))
        suite.append(make_coarse_graining(halves, dim, embed_dim=dim))
        first_pair = Partition(((0, 1),) + tuple((i,) for i in range(2, dim)))
        suite.append(make_coarse_graining(first_pair, dim, embed_dim=dim))
    project = np.eye(dim, dtype=complex)
    project[dim - 1, dim - 1] = 0.0
    reset = np.zeros((dim, dim), dtype=complex)
    reset[0, dim - 1] = 1.0
    general = KrausChannel((project, reset))
    suite.append(CoarseGraining.of(general))
    return suite


@dataclass(frozen=True)
class CompressorRejection:
    """Evidence that one compressor fails the fidelity requirement."""

    kind: str
    kernel_dim: int
    witness_fidelity: float


@dataclass(frozen=True)
class ErasureVerdict:
    """Outcome of the erasure compressibility criterion at one (eta, epsilon).

    Compressible means ``eta**2 >= 1 - epsilon`` (non-strict, including the
    boundary).  In the compressible case the full coarse graining is
    certified against probe states; otherwise each suite compressor is
    rejected through a kernel-vector witness whose post-erasure fidelity
    equals ``eta**2``.
    """

    dim: int
    eta: float
    epsilon: float
    threshold: float
    compressible: bool
    gamma: float
    seed: int
    probe_count: int
    min_fidelity: float
    witness: DensityMatrix
    rejections: tuple[CompressorRejection, ...] = field(default=())


def verify_erasure_theorem(dim: int, eta: float, epsilon: float,
                           seed: int = 0, n_random: int = 200) -> ErasureVerdict:
    """Run the erasure compressibility criterion and collect the evidence."""
    integer(n_random, "n_random", 0)
    seed, dim = integer(seed, "seed", 0), integer(dim, "dim")
    if dim < 2:
        raise ValidationError(f"criterion needs input dimension >= 2, got {dim}")
    unit_interval(epsilon, "epsilon")
    erasure = make_quantum_erasure(dim, eta)
    threshold = eta * eta
    compressible = threshold >= 1.0 - epsilon
    if compressible:
        full = make_coarse_graining(Partition.single_block(dim), dim, embed_dim=dim)
        composed = compose_channels(full.channel, erasure)
        probes = channel_indistinguishability(erasure, composed, n_random=n_random, seed=seed)
        return ErasureVerdict(
            dim=dim, eta=float(eta), epsilon=float(epsilon), threshold=threshold,
            compressible=True, gamma=quantum_compressibility(full), seed=seed,
            probe_count=probes.probe_count, min_fidelity=probes.min_fidelity,
            witness=probes.witness,
        )
    # One kernel witness per compressor, each compressed by its own channel;
    # the erasure then takes all witnesses, and all compressed witnesses, in
    # one stack each.  Zero columns pad the compressed factors to one width.
    suite = erasure_compressor_suite(dim)
    v = np.stack([comp.kernel[:, :1] for comp in suite])
    compressed = [_unit_outputs(comp.channel, v[i:i + 1]) for i, comp in enumerate(suite)]
    padded = np.zeros((len(suite), dim, max(c.shape[2] for c in compressed)), dtype=complex)
    for i, c in enumerate(compressed):
        padded[i, :, :c.shape[2]] = c[0]
    fids = _fidelities(_unit_outputs(erasure, v), _unit_outputs(erasure, padded))
    low = int(np.argmin(fids))
    return ErasureVerdict(
        dim=dim, eta=float(eta), epsilon=float(epsilon), threshold=threshold,
        compressible=False, gamma=0.0, seed=seed, probe_count=0,
        min_fidelity=float(fids[low]), witness=DensityMatrix.pure(v[low, :, 0]),
        rejections=tuple(CompressorRejection(kind=comp.kind, kernel_dim=comp.kernel_dim,
                                             witness_fidelity=float(f))
                         for comp, f in zip(suite, fids)),
    )
