"""Density matrices, Kraus channels, coarse grainings and vectorial kernels.

The quantum side mirrors the classical notions: a compressor channel plays
the role of a partition, its vectorial kernel (the subspace annihilated by
every output of the channel) plays the role of removed inputs, and
fidelity between channel outputs plays the role of reverse fidelity.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError
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
        if not np.isfinite(m).all():
            i, j = (int(v) for v in np.argwhere(~np.isfinite(m))[0])
            raise ValidationError(f"density matrix entry ({i}, {j}) is {complex(m[i, j])!r}, "
                                  "not a finite number")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > HERMITIAN_TOL:
            raise ValidationError(f"density matrix deviates from Hermitian by {herm_dev:.3e}")
        m = (m + m.conj().T) / 2.0
        eigs = np.linalg.eigvalsh(m)
        if float(eigs[0]) < -PSD_TOL:
            raise ValidationError(f"density matrix has negative eigenvalue {float(eigs[0]):.3e}")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"density matrix has trace {tr!r}, outside {TRACE_TOL} of 1")
        m = m / tr
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
        if not 0 <= index < dim:
            raise ValidationError(f"basis index {index} not in [0, {dim})")
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls.pure(v)

    @classmethod
    def diagonal(cls, masses: Sequence[float]) -> "DensityMatrix":
        return cls(np.diag(np.asarray(masses, dtype=complex)))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map in Kraus form.

    Completeness (sum of K^dagger K equal to the identity) is validated
    within ``COMPLETENESS_TOL``.
    """

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.kraus) == 0:
            raise ValidationError("channel needs at least one Kraus operator")
        ops = []
        shape = None
        for i, k in enumerate(self.kraus):
            k = np.asarray(k, dtype=complex)
            if k.ndim != 2:
                raise ValidationError(f"Kraus operator {i} must be a matrix, got shape {k.shape}")
            if not np.isfinite(k).all():
                r, c = (int(v) for v in np.argwhere(~np.isfinite(k))[0])
                raise ValidationError(f"Kraus operator {i} entry ({r}, {c}) is "
                                      f"{complex(k[r, c])!r}, not a finite number")
            if shape is None:
                shape = k.shape
            elif k.shape != shape:
                raise DimensionMismatchError(
                    f"Kraus operator {i} has shape {k.shape}, expected {shape}"
                )
            k = k.copy()
            k.flags.writeable = False
            ops.append(k)
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.max(np.abs(total - np.eye(shape[1]))))
        if dev > COMPLETENESS_TOL:
            raise ValidationError(
                f"Kraus operators deviate from completeness by {dev:.3e}"
            )
        object.__setattr__(self, "kraus", tuple(ops))

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Linear action on an arbitrary operator, no state validation."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatchError(
                f"operator shape {m.shape} does not match channel input dimension {self.in_dim}"
            )
        out = np.zeros((self.out_dim, self.out_dim), dtype=complex)
        for k in self.kraus:
            out += k @ m @ k.conj().T
        return out

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Apply to a state; the output is revalidated as a density matrix."""
        return DensityMatrix(self.apply_matrix(rho.matrix))


def compose_channels(first: KrausChannel, then: KrausChannel) -> KrausChannel:
    """Channel applying ``first`` and feeding its output into ``then``."""
    if then.in_dim != first.out_dim:
        raise DimensionMismatchError(
            f"cannot compose: first output dimension {first.out_dim} "
            f"differs from second input dimension {then.in_dim}"
        )
    return KrausChannel(tuple(b @ a for b in then.kraus for a in first.kraus))


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Matrix square root via Hermitian eigendecomposition with clamping."""
    w, v = np.linalg.eigh(m)
    w = np.where(w < EIG_CLAMP, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def quantum_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Fidelity of two density matrices, squared-trace-norm convention.

    Computed as the squared trace of the square root of
    ``sqrt(rho) sigma sqrt(rho)``, with eigenvalues below ``EIG_CLAMP``
    treated as zero and the result clamped into [0, 1].
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(
            f"states have different dimensions {rho.dim} and {sigma.dim}"
        )
    s = _sqrt_psd(rho.matrix)
    inner = s @ sigma.matrix @ s
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    w = np.where(w < EIG_CLAMP, 0.0, w)
    val = float(np.sum(np.sqrt(w)))
    return min(1.0, val * val)


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of the operators on a ``dim`` space."""
    if dim < 1:
        raise ValidationError(f"dimension must be >= 1, got {dim}")
    basis = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = inv_sqrt2
            e[j, i] = inv_sqrt2
            basis.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1j * inv_sqrt2
            e[j, i] = -1j * inv_sqrt2
            basis.append(e)
    return basis


def vector_kernel(channel: KrausChannel) -> tuple[int, np.ndarray]:
    """Common null space of the channel's outputs, in the output space.

    A vector is in the kernel when every output state annihilates it;
    by linearity it is enough to check the images of a Hermitian operator
    basis of the input space.  The images are stacked and the null space
    extracted by SVD with singular-value threshold ``KERNEL_TOL``.
    Returns the kernel dimension and an orthonormal basis as columns.
    """
    images = [channel.apply_matrix(b) for b in hermitian_basis(channel.in_dim)]
    stacked = np.vstack(images)
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(svals > KERNEL_TOL))
    kernel = vh[rank:].conj().T
    return kernel.shape[1], kernel


@dataclass(frozen=True)
class CoarseGraining:
    """A compressor channel with its classical origin, if it has one.

    ``partition`` is the source partition for block coarse grainings and
    ``None`` for general compressors.  ``kernel_dim`` caches the computed
    vectorial-kernel dimension.
    """

    channel: KrausChannel
    partition: Partition | None
    kernel_dim: int

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
    if not partition.covers(in_dim):
        raise ValidationError(
            f"partition covers {partition.size} elements, expected exactly {in_dim}"
        )
    m = partition.num_blocks
    target = m if embed_dim is None else embed_dim
    if target < m:
        raise ValidationError(f"embedding dimension {target} is below the block count {m}")
    ops = []
    for z, block in enumerate(partition.blocks):
        for x in block:
            k = np.zeros((target, in_dim), dtype=complex)
            k[z, x] = 1.0
            ops.append(k)
    channel = KrausChannel(tuple(ops))
    return CoarseGraining(channel, partition, vector_kernel(channel)[0])


def partial_trace_coarse_graining(dim_z: int, dim_w: int) -> CoarseGraining:
    """Partial trace over the second factor of a two-part system.

    Kraus operators ``I_Z (x) <w|``; classically this is the partition of
    the product alphabet grouping all pairs with the same first component.
    """
    if dim_z < 1 or dim_w < 1:
        raise ValidationError(f"factor dimensions must be >= 1, got {dim_z} and {dim_w}")
    eye = np.eye(dim_z, dtype=complex)
    ops = []
    for w in range(dim_w):
        bra = np.zeros((1, dim_w), dtype=complex)
        bra[0, w] = 1.0
        ops.append(np.kron(eye, bra))
    channel = KrausChannel(tuple(ops))
    blocks = tuple(tuple(z * dim_w + w for w in range(dim_w)) for z in range(dim_z))
    return CoarseGraining(channel, Partition(blocks), vector_kernel(channel)[0])


def embed_density(rho: DensityMatrix, dim: int) -> DensityMatrix:
    """View a state inside a larger space, padding with zero rows/columns."""
    if dim < rho.dim:
        raise DimensionMismatchError(f"cannot embed a dim-{rho.dim} state into dim {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    m[: rho.dim, : rho.dim] = rho.matrix
    return DensityMatrix(m)


def make_quantum_erasure(in_dim: int, eta: float) -> KrausChannel:
    """Erasure channel: keep the state with probability ``1 - eta``, else
    replace it with a flag state orthogonal to the input space.

    Output dimension is ``in_dim + 1``; the flag occupies the extra level.
    """
    if in_dim < 1:
        raise ValidationError(f"input dimension must be >= 1, got {in_dim}")
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"erasure probability must lie in [0, 1], got {eta!r}")
    d = in_dim
    keep = np.zeros((d + 1, d), dtype=complex)
    keep[:d, :d] = np.eye(d)
    ops = [np.sqrt(1.0 - eta) * keep]
    for x in range(d):
        k = np.zeros((d + 1, d), dtype=complex)
        k[d, x] = np.sqrt(eta)
        ops.append(k)
    return KrausChannel(tuple(ops))


def quantum_compressibility(compressor: KrausChannel | CoarseGraining, in_dim: int) -> float:
    """Kernel dimension over ``in_dim - 1``, clamped into [0, 1].

    The quantum analogue of the removable-input fraction; a one-dimensional
    input space compresses trivially and returns 1.
    """
    if in_dim < 1:
        raise ValidationError(f"input dimension must be >= 1, got {in_dim}")
    if isinstance(compressor, CoarseGraining):
        kernel_dim = compressor.kernel_dim
    else:
        kernel_dim, _ = vector_kernel(compressor)
    if in_dim == 1:
        return 1.0
    return min(1.0, kernel_dim / (in_dim - 1))


def erasure_output_fidelity(eta: float, input_fidelity: float) -> float:
    """Closed form for fidelity after an erasure channel.

    For any two states with fidelity ``F``, their erasure-channel images
    have fidelity ``((1 - eta) * sqrt(F) + eta) ** 2``: the kept parts
    overlap through ``sqrt(F)`` and the flag parts overlap perfectly.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"erasure probability must lie in [0, 1], got {eta!r}")
    if not 0.0 <= input_fidelity <= 1.0 + 1e-12:
        raise ValidationError(f"fidelity must lie in [0, 1], got {input_fidelity!r}")
    root = np.sqrt(min(1.0, input_fidelity))
    val = ((1.0 - eta) * root + eta) ** 2
    return float(min(1.0, val))


# ---------------------------------------------------------------------------
# randomized probes and the erasure compressibility criterion
# ---------------------------------------------------------------------------

def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized state vector, unitarily invariant in distribution."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.real(np.trace(m)))


def random_kraus_channel(in_dim: int, out_dim: int, num_ops: int,
                         rng: np.random.Generator) -> KrausChannel:
    """Random CPTP map: slices of a random isometry into the dilation space."""
    if out_dim * num_ops < in_dim:
        raise ValidationError(
            f"need out_dim * num_ops >= in_dim for an isometry, got {out_dim}*{num_ops} < {in_dim}"
        )
    g = rng.normal(size=(out_dim * num_ops, in_dim)) + 1j * rng.normal(size=(out_dim * num_ops, in_dim))
    q, _ = np.linalg.qr(g)
    return KrausChannel(tuple(q[i * out_dim:(i + 1) * out_dim] for i in range(num_ops)))


def probe_states(dim: int, n_random: int, rng: np.random.Generator) -> list[DensityMatrix]:
    """Deterministic probe family plus seeded random pure states.

    Basis states, the four standard two-level superpositions of every
    basis pair, then ``n_random`` random pure states.
    """
    probes = [DensityMatrix.basis_state(dim, i) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for amp in (1.0, -1.0, 1j, -1j):
                v = np.zeros(dim, dtype=complex)
                v[i] = 1.0
                v[j] = amp
                probes.append(DensityMatrix.pure(v))
    for _ in range(n_random):
        probes.append(DensityMatrix.pure(random_pure_state(dim, rng)))
    return probes


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
    reproduce identical results.
    """
    if a.in_dim != b.in_dim or a.out_dim != b.out_dim:
        raise DimensionMismatchError(
            f"channels have different shapes ({a.in_dim}->{a.out_dim} vs {b.in_dim}->{b.out_dim})"
        )
    rng = np.random.default_rng(seed)
    probes = probe_states(a.in_dim, n_random, rng)
    best = 2.0
    witness = probes[0]
    for p in probes:
        f = quantum_fidelity(a.apply(p), b.apply(p))
        if f < best:
            best = f
            witness = p
    return ProbeResult(min_fidelity=best, witness=witness,
                       probe_count=len(probes), seed=seed)


def erasure_compressor_suite(dim: int) -> list[CoarseGraining]:
    """Compressors with nontrivial kernels used by the erasure criterion.

    Block coarse grainings embedded back into the input space, plus one
    genuinely non-classical compressor (project onto the lower levels and
    reset the top level), so the converse direction is exercised beyond
    partition-shaped maps.
    """
    if dim < 2:
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
    suite.append(CoarseGraining(general, None, vector_kernel(general)[0]))
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
    if dim < 2:
        raise ValidationError(f"criterion needs input dimension >= 2, got {dim}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    erasure = make_quantum_erasure(dim, eta)
    threshold = eta * eta
    compressible = threshold >= 1.0 - epsilon
    if compressible:
        full = make_coarse_graining(Partition.single_block(dim), dim, embed_dim=dim)
        composed = compose_channels(full.channel, erasure)
        probes = channel_indistinguishability(erasure, composed, n_random=n_random, seed=seed)
        return ErasureVerdict(
            dim=dim, eta=float(eta), epsilon=float(epsilon), threshold=threshold,
            compressible=True, gamma=quantum_compressibility(full, dim), seed=seed,
            probe_count=probes.probe_count, min_fidelity=probes.min_fidelity,
            witness=probes.witness,
        )
    rejections = []
    worst = 2.0
    witness = None
    for comp in erasure_compressor_suite(dim):
        _, kernel = vector_kernel(comp.channel)
        state = DensityMatrix.pure(kernel[:, 0])
        measured = quantum_fidelity(erasure.apply(state),
                                    erasure.apply(comp.channel.apply(state)))
        rejections.append(CompressorRejection(kind=comp.kind, kernel_dim=comp.kernel_dim,
                                              witness_fidelity=measured))
        if measured < worst:
            worst = measured
            witness = state
    return ErasureVerdict(
        dim=dim, eta=float(eta), epsilon=float(epsilon), threshold=threshold,
        compressible=False, gamma=0.0, seed=seed, probe_count=0,
        min_fidelity=worst, witness=witness, rejections=tuple(rejections),
    )
