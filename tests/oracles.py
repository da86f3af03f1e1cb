"""Independent reference implementations the tests check the library against.

Deliberately written with different algorithms than the library: scalar
loops instead of vectorized kernels, exhaustive enumeration instead of
branch and bound, vertex-major first fit instead of one block at a time,
Kronecker powers instead of per-letter-pair multiplies, operator-basis
images instead of Kraus adjoints, one probe at a time with SVD nuclear
norms instead of stacked eigendecompositions, and the whole probe family at
once instead of chunk by chunk.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from revcomp import (
    Alphabet,
    ClassicalChannel,
    DensityMatrix,
    KrausChannel,
    ValidationError,
    probe_states,
)
from revcomp.quantum import _random_pure_states


def plain_fidelity(p, q) -> float:
    """Scalar evaluation of the squared Bhattacharyya overlap.

    Terms are added one at a time, left to right; the builtin ``sum`` is
    avoided because it adds floats with compensation from Python 3.12 on.
    """
    bc = 0.0
    for a, b in zip(p, q):
        bc += math.sqrt(a * b)
    return bc * bc


def joint_conditional(channel: ClassicalChannel, xs) -> list[float]:
    """Output distribution of an input sequence, built term by term."""
    rows = [channel.row(x) for x in xs]
    out = []
    for ys in itertools.product(range(channel.num_outputs), repeat=len(xs)):
        p = 1.0
        for row, y in zip(rows, ys):
            p *= float(row[y])
        out.append(p)
    return out


def joint_reverse_fidelity(channel: ClassicalChannel, xs, xhats) -> float:
    """Reverse fidelity through the explicit joint distributions."""
    return plain_fidelity(joint_conditional(channel, xs), joint_conditional(channel, xhats))


def adjacency_bitmasks(adjacency, self_loops: bool = False) -> list[int]:
    """Adjacency rows as integer bitmasks, each row read as a binary numeral
    whose bit ``j`` is column ``j``; the diagonal is cleared unless
    ``self_loops``, which keeps it as given."""
    adj = np.array(adjacency, dtype=bool)
    if not self_loops:
        np.fill_diagonal(adj, False)
    digits = np.where(adj[:, ::-1], ord("1"), ord("0")).astype(np.uint8)
    return [int(row.tobytes(), 2) for row in digits]


def greedy_coloring(masks: list[int]) -> list[int]:
    """Vertex-major first fit: each vertex in label order takes the first
    color class it has no complement edge to, otherwise it opens a new class."""
    assign = [-1] * len(masks)
    color_members: list[int] = []
    for v in range(len(masks)):
        for c, members in enumerate(color_members):
            if not (members & masks[v]):
                assign[v] = c
                color_members[c] |= 1 << v
                break
        else:
            assign[v] = len(color_members)
            color_members.append(1 << v)
    return assign


def first_fit_label_order(adjacency) -> tuple[tuple[int, ...], ...]:
    """Blocks of the first-fit clique cover in label order, vertex by vertex,
    as coloring of the complement; blocks ordered by their first member."""
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    full = (1 << n) - 1
    comp = [full & ~(m | (1 << v)) for v, m in enumerate(adjacency_bitmasks(adj))]
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(greedy_coloring(comp)):
        groups.setdefault(c, []).append(v)
    return tuple(sorted(tuple(g) for g in groups.values()))


def kron_chain(base: np.ndarray, k: int) -> np.ndarray:
    """``k``-fold Kronecker power of a letter matrix, from a 1x1 one, left to right."""
    fid = np.ones((1, 1))
    for _ in range(k):
        fid = np.kron(fid, base)
    return fid


def product_partition(letter_blocks, alphabet_size: int, k: int,
                      last_blocks=None) -> list[tuple[int, ...]]:
    """Blocks of the ``k``-fold product of a letter partition, as indices of
    lexicographically ordered length-``k`` sequences.  With ``last_blocks``,
    the last letter is partitioned by those blocks instead."""
    positions = [letter_blocks] * (k - 1) + [letter_blocks if last_blocks is None else last_blocks]
    blocks = []
    for choice in itertools.product(*positions):
        blocks.append(tuple(
            sum(x * alphabet_size ** (k - 1 - j) for j, x in enumerate(seq))
            for seq in itertools.product(*choice)
        ))
    return blocks


def cartesian_power_cover(letter_blocks, alphabet_size: int, k: int) -> list[tuple[int, ...]]:
    """A clique cover of the ``k``-th Cartesian power of a letter graph from
    a clique cover ``letter_blocks`` of it whose blocks all have the largest
    size ``omega`` but at most one singleton, as indices of lexicographically
    ordered length-``k`` sequences.  Each first-letter copy of the
    ``(k - 1)``-fold cover is kept but for its singleton ``u``, and the
    ``alphabet_size`` leftover sequences ``(a, u)`` are covered like the
    letters, so the cover again has at most one singleton."""
    if k == 1:
        return [tuple(b) for b in letter_blocks]
    omega = max(map(len, letter_blocks))
    shorter = cartesian_power_cover(letter_blocks, alphabet_size, k - 1)
    step = alphabet_size ** (k - 1)
    blocks = [tuple(a * step + x for x in b)
              for a in range(alphabet_size) for b in shorter if len(b) == omega]
    for (u,) in (b for b in shorter if len(b) < omega):
        blocks.extend(tuple(a * step + u for a in b) for b in letter_blocks)
    return blocks


def clique_classes(adjacency) -> list[tuple[int, ...]] | None:
    """The classes of a reflexive graph that is a disjoint union of cliques,
    each in label order and sorted by first member, else ``None``.  Such a
    graph is one where every edge joins two vertices of equal
    neighbourhood, checked edge by edge over neighbourhood sets."""
    adj = np.asarray(adjacency, dtype=bool)
    neighbourhoods = [frozenset(np.flatnonzero(row).tolist()) for row in adj]
    for u, near in enumerate(neighbourhoods):
        if any(neighbourhoods[v] != near for v in near):
            return None
    return sorted({tuple(sorted(near)) for near in neighbourhoods})


def min_clique_cover_brute(adjacency) -> int:
    """Exhaustive minimum clique cover over all set partitions.

    Restricted-growth enumeration with sound pruning: a branch is cut only
    when it already uses at least as many blocks as the best complete
    partition found, and the search stops once that best is the size of an
    independent set taken first fit in label order.  No block holds two
    vertices of an independent set, so its size is a lower bound and the
    minimum is exact.
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    independent: list[int] = []
    for v in range(n):
        if not any(adj[v, u] for u in independent):
            independent.append(v)
    best = n
    blocks: list[list[int]] = []

    def place(i: int) -> None:
        nonlocal best
        if len(blocks) >= best or best == len(independent):
            return
        if i == n:
            best = len(blocks)
            return
        for block in blocks:
            if all(adj[i, j] for j in block):
                block.append(i)
                place(i + 1)
                block.pop()
        if len(blocks) + 1 < best:
            blocks.append([i])
            place(i + 1)
            blocks.pop()

    place(0)
    return best


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of the operators on a ``dim`` space."""
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


def kraus_sum(channel, m: np.ndarray) -> np.ndarray:
    """Channel image of one operator, one Kraus term at a time."""
    out = np.zeros((channel.out_dim, channel.out_dim), dtype=complex)
    for k in channel.kraus:
        out += k @ m @ k.conj().T
    return out


def kernel_via_operator_images(channel) -> tuple[int, np.ndarray]:
    """Kernel as the common null space of the images of an operator basis.

    A vector is annihilated by every channel output exactly when it is
    annihilated by the image of every Hermitian basis operator, by
    linearity; the images are stacked and the null space taken by SVD.
    """
    stacked = np.vstack([kraus_sum(channel, b) for b in hermitian_basis(channel.in_dim)])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(svals > 1e-9))
    basis = vh[rank:].conj().T
    return basis.shape[1], basis


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = np.where(w < 1e-12, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def jozsa_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Squared nuclear norm of ``sqrt(rho) sqrt(sigma)``, by SVD, clamped to 1."""
    nuclear = float(np.sum(np.linalg.svd(_sqrt_psd(rho) @ _sqrt_psd(sigma), compute_uv=False)))
    return min(1.0, nuclear * nuclear)


def probe_fidelities(a, b, n_random: int, seed: int) -> list[float]:
    """Output fidelity of the two channels on every probe, one probe at a time."""
    probes = probe_states(a.in_dim, n_random, np.random.default_rng(seed))
    return [jozsa_fidelity(kraus_sum(a, p.matrix), kraus_sum(b, p.matrix)) for p in probes]


def random_channel(rng: np.random.Generator, n_in: int, n_out: int) -> ClassicalChannel:
    m = rng.random((n_in, n_out)) + 1e-3
    m = m / m.sum(axis=1, keepdims=True)
    return ClassicalChannel(Alphabet.numbered(n_in), Alphabet.numbered(n_out), m)


def random_adjacency(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Random symmetric reflexive adjacency matrix."""
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, 1)
    adj = adj | adj.T
    np.fill_diagonal(adj, True)
    return adj


def probe_family(dim: int, n_random: int, rng: np.random.Generator) -> np.ndarray:
    """Every probe vector of ``probe_states``, one per row, from the whole
    fixed family materialized at once and one draw of the random vectors."""
    i, j = np.triu_indices(dim, 1)
    pairs = np.zeros((len(i), 4, dim), dtype=complex)
    rows = np.arange(len(i))
    pairs[rows, :, i] = 1.0
    pairs[rows, :, j] = (1.0, -1.0, 1j, -1j)
    fixed = np.concatenate([np.eye(dim, dtype=complex), pairs.reshape(-1, dim) / np.sqrt(2.0)])
    g = rng.normal(size=(n_random, 2, dim))
    v = g[:, 0] + 1j * g[:, 1]
    return np.concatenate([fixed, v / np.linalg.norm(v, axis=1, keepdims=True)])


def tiled_output_factors(channel, factors: np.ndarray, tile_entries: int) -> np.ndarray:
    """Output factors of a ``(P, in_dim, r)`` factor stack with every Kraus
    operator taken in Kraus order, ``max(1, out_dim // r, tile_entries //
    (P r out_dim))`` per product, the running factor folded through the QR
    factor of its transpose whenever it is wider than ``out_dim``; a one-row
    running factor folds to its norm instead, the sum of its squared real
    and imaginary parts by ``einsum``, then ``sqrt``."""
    count, in_dim, width = factors.shape
    out_dim = channel.out_dim
    step = max(1, out_dim // width, tile_entries // (count * width * out_dim))
    rows = factors.swapaxes(1, 2).reshape(count * width, in_dim)
    out = None
    for start in range(0, len(channel.kraus), step):
        tile = channel.kraus[start:start + step]
        images = (rows @ tile.reshape(-1, in_dim).T).reshape(count, width, len(tile), -1)
        images = images.transpose(0, 3, 2, 1).reshape(count, out_dim, -1)
        out = images if out is None else np.concatenate([out, images], axis=2)
        if out.shape[2] > out_dim and out_dim == 1:
            squares = (np.einsum("pij,pij->p", out.real, out.real)
                       + np.einsum("pij,pij->p", out.imag, out.imag))
            out = np.sqrt(squares)[:, None, None].astype(complex)
        elif out.shape[2] > out_dim:
            out = np.linalg.qr(out.swapaxes(1, 2), mode="r").swapaxes(1, 2)
    return out


# Seeded random states and channels that the tests draw their inputs from.

def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized state vector, unitarily invariant in distribution."""
    return _random_pure_states(1, dim, rng)[0]


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
    return KrausChannel(q.reshape(num_ops, out_dim, in_dim))
