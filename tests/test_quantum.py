import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcomp import (
    Alphabet,
    CoarseGraining,
    DensityMatrix,
    DimensionMismatchError,
    Distribution,
    KrausChannel,
    Partition,
    ValidationError,
    channel_indistinguishability,
    compose_channels,
    embed_density,
    erasure_compressor_suite,
    erasure_output_fidelity,
    fidelity,
    make_coarse_graining,
    make_quantum_erasure,
    partial_trace_coarse_graining,
    probe_states,
    quantum_compressibility,
    quantum_fidelity,
    vector_kernel,
    verify_erasure_theorem,
)

from revcomp import quantum

from oracles import (
    hermitian_basis,
    jozsa_fidelity,
    kernel_via_operator_images,
    kraus_sum,
    plain_fidelity,
    probe_family,
    probe_fidelities,
    random_density_matrix,
    random_kraus_channel,
    random_pure_state,
    tiled_output_factors,
)


class TestDensityMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_small_drift_cleaned_up(self):
        m = np.array([[0.5, 1e-10 * 1j], [0.0, 0.5]], dtype=complex)
        rho = DensityMatrix(m)
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) == 0.0
        assert np.real(np.trace(rho.matrix)) == pytest.approx(1.0, abs=1e-15)

    def test_matrix_read_only(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.7

    def test_pure_normalizes(self):
        rho = DensityMatrix.pure([2.0, 0.0])
        assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValidationError):
            DensityMatrix.pure([0.0, 0.0])

    def test_basis_state(self):
        rho = DensityMatrix.basis_state(3, 1)
        assert rho.matrix[1, 1] == 1.0
        with pytest.raises(ValidationError):
            DensityMatrix.basis_state(3, 3)

    def test_diagonal_and_mixed(self):
        rho = DensityMatrix.diagonal([0.25, 0.75])
        assert rho.matrix[1, 1] == pytest.approx(0.75, abs=1e-15)
        assert DensityMatrix.maximally_mixed(4).matrix[0, 0] == pytest.approx(0.25, abs=1e-15)


class TestKrausChannel:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            KrausChannel(())

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="operator 1"):
            KrausChannel((np.eye(2), np.eye(3)))

    def test_rejects_incomplete(self):
        with pytest.raises(ValidationError, match="completeness"):
            KrausChannel((0.5 * np.eye(2),))

    def test_dims(self):
        ch = make_quantum_erasure(3, 0.5)
        assert ch.in_dim == 3
        assert ch.out_dim == 4

    def test_apply_matrix_shape_check(self):
        ch = make_quantum_erasure(2, 0.5)
        with pytest.raises(DimensionMismatchError):
            ch.apply_matrix(np.eye(3))

    def test_apply_preserves_trace(self):
        rng = np.random.default_rng(30)
        ch = random_kraus_channel(3, 4, 2, rng)
        rho = random_density_matrix(3, rng)
        out = ch.apply(rho)
        assert np.real(np.trace(out.matrix)) == pytest.approx(1.0, abs=1e-12)

    def test_compose_dim_check(self):
        a = make_quantum_erasure(2, 0.5)
        with pytest.raises(DimensionMismatchError):
            compose_channels(a, a)

    def test_compose_acts_sequentially(self):
        rng = np.random.default_rng(31)
        a = random_kraus_channel(2, 3, 2, rng)
        b = random_kraus_channel(3, 2, 2, rng)
        rho = random_density_matrix(2, rng)
        direct = b.apply(a.apply(rho)).matrix
        composed = compose_channels(a, b).apply(rho).matrix
        assert np.max(np.abs(direct - composed)) < 1e-12

    def test_compose_keeps_every_nonzero_product_in_order(self):
        rng = np.random.default_rng(37)
        full = make_coarse_graining(Partition(((0, 2), (1,), (3,))), 4, embed_dim=4).channel
        cases = [(random_kraus_channel(2, 3, 2, rng), random_kraus_channel(3, 2, 3, rng)),
                 (full, make_quantum_erasure(4, 0.7)),
                 (make_quantum_erasure(3, 0.5), random_kraus_channel(4, 4, 2, rng))]
        for first, then in cases:
            want = [b @ a for b in then.kraus for a in first.kraus if (b @ a).any()]
            got = compose_channels(first, then).kraus
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_compose_holds_one_row_of_products_at_a_time(self):
        # all 48 * 49 products at once would take about 88 MB
        erasure = make_quantum_erasure(48, 0.9)
        full = make_coarse_graining(Partition.single_block(48), 48, embed_dim=48).channel
        tracemalloc.start()
        try:
            composed = compose_channels(full, erasure)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(composed.kraus) == 2 * 48
        assert peak < 32 * 2 ** 20

    def test_operators_are_one_read_only_array(self):
        ops = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        ch = KrausChannel(ops)
        assert isinstance(ch.kraus, np.ndarray) and ch.kraus.shape == (2, 2, 2)
        assert not ch.kraus.flags.writeable
        assert ops.flags.writeable and not np.shares_memory(ops, ch.kraus)
        assert np.array_equal(KrausChannel(list(ops)).kraus, ch.kraus)

    def test_a_stacked_array_is_checked_as_its_operators(self):
        stack = np.array(random_kraus_channel(3, 4, 5, np.random.default_rng(39)).kraus)
        assert np.array_equal(KrausChannel(stack).kraus, KrausChannel(list(stack)).kraus)
        bad = stack.copy()
        bad[2, 1, 0] = np.nan
        # zero rows pad the operators: the completeness sum skips them
        padded = np.concatenate([stack * 1.1, np.zeros((5, 4, 3))], axis=1)
        cases = [(bad, r"Kraus operator 2 entry \(1, 0\)"),
                 (stack * 1.1, "deviate from completeness by 2.100e-01"),
                 (padded, "deviate from completeness by 2.100e-01"),
                 (np.zeros((0, 2, 2)), "at least one Kraus operator"),
                 (np.zeros((2, 0, 3)),
                  re.escape("Kraus operator 0 has shape (0, 3), with no entries"))]
        for given, message in cases:
            for form in (given, list(given)):
                with pytest.raises(ValidationError, match=message):
                    KrausChannel(form)

    def test_first_defect_in_operator_order_is_reported(self):
        bad = np.eye(2, dtype=complex)
        bad[1, 0] = np.nan
        with pytest.raises(ValidationError, match=r"Kraus operator 1 entry \(1, 0\)"):
            KrausChannel((np.eye(2), bad, np.eye(3)))
        with pytest.raises(DimensionMismatchError, match="operator 1 has shape"):
            KrausChannel((np.eye(2), np.eye(3), bad))
        with pytest.raises(ValidationError, match="operator 1 must be a matrix"):
            KrausChannel((np.eye(2), np.ones(2), bad))
        wide = np.eye(3, dtype=complex)
        wide[2, 1] = np.inf
        with pytest.raises(ValidationError, match=r"Kraus operator 1 entry \(2, 1\)"):
            KrausChannel((np.eye(2), wide))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_zero_size_operator_is_rejected(self, shape):
        with pytest.raises(ValidationError, match=re.escape(f"Kraus operator 0 has shape {shape}")):
            KrausChannel([np.zeros(shape)])
        with pytest.raises(DimensionMismatchError, match=re.escape(f"operator 1 has shape {shape}")):
            KrausChannel([np.eye(3), np.zeros(shape)])

    @pytest.mark.parametrize("tile", [1, 12, 40, 10 ** 6])
    def test_completeness_is_summed_tile_by_tile(self, monkeypatch, tile):
        # 7 operators of 2 x 3: one operator per tile up to the whole stack in one
        monkeypatch.setattr(quantum, "IMAGE_TILE_ENTRIES", tile)
        ch = random_kraus_channel(3, 2, 7, np.random.default_rng(38))
        assert np.array_equal(KrausChannel(ch.kraus).kraus, ch.kraus)
        short = ch.kraus.copy()
        short[6] *= 0.999
        with pytest.raises(ValidationError, match="completeness"):
            KrausChannel(short)

    def test_random_channel_needs_isometry_room(self):
        rng = np.random.default_rng(32)
        with pytest.raises(ValidationError):
            random_kraus_channel(5, 2, 2, rng)


class TestQuantumFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(33)
        for dim in (2, 3, 5):
            rho = random_density_matrix(dim, rng)
            assert quantum_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = DensityMatrix.basis_state(2, 0)
        b = DensityMatrix.basis_state(2, 1)
        assert quantum_fidelity(a, b) <= 1e-12

    def test_pure_state_overlap_formula(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            u = random_pure_state(dim, rng)
            v = random_pure_state(dim, rng)
            got = quantum_fidelity(DensityMatrix.pure(u), DensityMatrix.pure(v))
            want = abs(np.vdot(u, v)) ** 2
            assert got == pytest.approx(want, abs=1e-10)

    def test_diagonal_states_match_classical(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            p = rng.random(dim) + 1e-3
            q = rng.random(dim) + 1e-3
            p, q = p / p.sum(), q / q.sum()
            got = quantum_fidelity(DensityMatrix.diagonal(p), DensityMatrix.diagonal(q))
            alpha = Alphabet.numbered(dim)
            want = fidelity(Distribution(alpha, p), Distribution(alpha, q))
            assert got == pytest.approx(want, abs=1e-10)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            rho = random_density_matrix(dim, rng)
            sigma = random_density_matrix(dim, rng)
            f = quantum_fidelity(rho, sigma)
            assert 0.0 <= f <= 1.0
            assert f == pytest.approx(quantum_fidelity(sigma, rho), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            quantum_fidelity(DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3))


class TestHermitianBasis:
    def test_spans_with_orthonormal_elements(self):
        for dim in (2, 3):
            basis = hermitian_basis(dim)
            assert len(basis) == dim * dim
            for i, e in enumerate(basis):
                assert np.max(np.abs(e - e.conj().T)) < 1e-15
                for j, f in enumerate(basis):
                    inner = np.trace(e.conj().T @ f)
                    want = 1.0 if i == j else 0.0
                    assert abs(inner - want) < 1e-12


class TestVectorKernel:
    def test_matches_operator_image_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            in_dim = int(rng.integers(2, 7))
            out_dim = int(rng.integers(1, 7))
            num = int(rng.integers(1, 4))
            if out_dim * num < in_dim:
                continue
            ch = random_kraus_channel(in_dim, out_dim, num, rng)
            dim_a, basis_a = vector_kernel(ch)
            dim_b, basis_b = kernel_via_operator_images(ch)
            assert dim_a == dim_b
            if dim_a:
                pa = basis_a @ basis_a.conj().T
                pb = basis_b @ basis_b.conj().T
                assert np.max(np.abs(pa - pb)) < 1e-8

    def test_erasure_kernel_depends_on_eta(self):
        assert vector_kernel(make_quantum_erasure(3, 0.5))[0] == 0
        assert vector_kernel(make_quantum_erasure(3, 0.0))[0] == 1
        assert vector_kernel(make_quantum_erasure(3, 1.0))[0] == 3

    def test_kernel_vectors_are_annihilated(self):
        comp = make_coarse_graining(Partition.single_block(3), 3, embed_dim=3)
        dim_k, basis = vector_kernel(comp.channel)
        assert dim_k == 2
        rho = DensityMatrix.maximally_mixed(3)
        out = comp.channel.apply_matrix(rho.matrix)
        for col in range(dim_k):
            assert np.max(np.abs(out @ basis[:, col])) < 1e-12


def _rank_deficient_factors(rng, count, dim, width, rank):
    """``(count, dim, width)`` complex factors of rank ``rank``."""
    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return gauss(count, dim, rank) @ gauss(count, rank, width)


def _unit_trace(factors):
    traces = np.sum(np.abs(factors) ** 2, axis=(1, 2))
    return factors / np.sqrt(traces)[:, None, None]


@st.composite
def factor_stacks(draw):
    """A ``(P, d, r)`` factor stack of ranks 1..min(d, r), with r below, at
    and above d, one factor scaled to a trace near 1 and at most one entry
    set to ``nan``, ``inf`` or a value whose square overflows."""
    dim = draw(st.integers(1, 6))
    width = draw(st.integers(1, dim + 2))
    rank = draw(st.integers(1, min(dim, width)))
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = _unit_trace(_rank_deficient_factors(rng, count, dim, width, rank))
    tol = quantum.TRACE_TOL
    trace = draw(st.sampled_from([1.0, 1.0 - tol / 2, 1.0 + tol / 2, 1.0 - 2 * tol, 1.0 + 2 * tol]))
    factors[draw(st.integers(0, count - 1))] *= np.sqrt(trace)
    defect = draw(st.sampled_from([None, "nan", "inf", "overflow"]))
    where = None
    if defect is not None:
        where = (draw(st.integers(0, count - 1)), draw(st.integers(0, dim - 1)),
                 draw(st.integers(0, width - 1)))
        factors[where] = {"nan": complex(np.nan, 0.0), "inf": complex(0.0, np.inf),
                          "overflow": 1e200}[defect]
    return factors, trace, defect, where


def _rejection(check, arg):
    try:
        check(arg)
    except ValidationError as exc:
        return str(exc)
    return None


class TestCheckedFactors:
    @settings(max_examples=300, deadline=None)
    @given(factor_stacks())
    def test_accepts_exactly_what_the_state_check_accepts(self, case):
        factors, trace, defect, where = case
        with np.errstate(over="ignore", invalid="ignore"):
            states = factors @ quantum._adjoint(factors)
        got = _rejection(quantum._checked_factors, factors)
        want = _rejection(quantum._checked_states, states)
        assert (got is None) == (want is None)
        if defect in ("nan", "inf"):
            _, i, j = where
            assert got.startswith(f"density matrix factor entry ({i}, {j}) is ")
            assert got.endswith("not a finite number")
            assert "not a finite number" in want
        elif defect == "overflow":
            assert got.startswith("density matrix has trace inf")
            assert "not a finite number" in want
        elif abs(trace - 1.0) > quantum.TRACE_TOL:
            assert got.startswith("density matrix has trace ")
            assert want.startswith("density matrix has trace ")
        else:
            traces = quantum._checked_factors(factors)
            assert np.allclose(traces, np.real(np.trace(states, axis1=1, axis2=2)),
                               rtol=0.0, atol=1e-14)


class TestFactorFidelities:
    @pytest.mark.parametrize("width", [2, 5, 8])
    def test_matches_jozsa_oracle_on_rank_deficient_states(self, width):
        # widths below, at and above the dimension 5; ranks 1-4 of 5
        rng = np.random.default_rng(60 + width)
        dim, count = 5, 40
        ranks = rng.integers(1, min(width, dim - 1) + 1, size=2)
        factors = _unit_trace(_rank_deficient_factors(rng, count, dim, width, ranks[0]))
        g = _unit_trace(_rank_deficient_factors(rng, count, dim, dim, ranks[1]))
        sigma = quantum._checked_states(g @ quantum._adjoint(g))
        got = quantum._fidelities(factors, g)
        for p in range(count):
            rho = factors[p] @ factors[p].conj().T
            assert got[p] == pytest.approx(jozsa_fidelity(rho, sigma[p]), abs=1e-9)

    def test_reduced_factors_match_the_kraus_sum(self):
        rng = np.random.default_rng(64)
        for in_dim, out_dim, num_ops in ((3, 2, 7), (4, 4, 9), (5, 3, 4), (2, 3, 2)):
            a = random_kraus_channel(in_dim, out_dim, num_ops, rng)
            v = np.stack([random_pure_state(in_dim, rng) for _ in range(20)])
            factors = quantum._output_factors(a, v[:, :, None])
            assert factors.shape == (20, out_dim, min(num_ops, out_dim))
            rho = np.stack([kraus_sum(a, np.outer(u, u.conj())) for u in v])
            assert np.max(np.abs(factors @ quantum._adjoint(factors) - rho)) < 1e-12
            b = random_kraus_channel(in_dim, out_dim, 2, rng)
            sigma = np.stack([kraus_sum(b, np.outer(u, u.conj())) for u in v])
            got = quantum._fidelities(factors, quantum._output_factors(b, v[:, :, None]))
            for p in range(20):
                assert got[p] == pytest.approx(jozsa_fidelity(rho[p], sigma[p]), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_a_second_call_applies_a_second_channel(self, in_dim, mid_dim, out_dim,
                                                    ops_a, ops_b, seed):
        rng = np.random.default_rng(seed)
        a = random_kraus_channel(in_dim, mid_dim, max(ops_a, -(-in_dim // mid_dim)), rng)
        b = random_kraus_channel(mid_dim, out_dim, max(ops_b, -(-mid_dim // out_dim)), rng)
        v = np.stack([random_pure_state(in_dim, rng) for _ in range(3)])
        twice = quantum._output_factors(b, quantum._output_factors(a, v[:, :, None]))
        assert twice.shape[:2] == (3, out_dim)
        for p in range(3):
            want = kraus_sum(b, kraus_sum(a, np.outer(v[p], v[p].conj())))
            assert np.max(np.abs(twice[p] @ twice[p].conj().T - want)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 9), st.integers(1, 8),
           st.integers(1, 4), st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
    def test_any_tile_size_gives_a_narrow_factor_of_the_output(self, in_dim, out_dim, num_ops,
                                                                width, count, tile, seed):
        # tiles from one operator per product up to the whole stack; input
        # widths below, at and above the output dimension
        rng = np.random.default_rng(seed)
        ch = random_kraus_channel(in_dim, out_dim, max(num_ops, -(-in_dim // out_dim)), rng)
        factors = rng.normal(size=(count, in_dim, width)) + 1j * rng.normal(size=(count, in_dim, width))
        factors /= np.linalg.norm(factors, axis=(1, 2), keepdims=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quantum, "IMAGE_TILE_ENTRIES", tile)
            out = quantum._output_factors(ch, factors)
        assert out.shape[:2] == (count, out_dim) and out.shape[2] <= out_dim
        for p in range(count):
            want = kraus_sum(ch, factors[p] @ factors[p].conj().T)
            assert np.max(np.abs(out[p] @ out[p].conj().T - want)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_symmetric_and_matches_the_oracle_at_any_widths(self, dim, data):
        # widths below, at and above the dimension, on both sides
        widths = [data.draw(st.integers(1, dim + 2)) for _ in range(2)]
        ranks = [data.draw(st.integers(1, min(dim, w))) for w in widths]
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        a, b = (_unit_trace(_rank_deficient_factors(rng, 4, dim, w, r))
                for w, r in zip(widths, ranks))
        ab, ba = quantum._fidelities(a, b), quantum._fidelities(b, a)
        assert np.max(np.abs(ab - ba)) <= 1e-12
        for p in range(4):
            rho, sigma = (f[p] @ f[p].conj().T for f in (a, b))
            assert ab[p] == pytest.approx(jozsa_fidelity(rho, sigma), abs=1e-9)


@st.composite
def narrow_factor_pairs(draw):
    """Factor stacks ``a`` and ``b`` whose ``A^dagger B`` is ``1 x r``
    (eigenvalue route), ``r x 1`` (eigenvalue route) or ``2 x 2`` (closed
    form) with chosen singular values: zero (a rank-deficient pair), near
    ``sqrt(EIG_CLAMP) = 1e-6``, or of order one."""
    shape = draw(st.sampled_from(["1 x r", "r x 1", "2 x 2"]))
    rows = 1 if shape != "2 x 2" else 2
    cols = draw(st.integers(1, 6)) if shape != "2 x 2" else 2
    dim = draw(st.integers(rows, 6))
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gauss(*size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    def singular_value():
        kind = draw(st.sampled_from(["zero", "near 1e-6", "order one"]))
        if kind == "zero":
            return 0.0
        if kind == "near 1e-6":
            return 1e-6 * 10 ** draw(st.floats(-1, 1))
        return draw(st.floats(1e-3, 1.0))

    svals = sorted((singular_value() for _ in range(min(rows, cols))), reverse=True)
    a, b = [], []
    for _ in range(count):
        # the first ``rows`` columns of q span a; b's part outside them adds
        # nothing to A^dagger B = N, whose singular values are svals
        q = np.linalg.qr(gauss(dim, dim))[0]
        u = np.linalg.qr(gauss(rows, rows))[0]
        v = np.linalg.qr(gauss(cols, cols))[0]
        n = u[:, :len(svals)] @ np.diag(svals) @ v[:, :len(svals)].conj().T
        a.append(q[:, :rows])
        b.append(q[:, :rows] @ n + q[:, rows:] @ gauss(dim - rows, cols) / 3.0)
    a, b = np.stack(a), np.stack(b)
    return (b, a) if shape == "r x 1" else (a, b)


def _random_partition(rng, n):
    blocks = {}
    for x, z in enumerate(rng.integers(0, n, size=n)):
        blocks.setdefault(int(z), []).append(x)
    return Partition(tuple(tuple(b) for b in blocks.values()))


def _masked_channel(rng, in_dim, out_dim, num_ops):
    """Complete channel whose operators keep the rows of one of three shared
    random row sets, so operators share supports, some supports differ and
    an empty row set makes an all-zero operator."""
    supports = rng.random((3, out_dim)) < 0.5
    supports[0, rng.integers(out_dim)] = True
    ops, gram = [], np.zeros((in_dim, in_dim), dtype=complex)
    while len(ops) < num_ops or np.linalg.eigvalsh(gram)[0] < 1e-3:
        g = rng.normal(size=(out_dim, in_dim)) + 1j * rng.normal(size=(out_dim, in_dim))
        g *= supports[rng.integers(3)][:, None]
        ops.append(g)
        gram += g.conj().T @ g
    w, v = np.linalg.eigh(gram)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return KrausChannel([g @ inv_root for g in ops])


@st.composite
def row_sparse_channels(draw):
    """Coarse grainings, erasures (with a zero operator at eta 0 and 1),
    composed channels and random channels with zeroed rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    in_dim = draw(st.integers(1, 5))
    eta = draw(st.sampled_from([0.0, 1.0, float(rng.random())]))
    kind = draw(st.sampled_from(["coarse", "erasure", "composed", "masked"]))
    if kind == "coarse":
        part = _random_partition(rng, in_dim)
        embed = draw(st.one_of(st.none(), st.integers(part.num_blocks, in_dim + 2)))
        return make_coarse_graining(part, in_dim, embed_dim=embed).channel
    if kind == "erasure":
        return make_quantum_erasure(in_dim, eta)
    if kind == "masked":
        return _masked_channel(rng, in_dim, draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    first = draw(st.sampled_from([
        make_coarse_graining(Partition.single_block(in_dim), in_dim, embed_dim=in_dim).channel,
        make_coarse_graining(_random_partition(rng, in_dim), in_dim, embed_dim=in_dim).channel,
        _masked_channel(rng, in_dim, in_dim, draw(st.integers(1, 4)))]))
    then = draw(st.sampled_from([make_quantum_erasure(in_dim, eta),
                                 _masked_channel(rng, in_dim, draw(st.integers(1, 5)), 3)]))
    return compose_channels(first, then)


class TestNarrowFactors:
    @settings(max_examples=300, deadline=None)
    @given(narrow_factor_pairs())
    def test_match_the_unclamped_nuclear_norm(self, pair):
        a, b = pair
        m = quantum._adjoint(a) @ b
        assert min(m.shape[1:]) == 1 or m.shape[1:] == (2, 2)
        nuclear = np.linalg.svd(m, compute_uv=False).sum(axis=1)
        want = np.minimum(1.0, nuclear * nuclear)
        ab, ba = quantum._fidelities(a, b), quantum._fidelities(b, a)
        assert np.max(np.abs(ab - want)) <= 1e-12
        assert np.max(np.abs(ab - ba)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_one_row_fold_has_the_gram_form_of_the_qr_fold(self, widths, count, seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.normal(size=(count, 1, w)) + 1j * rng.normal(size=(count, 1, w))
                  for w in widths]
        got = quantum._fold(iter(blocks), 1)
        whole = np.concatenate(blocks, axis=2)
        qr = np.linalg.qr(whole.swapaxes(1, 2), mode="r").swapaxes(1, 2)
        assert got.shape == (count, 1, 1) and got.dtype == complex
        gram = got @ quantum._adjoint(got) - qr @ quantum._adjoint(qr)
        assert np.max(np.abs(gram)) <= 1e-12


class TestSupportGroups:
    def test_groups_share_rows_and_leave_out_zero_operators(self):
        assert make_quantum_erasure(3, 0.5).support_groups == (((0, 1, 2), (0,)), ((3,), (1, 2, 3)))
        assert make_quantum_erasure(3, 1.0).support_groups == (((3,), (1, 2, 3)),)
        assert make_quantum_erasure(3, 0.0).support_groups == (((0, 1, 2), (0,)),)
        part = Partition(((0, 2), (1,)))
        assert make_coarse_graining(part, 3, embed_dim=4).channel.support_groups == (
            ((0,), (0, 1)), ((1,), (2,)))

    def test_groups_are_built_once_on_first_use(self):
        ch = make_quantum_erasure(4, 0.5)
        # a single input takes every operator in Kraus order: no groups
        pure = np.eye(4, dtype=complex)[:, :, None]
        assert quantum._output_factors(ch, pure[:1]).shape == (1, 5, 5)
        two = np.eye(4, dtype=complex).reshape(4, 2, 2).swapaxes(0, 1)
        assert quantum._output_factors(ch, two[:1]).shape == (1, 5, 5)
        assert "support_groups" not in vars(ch)
        # the first stack builds them: the kept state, and the flag folded to
        # one column
        assert quantum._output_factors(ch, pure).shape == (4, 5, 2)
        groups = vars(ch)["support_groups"]
        assert quantum._output_factors(ch, two).shape == (2, 5, 3)
        assert vars(ch)["support_groups"] is groups

    @settings(max_examples=200, deadline=None)
    @given(row_sparse_channels(), st.integers(2, 5), st.integers(1, 400),
           st.integers(0, 2 ** 32 - 1))
    def test_stacks_of_pure_inputs_come_out_output_width_wide(self, ch, count, tile, seed):
        # the width that sizes every probe tile is the width the factor gets
        v = quantum._random_pure_states(count, ch.in_dim, np.random.default_rng(seed))[:, :, None]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quantum, "IMAGE_TILE_ENTRIES", tile)
            out = quantum._output_factors(ch, v)
        assert out.shape == (count, ch.out_dim, quantum._output_width(ch))

    @settings(max_examples=200, deadline=None)
    @given(row_sparse_channels(), st.data())
    def test_grouped_fold_gives_a_narrow_factor_of_the_output(self, ch, data):
        # tiles from one operator per product up to the whole stack; input
        # widths below, at and above the output dimension
        width = data.draw(st.integers(1, ch.out_dim + 2))
        count = data.draw(st.integers(1, 4))
        tile = data.draw(st.integers(1, 400))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        factors = (rng.normal(size=(count, ch.in_dim, width))
                   + 1j * rng.normal(size=(count, ch.in_dim, width)))
        factors /= np.linalg.norm(factors, axis=(1, 2), keepdims=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quantum, "IMAGE_TILE_ENTRIES", tile)
            out = quantum._output_factors(ch, factors)
        assert out.shape[:2] == (count, ch.out_dim) and out.shape[2] <= ch.out_dim
        for p in range(count):
            want = kraus_sum(ch, factors[p] @ factors[p].conj().T)
            assert np.max(np.abs(out[p] @ out[p].conj().T - want)) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 5, 12])
    @pytest.mark.parametrize("eta", [0.3, 0.9])
    def test_erasure_criterion_outputs_of_pure_probes_are_two_columns_wide(self, dim, eta):
        # the full coarse graining followed by the erasure has 2d images of a
        # pure probe, which fold to the kept state and the flag
        erasure = make_quantum_erasure(dim, eta)
        full = make_coarse_graining(Partition.single_block(dim), dim, embed_dim=dim)
        composed = compose_channels(full.channel, erasure)
        v = np.concatenate(list(quantum._probe_chunks(dim, 50, np.random.default_rng(dim))))
        v = v[:, :, None]
        assert quantum._output_factors(composed, v).shape == (len(v), dim + 1, 2)
        # the erasure's own d + 1 images fold to the same two columns
        assert quantum._output_factors(erasure, v).shape == (len(v), dim + 1, 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quantum, "IMAGE_TILE_ENTRIES", 1)
            assert quantum._output_factors(erasure, v).shape == (len(v), dim + 1, 2)
            assert quantum._output_factors(composed, v).shape == (len(v), dim + 1, 2)

    @pytest.mark.parametrize("dim", [2, 5, 12])
    def test_groups_that_would_not_narrow_take_the_tile_path(self, dim):
        # through the erasure, a d-column input keeps d columns in the kept
        # rows and folds to 1 in the flag row: d + 1, no narrower than every
        # image folded together, and still a factor of the output
        erasure = make_quantum_erasure(dim, 0.6)
        rng = np.random.default_rng(dim)
        factors = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        got = quantum._output_factors(erasure, factors)
        assert got.shape == (3, dim + 1, dim + 1)
        for p in range(3):
            want = kraus_sum(erasure, factors[p] @ factors[p].conj().T)
            assert np.max(np.abs(got[p] @ got[p].conj().T - want)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 9), st.integers(1, 8),
           st.integers(1, 4), st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
    def test_dense_channels_keep_the_bytes_of_the_tiled_fold(self, in_dim, out_dim, num_ops,
                                                             width, count, tile, seed):
        rng = np.random.default_rng(seed)
        ch = random_kraus_channel(in_dim, out_dim, max(num_ops, -(-in_dim // out_dim)), rng)
        assert len(ch.support_groups) == 1
        factors = rng.normal(size=(count, in_dim, width)) + 1j * rng.normal(size=(count, in_dim, width))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quantum, "IMAGE_TILE_ENTRIES", tile)
            got = quantum._output_factors(ch, factors)
        want = tiled_output_factors(ch, factors, tile)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestCoarseGraining:
    @pytest.mark.parametrize("blocks, message", [
        (((0, 1), (5,)), "partition member 5 is outside range(3)"),
        (((0, 1),), "partition element 2 of range(3) is in no block"),
    ])
    def test_partition_off_the_inputs_is_named(self, blocks, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            make_coarse_graining(Partition(blocks), 3, embed_dim=3)

    def test_kraus_are_block_projectors(self):
        part = Partition(((0, 1), (2,)))
        comp = make_coarse_graining(part, 3)
        assert comp.kind == "partition"
        assert comp.channel.out_dim == 2
        expected = [np.zeros((2, 3)) for _ in range(3)]
        expected[0][0, 0] = 1.0
        expected[1][0, 1] = 1.0
        expected[2][1, 2] = 1.0
        for k, e in zip(comp.channel.kraus, expected):
            assert np.max(np.abs(k - e)) == 0.0

    def test_unembedded_has_no_kernel(self):
        comp = make_coarse_graining(Partition.single_block(4), 4)
        assert comp.channel.out_dim == 1
        assert comp.kernel_dim == 0

    def test_embedded_kernel_counts_removed_dimensions(self):
        full = make_coarse_graining(Partition.single_block(4), 4, embed_dim=4)
        assert full.kernel_dim == 3
        assert quantum_compressibility(full) == 1.0
        halves = make_coarse_graining(Partition(((0, 1), (2, 3))), 4, embed_dim=4)
        assert halves.kernel_dim == 2
        assert quantum_compressibility(halves) == 2 / 3
        pair = make_coarse_graining(Partition(((0, 1), (2,), (3,))), 4, embed_dim=4)
        assert pair.kernel_dim == 1
        assert quantum_compressibility(pair) == 1 / 3

    def test_compressibility_reads_the_compressor_input_dimension(self):
        full = make_coarse_graining(Partition.single_block(4), 4, embed_dim=4)
        assert quantum_compressibility(full) == quantum_compressibility(full.channel) == 1.0
        pair = make_coarse_graining(Partition(((0, 1), (2,), (3,), (4,))), 5, embed_dim=5)
        assert quantum_compressibility(pair) == quantum_compressibility(pair.channel) == 1 / 4

    def test_kernel_is_kept_with_the_channel(self):
        comp = make_coarse_graining(Partition(((0, 1, 2),)), 3, embed_dim=3)
        dim, basis = vector_kernel(comp.channel)
        assert comp.kernel_dim == dim == 2
        assert np.array_equal(comp.kernel, basis)
        general = CoarseGraining.of(make_quantum_erasure(2, 1.0))
        assert general.kind == "general" and general.kernel_dim == 2

    def test_must_cover_input(self):
        with pytest.raises(ValidationError):
            make_coarse_graining(Partition(((0, 1),)), 3)
        with pytest.raises(ValidationError):
            make_coarse_graining(Partition(((0, 1), (2,))), 3, embed_dim=1)

    @pytest.mark.parametrize("in_dim", [0, -2])
    def test_input_dimension_below_one_is_rejected(self, in_dim):
        with pytest.raises(ValidationError, match=f"^input dimension must be >= 1, got {in_dim}$"):
            make_coarse_graining(Partition(((0,),)), in_dim)

    def test_partial_trace_of_bell_state(self):
        bell = DensityMatrix.pure([1.0, 0.0, 0.0, 1.0])
        pt = partial_trace_coarse_graining(2, 2)
        assert pt.partition.blocks == ((0, 1), (2, 3))
        assert pt.kernel_dim == 0
        reduced = pt.channel.apply(bell)
        assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-12

    def test_partial_trace_of_product_state(self):
        rng = np.random.default_rng(38)
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(3, rng)
        joint = DensityMatrix(np.kron(rho.matrix, sigma.matrix))
        reduced = partial_trace_coarse_graining(2, 3).channel.apply(joint)
        assert np.max(np.abs(reduced.matrix - rho.matrix)) < 1e-12

    def test_partial_trace_dim_validation(self):
        with pytest.raises(ValidationError):
            partial_trace_coarse_graining(0, 2)


class TestEmbedding:
    def test_embed_pads_with_zeros(self):
        rho = DensityMatrix.maximally_mixed(2)
        big = embed_density(rho, 4)
        assert big.dim == 4
        assert np.max(np.abs(big.matrix[:2, :2] - rho.matrix)) == 0.0
        assert np.max(np.abs(big.matrix[2:, :])) == 0.0

    def test_embed_cannot_shrink(self):
        with pytest.raises(DimensionMismatchError):
            embed_density(DensityMatrix.maximally_mixed(3), 2)


class TestQuantumErasure:
    def test_action_on_basis_state(self):
        ch = make_quantum_erasure(3, 0.3)
        out = ch.apply(DensityMatrix.basis_state(3, 1)).matrix
        want = np.zeros((4, 4))
        want[1, 1] = 0.7
        want[3, 3] = 0.3
        assert np.max(np.abs(out - want)) < 1e-15

    def test_coherences_scale_with_keep_probability(self):
        ch = make_quantum_erasure(2, 0.25)
        plus = DensityMatrix.pure([1.0, 1.0])
        out = ch.apply(plus).matrix
        assert out[0, 1] == pytest.approx(0.75 * 0.5, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_quantum_erasure(0, 0.5)
        with pytest.raises(ValidationError):
            make_quantum_erasure(2, -0.2)

    def test_compressibility_of_raw_erasure(self):
        ch = make_quantum_erasure(2, 0.5)
        assert quantum_compressibility(ch) == 0.0

    def test_one_dimensional_input_trivially_compresses(self):
        ch = make_quantum_erasure(1, 0.5)
        assert quantum_compressibility(ch) == 1.0


class TestErasureOutputFidelity:
    def test_known_values(self):
        assert erasure_output_fidelity(0.5, 0.0) == 0.25
        assert erasure_output_fidelity(0.5, 1.0) == 1.0
        assert erasure_output_fidelity(0.0, 0.36) == pytest.approx(0.36, abs=1e-15)
        assert erasure_output_fidelity(1.0, 0.0) == 1.0

    def test_matches_measured_fidelity(self):
        rng = np.random.default_rng(39)
        for _ in range(60):
            dim = int(rng.integers(2, 7))
            eta = float(rng.uniform(0.0, 1.0))
            rho = random_density_matrix(dim, rng)
            lam = random_kraus_channel(dim, dim, 2, rng)
            sigma = lam.apply(rho)
            erasure = make_quantum_erasure(dim, eta)
            measured = quantum_fidelity(erasure.apply(rho), erasure.apply(sigma))
            want = erasure_output_fidelity(eta, quantum_fidelity(rho, sigma))
            assert measured == pytest.approx(want, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValidationError):
            erasure_output_fidelity(1.5, 0.5)
        with pytest.raises(ValidationError):
            erasure_output_fidelity(0.5, 1.5)


class TestProbes:
    def test_probe_family_size(self):
        rng = np.random.default_rng(40)
        probes = probe_states(3, 7, rng)
        assert len(probes) == 3 + 4 * 3 + 7

    def test_identical_channels_probe_near_one(self):
        ch = make_quantum_erasure(2, 0.5)
        result = channel_indistinguishability(ch, ch, n_random=20, seed=1)
        assert result.min_fidelity >= 1.0 - 1e-9
        assert result.probe_count == 2 + 4 + 20

    def test_probe_minimum_hits_erasure_floor(self):
        erasure = make_quantum_erasure(2, 0.5)
        full = make_coarse_graining(Partition.single_block(2), 2, embed_dim=2)
        composed = compose_channels(full.channel, erasure)
        result = channel_indistinguishability(erasure, composed, n_random=50, seed=2)
        assert result.min_fidelity == pytest.approx(0.25, abs=1e-9)

    def test_probe_determinism(self):
        erasure = make_quantum_erasure(3, 0.7)
        full = make_coarse_graining(Partition.single_block(3), 3, embed_dim=3)
        composed = compose_channels(full.channel, erasure)
        r1 = channel_indistinguishability(erasure, composed, n_random=30, seed=5)
        r2 = channel_indistinguishability(erasure, composed, n_random=30, seed=5)
        assert r1.min_fidelity == r2.min_fidelity
        assert np.array_equal(r1.witness.matrix, r2.witness.matrix)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            channel_indistinguishability(make_quantum_erasure(2, 0.5), make_quantum_erasure(3, 0.5))

    def test_matches_per_probe_oracle(self):
        rng = np.random.default_rng(42)
        for case in range(25):
            in_dim = int(rng.integers(2, 7))
            out_dim = int(rng.integers(2, 7))
            nums = [int(rng.integers(-(-in_dim // out_dim), 5)) for _ in range(2)]
            a, b = (random_kraus_channel(in_dim, out_dim, n, rng) for n in nums)
            n_random = int(rng.integers(0, 301))
            result = channel_indistinguishability(a, b, n_random=n_random, seed=case)
            want = probe_fidelities(a, b, n_random, case)
            assert result.probe_count == in_dim + 2 * in_dim * (in_dim - 1) + n_random
            assert len(want) == result.probe_count
            assert result.min_fidelity == pytest.approx(min(want), abs=1e-9)
            w = result.witness.matrix
            assert jozsa_fidelity(kraus_sum(a, w), kraus_sum(b, w)) == pytest.approx(
                result.min_fidelity, abs=1e-9)

    def test_probe_loop_memory_is_bounded(self):
        many = random_kraus_channel(16, 16, 64, np.random.default_rng(47))
        few = make_coarse_graining(Partition.single_block(16), 16, embed_dim=16).channel
        # 1024 operators: the images of one chunk would take 32 MiB at once
        most = random_kraus_channel(16, 16, 1024, np.random.default_rng(49))
        runs = [lambda: verify_erasure_theorem(16, 0.9, 0.3, n_random=2000),
                lambda: channel_indistinguishability(many, few, n_random=2000),
                lambda: channel_indistinguishability(few, many, n_random=2000),
                lambda: channel_indistinguishability(most, few, n_random=200)]
        for run in runs:
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2 ** 20

    def test_erasure_criterion_probe_loop_memory_is_bounded(self):
        dim = 48
        erasure = make_quantum_erasure(dim, 0.9)
        full = make_coarse_graining(Partition.single_block(dim), dim, embed_dim=dim)
        composed = compose_channels(full.channel, erasure)
        tracemalloc.start()
        try:
            channel_indistinguishability(erasure, composed, n_random=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_random_probes_are_drawn_chunk_by_chunk(self):
        tracemalloc.start()
        try:
            verify_erasure_theorem(4, 0.9, 0.3, n_random=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("dim", [1, 2, 5, 12, 33])
    def test_chunks_equal_the_materialized_family(self, dim):
        # with no channel to go through, a tile holds PROBE_TILE_ENTRIES // dim probes
        for n_random in (0, 1, quantum.PROBE_TILE_ENTRIES // dim - 1, 300):
            got = np.concatenate(list(quantum._probe_chunks(
                dim, n_random, np.random.default_rng(dim + n_random))))
            want = probe_family(dim, n_random, np.random.default_rng(dim + n_random))
            # bytes, so that the sign of every zero counts too
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_fixed_probes_are_built_chunk_by_chunk(self):
        # the whole fixed family at dim 96 takes 28 MB
        tracemalloc.start()
        try:
            for _ in quantum._probe_chunks(96, 0, np.random.default_rng(0)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_chunked_draws_equal_one_draw(self, monkeypatch):
        # tiles of 128 probes at dim 3
        monkeypatch.setattr(quantum, "PROBE_TILE_ENTRIES", 3 * 128)
        dim = 3
        n_random = 3 * (quantum.PROBE_TILE_ENTRIES // dim) + 5
        probes = probe_states(dim, n_random, np.random.default_rng(48))
        whole = quantum._random_pure_states(n_random, dim, np.random.default_rng(48))
        assert len(probes) == dim + 2 * dim * (dim - 1) + n_random
        for p, v in zip(probes[-n_random:], whole):
            assert np.array_equal(p.matrix, DensityMatrix.pure(v).matrix)

    def test_negative_probe_count_is_rejected(self):
        erasure = make_quantum_erasure(2, 0.5)
        with pytest.raises(ValidationError, match="n_random"):
            channel_indistinguishability(erasure, erasure, n_random=-1)
        with pytest.raises(ValidationError, match="n_random"):
            probe_states(2, -1, np.random.default_rng(0))
        for eta, eps in ((0.9, 0.3), (0.5, 0.5)):
            with pytest.raises(ValidationError, match="n_random"):
                verify_erasure_theorem(3, eta, eps, n_random=-5)

    def test_reduced_factor_path_agrees_with_the_swapped_order(self):
        # the composed channel has more Kraus operators than its output dimension
        for dim, eta in ((2, 0.5), (4, 0.9), (6, 0.7)):
            erasure = make_quantum_erasure(dim, eta)
            full = make_coarse_graining(Partition.single_block(dim), dim, embed_dim=dim)
            composed = compose_channels(full.channel, erasure)
            assert len(composed.kraus) > composed.out_dim
            ab = channel_indistinguishability(erasure, composed, n_random=300, seed=dim)
            ba = channel_indistinguishability(composed, erasure, n_random=300, seed=dim)
            assert ba.probe_count == ab.probe_count
            assert abs(ab.min_fidelity - ba.min_fidelity) <= 1e-12

    def test_probe_loop_runs_no_eigh(self, monkeypatch):
        erasure = make_quantum_erasure(5, 0.9)
        full = make_coarse_graining(Partition.single_block(5), 5, embed_dim=5)
        composed = compose_channels(full.channel, erasure)

        def refuse(*args, **kwargs):
            raise AssertionError("eigh called in the probe loop")

        monkeypatch.setattr(quantum.np.linalg, "eigh", refuse)
        for a, b in ((erasure, composed), (composed, erasure)):
            result = channel_indistinguishability(a, b, n_random=300, seed=3)
            assert result.min_fidelity == pytest.approx(0.81, abs=1e-9)

    @staticmethod
    def count_batches(monkeypatch):
        """Batch sizes of every ``_fidelities`` and every ``eigvalsh`` call."""
        fidelities, eigvalsh = quantum._fidelities, np.linalg.eigvalsh
        tiles, solves = [], []

        def counted_fidelities(a, b):
            tiles.append(len(a))
            return fidelities(a, b)

        def counted_eigvalsh(m, *args, **kwargs):
            solves.append(len(m))
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(quantum, "_fidelities", counted_fidelities)
        monkeypatch.setattr(quantum.np.linalg, "eigvalsh", counted_eigvalsh)
        return tiles, solves

    def test_probe_loop_runs_one_fidelity_call_per_chunk(self, monkeypatch):
        erasure = make_quantum_erasure(5, 0.9)
        full = make_coarse_graining(Partition.single_block(5), 5, embed_dim=5)
        composed = compose_channels(full.channel, erasure)
        many = random_kraus_channel(16, 16, 64, np.random.default_rng(47))
        few = make_coarse_graining(Partition.single_block(16), 16, embed_dim=16).channel
        tiles, solves = self.count_batches(monkeypatch)
        # a tile takes in_dim entries per probe plus out_dim times each
        # channel's output width: 2 for the erasure criterion's channels, 1
        # for the full coarse graining and 16 for the dense channel
        for a, b, widths in ((erasure, composed, 2 + 2), (composed, erasure, 2 + 2),
                             (few, many, 1 + 16)):
            tiles.clear()
            solves.clear()
            result = channel_indistinguishability(a, b, n_random=300, seed=3)
            tile = quantum.PROBE_TILE_ENTRIES // (a.in_dim + a.out_dim * widths)
            chunks = [min(tile, result.probe_count - start)
                      for start in range(0, result.probe_count, tile)]
            assert tiles == chunks
            # the erasure criterion's fidelities are 2 x 2, in closed form; the
            # one-row by 16-column products of the last pair take one solve per
            # chunk; the last solve validates the witness DensityMatrix
            assert solves == (chunks if widths == 1 + 16 else []) + [1]

    def test_erasure_criterion_family_at_dim_12_takes_one_or_two_tiles(self, monkeypatch):
        # 12 + 264 fixed probes and 200 random ones: 476 probes, 4 tiles of 128 before
        tiles, solves = self.count_batches(monkeypatch)
        verdict = verify_erasure_theorem(12, 0.9, 0.3, seed=1, n_random=200)
        assert verdict.compressible and verdict.probe_count == 476
        assert len(tiles) in (1, 2) and sum(tiles) == 476
        # one solve, to validate the witness DensityMatrix
        assert solves == [1]

    @pytest.mark.parametrize("pair", ["erasure", "erasure-2", "erasure-3", "erasure-4",
                                      "erasure-5", "erasure-6", "dense", "few-many"])
    def test_tiles_match_one_probe_at_a_time(self, pair):
        rng = np.random.default_rng(53)
        if pair.startswith("erasure"):
            dim = int(pair[8:] or 12)
            a = make_quantum_erasure(dim, 0.9)
            full = make_coarse_graining(Partition.single_block(dim), dim, embed_dim=dim)
            b, n_random = compose_channels(full.channel, a), 200
        else:
            a = random_kraus_channel(16, 16, 64, np.random.default_rng(47))
            b = (random_kraus_channel(16, 16, 4, rng) if pair == "dense" else
                 make_coarse_graining(Partition.single_block(16), 16, embed_dim=16).channel)
            n_random = 100
        result = channel_indistinguishability(a, b, n_random=n_random, seed=9)
        family = probe_family(a.in_dim, n_random, np.random.default_rng(9))
        want = np.array([quantum._fidelities(quantum._unit_outputs(a, v[None, :, None]),
                                             quantum._unit_outputs(b, v[None, :, None]))[0]
                         for v in family])
        assert result.probe_count == len(family)
        assert abs(result.min_fidelity - want.min()) <= 1e-12
        # the witness is one of the probes, and its own fidelity is the minimum
        overlap = np.einsum("pi,ij,pj->p", family.conj(), result.witness.matrix, family).real
        at = int(np.argmax(overlap))
        assert overlap[at] == pytest.approx(1.0, abs=1e-12)
        assert abs(want[at] - result.min_fidelity) <= 1e-12

    @pytest.mark.parametrize("call", [
        lambda: channel_indistinguishability(make_quantum_erasure(2, 0.5),
                                             make_quantum_erasure(2, 0.5), seed=-1),
        lambda: verify_erasure_theorem(3, 0.9, 0.3, seed=-2),
        lambda: verify_erasure_theorem(3, 0.5, 0.5, seed=-2),
    ], ids=["indistinguishability", "verify-compressible", "verify-rejecting"])
    def test_negative_seed_is_rejected(self, call):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: channel_indistinguishability(make_quantum_erasure(2, 0.5),
                                             make_quantum_erasure(2, 0.5), seed=1.5),
        lambda: verify_erasure_theorem(3, 0.9, 0.3, seed=np.float64(2.0)),
        lambda: verify_erasure_theorem(3, 0.5, 0.5, seed="0"),
    ], ids=["indistinguishability", "verify-compressible", "verify-rejecting"])
    def test_non_integer_seed_is_rejected(self, call):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: channel_indistinguishability(make_quantum_erasure(2, 0.5),
                                             make_quantum_erasure(2, 0.5), n_random=2.5),
        lambda: probe_states(2, 2.5, np.random.default_rng(0)),
        lambda: verify_erasure_theorem(3, 0.9, 0.3, n_random=2.5),
        lambda: verify_erasure_theorem(3, 0.5, 0.5, n_random=True),
    ], ids=["indistinguishability", "probe-states", "verify-compressible", "verify-rejecting"])
    def test_non_integer_probe_count_is_rejected(self, call):
        with pytest.raises(ValidationError, match="n_random must be an integer"):
            call()

    def test_integer_types_are_accepted(self):
        erasure = make_quantum_erasure(2, 0.5)
        plain = channel_indistinguishability(erasure, erasure, n_random=5, seed=7)
        typed = channel_indistinguishability(erasure, erasure, n_random=np.int64(5),
                                             seed=np.uint32(7))
        assert typed.min_fidelity == plain.min_fidelity
        assert typed.probe_count == plain.probe_count


class TestErasureCriterion:
    def test_suite_contents(self):
        small = erasure_compressor_suite(2)
        assert [c.kind for c in small] == ["partition", "general"]
        big = erasure_compressor_suite(4)
        assert [c.kind for c in big] == ["partition", "partition", "partition", "general"]
        assert all(c.kernel_dim >= 1 for c in big)
        with pytest.raises(ValidationError):
            erasure_compressor_suite(1)

    def test_compressible_direction(self):
        verdict = verify_erasure_theorem(3, 0.9, 0.2, seed=0, n_random=100)
        assert verdict.compressible
        assert verdict.threshold == pytest.approx(0.81, abs=1e-15)
        assert verdict.gamma == 1.0
        assert verdict.rejections == ()
        assert verdict.probe_count == 3 + 12 + 100
        assert verdict.min_fidelity >= 1.0 - 0.2 - 1e-9
        assert verdict.min_fidelity == pytest.approx(0.81, abs=1e-8)

    def test_boundary_counts_as_compressible(self):
        # 0.5**2 == 1 - 0.75 exactly in floats, the inequality is non-strict
        verdict = verify_erasure_theorem(2, 0.5, 0.75, seed=0, n_random=50)
        assert verdict.compressible
        assert verdict.min_fidelity >= 0.25 - 1e-9

    def test_incompressible_direction(self):
        verdict = verify_erasure_theorem(4, 0.5, 0.5, seed=0)
        assert not verdict.compressible
        assert verdict.gamma == 0.0
        assert verdict.probe_count == 0
        assert len(verdict.rejections) == 4
        for rej in verdict.rejections:
            assert rej.kernel_dim >= 1
            assert rej.witness_fidelity == pytest.approx(0.25, abs=1e-8)
        assert verdict.witness is not None

    @pytest.mark.parametrize("dim", [2, 3, 7, 12, 16])
    @pytest.mark.parametrize("eta", [0.0, 0.55, 0.7])
    def test_stacked_witnesses_equal_one_witness_at_a_time(self, dim, eta):
        verdict = verify_erasure_theorem(dim, eta, 0.1)
        erasure = make_quantum_erasure(dim, eta)
        want = []
        for comp in erasure_compressor_suite(dim):
            v = comp.kernel[None, :, :1]
            compressed = quantum._unit_outputs(comp.channel, v)
            want.append(float(quantum._fidelities(quantum._unit_outputs(erasure, v),
                                                  quantum._unit_outputs(erasure, compressed))[0]))
        assert [r.witness_fidelity for r in verdict.rejections] == want
        # the witness is the kernel vector of the first compressor at the minimum
        first = want.index(min(want))
        assert verdict.min_fidelity == want[first]
        witness = erasure_compressor_suite(dim)[first].kernel[:, 0]
        assert np.array_equal(verdict.witness.matrix, DensityMatrix.pure(witness).matrix)

    def test_rejecting_branch_computes_one_kernel_per_compressor(self, monkeypatch):
        calls = []

        def counting(channel):
            calls.append(channel)
            return vector_kernel(channel)

        monkeypatch.setattr(quantum, "vector_kernel", counting)
        verdict = verify_erasure_theorem(5, 0.5, 0.5)
        assert len(verdict.rejections) == 4
        assert len(calls) == 4

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            verify_erasure_theorem(1, 0.5, 0.5)
        with pytest.raises(ValidationError):
            verify_erasure_theorem(2, 0.5, 1.5)

    def test_determinism(self):
        a = verify_erasure_theorem(3, 0.95, 0.3, seed=11, n_random=40)
        b = verify_erasure_theorem(3, 0.95, 0.3, seed=11, n_random=40)
        assert a.min_fidelity == b.min_fidelity
        assert np.array_equal(a.witness.matrix, b.witness.matrix)


class TestClassicalQuantumAgreement:
    def test_diagonal_erasure_matches_classical_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            eta = float(rng.uniform(0.0, 1.0))
            p = rng.random(dim) + 1e-3
            q = rng.random(dim) + 1e-3
            p, q = p / p.sum(), q / q.sum()
            erasure = make_quantum_erasure(dim, eta)
            got = quantum_fidelity(
                erasure.apply(DensityMatrix.diagonal(p)),
                erasure.apply(DensityMatrix.diagonal(q)),
            )
            want = erasure_output_fidelity(eta, min(1.0, plain_fidelity(p, q)))
            assert got == pytest.approx(want, abs=1e-8)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_matrix_entry(self, bad):
        with pytest.raises(ValidationError, match=r"entry \(1, 1\).*not a finite"):
            DensityMatrix(np.array([[1.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf)])
    def test_kraus_operator_entry(self, bad):
        op = np.eye(2, dtype=complex)
        op[0, 1] = bad
        with pytest.raises(ValidationError, match=r"Kraus operator 0 entry \(0, 1\).*not a finite"):
            KrausChannel((op,))
