import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcomp import (
    Alphabet,
    ClassicalChannel,
    Distribution,
    UnknownLabelError,
    ValidationError,
    compose,
    erasure_epsilon_threshold,
    erasure_max_mergeable_differences,
    erasure_sequence_fidelity,
    fidelity,
    make_constant,
    make_erasure,
    make_generalized_erasure,
    make_identity,
    product_reverse_fidelity,
    reverse_fidelity,
    reverse_fidelity_matrix,
)

from oracles import joint_reverse_fidelity, plain_fidelity, random_channel


def dist(masses):
    m = np.asarray(masses, dtype=float)
    return Distribution(Alphabet.numbered(m.size), m / m.sum())


masses_lists = st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=6).filter(
    lambda m: sum(m) > 0
)


class TestFidelity:
    def test_known_value(self):
        assert fidelity(dist([1.0, 0.0]), dist([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_equal_distributions_snap_to_one(self):
        p = dist([0.3, 0.7])
        q = dist([0.3 + 5e-13, 0.7 - 5e-13])
        assert fidelity(p, q) == 1.0

    def test_disjoint_supports(self):
        assert fidelity(dist([1.0, 0.0]), dist([0.0, 1.0])) == 0.0

    def test_alphabet_mismatch(self):
        p = Distribution(Alphabet(("a", "b")), np.array([0.5, 0.5]))
        q = dist([0.5, 0.5])
        with pytest.raises(ValidationError):
            fidelity(p, q)

    @settings(max_examples=80, deadline=None)
    @given(masses_lists, masses_lists)
    def test_range_and_symmetry(self, m1, m2):
        n = max(len(m1), len(m2))
        m1 = m1 + [0] * (n - len(m1))
        m2 = m2 + [1] * (n - len(m2))
        if sum(m2) == 0:
            m2[0] = 1
        p, q = dist(m1), dist(m2)
        f = fidelity(p, q)
        assert 0.0 <= f <= 1.0
        assert f == fidelity(q, p)

    @settings(max_examples=80, deadline=None)
    @given(masses_lists)
    def test_self_fidelity_is_one(self, m):
        p = dist(m)
        assert fidelity(p, p) == 1.0


class TestDistribution:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            Distribution(Alphabet.numbered(2), np.array([1.1, -0.1]))

    def test_bad_total_rejected(self):
        with pytest.raises(ValidationError):
            Distribution(Alphabet.numbered(2), np.array([0.5, 0.4]))

    def test_tiny_drift_renormalized(self):
        d = Distribution(Alphabet.numbered(2), np.array([0.5 + 1e-10, 0.5]))
        assert np.sum(d.masses) == pytest.approx(1.0, abs=1e-15)


class TestClassicalChannel:
    def test_row_sum_error_names_row(self):
        m = np.array([[0.9, 0.0], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="row 0"):
            ClassicalChannel(Alphabet(("a", "b")), Alphabet.numbered(2), m)

    def test_negative_entry_rejected(self):
        m = np.array([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            ClassicalChannel(Alphabet.numbered(2), Alphabet.numbered(2), m)

    def test_rows_renormalized(self):
        m = np.array([[0.5 + 1e-10, 0.5], [0.0, 1.0]])
        ch = ClassicalChannel(Alphabet.numbered(2), Alphabet.numbered(2), m)
        assert np.allclose(ch.matrix.sum(axis=1), 1.0, atol=1e-15)

    def test_matrix_read_only(self):
        ch = make_identity(2)
        with pytest.raises(ValueError):
            ch.matrix[0, 0] = 0.5

    def test_unknown_label(self):
        ch = make_identity(2)
        with pytest.raises(UnknownLabelError):
            ch.row("3")

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ClassicalChannel(Alphabet.numbered(3), Alphabet.numbered(2), np.eye(2))


class TestReverseFidelity:
    def test_identity_channel(self):
        ch = make_identity(3)
        assert reverse_fidelity(ch, "1", "1") == 1.0
        assert reverse_fidelity(ch, "1", "2") == 0.0

    def test_erasure_same_and_distinct(self):
        ch = make_erasure(3, 0.5)
        assert reverse_fidelity(ch, "2", "2") == 1.0
        assert reverse_fidelity(ch, "1", "3") == 0.25

    def test_matrix_matches_pairwise_and_is_symmetric(self):
        rng = np.random.default_rng(3)
        ch = random_channel(rng, 4, 3)
        fid = reverse_fidelity_matrix(ch)
        assert np.array_equal(fid, fid.T)
        for i, x in enumerate(ch.input.labels):
            for j, xhat in enumerate(ch.input.labels):
                assert fid[i, j] == reverse_fidelity(ch, x, xhat)

    def test_unit_diagonal(self):
        rng = np.random.default_rng(4)
        fid = reverse_fidelity_matrix(random_channel(rng, 5, 4))
        assert np.all(np.diag(fid) == 1.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ch = random_channel(rng, 3, 4)
            fid = reverse_fidelity_matrix(ch)
            for i in range(3):
                for j in range(3):
                    want = plain_fidelity(ch.matrix[i], ch.matrix[j])
                    if i == j:
                        want = 1.0
                    assert fid[i, j] == pytest.approx(min(1.0, want), abs=1e-12)


class TestConstructors:
    def test_identity_matrix(self):
        ch = make_identity(3)
        assert np.array_equal(ch.matrix, np.eye(3))
        assert ch.input.labels == ("1", "2", "3")

    def test_constant_default(self):
        ch = make_constant(4)
        assert ch.num_outputs == 1
        assert np.all(ch.matrix == 1.0)
        assert reverse_fidelity(ch, "1", "4") == 1.0

    def test_constant_custom_masses(self):
        ch = make_constant(2, masses=[0.25, 0.75], output_labels=["u", "v"])
        assert ch.output.labels == ("u", "v")
        assert reverse_fidelity(ch, "1", "2") == 1.0

    def test_erasure_structure(self):
        ch = make_erasure(2, 0.3)
        assert ch.output.labels == ("1", "2", "α")
        assert ch.matrix[0, 0] == pytest.approx(0.7, abs=1e-15)
        assert ch.matrix[0, 2] == pytest.approx(0.3, abs=1e-15)
        assert ch.matrix[0, 1] == 0.0

    def test_erasure_eta_bounds(self):
        with pytest.raises(ValidationError):
            make_erasure(2, 1.5)
        with pytest.raises(ValidationError):
            make_erasure(2, -0.1)

    def test_erasure_eta_one_collapses(self):
        ch = make_erasure(3, 1.0)
        assert reverse_fidelity(ch, "1", "3") == 1.0

    def test_generalized_erasure_fidelities(self):
        ch = make_generalized_erasure((("1", "2"), ("3", "4")), (0.9, 0.95))
        fid = reverse_fidelity_matrix(ch)
        # same block keeps eta_i**2, different blocks share no output
        assert fid[0, 1] == pytest.approx(0.81, abs=1e-12)
        assert fid[2, 3] == pytest.approx(0.9025, abs=1e-12)
        assert fid[0, 2] == 0.0
        assert fid[1, 3] == 0.0

    def test_generalized_erasure_labels(self):
        ch = make_generalized_erasure((("1", "2"), ("3",)), (0.5, 0.5))
        assert ch.input.labels == ("1", "2", "3")
        assert ch.output.labels == ("1'", "2'", "3'", "α_1", "α_2")

    def test_generalized_erasure_length_mismatch(self):
        with pytest.raises(ValidationError):
            make_generalized_erasure((("1", "2"), ("3", "4")), (0.9,))

    def test_non_string_labels_rejected_by_index(self):
        with pytest.raises(ValidationError, match=r"^alphabet entry 0 must be a string, got None$"):
            Alphabet((None, 1.5))
        with pytest.raises(ValidationError, match=r"^alphabet entry 1 must be a string, got 1\.5$"):
            Alphabet(("a", 1.5))
        # Not a duplicate: 1 is not converted to "1".
        with pytest.raises(ValidationError, match=r"^alphabet entry 0 must be a string, got 1$"):
            make_identity(2, labels=[1, "1"])
        with pytest.raises(ValidationError, match=r"^alphabet entry 2 must be a string, got 3$"):
            make_generalized_erasure((("1", "2"), (3,)), (0.5, 0.5))


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(6)
        ch = random_channel(rng, 3, 3)
        out = compose(ch, make_identity(3))
        assert np.allclose(out.matrix, ch.matrix, atol=1e-15)

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(7)
        a = random_channel(rng, 4, 3)
        b = random_channel(rng, 3, 5)
        out = compose(a, b)
        assert np.allclose(out.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            compose(make_identity(3), make_identity(2))


class TestProductChannel:
    """Reverse fidelity of input sequences over independent channel uses."""

    def test_factorization_against_joint_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n_in = int(rng.integers(2, 5))
            n_out = int(rng.integers(2, 5))
            k = int(rng.integers(1, 5))
            ch = random_channel(rng, n_in, n_out)
            labels = ch.input.labels
            xs = tuple(labels[i] for i in rng.integers(0, n_in, size=k))
            xhats = tuple(labels[i] for i in rng.integers(0, n_in, size=k))
            got = product_reverse_fidelity(ch, xs, xhats)
            want = joint_reverse_fidelity(ch, xs, xhats)
            assert got == pytest.approx(min(1.0, want), abs=1e-10)

    def test_huge_products_stay_cheap(self):
        # value is computed letterwise, so size 4**40 input spaces are fine
        ch = make_erasure(4, 0.8)
        xs = tuple("1" for _ in range(40))
        xhats = tuple("2" if i < 3 else "1" for i in range(40))
        got = product_reverse_fidelity(ch, xs, xhats)
        assert got == pytest.approx(0.8 ** 6, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            product_reverse_fidelity(make_identity(2), ("1", "1"), ("1",))

    def test_uses_positive(self):
        with pytest.raises(ValidationError):
            product_reverse_fidelity(make_identity(2), (), ())


class TestErasureClosedForms:
    def test_sequence_fidelity_values(self):
        assert erasure_sequence_fidelity(0.8, 3) == pytest.approx(0.262144, abs=1e-12)
        assert erasure_sequence_fidelity(0.8, 0) == 1.0
        assert erasure_sequence_fidelity(0.0, 2) == 0.0

    def test_sequence_fidelity_matches_product(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            eta = float(rng.uniform(0.0, 1.0))
            r = int(rng.integers(2, 5))
            k = int(rng.integers(1, 7))
            ch = make_erasure(r, eta)
            labels = ch.input.labels
            xs = tuple(labels[i] for i in rng.integers(0, r, size=k))
            xhats = tuple(labels[i] for i in rng.integers(0, r, size=k))
            s = sum(a != b for a, b in zip(xs, xhats))
            got = product_reverse_fidelity(ch, xs, xhats)
            assert got == pytest.approx(erasure_sequence_fidelity(eta, s), abs=1e-12)

    def test_epsilon_threshold(self):
        assert erasure_epsilon_threshold(0.5) == 0.75
        assert erasure_epsilon_threshold(0.5, differences=2) == pytest.approx(0.9375, abs=1e-15)
        assert erasure_epsilon_threshold(1.0) == 0.0

    def test_max_mergeable_boundary_is_inclusive(self):
        # fidelity 0.25 against threshold 1 - 0.75 = 0.25 merges exactly
        assert erasure_max_mergeable_differences(0.5, 0.75, limit=5) == 1
        assert erasure_max_mergeable_differences(0.5, 0.74, limit=5) == 0
        assert erasure_max_mergeable_differences(1.0, 0.0, limit=5) == 5


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_channel_entry(self, bad):
        with pytest.raises(ValidationError, match=r"row 1 \('2'\), column 0 \('1'\).*not a finite"):
            ClassicalChannel(Alphabet.numbered(2), Alphabet.numbered(2),
                             np.array([[0.5, 0.5], [bad, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distribution_entry(self, bad):
        with pytest.raises(ValidationError, match="entry 0 .*not a finite"):
            Distribution(Alphabet.numbered(2), np.array([bad, 1.0]))
