import dataclasses
import tracemalloc

import numpy as np
import pytest

from loopfock.clifford import (LatticeModel, anticommutator_residual,
                               build_clifford_model, clifford_monomials,
                               default_lagrangian, flip_table, generator_indices,
                               generator_relation_residuals, half_space,
                               pi_vector, star_residual,
                               validate_lagrangian)
from loopfock.errors import DimensionMismatch
from loopfock.linalg import maxabs
from reference import orthonormal_rows

rng = np.random.default_rng(7)


def basis_vector(model, flat):
    v = np.zeros(model.dim_h, dtype=complex)
    v[flat] = 1.0
    return v


def creation_operators(modes):
    """Dense wedge-insertion operators, little-endian bitmask basis.

    Inserting mode mu into occupation mask S picks up the sign (-1)^(number
    of set bits of S below mu).
    """
    N = 2 ** modes
    ops = np.zeros((modes, N, N), dtype=complex)
    for mu in range(modes):
        for src in range(N):
            if not src >> mu & 1:
                ops[mu, src | 1 << mu, src] = (-1.0) ** bin(src & ((1 << mu) - 1)).count("1")
    return ops


def dense_generators(L):
    """pi(e_i) = sqrt(2) (C_i - C_i^*), C_i = sum_mu conj(L_{i,mu}) a^dag_mu,
    formed by one contraction over the modes: the reference for the build."""
    C = np.tensordot(L.conj(), creation_operators(L.shape[1]), axes=(1, 0))
    return np.sqrt(2.0) * (C - np.conj(np.transpose(C, (0, 2, 1))))


def in_place_generators(L):
    """The dense stack written in place one mode at a time, pi_i[dst, src] and
    pi_i[src, dst] for each mode: the bitwise reference for the stack the
    model scatters from its flip table."""
    dim_h, modes = L.shape
    N = 2 ** modes
    idx = np.arange(N)
    out = np.zeros((dim_h, N, N), dtype=complex)
    for mu in range(modes):
        src = idx[(idx >> mu) & 1 == 0]
        dst = src | (1 << mu)
        below = np.array([bin(s & ((1 << mu) - 1)).count("1") for s in src])
        amp = np.sqrt(2.0) * L[:, mu, None] * (1.0 - 2.0 * (below & 1))
        out[:, dst, src] = amp.conj() + 0.0
        out[:, src, dst] = -amp + 0.0
    return out


def rotated_lagrangian(n, d, seed):
    # a real orthogonal map of H carries a Lagrangian to a Lagrangian
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((2 * n * d, 2 * n * d)))
    return Q @ default_lagrangian(LatticeModel(n, d))


def micro_model():
    # single mode: smallest possible Fock space, used for hand values
    return build_clifford_model(1, 1, allow_odd_modes=True)


class TestLattice:
    def test_derived_sizes(self):
        lat = LatticeModel(2, 3)
        assert lat.points == 4
        assert lat.dim_h == 12
        assert lat.modes == 6
        assert lat.fock_dim == 64

    def test_odd_mode_count_rejected(self):
        with pytest.raises(ValueError):
            build_clifford_model(1, 1)
        with pytest.raises(ValueError):
            build_clifford_model(3, 3)


class TestLagrangian:
    def test_single_mode_vector(self):
        L = default_lagrangian(LatticeModel(1, 1))
        target = np.array([1.0, 1j]) / np.sqrt(2)
        assert maxabs(L[:, 0] - target) < 1e-14

    def test_two_axes_copy_the_profile(self):
        L = default_lagrangian(LatticeModel(1, 2))
        assert L.shape == (4, 2)
        v = np.array([1.0, 0.0, 1j, 0.0]) / np.sqrt(2)
        w = np.array([0.0, 1.0, 0.0, 1j]) / np.sqrt(2)
        assert maxabs(L[:, 0] - v) < 1e-14
        assert maxabs(L[:, 1] - w) < 1e-14

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_default_is_lagrangian(self, n, d):
        assert validate_lagrangian(default_lagrangian(LatticeModel(n, d)))

    def test_real_vector_breaks_isotropy(self):
        L = default_lagrangian(LatticeModel(2, 1)).copy()
        L[:, 0] = 0.0
        L[0, 0] = 1.0
        assert not validate_lagrangian(L)

    def test_scaling_breaks_orthonormality(self):
        L = default_lagrangian(LatticeModel(2, 1)).copy()
        L[:, 0] *= 2.0
        assert not validate_lagrangian(L)


class TestFockOperators:
    def test_single_mode_hand_values(self):
        model = micro_model()
        delta0 = basis_vector(model, 0)
        delta1 = basis_vector(model, 1)
        assert maxabs(pi_vector(model, delta0) - np.array([[0, -1], [1, 0]])) < 1e-14
        assert maxabs(pi_vector(model, delta1) - np.array([[0, -1j], [-1j, 0]])) < 1e-14

    def test_linearity_and_zero(self):
        model = build_clifford_model(1, 2)
        assert maxabs(pi_vector(model, np.zeros(4, dtype=complex))) == 0.0
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert maxabs(pi_vector(model, v + 2j * w)
                      - pi_vector(model, v) - 2j * pi_vector(model, w)) < 1e-13

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 2), (3, 2)])
    def test_pi_is_the_defining_mode_formula(self, n, d):
        # pi(v) = sqrt(2) (sum_mu (L^* v)_mu a^dag_mu - (L^T v)_mu a_mu), with
        # a_mu the adjoint of a^dag_mu, for complex v and for the basis vectors
        model = build_clifford_model(n, d, allow_odd_modes=True)
        L = model.lagrangian
        creators = creation_operators(model.lattice.modes)
        annihilators = np.conj(np.transpose(creators, (0, 2, 1)))

        def formula(v):
            return np.sqrt(2.0) * (np.tensordot(L.conj().T @ v, creators, axes=(0, 0))
                                   - np.tensordot(L.T @ v, annihilators, axes=(0, 0)))

        for _ in range(5):
            v = rng.standard_normal(model.dim_h) + 1j * rng.standard_normal(model.dim_h)
            assert maxabs(pi_vector(model, v) - formula(v)) < 1e-13
        for i in range(model.dim_h):
            assert maxabs(model.generators[i] - formula(basis_vector(model, i))) < 1e-14

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2),
                                     (4, 2), (1, 4), (2, 4)])
    def test_generators_match_the_dense_contraction_bitwise(self, n, d):
        model = build_clifford_model(n, d, allow_odd_modes=True)
        assert model.generators.tobytes() == dense_generators(model.lagrangian).tobytes()

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (4, 2), (1, 4), (2, 4)])
    def test_generators_match_the_in_place_build_bitwise(self, n, d):
        model = build_clifford_model(n, d, allow_odd_modes=True)
        assert "generators" not in vars(model)
        assert model.generators.tobytes() == in_place_generators(model.lagrangian).tobytes()

    def test_generators_of_a_rotated_lagrangian_match_bitwise(self):
        L = rotated_lagrangian(2, 3, 11)
        model = build_clifford_model(2, 3, lagrangian=L)
        assert model.generators.tobytes() == dense_generators(L).tobytes()
        assert model.generators.tobytes() == in_place_generators(L).tobytes()

    def test_build_allocates_little_beyond_the_stack(self):
        # at (2,4) the flip table is 0.5 MiB and the grading signs 2 KiB; the
        # dense generator stack (16 MiB) and grading (1 MiB) wait for their first read
        tracemalloc.start()
        try:
            model = build_clifford_model(2, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "generators" not in vars(model) and "grading" not in vars(model)
        assert peak <= 2 * 2 ** 20

    def test_dimension_guard(self):
        model = build_clifford_model(1, 2)
        with pytest.raises(DimensionMismatch):
            pi_vector(model, np.zeros(5, dtype=complex))

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2)])
    def test_relations_on_random_pairs(self, n, d):
        model = build_clifford_model(n, d)
        for _ in range(200):
            v = rng.standard_normal(model.dim_h) + 1j * rng.standard_normal(model.dim_h)
            w = rng.standard_normal(model.dim_h) + 1j * rng.standard_normal(model.dim_h)
            assert anticommutator_residual(model, v, w) < 1e-10
            assert star_residual(model, v) < 1e-10

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2)])
    def test_relations_on_the_generators(self, n, d):
        model = build_clifford_model(n, d)
        assert max(generator_relation_residuals(model)) < 1e-10
        # (g_1 + g_2)/sqrt(2) is skew and squares to -1 but fails
        # {., g_2} = 0 by sqrt(2); 1j g_0 fails the star relation by 2 |g_0|
        c = np.array(model.flip_coefficients)
        c[1] = (c[1] + c[2]) / np.sqrt(2)
        anti, star = generator_relation_residuals(dataclasses.replace(model, flip_coefficients=c))
        assert anti == pytest.approx(np.sqrt(2), rel=1e-12) and star < 1e-14
        c[0] = 1j * c[0]
        star = generator_relation_residuals(dataclasses.replace(model, flip_coefficients=c))[1]
        assert star == pytest.approx(2 * maxabs(model.generators[0]), rel=1e-12)

    def test_grading(self):
        model = build_clifford_model(2, 2)
        G = model.grading
        assert maxabs(G @ G - np.eye(model.fock_dim)) == 0.0
        assert maxabs(G @ model.generators @ G + model.generators) < 1e-14
        # diagonal signs follow the number of occupied modes
        assert G[0, 0] == 1.0 and G[1, 1] == -1.0 and G[3, 3] == 1.0
        assert np.array_equal(G, np.diag(model.grading_signs)) and model.grading_signs.dtype == float
        parity = [bin(r).count("1") % 2 for r in range(model.fock_dim)]
        assert model.grading_signs.tolist() == [1.0 - 2.0 * p for p in parity]


def rebuilt_from_flips(model):
    """Dense stack sum_mu diag(c[i, mu]) X_mu, X_mu[r, r ^ 2^mu] = 1 the bit
    flip of mode mu, from the flip table."""
    flips = np.eye(model.fock_dim)[flip_table(model.lattice.modes).T]
    return np.einsum("imr,mrs->irs", model.flip_coefficients, flips)


class TestFlipTable:
    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (2, 3), (3, 2), (4, 2), (1, 4), (2, 4)])
    def test_rebuilds_the_generators_bitwise(self, n, d):
        model = build_clifford_model(n, d)
        assert "generators" not in vars(model)
        assert np.array_equal(rebuilt_from_flips(model), model.generators)

    def test_rebuilds_the_generators_of_a_rotated_lagrangian(self):
        lattice = LatticeModel(2, 2)
        local = np.random.default_rng(29)
        O, _ = np.linalg.qr(local.standard_normal((lattice.dim_h, lattice.dim_h)))
        V, _ = np.linalg.qr(local.standard_normal((lattice.modes, lattice.modes))
                            + 1j * local.standard_normal((lattice.modes, lattice.modes)))
        L = O @ default_lagrangian(lattice) @ V
        model = build_clifford_model(2, 2, lagrangian=L)
        assert maxabs(model.lagrangian - default_lagrangian(lattice)) > 0.1
        assert np.array_equal(rebuilt_from_flips(model), model.generators)

    def test_size_at_fock_256(self):
        model = build_clifford_model(2, 4)
        assert model.flip_coefficients.shape == (16, 8, 256)
        assert model.flip_coefficients.nbytes <= 2 * 2 ** 20


class TestMonomials:
    def test_empty_subset(self):
        model = build_clifford_model(1, 2)
        mono = clifford_monomials(model, ())
        assert mono.shape == (1, 4, 4)
        assert maxabs(mono[0] - np.eye(4)) == 0.0

    def test_single_point_single_axis(self):
        model = micro_model()
        mono = clifford_monomials(model, (0,))
        assert mono.shape[0] == 2
        assert maxabs(mono[1] - model.generators[0]) == 0.0

    def test_counts_and_independence(self):
        model = build_clifford_model(2, 2)
        mono = clifford_monomials(model, (0, 1))
        assert mono.shape[0] == 16
        assert orthonormal_rows(mono).shape[0] == 16

    def test_the_basis_is_held_once(self):
        model = build_clifford_model(2, 3)
        model.generators  # the cached stack is built outside the traced call
        tracemalloc.start()
        try:
            mono = clifford_monomials(model, half_space(model, "first"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a list of the products and its np.stack copy held the basis twice
        assert peak <= 1.25 * mono.nbytes

    def test_ordering_is_increasing_flat_index(self):
        model = build_clifford_model(2, 2)
        mono = clifford_monomials(model, (0, 1))
        g = model.generators
        assert maxabs(mono[3] - g[0] @ g[1]) < 1e-14
        assert maxabs(mono[5] - g[0] @ g[2]) < 1e-14


class TestHalfSpace:
    def test_split(self):
        model = build_clifford_model(2, 2)
        assert half_space(model, "first") == (0, 1)
        assert half_space(model, "second") == (2, 3)
        both = set(half_space(model, "first")) | set(half_space(model, "second"))
        assert both == set(range(4))
        assert not set(half_space(model, "first")) & set(half_space(model, "second"))

    def test_generator_indices(self):
        model = build_clifford_model(2, 3)
        assert generator_indices(model, (0, 1)) == [0, 1, 2, 3, 4, 5]

    def test_bad_name(self):
        model = build_clifford_model(1, 2)
        with pytest.raises(ValueError):
            half_space(model, "middle")
