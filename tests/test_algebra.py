import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopfock.algebra
import loopfock.linalg
import loopfock.rep
import reference
from loopfock.algebra import (InnerAutomorphism, OperatorAlgebra, StandardFormData,
                              _averaging_ready, canonical_implementation, clifford_frame,
                              conjugation_action, cyclic_separating_check, inner_unitary,
                              reflected_action, star_relation_residual, tomita_data)
from loopfock.clifford import (build_clifford_model, clifford_monomials,
                               generator_indices, half_space)
from loopfock.errors import (ConeViolation, NotAveragingReady, NotClifford, NotCyclicSeparating,
                             NotInner, NotInNormalizer)
from loopfock.linalg import DEFAULT_TOL, AntilinearOperator, maxabs, singular_rows, span_residual
from loopfock.rep import build_context, half_generators
from loopfock.suites import modular_identity_terms
from reference import (NotGraded, algebra_from_span, basis_cyclic_separating,
                       basis_star_relation_residual, basis_sum_inner_unitary, commutant, cone_frame,
                       cone_tensor, dense_canonical_implementation, dense_conjugation_action,
                       dense_inner_unitary, dense_modular_data, from_coordinates, full_algebra,
                       generated_star_algebra, kernel_commutant, kernel_super_commutant, monomial_algebra,
                       orthonormal_rows, scalars, sigma_algebra, subspace_equal, super_commutant,
                       tensor_cone_defects)

rng = np.random.default_rng(31)


@pytest.fixture(scope="module")
def model12():
    return build_clifford_model(1, 2)


@pytest.fixture(scope="module")
def model22():
    return build_clifford_model(2, 2)


def half_algebra(model):
    """The first-half algebra as the program carries it: generators and frame."""
    return loopfock.rep.half_algebra(model, "first")


def basis_half(model):
    """The first-half algebra on the orthonormalized monomial span, the
    reference's basis route."""
    pts = half_space(model, "first")
    return algebra_from_span(clifford_monomials(model, pts),
                             generators=model.generators[generator_indices(model, pts)])


def product_closure_residual(alg):
    """Residual of all basis products against the span."""
    return max(span_residual(a @ alg.basis, alg.basis) for a in alg.basis)


def gram_deviation(basis):
    """How far the rows of a basis stack are from orthonormal."""
    flat = basis.reshape(len(basis), -1)
    return maxabs(flat @ flat.conj().T - np.eye(len(basis)))


def other_half_algebra(model):
    pts = half_space(model, "second")
    return algebra_from_span(clifford_monomials(model, pts),
                             generators=model.generators[generator_indices(model, pts)])


def random_unitary(rand, k):
    q, _ = np.linalg.qr(rand.standard_normal((k, k)) + 1j * rand.standard_normal((k, k)))
    return q


def random_unitary_in(alg, rand):
    c = rand.standard_normal(alg.dim) + 1j * rand.standard_normal(alg.dim)
    x = from_coordinates(alg, c)
    h = 0.5 * (x + x.conj().T)
    w, V = np.linalg.eigh(h)
    return (V * np.exp(1j * w)) @ V.conj().T


def restacked_star_algebra(gens, tol=DEFAULT_TOL):
    """Reference growth: multiply the whole basis each round and
    re-orthonormalize the whole stack."""
    N = gens.shape[1]
    multipliers = np.concatenate([gens, np.conj(np.transpose(gens, (0, 2, 1)))])
    basis = orthonormal_rows(np.concatenate([np.eye(N, dtype=complex)[None], multipliers]), tol)
    while True:
        grown = np.einsum("aij,bjk->abik", basis, multipliers).reshape(-1, N, N)
        new_basis = orthonormal_rows(np.concatenate([basis, grown]), tol)
        if new_basis.shape[0] == basis.shape[0]:
            return new_basis
        basis = new_basis


def clifford_generators(n, d, half):
    model = build_clifford_model(n, d)
    if not half:
        return model.generators
    return model.generators[generator_indices(model, half_space(model, "first"))]


def block_unitary(rand):
    u = np.zeros((5, 5), dtype=complex)
    u[:3, :3] = random_unitary(rand, 3)
    u[3:, 3:] = random_unitary(rand, 2)
    return u


def rank3_projection(rand):
    q = random_unitary(rand, 6)[:, :3]
    return (q @ q.conj().T)[None]


# generator set -> (dimension of the generated algebra, builder)
GENERATOR_SETS = {
    "half (1,2)": (4, lambda rand: clifford_generators(1, 2, True)),
    "full (1,2)": (16, lambda rand: clifford_generators(1, 2, False)),
    "half (2,2)": (16, lambda rand: clifford_generators(2, 2, True)),
    "full (2,2)": (256, lambda rand: clifford_generators(2, 2, False)),
    # four distinct eigenvalues: the diagonals constant on eigenspaces
    "diagonal unitary": (4, lambda rand: np.diag(np.exp(1j * np.array([0.1, 0.5, 0.5, 2.0, 3.0])))[None]),
    # generic pair of blocks: M_3 + M_2
    "block-diagonal pair": (13, lambda rand: np.stack([block_unitary(rand), block_unitary(rand)])),
    # span of 1 and P
    "rank-3 projection": (2, rank3_projection),
}


class TestGeneratedAlgebra:
    @pytest.mark.parametrize("name", list(GENERATOR_SETS))
    def test_frontier_growth_matches_restacking(self, name):
        dim, build = GENERATOR_SETS[name]
        gens = np.asarray(build(np.random.default_rng(5)), dtype=complex)
        alg = generated_star_algebra(gens)
        reference = restacked_star_algebra(gens)
        assert alg.dim == reference.shape[0] == dim
        assert max(span_residual(alg.basis, reference), span_residual(reference, alg.basis)) <= 1e-12
        assert gram_deviation(alg.basis) <= 1e-12

    def test_identity_alone(self):
        alg = generated_star_algebra(np.eye(4, dtype=complex)[None])
        assert alg.dim == 1

    def test_half_generators_span_monomials(self, model22):
        pts = half_space(model22, "first")
        gens = model22.generators[generator_indices(model22, pts)]
        alg = generated_star_algebra(gens)
        mono = clifford_monomials(model22, pts)
        assert alg.dim == mono.shape[0] == 16
        assert span_residual(mono, alg.basis) < 1e-12

    def test_a_nan_adjoint_residual_in_the_last_chunk_fails_the_check(self, monkeypatch, model12):
        product = model12.generators[:1] @ model12.generators[1:2]
        basis = orthonormal_rows(np.concatenate([np.eye(4)[None], orthonormal_rows(product)]))
        assert algebra_from_span(basis, product).dim == 2
        chunks = loopfock.linalg.row_chunks
        monkeypatch.setattr(reference, "row_chunks",
                            lambda stack: chunks(stack) + [np.full((1,) + stack.shape[1:], np.nan)])
        with pytest.raises(ValueError, match="adjoints"):
            algebra_from_span(basis, product)

    def test_all_generators_fill_everything(self, model12):
        alg = generated_star_algebra(model12.generators)
        assert alg.dim == model12.fock_dim ** 2

    def test_closure_residual(self, model22):
        alg = basis_half(model22)
        assert product_closure_residual(alg) < 1e-12


class TestCommutant:
    def test_full_algebra_to_scalars(self, model12):
        full = generated_star_algebra(model12.generators)
        c = commutant(full)
        assert len(c) == 1

    def test_scalars_to_full(self, model12):
        c = commutant(scalars(model12.fock_dim))
        assert len(c) == 16

    def test_half_space_dimension(self, model22):
        A = half_algebra(model22)
        c = commutant(A)
        assert len(c) == A.dim
        assert A.dim * len(c) == model22.fock_dim ** 2

    def test_double_commutant_returns_original(self, model22):
        A = basis_half(model22)
        back = kernel_commutant(commutant(A))
        flat_a = A.basis.reshape(A.dim, -1).T
        flat_b = back.reshape(len(back), -1).T
        assert subspace_equal(flat_a, flat_b)

    def test_fast_and_generic_routes_agree(self, model12):
        pts = half_space(model12, "first")
        gens = model12.generators[generator_indices(model12, pts)]
        A = algebra_from_span(clifford_monomials(model12, pts), gens)
        fast = commutant(A)
        slow = kernel_commutant(A.basis)
        assert len(fast) == len(slow)
        assert span_residual(fast, slow) < 1e-9
        # both routes skip a second SVD, so their rows must already be orthonormal
        assert max(gram_deviation(fast), gram_deviation(slow)) <= 1e-12


class TestSuperCommutant:
    def test_twisted_duality(self, model22):
        A = basis_half(model22)
        B = other_half_algebra(model22)
        sc = super_commutant(A, model22.grading_signs)
        assert len(sc) == B.dim
        assert gram_deviation(sc) <= 1e-12
        assert span_residual(B.basis, sc) < 1e-10
        back = super_commutant(B, model22.grading_signs)
        assert span_residual(A.basis, back) < 1e-10

    def test_scalars_super_commute_with_everything(self, model12):
        sc = super_commutant(scalars(model12.fock_dim), model12.grading_signs)
        assert len(sc) == 16

    def test_involution_generic_route(self, model22):
        A = basis_half(model22)
        sc = kernel_super_commutant(A.basis, model22.grading_signs)
        back = kernel_super_commutant(sc, model22.grading_signs)
        assert span_residual(A.basis, back) < 1e-9
        assert max(gram_deviation(sc), gram_deviation(back)) <= 1e-12

    def test_rejects_ungraded_span(self, model12):
        # mixed-parity element whose homogeneous parts leave the span
        X = model12.generators[0] + model12.generators[0] @ model12.generators[1]
        mixed = algebra_from_span(np.stack([np.eye(4, dtype=complex), X]), X[None])
        with pytest.raises(NotGraded):
            super_commutant(mixed, model12.grading_signs)


class TestCyclicSeparating:
    def test_half_space_standard(self, model22):
        status = cyclic_separating_check(half_algebra(model22), model22.vacuum)
        assert status.cyclic and status.separating

    def test_full_algebra(self, model12):
        # no frame carries M_N, so the basis route decides
        status = basis_cyclic_separating(full_algebra(model12), model12.vacuum)
        assert status.cyclic and not status.separating

    def test_scalars(self, model12):
        status = basis_cyclic_separating(scalars(model12.fock_dim), model12.vacuum)
        assert status.separating and not status.cyclic

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_frame_rank_matches_the_basis_rank(self, n, d):
        # a omega over the basis against the rank of the vacuum's k x k
        # matrix, for the vacuum and for a product vector W e_(0,0) of rank one
        model = build_clifford_model(n, d)
        A, B = loopfock.rep.half_algebra(model, "first"), monomial_algebra(model, "first")
        for omega, expected in ((model.vacuum, True), (A.frame[:, 0], False)):
            frame, basis = cyclic_separating_check(A, omega), basis_cyclic_separating(B, omega)
            assert frame == basis == loopfock.algebra.CyclicSeparating(expected, expected)


class TestTomita:
    def test_micro_model_postconditions(self, model12):
        A = half_algebra(model12)
        sfd = tomita_data(A, model12.vacuum)
        N = model12.fock_dim
        Mj = sfd.conjugation.linear
        assert maxabs(Mj @ np.conj(Mj) - np.eye(N)) < 1e-11
        assert maxabs(sfd.conjugation(model12.vacuum) - model12.vacuum) < 1e-11
        assert maxabs(sfd.delta @ model12.vacuum - model12.vacuum) < 1e-11
        comm = commutant(A)
        JAJ = np.stack([sfd.conjugation.conjugate_matrix(a) for a in basis_half(model12).basis])
        assert span_residual(JAJ, comm) < 1e-10

    def test_rejects_non_separating(self, model12):
        # W e_(0,0) is the k x k matrix unit E_00 in the frame: rank one, so
        # E_11 (x) 1 annihilates it
        A = half_algebra(model12)
        with pytest.raises(NotCyclicSeparating):
            tomita_data(A, A.frame[:, 0])

    def test_cone_membership(self, model22):
        A = half_algebra(model22)
        sfd = tomita_data(A, model22.vacuum)
        for _ in range(5):
            a = from_coordinates(A, rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
            v = a @ sfd.reflect(a) @ sfd.omega
            assert sfd.cone_defect(v) < 1e-10
        assert sfd.cone_defect(-sfd.omega) > 0.1


class TestInnerAutomorphisms:
    def test_identity_representative(self, model12):
        A, basis = half_algebra(model12), basis_half(model12).basis
        theta = conjugation_action(np.eye(4, dtype=complex), A)
        u = A.embed(theta.representative())
        assert maxabs(u @ u.conj().T - np.eye(4)) < 1e-11
        assert maxabs(u @ basis[1] @ u.conj().T - basis[1]) < 1e-10

    def test_round_trip_recovers_unitary(self, model22):
        A = half_algebra(model22)
        v = random_unitary_in(A, rng)
        u = A.embed(inner_unitary(conjugation_action(v, A)))
        z = np.trace(v.conj().T @ u) / np.trace(v.conj().T @ v)
        assert maxabs(u - z * v) < 1e-9
        assert abs(abs(z) - 1.0) < 1e-9

    def test_compose_and_inverse_are_action_level(self, model22):
        A, basis = half_algebra(model22), basis_half(model22).basis
        t1 = conjugation_action(random_unitary_in(A, rng), A)
        t2 = conjugation_action(random_unitary_in(A, rng), A)
        both = t1.compose(t2)
        direct = conjugation_action(A.embed(t1._representative @ t2._representative), A)
        assert both.distance(direct) < 1e-10
        assert maxabs(both.apply(basis) - direct.apply(basis)) < 1e-10
        round_trip = t1.compose(t1.inverse())
        identity = conjugation_action(np.eye(model22.fock_dim), A)
        assert round_trip.distance(identity) <= DEFAULT_TOL.eq_tol
        assert maxabs(round_trip.apply(basis) - basis) < 1e-10

    def test_recovers_traceless_representative(self, model22):
        # a product of two first-half generators has trace zero, so a solve
        # that probed with the identity alone would find nothing
        A = half_algebra(model22)
        first = generator_indices(model22, half_space(model22, "first"))
        v = model22.generators[first[0]] @ model22.generators[first[1]]
        assert abs(np.trace(v)) < 1e-12
        u = A.embed(inner_unitary(conjugation_action(v, A)))
        z = np.trace(v.conj().T @ u) / np.trace(v.conj().T @ v)
        assert maxabs(u - z * v) < 1e-9
        assert abs(abs(z) - 1.0) < 1e-9

    def test_round_trip_without_generators(self, model22):
        # the basis-sum reference reads the basis, not the generators, and
        # re-verifies the action on every basis element
        A = basis_half(model22)
        v = random_unitary_in(A, rng)
        u = basis_sum_inner_unitary(dense_conjugation_action(v, A))
        z = np.trace(v.conj().T @ u) / np.trace(v.conj().T @ v)
        assert maxabs(u - z * v) < 1e-9

    def test_round_trip_at_fock64(self):
        model = build_clifford_model(2, 3)
        A, basis = half_algebra(model), monomial_algebra(model, "first").basis
        v = random_unitary_in(A, rng)
        theta = conjugation_action(v, A)
        u = A.embed(inner_unitary(theta))
        assert maxabs(u @ basis @ u.conj().T - theta.apply(basis)) < 1e-9
        z = np.trace(v.conj().T @ u) / np.trace(v.conj().T @ v)
        assert maxabs(u - z * v) < 1e-9

    def test_rejects_automorphism_implemented_outside(self):
        # conjugation by the other generator flips the sign of the first: an
        # automorphism of the two-point algebra with no implementer inside it.
        # Every automorphism of a frame algebra M_k is inner, so only the
        # dense route meets one
        model = build_clifford_model(1, 1, allow_odd_modes=True)
        A = algebra_from_span(np.stack([np.eye(2, dtype=complex), model.generators[0]]), model.generators[:1])
        w = model.generators[1]
        with pytest.raises(NotInner, match="no implementing element"):
            dense_inner_unitary(dense_conjugation_action(w, A))

    def test_center_blocks_uniqueness(self):
        # single lattice mode: the two-point algebra has a center, so the
        # implementing line is not unique; a frame algebra is a factor
        model = build_clifford_model(1, 1, allow_odd_modes=True)
        span = np.stack([np.eye(2, dtype=complex), model.generators[0]])
        A = algebra_from_span(span, model.generators[:1])
        with pytest.raises(NotInner):
            dense_inner_unitary(dense_conjugation_action(np.eye(2, dtype=complex), A))

    def test_images_of_no_automorphism_are_refused(self, model22):
        # g_0 as the image of every generator: no x != 0 has x g_1 = g_0 x =
        # x g_0, since (g_1 - g_0)^2 = 2, and the averaging maps are no longer
        # commuting projections, so the probes keep rank two
        A = half_algebra(model22)
        theta = conjugation_action(np.eye(model22.fock_dim), A)
        wrong = dataclasses.replace(theta, images=np.stack([A.generator_hats[0]] * len(A.generators)),
                                    _representative=None)
        with pytest.raises(NotInner, match="dimension 2"):
            inner_unitary(wrong)


class TestCanonicalImplementation:
    def test_identity(self, model12):
        A = half_algebra(model12)
        sfd = tomita_data(A, model12.vacuum)
        theta = conjugation_action(np.eye(4, dtype=complex), A)
        U = canonical_implementation(sfd, A, theta).unitary
        assert maxabs(U - np.eye(4)) < 1e-10

    def test_phase_independence(self, model12):
        A = half_algebra(model12)
        sfd = tomita_data(A, model12.vacuum)
        v = random_unitary_in(A, rng)
        t1 = conjugation_action(v, A)
        t2 = conjugation_action(np.exp(0.7j) * v, A)
        U1 = canonical_implementation(sfd, A, t1).unitary
        U2 = canonical_implementation(sfd, A, t2).unitary
        assert maxabs(U1 - U2) < 1e-10

    def test_haagerup_properties(self, model12):
        A = half_algebra(model12)
        sfd = tomita_data(A, model12.vacuum)
        Mj = sfd.conjugation.linear
        for _ in range(20):
            theta = conjugation_action(random_unitary_in(A, rng), A)
            U, act, jcomm = canonical_implementation(sfd, A, theta)
            targets = np.stack([theta.apply(g) for g in A.generators])
            on_generators = maxabs(U @ A.generators @ U.conj().T - targets)
            # the frame residuals against the same identities on N x N
            assert act == pytest.approx(on_generators, rel=0, abs=1e-15)
            assert act < 1e-9
            assert jcomm == pytest.approx(maxabs(U @ Mj - Mj @ np.conj(U)), rel=0, abs=1e-15)
            assert jcomm < 1e-9

    def test_multiplicative(self, model22):
        A = half_algebra(model22)
        sfd = tomita_data(A, model22.vacuum)
        for _ in range(5):
            t1 = conjugation_action(random_unitary_in(A, rng), A)
            t2 = conjugation_action(random_unitary_in(A, rng), A)
            U12 = canonical_implementation(sfd, A, t1.compose(t2)).unitary
            assert maxabs(canonical_implementation(sfd, A, t1).unitary
                          @ canonical_implementation(sfd, A, t2).unitary - U12) < 1e-9

    def test_composition_is_solved_afresh(self, model22, monkeypatch):
        # the factors carry their sampled unitaries as representatives; their
        # product does not, so u1 u2 = (u1 u2) is not taken on trust
        A = half_algebra(model22)
        sfd = tomita_data(A, model22.vacuum)
        t1, t2 = (conjugation_action(random_unitary_in(A, rng), A) for _ in range(2))
        seen = recording_projections(monkeypatch)
        for theta in (t1, t2):
            canonical_implementation(sfd, A, theta)
        assert seen == []
        both = t1.compose(t2)
        assert both._representative is None
        canonical_implementation(sfd, A, both)
        assert seen == [len(A.generators)]


class TestNormalizer:
    def test_algebra_unitaries_normalize(self, model22):
        A = half_algebra(model22)
        theta = conjugation_action(random_unitary_in(A, rng), A)
        assert span_residual(theta.apply(A.generators), basis_half(model22).basis) <= DEFAULT_TOL.eq_tol

    def test_graded_second_half_generator_normalizes(self, model22):
        # an odd generator of the complementary half conjugates the algebra
        # to itself with graded signs, hence stays in the normalizer
        A = half_algebra(model22)
        w = model22.generators[generator_indices(model22, half_space(model22, "second"))[0]]
        theta = conjugation_action(w, A)
        assert span_residual(theta.apply(A.generators), basis_half(model22).basis) <= DEFAULT_TOL.eq_tol

    def test_cross_half_rotation_does_not_normalize(self, model22):
        A = half_algebra(model22)
        theta = 0.9
        N = model22.fock_dim
        i, j = 0, 5  # one coordinate per half circle
        U = (np.cos(theta / 2) * np.eye(N)
             + np.sin(theta / 2) * model22.generators[i] @ model22.generators[j])
        with pytest.raises(NotInNormalizer):
            conjugation_action(U, A)

    def test_nan_unitary_does_not_normalize(self, model12):
        # every comparison with NaN is false, so a guard written res > tol lets it through
        U = np.eye(model12.fock_dim, dtype=complex)
        U[1, 1] = np.nan
        with pytest.raises(NotInNormalizer):
            conjugation_action(U, half_algebra(model12))

    def test_action_kernels(self, model22):
        A, basis = half_algebra(model22), basis_half(model22).basis
        sfd = tomita_data(A, model22.vacuum)
        u = random_unitary_in(A, rng)
        assert maxabs(reflected_action(u, A, sfd).apply(basis) - basis) < 1e-9
        assert maxabs(conjugation_action(sfd.reflect(u), A).apply(basis) - basis) < 1e-9

    def test_canonical_has_equal_actions(self, model22):
        A, basis = half_algebra(model22), basis_half(model22).basis
        sfd = tomita_data(A, model22.vacuum)
        theta = conjugation_action(random_unitary_in(A, rng), A)
        U = canonical_implementation(sfd, A, theta).unitary
        for side in (conjugation_action(U, A), reflected_action(U, A, sfd)):
            assert side.distance(theta) < 1e-9
            assert maxabs(side.apply(basis) - theta.apply(basis)) < 1e-9


def rank_deficient_stack(rand, rows, cols, rank):
    left = rand.standard_normal((rows, rank)) + 1j * rand.standard_normal((rows, rank))
    right = rand.standard_normal((rank, cols)) + 1j * rand.standard_normal((rank, cols))
    return left @ right


@pytest.fixture(scope="module")
def context23():
    return build_context(build_clifford_model(2, 3))


class TestTallRowSpaces:
    """The tall-SVD row space against the wide-SVD route it replaced, and the
    reference matmul cone tensor against an einsum."""

    @staticmethod
    def assert_matches_wide_svd(flat):
        _, s_ref, rows_ref = np.linalg.svd(flat, full_matrices=False)
        s, rows = singular_rows(flat)
        assert rows.flags.c_contiguous
        assert maxabs(s - s_ref) <= 1e-12 * s_ref[0]
        cutoff = max(DEFAULT_TOL.rank_tol, 1e-7 * s_ref[0])
        rank = int(np.sum(s_ref > cutoff))
        assert int(np.sum(s > cutoff)) == rank
        assert span_residual(rows[:rank], rows_ref[:rank]) <= 1e-12
        assert span_residual(rows_ref[:rank], rows[:rank]) <= 1e-12

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_monomial_stacks(self, n, d):
        model = build_clifford_model(n, d)
        stack = clifford_monomials(model, half_space(model, "first"))
        self.assert_matches_wide_svd(stack.reshape(stack.shape[0], -1))

    @pytest.mark.parametrize("rows, cols", [(12, 300), (300, 12)], ids=["wide", "tall"])
    def test_rank_deficient_random_stack(self, rows, cols):
        self.assert_matches_wide_svd(rank_deficient_stack(np.random.default_rng(7), rows, cols, 7))

    def test_averaging_stack_from_commutant(self, context23, monkeypatch):
        seen = []

        def recording(flat):
            seen.append(flat.copy())
            return singular_rows(flat)

        monkeypatch.setattr(loopfock.linalg, "singular_rows", recording)
        commutant(context23.algebra, context23.tol)
        assert seen
        for flat in seen:
            self.assert_matches_wide_svd(flat)

    def test_cone_tensor_matches_einsum(self, context23):
        alg, sfd = monomial_algebra(context23.model, "first"), context23.sfd
        jbj_omega = np.stack([sfd.reflect(b) @ sfd.omega for b in alg.basis])
        reference = np.einsum("iab,jb->ija", alg.basis, jbj_omega)
        tensor = cone_tensor(alg, sfd)
        assert tensor.flags.c_contiguous
        assert maxabs(tensor - reference) <= 1e-13

    def test_context_bases_are_c_contiguous(self, context23):
        # the frames, and the reference's monomial bases
        for which in ("first", "second"):
            assert loopfock.rep.half_algebra(context23.model, which).frame.flags.c_contiguous
            assert monomial_algebra(context23.model, which).basis.flags.c_contiguous
        assert context23.algebra.frame.flags.c_contiguous


@pytest.fixture(scope="module", params=[(1, 2), (2, 2), (2, 3), (3, 2)],
                ids=lambda nd: f"{nd[0]}-{nd[1]}")
def context(request):
    return build_context(build_clifford_model(*request.param))


class TestGeneratorChecks:
    """Checks decided on the generators against the basis sweeps they
    replaced: both forms pass, each far inside its gate (a tenth of it).
    Each test draws from its own generator, so the margins do not depend on
    which tests ran before it."""

    @staticmethod
    def both_forms(ctx, residual):
        return residual(ctx.algebra.generators), residual(monomial_algebra(ctx.model, "first").basis)

    def test_normalizer(self, context):
        rand = np.random.default_rng(5)
        A = context.algebra
        model = context.model
        basis = monomial_algebra(model, "first").basis
        second = model.generators[generator_indices(model, half_space(model, "second"))[0]]
        for W in (random_unitary_in(A, rand), second, context.sfd.reflect(second)):
            forms = self.both_forms(context, lambda stack: span_residual(W @ stack @ W.conj().T, basis))
            assert max(forms) < 1e-10

    def test_canonical_action(self, context):
        rand = np.random.default_rng(5)
        A, sfd = context.algebra, context.sfd
        basis = monomial_algebra(context.model, "first").basis
        for _ in range(3):
            theta = conjugation_action(random_unitary_in(A, rand), A)
            U, act, _ = canonical_implementation(sfd, A, theta)
            on_basis = maxabs(U @ basis @ U.conj().T - theta.apply(basis))
            assert max(act, on_basis) < 1e-10

    def test_double_commutant(self, context):
        # A' is generated by the twisted second-half generators Gamma b
        model = context.model
        twisted = model.grading_signs[:, None] * half_generators(model, "second")
        comm = generated_star_algebra(twisted)
        assert comm.dim * context.algebra.dim == model.fock_dim ** 2
        on_generators = max(maxabs(a @ twisted - twisted @ a) for a in context.algebra.generators)
        on_bases = max(maxabs(a @ comm.basis - comm.basis @ a) for a in monomial_algebra(model, "first").basis)
        assert max(on_generators, on_bases) < 1e-9

    def test_action_kernels(self, context):
        rand = np.random.default_rng(5)
        W = context.sfd.reflect(random_unitary_in(context.algebra, rand))
        forms = self.both_forms(context, lambda stack: maxabs(W @ stack @ W.conj().T - stack))
        assert max(forms) < 1e-9

    def test_representative_off_the_images_is_not_inner(self, model22):
        # images from u1, representative u2: the action check must catch it
        A = half_algebra(model22)
        sfd = tomita_data(A, model22.vacuum)
        t1, t2 = (conjugation_action(random_unitary_in(A, rng), A) for _ in range(2))
        theta = InnerAutomorphism(A, t1.factor, t1.images, t1.residual, t2.factor)
        with pytest.raises(NotInner, match="action/J"):
            canonical_implementation(sfd, A, theta)

    def test_normalizer_callers_agree(self, model22):
        A = half_algebra(model22)
        sfd = tomita_data(A, model22.vacuum)
        U = random_unitary(rng, model22.fock_dim)
        for refused in (lambda: conjugation_action(U, A), lambda: reflected_action(U, A, sfd)):
            with pytest.raises(NotInNormalizer):
                refused()
        w = model22.generators[generator_indices(model22, half_space(model22, "second"))[0]]
        basis = basis_half(model22).basis
        for theta in (conjugation_action(w, A), reflected_action(w, A, sfd)):
            assert span_residual(theta.apply(basis), basis) < 1e-10

    def test_every_generator_is_checked(self, model22):
        # rotating generator 1 into the second half fixes generator 0, which
        # anticommutes with both rotated generators
        A = half_algebra(model22)
        U = (np.cos(0.45) * np.eye(model22.fock_dim)
             + np.sin(0.45) * model22.generators[1] @ model22.generators[5])
        assert maxabs(U @ A.generators[0] @ U.conj().T - A.generators[0]) < 1e-12
        with pytest.raises(NotInNormalizer):
            conjugation_action(U, A)

    def test_an_algebra_needs_generators(self, model22, monkeypatch):
        A = half_algebra(model22)
        with pytest.raises(TypeError):
            OperatorAlgebra(frame=A.frame)
        sfd = tomita_data(A, model22.vacuum)
        theta = conjugation_action(random_unitary_in(A, rng), A)
        U, act, _ = canonical_implementation(sfd, A, theta)
        u = theta.representative()
        assert act == max(maxabs(u @ A.generator_hats @ u.conj().T - theta.images), theta.residual)
        assert maxabs(U @ A.generators @ U.conj().T - theta.apply(A.generators)) <= 1e-13
        seen = []
        blocks = OperatorAlgebra.frame_blocks

        def recording(alg, X):
            seen.append(np.shape(X))
            return blocks(alg, X)

        monkeypatch.setattr(OperatorAlgebra, "frame_blocks", recording)
        monkeypatch.setattr(loopfock.algebra, "span_residual", lambda *args: pytest.fail("span read"))
        conjugation_action(U, A)
        # U is read in the frame once; its factorization decides both the
        # normalizer check and whether u_hat is kept as the representative
        assert seen == [U.shape]


def same_line(u, v):
    """|<u, v>| / N for unitaries u and v: 1 exactly when u is a phase times v."""
    return abs(np.vdot(u, v)) / u.shape[0]


def recording_projections(monkeypatch):
    """Count the calls of the generator-projection route of inner_unitary."""
    seen = []
    project = loopfock.algebra._project_intertwiners

    def recording(Z, lefts, rights):
        seen.append(len(lefts))
        return project(Z, lefts, rights)

    monkeypatch.setattr(loopfock.algebra, "_project_intertwiners", recording)
    return seen


class TestGeneratorInnerSolve:
    """inner_unitary by generator projections against the basis average it
    replaced, which the tests keep as reference.basis_sum_inner_unitary."""

    def test_routes_agree(self, context, monkeypatch):
        A, B = context.algebra, monomial_algebra(context.model, "first")
        assert A.generators_ready(DEFAULT_TOL)
        seen = recording_projections(monkeypatch)
        rand = np.random.default_rng(11)
        for _ in range(3):
            v = random_unitary_in(A, rand)
            u_gen = A.embed(inner_unitary(conjugation_action(v, A)))
            assert seen[-1] == len(A.generators)
            calls = len(seen)
            u_basis = basis_sum_inner_unitary(dense_conjugation_action(v, B))
            assert len(seen) == calls
            assert same_line(u_gen, u_basis) == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_composed_automorphism_at_fock64(self, context23):
        A = context23.algebra
        rand = np.random.default_rng(12)
        t1, t2 = (conjugation_action(random_unitary_in(A, rand), A) for _ in range(2))
        u = t1.compose(t2).representative()
        assert same_line(u, t1._representative @ t2._representative) == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_generators_that_do_not_sign_commute_take_the_basis_route(self, monkeypatch):
        # sigma_x and (sigma_x + sigma_z)/sqrt(2) are unitary involutions whose
        # products neither commute nor anticommute; they generate M_2
        A = sigma_algebra()
        assert A.dim == 4 and not A.generators_ready(DEFAULT_TOL)
        seen = recording_projections(monkeypatch)
        v = random_unitary_in(A, np.random.default_rng(13))
        theta = dense_conjugation_action(v, A)
        with pytest.raises(NotAveragingReady):
            dense_inner_unitary(theta)
        u = basis_sum_inner_unitary(theta)
        assert seen == []
        assert same_line(u, v) == pytest.approx(1.0, rel=0, abs=1e-12)
        # the reference commutant takes the kernel route too; the averaging
        # route raised ArithmeticError on these generators
        assert len(commutant(A)) == 1

    def test_refuses_a_generator_image_off_by_twice_eq_tol(self, model22):
        # u g_0 u^* is traceless for every unitary u, so adding 2 eq_tol times
        # the identity to the image of g_0 leaves a diagonal entry of the
        # final check at least 2 eq_tol away, whatever u the solve returns
        A = half_algebra(model22)
        v = random_unitary_in(A, np.random.default_rng(4))
        assert same_line(A.embed(inner_unitary(conjugation_action(v, A))), v) == \
            pytest.approx(1.0, rel=0, abs=1e-12)
        theta = conjugation_action(v, A)
        theta.images[0] += 2.0 * DEFAULT_TOL.eq_tol * np.eye(A.k)
        with pytest.raises(NotInner, match="fails the action"):
            inner_unitary(theta)

    def test_held_arrays_scale_with_the_generators(self, context):
        # implementer, generator images and representative: nothing of the
        # size of the basis images, dim A N^2 entries
        A = context.algebra
        rand = np.random.default_rng(15)
        t1, t2 = (conjugation_action(random_unitary_in(A, rand), A) for _ in range(2))
        bound = len(A.generators) * A.space_dim ** 2
        for theta in (t1.compose(t2), t1.inverse()):
            theta.representative()
            held = [x for x in vars(theta).values() if isinstance(x, np.ndarray)]
            assert len(held) == 3 and max(x.size for x in held) <= bound

    def test_readiness_cache_is_not_a_parameter(self, model22):
        A = half_algebra(model22)
        assert A.generators_ready(DEFAULT_TOL)
        with pytest.raises(TypeError):
            OperatorAlgebra(A.generators, A.frame, {DEFAULT_TOL: True})
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        bad = np.stack([np.kron(np.eye(A.space_dim // 2), m) for m in (sx, (sx + np.diag([1.0, -1.0])) / np.sqrt(2))])
        assert not dataclasses.replace(A, generators=bad).generators_ready(DEFAULT_TOL)

    def test_nan_generator_is_not_ready(self, model12):
        gens = half_algebra(model12).generators.copy()
        assert _averaging_ready(gens, DEFAULT_TOL)
        gens[-1, 0, 0] = np.nan
        assert not _averaging_ready(gens, DEFAULT_TOL)

    def test_empty_generator_stack_is_not_ready(self, model12):
        gens = half_algebra(model12).generators[:0]
        assert not _averaging_ready(gens, DEFAULT_TOL)
        A = dataclasses.replace(half_algebra(model12), generators=gens)
        with pytest.raises(NotAveragingReady):
            inner_unitary(conjugation_action(np.eye(model12.fock_dim), A))


inner_algebras = {}


@pytest.mark.parametrize("n, d", [(1, 2), (2, 2)])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_inner_unitary_recovers_exponentials(n, d, data):
    """For v = exp(i h), h Hermitian in the algebra, both routes return v up
    to a phase from the action of Ad v."""
    if (n, d) not in inner_algebras:
        model = build_clifford_model(n, d)
        inner_algebras[n, d] = half_algebra(model), monomial_algebra(model, "first")
    A, B = inner_algebras[n, d]
    coords = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    c = np.array(data.draw(st.lists(coords, min_size=2 * A.dim, max_size=2 * A.dim)))
    x = from_coordinates(A, c[:A.dim] + 1j * c[A.dim:])
    w, V = np.linalg.eigh(0.5 * (x + x.conj().T))
    v = (V * np.exp(1j * w)) @ V.conj().T
    routes = ((lambda theta: A.embed(inner_unitary(theta)), conjugation_action, A),
              (basis_sum_inner_unitary, dense_conjugation_action, B))
    for solve, action, alg in routes:
        assert same_line(solve(action(v, alg)), v) == pytest.approx(1.0, rel=0, abs=1e-12)


@pytest.fixture(scope="module", params=[(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)],
                ids=lambda nd: f"{nd[0]}-{nd[1]}")
def oracle_context(request):
    return build_context(build_clifford_model(*request.param))


class TestFrameAgainstDenseRoutes:
    """conjugation_action, inner_unitary and canonical_implementation in the
    frame against the dense routes on N x N matrices in tests/reference.py,
    on the same implementers: a unitary inside A, a composite of two, which
    both routes solve afresh, and a second-half generator, which normalizes A
    from outside it."""

    @staticmethod
    def implementers(ctx):
        rand = np.random.default_rng(21)
        A, model = ctx.algebra, ctx.model
        second = model.generators[generator_indices(model, half_space(model, "second"))[0]]
        v1, v2 = random_unitary_in(A, rand), random_unitary_in(A, rand)
        return {"inside": (v1,), "composite": (v1, v2), "second half": (second,)}

    @staticmethod
    def both_routes(ctx, factors):
        frame = [conjugation_action(U, ctx.algebra) for U in factors]
        dense = [dense_conjugation_action(U, ctx.algebra) for U in factors]
        if len(factors) == 2:
            return frame[0].compose(frame[1]), dense[0].compose(dense[1])
        return frame[0], dense[0]

    def test_canonical_implementations_agree(self, oracle_context):
        ctx = oracle_context
        for name, factors in self.implementers(ctx).items():
            theta, dense = self.both_routes(ctx, factors)
            U, act, jcomm = canonical_implementation(ctx.sfd, ctx.algebra, theta)
            U_dense, act_dense, j_dense = dense_canonical_implementation(ctx.sfd, ctx.algebra, dense)
            assert maxabs(U - U_dense) <= 1e-12, name
            assert max(act, jcomm, act_dense, j_dense) <= 1e-13, name

    def test_representatives_agree_up_to_phase(self, oracle_context):
        ctx = oracle_context
        A = ctx.algebra
        for name, factors in self.implementers(ctx).items():
            theta, dense = self.both_routes(ctx, factors)
            u = A.embed(inner_unitary(theta))
            assert same_line(u, dense_inner_unitary(dense)) == pytest.approx(1.0, rel=0, abs=1e-12), name
            # the images agree as operators
            assert maxabs(theta.apply(A.generators) - dense.images) <= 1e-13, name

    def test_representatives_match_the_basis_sum(self, context):
        # the basis sum reads the (dim A, N, N) monomial basis, 256 MiB at
        # (2,4), so it runs at the four reference configurations
        A, B = context.algebra, monomial_algebra(context.model, "first")
        for name, factors in self.implementers(context).items():
            theta, _ = self.both_routes(context, factors)
            dense = [dense_conjugation_action(U, B) for U in factors]
            dense = dense[0].compose(dense[1]) if len(dense) == 2 else dense[0]
            u = A.embed(inner_unitary(theta))
            assert same_line(u, basis_sum_inner_unitary(dense)) == pytest.approx(1.0, rel=0, abs=1e-12), name

    def test_a_non_product_term_of_1e6_leaves_the_normalizer(self, oracle_context):
        # W (u (x) v) W^* normalizes A; adding 1e-6 of W (u (x) w + w (x) u)
        # W^*, whose frame blocks are not all parallel, takes it out
        A = oracle_context.algebra
        rand = np.random.default_rng(22)
        u, v, w = (random_unitary(rand, A.k) for _ in range(3))
        product = A.embed(u, v)
        theta = conjugation_action(product, A)
        assert theta.residual <= 1e-13 and theta._representative is None
        planted = product + 1e-6 * (A.embed(u, w) + A.embed(w, u))
        with pytest.raises(NotInNormalizer):
            conjugation_action(planted, A)
        with pytest.raises(NotInNormalizer):
            dense_conjugation_action(planted, A)


@pytest.fixture
def tensor(context):
    return cone_tensor(monomial_algebra(context.model, "first"), context.sfd)


def cone_vectors(ctx, rand):
    """Vectors of the positive cone: frame vectors a_i J a_i J omega, their
    images under a canonical implementation, and a J a J omega for random a
    in both product orders."""
    A, sfd = ctx.algebra, ctx.sfd
    U = canonical_implementation(sfd, A, conjugation_action(random_unitary_in(A, rand), A)).unitary
    units = cone_frame(sfd)
    inside = [units[0], U @ units[1], sfd.omega]
    for _ in range(3):
        a = from_coordinates(A, rand.standard_normal(A.dim) + 1j * rand.standard_normal(A.dim))
        inside += [a @ sfd.conjugation(a @ sfd.omega), a @ sfd.reflect(a) @ sfd.omega]
    return inside


def outside_vectors(ctx, rand):
    """-omega, random vectors, and cone vectors moved by unitaries of A."""
    A, sfd = ctx.algebra, ctx.sfd
    outside = [-sfd.omega]
    for v in cone_vectors(ctx, rand)[:4]:
        outside += [rand.standard_normal(A.space_dim) + 1j * rand.standard_normal(A.space_dim),
                    random_unitary_in(A, rand) @ v]
    return outside


class TestConeDefects:
    """The reference route: the cone pairing tensor and its Cholesky test."""

    @staticmethod
    def eigvalsh_defect(tensor, v):
        """The per-vector defect by a full eigenvalue decomposition."""
        M = np.tensordot(tensor, np.conj(v) / np.linalg.norm(v), axes=(2, 0))
        lam_min = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0])
        return max(maxabs(M - M.conj().T), -min(lam_min, 0.0))

    def test_batch_matches_eigvalsh(self, context, tensor):
        A, sfd = context.algebra, context.sfd
        rand = np.random.default_rng(14)
        inside = cone_vectors(context, rand)
        outside = [-sfd.omega, rand.standard_normal(A.space_dim) + 1j * rand.standard_normal(A.space_dim)]
        for batch in (inside, inside + outside):
            got = tensor_cone_defects(tensor, np.stack(batch))
            ref = [self.eigvalsh_defect(tensor, v) for v in batch]
            assert maxabs(got - ref) <= 1e-15
            singles = [tensor_cone_defects(tensor, v[None])[0] for v in batch]
            assert singles == pytest.approx(ref, rel=0, abs=1e-15)

    def test_eigenvalues_only_when_cholesky_fails(self, context, tensor, monkeypatch):
        sfd = context.sfd
        # omega and a J a J omega for random a lie inside the cone, where the
        # pairing form is positive definite; the cone vectors of the matrix
        # units (reference.cone_frame) lie on its boundary
        inside = np.stack(cone_vectors(context, np.random.default_rng(19))[2:])
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recording(M):
            seen.append(len(M))
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        assert max(tensor_cone_defects(tensor, inside)) < 1e-12
        assert seen == []
        planted = np.stack([inside[1], -sfd.omega])
        defects = tensor_cone_defects(tensor, planted)
        assert seen == [2]
        assert defects[0] < 1e-12 and defects[1] > 1e-3
        assert tensor_cone_defects(tensor, np.zeros((1, sfd.omega.size)))[0] == 0.0


class TestConeFrame:
    """The frame route of StandardFormData.cone_defects against the
    reference tensor route.  The reference reads a defect of the pairing
    form over the Hilbert-Schmidt normalized basis, a scale about 1/sqrt(N)
    of the frame's, so outside vectors are held to 1e-3 there."""

    def test_cone_vectors_read_zero_on_both_routes(self, context, tensor):
        inside = np.stack(cone_vectors(context, np.random.default_rng(15)))
        assert max(context.sfd.cone_defects(inside)) <= 1e-12
        assert max(tensor_cone_defects(tensor, inside)) <= 1e-12
        assert context.sfd.cone_defect(np.zeros(context.sfd.omega.shape)) == 0.0

    def test_outside_vectors_read_positive_on_both_routes(self, context, tensor):
        outside = np.stack(outside_vectors(context, np.random.default_rng(16)))
        assert min(context.sfd.cone_defects(outside)) > 0.05
        assert min(tensor_cone_defects(tensor, outside)) > 1e-3

    def test_frame_is_unitary_and_carries_generators_to_the_first_factor(self, context):
        W, N = context.sfd.frame, context.algebra.space_dim
        # the modular data hold the algebra's frame itself, not a copy
        assert W is context.algebra.frame
        k = context.sfd.vacuum_phase.shape[0]
        assert k * k == N
        assert maxabs(W.conj().T @ W - np.eye(N)) <= DEFAULT_TOL.eq_tol
        for g in context.algebra.generators:
            image = W.conj().T @ g @ W
            g_hat = image.reshape(k, k, k, k)[:, 0, :, 0]
            assert maxabs(image - np.kron(g_hat, np.eye(k))) <= DEFAULT_TOL.eq_tol
        assert maxabs(context.sfd.vacuum_phase @ context.sfd.vacuum_phase.conj().T - np.eye(k)) <= 1e-12

    @pytest.mark.parametrize("plant", ["repeated", "nan", "odd count"])
    def test_a_stack_that_is_not_clifford_is_refused(self, context, plant, monkeypatch):
        gens = context.algebra.generators.copy()
        if plant == "repeated":
            gens[1] = gens[0]
        elif plant == "nan":
            gens[0, 0, 0] = np.nan
        else:
            gens = gens[1:]
        with pytest.raises(NotClifford):
            clifford_frame(gens)
        # the context builds the algebra's frame, so it refuses the stack
        monkeypatch.setattr(loopfock.rep, "half_generators", lambda model, which: gens)
        with pytest.raises(NotClifford):
            build_context(context.model)

    def test_a_planted_sign_flip_violates_the_cone(self, context, monkeypatch):
        A, sfd = context.algebra, context.sfd
        theta = conjugation_action(random_unitary_in(A, np.random.default_rng(17)), A)
        # J u J = W (1 (x) B^T) W^* with -B in place of B
        reflect = StandardFormData.reflect_frame
        monkeypatch.setattr(StandardFormData, "reflect_frame", lambda self, u: -reflect(self, u))
        with pytest.raises(ConeViolation):
            canonical_implementation(sfd, A, theta)


@pytest.fixture(scope="module")
def standard42():
    """The model, A and tomita_data at (4,2), where the Schmidt weights of
    the vacuum span 9.2e5."""
    model = build_clifford_model(4, 2)
    A = loopfock.rep.half_algebra(model, "first")
    return model, A, tomita_data(A, model.vacuum)


def oracle_deviations(model, sfd):
    """J, Delta and S of sfd, the first half's modular data, against the
    dense solve and polar route over its monomial basis; Delta and S
    relative to their largest entries."""
    S, J, delta = dense_modular_data(monomial_algebra(model, "first"), sfd.omega)
    return (maxabs(sfd.conjugation.linear - J.linear),
            maxabs(sfd.delta - delta) / maxabs(delta),
            maxabs(sfd.tomita.linear - S.linear) / maxabs(S.linear))


def spread_vacuum(A, spread, seed):
    """W vec(q1 diag(s) q2) / norm for seeded unitaries q1 and q2: a cyclic
    and separating unit vector whose Schmidt weights s^2 span the ratio
    spread."""
    rand = np.random.default_rng(seed)
    s = np.sqrt(np.geomspace(1.0, 1.0 / spread, A.k))
    xi = random_unitary(rand, A.k) @ np.diag(s) @ random_unitary(rand, A.k)
    return A.frame @ (xi / np.linalg.norm(xi)).reshape(-1)


class TestSchmidtModularData:
    """tomita_data's closed forms in the Clifford frame against the dense
    route in tests/reference.py."""

    def test_matches_the_dense_route(self, context):
        A, sfd, model = context.algebra, context.sfd, context.model
        assert max(oracle_deviations(model, sfd)) <= 1e-13
        assert star_relation_residual(A, model.vacuum, sfd.tomita) <= 1e-13
        basis = monomial_algebra(model, "first")
        assert basis_star_relation_residual(basis, model.vacuum, sfd.tomita) <= 1e-13

    def test_matches_the_dense_route_at_4_2(self, standard42):
        model, A, sfd = standard42
        omega = model.vacuum
        # the dense route takes J as the polar factor of its solved S.  The
        # singular values of S are the square roots of Delta's eigenvalues
        # p_i / p_j, so they span [r^-1/2, r^1/2], r = 9.2e5 the range of the
        # Schmidt weights p_i.  A rounding error eps |S| = eps r^1/2 in S moves
        # the polar factor by up to eps r^1/2 / s_min = eps r (measured:
        # 1.6e-12 for J)
        k = sfd.vacuum_phase.shape[0]
        weights = np.linalg.svd((sfd.frame.conj().T @ omega).reshape(k, k), compute_uv=False) ** 2
        r = weights[0] / weights[-1]
        assert r == pytest.approx(9.2e5, rel=0.01)
        assert max(oracle_deviations(model, sfd)) <= np.finfo(float).eps * r
        assert star_relation_residual(A, omega, sfd.tomita) <= 1e-13

    def test_cone_vectors_read_zero_at_4_2(self, standard42):
        # the dense J misses the frame's exact one by 1.6e-12 here, and these
        # vectors read 2.7e-12 with it
        model, A, sfd = standard42
        omega = model.vacuum
        rand = np.random.default_rng(18)
        vectors = []
        for _ in range(8):
            a = from_coordinates(A, rand.standard_normal(A.dim) + 1j * rand.standard_normal(A.dim))
            vectors.append(a @ sfd.conjugation(a @ omega))
        assert max(sfd.cone_defects(np.stack(vectors))) <= 1e-13

    def test_a_wrong_phase_in_the_conjugation_is_refused(self, model22, monkeypatch):
        # V^* in place of V: J X = V^* X^* V^* no longer fixes the vacuum
        A = half_algebra(model22)
        sfd = tomita_data(A, model22.vacuum)
        honest = loopfock.algebra._frame_conjugation
        # vacuum_phase is V^*
        assert maxabs(honest(sfd.frame, sfd.vacuum_phase)(sfd.omega) - sfd.omega) > 0.1
        monkeypatch.setattr(loopfock.algebra, "_frame_conjugation", lambda W, V: honest(W, V.conj().T))
        with pytest.raises(NotCyclicSeparating):
            tomita_data(A, model22.vacuum)

    @pytest.mark.parametrize("n, d", [(2, 2), (2, 3)])
    def test_weights_spread_by_1e8_pass_the_delta_omega_guard(self, n, d):
        # Delta's largest entry is about 1e7 here, and Delta omega - omega
        # read 5.7e-9 at (2,2) and 3.4e-9 at (2,3) on its own scale
        A = half_algebra(build_clifford_model(n, d))
        omega = spread_vacuum(A, 1e8, 20)
        sfd = tomita_data(A, omega)
        assert maxabs(sfd.delta) > 1e6
        assert modular_identity_terms(A, sfd)["Delta omega"] <= 1e-12

    @pytest.mark.parametrize("n, d", [(2, 2), (2, 3)])
    def test_weights_spread_by_1e8_pass_every_modular_identity(self, n, d):
        # S S read 1.7e-9 and 1.3e-9 as an absolute residual, S = J
        # Delta^1/2 6.5e-10 and 7.4e-9 with Delta^1/2 from an eigh of Delta
        A = half_algebra(build_clifford_model(n, d))
        terms = modular_identity_terms(A, tomita_data(A, spread_vacuum(A, 1e8, 20)))
        assert max(terms.values()) <= 1e-11

    def test_a_negated_conjugation_fails_only_the_polar_term(self, model22):
        # J' = -J is an antiunitary involution with J' Delta J' = J Delta J,
        # and J' S = -Delta^1/2 is Hermitian and squares to Delta: only its
        # negative eigenvalues tell it from Delta^1/2
        A = half_algebra(model22)
        sfd = tomita_data(A, model22.vacuum)
        negated = dataclasses.replace(sfd, conjugation=AntilinearOperator(-sfd.conjugation.linear))
        terms = modular_identity_terms(A, negated)
        assert terms.pop("S = J Delta^1/2") > 0.1
        assert max(terms.values()) <= 1e-13

    def test_a_delta_off_by_a_relative_1e6_is_refused(self, model22, monkeypatch):
        # Delta + 1e-6 |Delta| omega omega^*: the guard and the term read
        # about 1e-6 of omega's largest entry
        A = half_algebra(model22)
        omega = spread_vacuum(A, 1e8, 20)
        sfd = tomita_data(A, omega)
        planted = sfd.delta + 1e-6 * maxabs(sfd.delta) * np.outer(omega, omega.conj())
        assert modular_identity_terms(A, dataclasses.replace(sfd, delta=planted))["Delta omega"] > 1e-8
        honest = loopfock.algebra._frame_linear
        formed = []

        def plant(W, P, Q):
            # Delta is the first operator tomita_data forms in the frame
            out = honest(W, P, Q)
            if not formed:
                out += 1e-6 * maxabs(out) * np.outer(omega, omega.conj())
            formed.append(out)
            return out

        monkeypatch.setattr(loopfock.algebra, "_frame_linear", plant)
        with pytest.raises(NotCyclicSeparating):
            tomita_data(A, omega)
        assert maxabs(formed[0] - planted) <= 1e-6
