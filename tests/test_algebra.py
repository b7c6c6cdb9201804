import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopfock.algebra
import loopfock.linalg
import loopfock.rep
from loopfock.algebra import (InnerAutomorphism, OperatorAlgebra, _averaging_ready,
                              algebra_from_span, canonical_implementation, commutant,
                              conjugation_action, cyclic_separating_check,
                              generated_star_algebra, inner_unitary,
                              reflected_action, super_commutant, tomita_data)
from loopfock.clifford import (build_clifford_model, clifford_monomials,
                               generator_indices, half_space)
from loopfock.errors import NotCyclicSeparating, NotGraded, NotInner, NotInNormalizer
from loopfock.linalg import (DEFAULT_TOL, maxabs, orthonormal_rows,
                             singular_rows, span_residual, subspace_equal)
from loopfock.rep import build_context, half_generators

rng = np.random.default_rng(31)


@pytest.fixture(scope="module")
def model12():
    return build_clifford_model(1, 2)


@pytest.fixture(scope="module")
def model22():
    return build_clifford_model(2, 2)


def half_algebra(model):
    pts = half_space(model, "first")
    return algebra_from_span(clifford_monomials(model, pts),
                             generators=model.generators[generator_indices(model, pts)])


def product_closure_residual(alg):
    """Residual of all basis products against the span."""
    return max(span_residual(a @ alg.basis, alg.basis) for a in alg.basis)


def gram_deviation(alg):
    """How far the basis rows are from orthonormal."""
    flat = alg.basis.reshape(alg.dim, -1)
    return maxabs(flat @ flat.conj().T - np.eye(alg.dim))


def other_half_algebra(model):
    pts = half_space(model, "second")
    return algebra_from_span(clifford_monomials(model, pts),
                             generators=model.generators[generator_indices(model, pts)])


def random_unitary(rand, k):
    q, _ = np.linalg.qr(rand.standard_normal((k, k)) + 1j * rand.standard_normal((k, k)))
    return q


def random_unitary_in(alg, rand):
    c = rand.standard_normal(alg.dim) + 1j * rand.standard_normal(alg.dim)
    x = alg.from_coordinates(c)
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
        assert gram_deviation(alg) <= 1e-12

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
        basis = orthonormal_rows(model12.generators[:1] @ model12.generators[1:2])
        basis = orthonormal_rows(np.concatenate([np.eye(4)[None], basis]))
        assert algebra_from_span(basis).dim == 2
        chunks = loopfock.linalg.row_chunks
        monkeypatch.setattr(loopfock.algebra, "row_chunks",
                            lambda stack: chunks(stack) + [np.full((1,) + stack.shape[1:], np.nan)])
        with pytest.raises(ValueError, match="adjoints"):
            algebra_from_span(basis)

    def test_all_generators_fill_everything(self, model12):
        alg = generated_star_algebra(model12.generators)
        assert alg.dim == model12.fock_dim ** 2

    def test_closure_residual(self, model22):
        alg = half_algebra(model22)
        assert product_closure_residual(alg) < 1e-12


class TestCommutant:
    def test_full_algebra_to_scalars(self, model12):
        full = generated_star_algebra(model12.generators)
        c = commutant(full)
        assert c.dim == 1

    def test_scalars_to_full(self, model12):
        scalars = algebra_from_span(np.eye(4, dtype=complex)[None])
        c = commutant(scalars)
        assert c.dim == 16

    def test_half_space_dimension(self, model22):
        A = half_algebra(model22)
        c = commutant(A)
        assert c.dim == A.dim
        assert A.dim * c.dim == model22.fock_dim ** 2

    def test_double_commutant_returns_original(self, model22):
        A = half_algebra(model22)
        back = commutant(commutant(A))
        flat_a = A.basis.reshape(A.dim, -1).T
        flat_b = back.basis.reshape(back.dim, -1).T
        assert subspace_equal(flat_a, flat_b)

    def test_fast_and_generic_routes_agree(self, model12):
        pts = half_space(model12, "first")
        gens = model12.generators[generator_indices(model12, pts)]
        span = clifford_monomials(model12, pts)
        with_gens = algebra_from_span(span, generators=gens)
        without = algebra_from_span(span)
        fast = commutant(with_gens)
        slow = commutant(without)
        assert fast.dim == slow.dim
        assert span_residual(fast.basis, slow.basis) < 1e-9
        # both routes skip a second SVD, so their rows must already be orthonormal
        assert max(gram_deviation(fast), gram_deviation(slow)) <= 1e-12


class TestSuperCommutant:
    def test_twisted_duality(self, model22):
        A = half_algebra(model22)
        B = other_half_algebra(model22)
        sc = super_commutant(A, model22.grading)
        assert sc.dim == B.dim
        assert gram_deviation(sc) <= 1e-12
        assert span_residual(B.basis, sc.basis) < 1e-10
        back = super_commutant(B, model22.grading)
        assert span_residual(A.basis, back.basis) < 1e-10

    def test_scalars_super_commute_with_everything(self, model12):
        scalars = algebra_from_span(np.eye(4, dtype=complex)[None])
        sc = super_commutant(scalars, model12.grading)
        assert sc.dim == 16

    def test_involution_generic_route(self, model22):
        A = half_algebra(model22)
        sc = super_commutant(algebra_from_span(A.basis), model22.grading)  # no generators: generic path
        back = super_commutant(sc, model22.grading)
        assert span_residual(A.basis, back.basis) < 1e-9
        assert max(gram_deviation(sc), gram_deviation(back)) <= 1e-12

    def test_rejects_ungraded_span(self, model12):
        # mixed-parity element whose homogeneous parts leave the span
        X = model12.generators[0] + model12.generators[0] @ model12.generators[1]
        mixed = algebra_from_span(np.stack([np.eye(4, dtype=complex), X]))
        with pytest.raises(NotGraded):
            super_commutant(mixed, model12.grading)


class TestCyclicSeparating:
    def test_half_space_standard(self, model22):
        status = cyclic_separating_check(half_algebra(model22), model22.vacuum)
        assert status.cyclic and status.separating

    def test_full_algebra(self, model12):
        full = generated_star_algebra(model12.generators)
        status = cyclic_separating_check(full, model12.vacuum)
        assert status.cyclic and not status.separating

    def test_scalars(self, model12):
        scalars = algebra_from_span(np.eye(4, dtype=complex)[None])
        status = cyclic_separating_check(scalars, model12.vacuum)
        assert status.separating and not status.cyclic


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
        JAJ = np.stack([sfd.conjugation.conjugate_matrix(a) for a in A.basis])
        assert span_residual(JAJ, comm.basis) < 1e-10

    def test_rejects_non_separating(self, model12):
        full = generated_star_algebra(model12.generators)
        with pytest.raises(NotCyclicSeparating):
            tomita_data(full, model12.vacuum)

    def test_cone_membership(self, model22):
        A = half_algebra(model22)
        sfd = tomita_data(A, model22.vacuum)
        for _ in range(5):
            a = A.from_coordinates(rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
            v = a @ sfd.reflect(a) @ sfd.omega
            assert sfd.cone_defect(v) < 1e-10
        assert sfd.cone_defect(-sfd.omega) > 0.1


class TestInnerAutomorphisms:
    def test_identity_representative(self, model12):
        A = half_algebra(model12)
        theta = conjugation_action(np.eye(4, dtype=complex), A)
        u = theta.representative()
        assert maxabs(u @ u.conj().T - np.eye(4)) < 1e-11
        assert maxabs(u @ A.basis[1] @ u.conj().T - A.basis[1]) < 1e-10

    def test_round_trip_recovers_unitary(self, model22):
        A = half_algebra(model22)
        v = random_unitary_in(A, rng)
        u = inner_unitary(conjugation_action(v, A))
        z = np.trace(v.conj().T @ u) / np.trace(v.conj().T @ v)
        assert maxabs(u - z * v) < 1e-9
        assert abs(abs(z) - 1.0) < 1e-9

    def test_compose_and_inverse_are_action_level(self, model22):
        A = half_algebra(model22)
        t1 = conjugation_action(random_unitary_in(A, rng), A)
        t2 = conjugation_action(random_unitary_in(A, rng), A)
        both = t1.compose(t2)
        direct = conjugation_action(t1._representative @ t2._representative, A)
        assert both.distance(direct) < 1e-10
        assert maxabs(both.apply(A.basis) - direct.apply(A.basis)) < 1e-10
        round_trip = t1.compose(t1.inverse())
        identity = conjugation_action(np.eye(model22.fock_dim), A)
        assert round_trip.distance(identity) <= DEFAULT_TOL.eq_tol
        assert maxabs(round_trip.apply(A.basis) - A.basis) < 1e-10

    def test_recovers_traceless_representative(self, model22):
        # a product of two first-half generators has trace zero, so a solve
        # that probed with the identity alone would find nothing
        A = half_algebra(model22)
        first = generator_indices(model22, half_space(model22, "first"))
        v = model22.generators[first[0]] @ model22.generators[first[1]]
        assert abs(np.trace(v)) < 1e-12
        u = inner_unitary(conjugation_action(v, A))
        z = np.trace(v.conj().T @ u) / np.trace(v.conj().T @ v)
        assert maxabs(u - z * v) < 1e-9
        assert abs(abs(z) - 1.0) < 1e-9

    def test_round_trip_without_generators(self, model22):
        # no generators: the action is re-verified on every basis element
        A = half_algebra(model22)
        bare = algebra_from_span(A.basis)
        assert bare.generators is None
        v = random_unitary_in(bare, rng)
        u = inner_unitary(conjugation_action(v, bare))
        z = np.trace(v.conj().T @ u) / np.trace(v.conj().T @ v)
        assert maxabs(u - z * v) < 1e-9

    def test_round_trip_at_fock64(self):
        model = build_clifford_model(2, 3)
        A = half_algebra(model)
        v = random_unitary_in(A, rng)
        theta = conjugation_action(v, A)
        u = inner_unitary(theta)
        assert maxabs(u @ A.basis @ u.conj().T - theta.apply(A.basis)) < 1e-9
        z = np.trace(v.conj().T @ u) / np.trace(v.conj().T @ v)
        assert maxabs(u - z * v) < 1e-9

    def test_rejects_automorphism_implemented_outside(self):
        # conjugation by the other generator flips the sign of the first: an
        # automorphism of the two-point algebra with no implementer inside it
        model = build_clifford_model(1, 1, allow_odd_modes=True)
        A = algebra_from_span(np.stack([np.eye(2, dtype=complex), model.generators[0]]))
        w = model.generators[1]
        with pytest.raises(NotInner, match="no implementing element"):
            inner_unitary(conjugation_action(w, A))

    def test_center_blocks_uniqueness(self):
        # single lattice mode: the two-point algebra has a center, so the
        # implementing line is not unique
        model = build_clifford_model(1, 1, allow_odd_modes=True)
        span = np.stack([np.eye(2, dtype=complex), model.generators[0]])
        A = algebra_from_span(span)
        with pytest.raises(NotInner):
            inner_unitary(conjugation_action(np.eye(2, dtype=complex), A))


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
            assert act == pytest.approx(on_generators, rel=0, abs=1e-15)
            assert act < 1e-9
            assert jcomm == maxabs(U @ Mj - Mj @ np.conj(U)) < 1e-9

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
        assert span_residual(theta.images, A.basis) <= DEFAULT_TOL.eq_tol

    def test_graded_second_half_generator_normalizes(self, model22):
        # an odd generator of the complementary half conjugates the algebra
        # to itself with graded signs, hence stays in the normalizer
        A = half_algebra(model22)
        w = model22.generators[generator_indices(model22, half_space(model22, "second"))[0]]
        theta = conjugation_action(w, A)
        assert span_residual(theta.images, A.basis) <= DEFAULT_TOL.eq_tol

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
        A = half_algebra(model22)
        sfd = tomita_data(A, model22.vacuum)
        u = random_unitary_in(A, rng)
        assert maxabs(reflected_action(u, A, sfd).apply(A.basis) - A.basis) < 1e-9
        assert maxabs(conjugation_action(sfd.reflect(u), A).apply(A.basis) - A.basis) < 1e-9

    def test_canonical_has_equal_actions(self, model22):
        A = half_algebra(model22)
        sfd = tomita_data(A, model22.vacuum)
        theta = conjugation_action(random_unitary_in(A, rng), A)
        U = canonical_implementation(sfd, A, theta).unitary
        for side in (conjugation_action(U, A), reflected_action(U, A, sfd)):
            assert side.distance(theta) < 1e-9
            assert maxabs(side.apply(A.basis) - theta.apply(A.basis)) < 1e-9


def rank_deficient_stack(rand, rows, cols, rank):
    left = rand.standard_normal((rows, rank)) + 1j * rand.standard_normal((rows, rank))
    right = rand.standard_normal((rank, cols)) + 1j * rand.standard_normal((rank, cols))
    return left @ right


@pytest.fixture(scope="module")
def context23():
    return build_context(build_clifford_model(2, 3))


class TestTallRowSpaces:
    """The tall-SVD row space and the matmul cone tensor against the wide-SVD
    and einsum routes they replaced."""

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
        alg, sfd = context23.algebra, context23.sfd
        jbj_omega = np.stack([sfd.reflect(b) @ sfd.omega for b in alg.basis])
        reference = np.einsum("iab,jb->ija", alg.basis, jbj_omega)
        assert sfd._cone_tensor.flags.c_contiguous
        assert maxabs(sfd._cone_tensor - reference) <= 1e-13

    def test_context_bases_are_c_contiguous(self, context23):
        for alg in (context23.algebra, loopfock.rep.half_algebra(context23.model, "second")):
            assert alg.basis.flags.c_contiguous


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
        return residual(ctx.algebra.generators), residual(ctx.algebra.basis)

    def test_normalizer(self, context):
        rand = np.random.default_rng(5)
        A = context.algebra
        model = context.model
        second = model.generators[generator_indices(model, half_space(model, "second"))[0]]
        for W in (random_unitary_in(A, rand), second, context.sfd.reflect(second)):
            forms = self.both_forms(context, lambda stack: span_residual(W @ stack @ W.conj().T, A.basis))
            assert max(forms) < 1e-10

    def test_canonical_action(self, context):
        rand = np.random.default_rng(5)
        A, sfd = context.algebra, context.sfd
        for _ in range(3):
            theta = conjugation_action(random_unitary_in(A, rand), A)
            U, act, _ = canonical_implementation(sfd, A, theta)
            on_basis = maxabs(U @ A.basis @ U.conj().T - theta.apply(A.basis))
            assert max(act, on_basis) < 1e-10

    def test_double_commutant(self, context):
        # A' is generated by the twisted second-half generators Gamma b
        model = context.model
        twisted = model.grading_signs[:, None] * half_generators(model, "second")
        comm = generated_star_algebra(twisted)
        assert comm.dim * context.algebra.dim == model.fock_dim ** 2
        on_generators = max(maxabs(a @ twisted - twisted @ a) for a in context.algebra.generators)
        on_bases = max(maxabs(a @ comm.basis - comm.basis @ a) for a in context.algebra.basis)
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
        u1, u2 = random_unitary_in(A, rng), random_unitary_in(A, rng)
        theta = InnerAutomorphism(A, u1, u1 @ A.generators @ u1.conj().T, u2)
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
        for theta in (conjugation_action(w, A), reflected_action(w, A, sfd)):
            assert span_residual(theta.apply(A.basis), A.basis) < 1e-10

    def test_every_generator_is_checked(self, model22):
        # rotating generator 1 into the second half fixes generator 0, which
        # anticommutes with both rotated generators
        A = half_algebra(model22)
        U = (np.cos(0.45) * np.eye(model22.fock_dim)
             + np.sin(0.45) * model22.generators[1] @ model22.generators[5])
        assert maxabs(U @ A.generators[0] @ U.conj().T - A.generators[0]) < 1e-12
        with pytest.raises(NotInNormalizer):
            conjugation_action(U, A)

    def test_algebra_without_generators_checks_the_basis(self, model22, monkeypatch):
        A = half_algebra(model22)
        bare = algebra_from_span(A.basis)
        assert bare.generators is None
        sfd = tomita_data(bare, model22.vacuum)
        theta = conjugation_action(random_unitary_in(bare, rng), bare)
        U, act, _ = canonical_implementation(sfd, bare, theta)
        assert act == maxabs(U @ bare.basis @ U.conj().T - theta.apply(bare.basis))
        seen = []

        def recording(stack, ortho):
            seen.append(len(stack))
            return span_residual(stack, ortho)

        monkeypatch.setattr(loopfock.algebra, "span_residual", recording)
        conjugation_action(U, bare)
        conjugation_action(U, A)
        # the normalizer check on the constraint generators, then U's own
        # membership, which decides whether U is kept as the representative
        assert seen == [bare.dim, 1, len(A.generators), 1]


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
    replaced, which a twin algebra without generators still takes."""

    def test_routes_agree(self, context, monkeypatch):
        A = context.algebra
        twin = OperatorAlgebra(A.basis)
        assert A.generators_ready(DEFAULT_TOL) and not twin.generators_ready(DEFAULT_TOL)
        seen = recording_projections(monkeypatch)
        rand = np.random.default_rng(11)
        for _ in range(3):
            v = random_unitary_in(A, rand)
            u_gen = inner_unitary(conjugation_action(v, A))
            assert seen[-1] == len(A.generators)
            calls = len(seen)
            u_basis = inner_unitary(conjugation_action(v, twin))
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
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        A = generated_star_algebra(np.stack([sx, (sx + sz) / np.sqrt(2)]))
        assert A.dim == 4 and not A.generators_ready(DEFAULT_TOL)
        seen = recording_projections(monkeypatch)
        v = random_unitary_in(A, np.random.default_rng(13))
        u = inner_unitary(conjugation_action(v, A))
        assert seen == []
        assert same_line(u, v) == pytest.approx(1.0, rel=0, abs=1e-12)
        # the commutant takes the kernel route too; the averaging route
        # raised ArithmeticError on these generators
        assert commutant(A).dim == 1

    def test_refuses_a_generator_image_off_by_twice_eq_tol(self, model22):
        # u g_0 u^* is traceless for every unitary u, so adding 2 eq_tol times
        # the identity to the image of g_0 leaves a diagonal entry of the
        # final check at least 2 eq_tol away, whatever u the solve returns
        A = half_algebra(model22)
        v = random_unitary_in(A, np.random.default_rng(4))
        assert same_line(inner_unitary(conjugation_action(v, A)), v) == pytest.approx(1.0, rel=0, abs=1e-12)
        theta = conjugation_action(v, A)
        theta.images[0] += 2.0 * DEFAULT_TOL.eq_tol * np.eye(A.space_dim)
        with pytest.raises(NotInner, match="fails the action"):
            inner_unitary(theta)

    def test_held_arrays_scale_with_the_generators(self, context):
        # implementer, generator images and representative: nothing of the
        # size of the basis images, dim A N^2 entries
        A = context.algebra
        rand = np.random.default_rng(15)
        t1, t2 = (conjugation_action(random_unitary_in(A, rand), A) for _ in range(2))
        bound = len(A.constraint_generators()) * A.space_dim ** 2
        for theta in (t1.compose(t2), t1.inverse()):
            theta.representative()
            held = [x for x in vars(theta).values() if isinstance(x, np.ndarray)]
            assert len(held) == 3 and max(x.size for x in held) <= bound

    def test_readiness_cache_is_not_a_parameter(self, model22):
        A = half_algebra(model22)
        assert A.generators_ready(DEFAULT_TOL)
        with pytest.raises(TypeError):
            OperatorAlgebra(A.basis, A.generators, {DEFAULT_TOL: True})
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        bad = np.stack([np.kron(np.eye(A.space_dim // 2), m) for m in (sx, (sx + np.diag([1.0, -1.0])) / np.sqrt(2))])
        assert not dataclasses.replace(A, generators=bad).generators_ready(DEFAULT_TOL)

    def test_nan_generator_is_not_ready(self, model12):
        gens = half_algebra(model12).generators.copy()
        assert _averaging_ready(gens, DEFAULT_TOL)
        gens[-1, 0, 0] = np.nan
        assert not _averaging_ready(gens, DEFAULT_TOL)


inner_algebras = {}


@pytest.mark.parametrize("n, d", [(1, 2), (2, 2)])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_inner_unitary_recovers_exponentials(n, d, data):
    """For v = exp(i h), h Hermitian in the algebra, both routes return v up
    to a phase from the action of Ad v."""
    if (n, d) not in inner_algebras:
        A = half_algebra(build_clifford_model(n, d))
        inner_algebras[n, d] = A, OperatorAlgebra(A.basis)
    A, twin = inner_algebras[n, d]
    coords = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    c = np.array(data.draw(st.lists(coords, min_size=2 * A.dim, max_size=2 * A.dim)))
    x = A.from_coordinates(c[:A.dim] + 1j * c[A.dim:])
    w, V = np.linalg.eigh(0.5 * (x + x.conj().T))
    v = (V * np.exp(1j * w)) @ V.conj().T
    for alg in (A, twin):
        assert same_line(inner_unitary(conjugation_action(v, alg)), v) == pytest.approx(1.0, rel=0, abs=1e-12)


class TestConeDefects:
    @staticmethod
    def eigvalsh_defect(sfd, v):
        """The per-vector defect by a full eigenvalue decomposition."""
        M = np.tensordot(sfd._cone_tensor, np.conj(v) / np.linalg.norm(v), axes=(2, 0))
        lam_min = float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0])
        return max(maxabs(M - M.conj().T), -min(lam_min, 0.0))

    def test_batch_matches_eigvalsh(self, context):
        A, sfd = context.algebra, context.sfd
        rand = np.random.default_rng(14)
        U = canonical_implementation(
            sfd, A, conjugation_action(random_unitary_in(A, rand), A)).unitary
        inside = [sfd.cone_frame[0], U @ sfd.cone_frame[1]]
        for _ in range(3):
            a = A.from_coordinates(rand.standard_normal(A.dim) + 1j * rand.standard_normal(A.dim))
            inside.append(a @ sfd.reflect(a) @ sfd.omega)
        outside = [-sfd.omega, rand.standard_normal(A.space_dim) + 1j * rand.standard_normal(A.space_dim)]
        for batch in (inside, inside + outside):
            got = sfd.cone_defects(np.stack(batch))
            ref = [self.eigvalsh_defect(sfd, v) for v in batch]
            assert maxabs(got - ref) <= 1e-15
            assert [sfd.cone_defect(v) for v in batch] == pytest.approx(ref, rel=0, abs=1e-15)

    def test_eigenvalues_only_when_cholesky_fails(self, context, monkeypatch):
        sfd = context.sfd
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recording(M):
            seen.append(len(M))
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        assert max(sfd.cone_defects(sfd.cone_frame[:4])) < 1e-12
        assert seen == []
        planted = np.stack([sfd.cone_frame[0], -sfd.omega])
        defects = sfd.cone_defects(planted)
        assert seen == [2]
        assert defects[0] < 1e-12 and defects[1] > 1e-3
        assert sfd.cone_defect(np.zeros(sfd.omega.shape)) == 0.0
