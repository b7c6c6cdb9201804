import dataclasses
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import loopfock.loops
import loopfock.rep
from loopfock.algebra import (OperatorAlgebra, StandardFormData, canonical_implementation,
                              conjugation_action, reflected_action, super_commutant_probes)
from loopfock.bogoliubov import implementation_residual
from loopfock.clifford import (build_clifford_model, clifford_monomials, generator_indices,
                               half_space, monomial_closure_residual)
from loopfock.errors import EndpointMismatch, NotAveragingReady, NotInA, NotInNormalizer
from loopfock.linalg import CHECK_ROWS, DEFAULT_TOL, TolerancePolicy, maxabs, span_residual
from loopfock.loops import (SpinGroup, concat_paths, double_path, embed_even, half_supported_loop,
                            lift, loop_identity, omega_matrix)
from loopfock.report import RunConfig
from loopfock.rep import (TWISTED_PROBES, InnerAutomorphismGroup, NormalizerGroup, PairLiftGroup,
                          build_context, check_alpha_compatibility,
                          check_f_scalar, check_fusion_factorization,
                          check_membership_evenness, check_pi_levels,
                          check_t_compatibility, check_twisted_duality,
                          check_two_group_compatibility,
                          check_well_definedness, fusion_factorization,
                          half_algebra, half_generators,
                          irreducibility_dimension, loop_unitary,
                          modular_vs_reflection, normalizer_two_group,
                          pair_two_group, path_automorphism,
                          representation_intertwiner, unit_sign_cocycle)
from loopfock.suites import Environment, run_suites, tomita_checks
from loopfock.twogroup import check_intertwiner, check_minimal_data
from reference import (algebra_from_span, commutant, dense_reflected_action, generated_star_algebra,
                       kernel_commutant, kernel_super_commutant, monomial_algebra, super_commutant)

rng = np.random.default_rng(61)
TOL = TolerancePolicy()


@pytest.fixture(scope="module")
def ctx12():
    return build_context(build_clifford_model(1, 2))


@pytest.fixture(scope="module")
def ctx22():
    return build_context(build_clifford_model(2, 2))


@pytest.fixture(scope="module")
def ctx23():
    return build_context(build_clifford_model(2, 3))


HALF_CONFIGS = [(1, 2), (2, 2), (2, 3), (3, 2)]


@pytest.fixture(scope="module", params=HALF_CONFIGS, ids=lambda nd: f"{nd[0]}-{nd[1]}")
def half_model(request):
    return build_clifford_model(*request.param)


class TestHalfAlgebra:
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_basis_is_orthonormal(self, half_model, which):
        # the reference's monomials over sqrt(N), orthonormal as they come
        alg = monomial_algebra(half_model, which)
        flat = alg.basis.reshape(alg.dim, -1)
        assert maxabs(flat @ flat.conj().T - np.eye(alg.dim)) <= 1e-13

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_matches_the_orthonormalized_monomial_span(self, half_model, which):
        alg = monomial_algebra(half_model, which)
        reference = algebra_from_span(clifford_monomials(half_model, half_space(half_model, which)),
                                      half_generators(half_model, which))
        assert alg.dim == reference.dim == half_algebra(half_model, which).dim
        assert span_residual(alg.basis, reference.basis) <= 1e-12
        assert span_residual(reference.basis, alg.basis) <= 1e-12
        # and the frame holds every basis element
        assert half_algebra(half_model, which).membership_residual(alg.basis) <= 1e-13

    def test_context_build_peaks_below_the_old_basis(self):
        # the context held the basis of A, dim A = N matrices of N x N
        # complex entries: N^3 16 B = 4 MiB at (2,3), and the build peaked at
        # 8.2 MiB with it.  The frame W, the modular data and their
        # transients are a few N x N arrays, 64 KiB each
        model = build_clifford_model(2, 3)
        tracemalloc.start()
        try:
            build_context(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.fock_dim ** 3 * 16

    def test_context_carries_the_first_half(self, half_model):
        A = half_algebra(half_model, "first")
        carried = build_context(half_model).algebra
        assert np.array_equal(carried.generators, A.generators)
        assert np.array_equal(carried.frame, A.frame)


def same_span(closed, reference):
    """True iff two orthonormal stacks have the same length and span."""
    return len(closed) == len(reference) and max(span_residual(closed, reference),
                                                 span_residual(reference, closed)) <= 1e-12


def twisted_commutant(model):
    """The algebra the twisted second-half generators Gamma b generate."""
    return generated_star_algebra(model.grading_signs[:, None] * half_generators(model, "second"))


class TestClosedForms:
    """The generators the tomita checks read against the solved references."""

    def test_commutant_is_the_averaged_one(self, half_model):
        A = half_algebra(half_model, "first")
        assert same_span(twisted_commutant(half_model).basis, commutant(A))

    def test_super_commutant_is_the_averaged_one(self, half_model):
        A = half_algebra(half_model, "first")
        assert same_span(monomial_algebra(half_model, "second").basis,
                         super_commutant(A, half_model.grading_signs))

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2)])
    def test_both_are_the_kernel_ones(self, n, d):
        # the kernel route on the whole basis; at Fock 64 its first null
        # space is of a 4096 x 4096 matrix, and one solve ran over four
        # minutes on a 2-core machine
        model = build_clifford_model(n, d)
        basis = monomial_algebra(model, "first").basis
        assert same_span(twisted_commutant(model).basis, kernel_commutant(basis))
        assert same_span(monomial_algebra(model, "second").basis,
                         kernel_super_commutant(basis, model.grading_signs))

    def test_probes_lie_in_the_averaged_super_commutant(self, half_model):
        A, B = monomial_algebra(half_model, "first"), half_algebra(half_model, "second")
        reference = super_commutant(B, half_model.grading_signs)
        probes = super_commutant_probes(B.generators, half_model.grading_signs, TWISTED_PROBES)
        assert span_residual(probes, reference) <= 1e-12
        assert same_span(A.basis, reference)

    def test_flip_closure_has_the_generated_dimension(self, half_model):
        points = half_space(half_model, "first")
        mono = clifford_monomials(half_model, points)
        assert monomial_closure_residual(half_model, points, mono) <= 1e-13
        generated = generated_star_algebra(half_model.generators[generator_indices(half_model, points)])
        assert generated.dim == mono.shape[0]


class TestContext:
    def test_algebra_is_the_monomial_span(self, ctx22):
        mono = clifford_monomials(ctx22.model, half_space(ctx22.model, "first"))
        assert ctx22.algebra.dim == mono.shape[0]
        assert ctx22.algebra.membership_residual(mono) < 1e-12

    def test_super_commutant_is_the_other_half(self, ctx22):
        res = check_twisted_duality(ctx22)
        assert max(res.values()) <= 1e-9, res

    def test_no_run_builds_a_second_half_basis(self, monkeypatch):
        def records(cfg):
            code, recs = run_suites(cfg)
            return code, [(r.name, r.residual, r.passed) for r in recs]

        runs = [RunConfig(n=2, d=2, suites=("clifford", "bogoliubov", "tomita", "two-group", "string",
                                            "rep")),
                RunConfig(n=2, d=3, suites=("tomita",))]
        expected = [records(cfg) for cfg in runs]
        monomials = loopfock.clifford.clifford_monomials

        def first_half_only(model, points):
            if tuple(points) != half_space(model, "first"):
                raise AssertionError(f"monomials of {points} were built")
            return monomials(model, points)

        monkeypatch.setattr(loopfock.clifford, "clifford_monomials", first_half_only)
        # the same records, the structural reds included
        assert [records(cfg) for cfg in runs] == expected

    def test_only_the_clifford_suite_builds_monomials(self, monkeypatch):
        cfg = RunConfig(n=2, d=2, suites=("tomita", "two-group", "string", "rep"))

        def records():
            code, recs = run_suites(cfg)
            return code, [(r.suite, r.name, r.residual, r.passed) for r in recs]

        expected = records()

        def refused(model, points):
            raise AssertionError(f"monomials of {points} were built")

        monkeypatch.setattr(loopfock.clifford, "clifford_monomials", refused)
        assert records() == expected
        assert not any(name.endswith("aborted") for _, name, _, _ in expected[1])

    def test_tomita_reads_no_dense_coordinates_or_membership(self, monkeypatch):
        # the tomita checks draw in the frame and decide normalizers by the
        # frame factorization; only rep's twisted duality reads membership
        cfg = RunConfig(n=2, d=2, suites=("tomita",))

        def records():
            code, recs = run_suites(cfg)
            return code, [(r.suite, r.name, r.residual, r.passed) for r in recs]

        expected = records()

        def only_from_rep(name):
            honest = getattr(OperatorAlgebra, name)

            def guarded(self, *args):
                caller = sys._getframe(1).f_globals["__name__"]
                if caller != "loopfock.rep":
                    raise AssertionError(f"{caller} called {name}")
                return honest(self, *args)
            return guarded

        # the dense element at given coordinates is a test helper only
        assert not hasattr(OperatorAlgebra, "from_coordinates")
        monkeypatch.setattr(OperatorAlgebra, "membership_residual", only_from_rep("membership_residual"))
        assert records() == expected
        assert not any(name.endswith("aborted") for _, name, _, _ in expected[1])

    def test_modular_conjugation_edge_law(self, ctx22):
        # J pi(e_{j,a}) J = i Gamma pi(e_{2n-1-j,a}): the lattice reflection
        # implemented by the modular conjugation is edge-centered
        model = ctx22.model
        J = ctx22.sfd.conjugation
        G = model.grading
        n, d = model.n, model.d
        for j in range(2 * n):
            for a in range(d):
                W = J.conjugate_matrix(model.generators[j * d + a])
                target = 1j * G @ model.generators[((2 * n - 1 - j) % (2 * n)) * d + a]
                assert maxabs(W - target) < 1e-9


FRAME_CONFIGS = [(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)]


def membership_cases(model):
    """Members of the first-half algebra, a lifted half loop and the
    generators, and planted non-members: a second-half generator, and the
    lift plus 1e-3 times it."""
    spin = SpinGroup(model.d)
    U = lift(model, spin, half_supported_loop(model.n, spin, np.random.default_rng(3))).unitary
    g = half_generators(model, "second")[0]
    return ({"half-loop lift": U, "generators": half_generators(model, "first")},
            {"second-half generator": g, "lift plus 1e-3 generator": U + 1e-3 * g})


def routes_agree(frame, basis, members, outside):
    """Frame and basis membership both read the members at rounding level,
    and each planted non-member above 1e-4 and within a factor two of each
    other."""
    for X in members.values():
        if not max(frame.membership_residual(X), basis.membership_residual(X)) <= 1e-13:
            return False
    for X in outside.values():
        a, b = frame.membership_residual(X), basis.membership_residual(X)
        if not (min(a, b) > 1e-4 and 0.5 <= a / b <= 2.0):
            return False
    return True


def first_factor_residual(alg, X):
    """membership_residual with the partial trace over the first factor: it
    tests W^* X W against 1 (x) M_k, on the blocks Y[(., q), (., s)]."""
    k = alg.k
    Y = alg.frame.conj().T @ np.asarray(X, dtype=complex) @ alg.frame
    blocks = Y.reshape(-1, k, k, k, k).transpose(0, 2, 4, 1, 3).reshape(-1, k, k)
    return span_residual(blocks, np.eye(k)[None] / np.sqrt(k))


class TestFrameMembership:
    """Membership in the frame against the span residual over the monomial
    basis in tests/reference.py."""

    @pytest.mark.parametrize("n, d", FRAME_CONFIGS)
    def test_frame_and_basis_routes_agree(self, n, d):
        model = build_clifford_model(n, d)
        members, outside = membership_cases(model)
        assert routes_agree(half_algebra(model, "first"), monomial_algebra(model, "first"), members, outside)

    def test_a_partial_trace_over_the_first_factor_is_caught(self, monkeypatch):
        model = build_clifford_model(2, 2)
        frame, basis = half_algebra(model, "first"), monomial_algebra(model, "first")
        members, outside = membership_cases(model)
        monkeypatch.setattr(OperatorAlgebra, "membership_residual", first_factor_residual)
        assert not routes_agree(frame, basis, members, outside)
        _, records = run_suites(RunConfig(n=2, d=2, suites=("rep",)))
        fiber = next(r for r in records if r.name == "fiber lands in the algebra")
        assert not fiber.passed and fiber.residual > 0.1


class TestTwistedDuality:
    @pytest.mark.parametrize("context", ["ctx22", "ctx23"])
    def test_probes_fail_alone_on_a_short_second_half(self, request, plant_second_half, context):
        ctx = request.getfixturevalue(context)
        # all but two second-half generators: B graded-commutes with A but
        # is too small, so its super commutant is larger than A
        plant_second_half(half_generators(ctx.model, "second")[:-2])
        res = check_twisted_duality(ctx)
        assert res["graded commutator A_perp with A"] <= 1e-12
        assert res["span residual A"] > 0.1
        assert res["super commutant of A equals A_perp"] == 1.0
        assert res["super commutant of A_perp equals A"] == 1.0

    @pytest.mark.parametrize("generators", ["none", "even", "not averaging"])
    def test_second_half_without_usable_generators_is_refused(self, ctx22, plant_second_half, generators):
        gens = half_generators(ctx22.model, "second")
        if generators == "none":
            planted = gens[:0]
        elif generators == "even":
            planted = gens[:-1] @ gens[1:]
        else:
            # odd unitary involutions that neither commute nor anticommute
            planted = np.stack([gens[0], (gens[0] + gens[1]) / np.sqrt(2)])
        plant_second_half(planted)
        with pytest.raises(NotAveragingReady):
            check_twisted_duality(ctx22)

    def test_a_tomita_run_forms_no_dense_grading(self):
        env = Environment(RunConfig(n=2, d=2, suites=("tomita",)))
        records = tomita_checks(env)
        assert all(r.passed for r in records)
        assert "grading" not in vars(env.model)


class TestTomitaMemory:
    def test_twisted_duality_peak_at_fock_64(self, ctx23):
        tracemalloc.start()
        try:
            res = check_twisted_duality(ctx23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(res.values()) <= 1e-9, res
        # 19.2 MiB while the super commutant of B was solved
        assert peak <= 4 * 2 ** 20

    def test_span_residual_holds_one_chunk(self):
        model = build_clifford_model(2, 3)
        A, B = monomial_algebra(model, "first"), monomial_algebra(model, "second")
        tracemalloc.start()
        try:
            res = span_residual(A.basis, B.basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # only the identity is shared: the rest of each unit-norm element
        # leaves the span
        assert res > 0.1
        # CHECK_ROWS rows, plus the coefficient block and the casting buffer
        # of the in-place modulus; the whole 64-row stack at once peaked at
        # 160 rows
        assert peak <= (CHECK_ROWS + 2) * A.basis[0].nbytes


class TestFiberAndBase:
    def test_trivial_elements(self, ctx22):
        fiber = ctx22.string_cm.fiber
        assert maxabs(loop_unitary(ctx22, fiber.identity()) - np.eye(16)) == 0.0
        ident = path_automorphism(ctx22, ctx22.string_cm.base.identity())
        identity = conjugation_action(np.eye(16), ctx22.algebra)
        assert ident.distance(identity) <= DEFAULT_TOL.eq_tol

    def test_central_scalars_pass_through(self, ctx22):
        z = np.exp(1.1j)
        central = ctx22.string_cm.fiber.central(z)
        assert maxabs(loop_unitary(ctx22, central) - z * np.eye(16)) < 1e-14

    def test_membership_and_evenness(self, ctx22):
        res = check_membership_evenness(ctx22, 25, np.random.default_rng(1))
        assert max(res.values()) <= 1e-9, res

    def test_nan_unitary_rejected(self, ctx12):
        ext = ctx12.string_cm.fiber.sample(np.random.default_rng(4))
        blocks = ext.blocks.copy()
        blocks[0, 0, 0] = np.nan
        with pytest.raises(NotInA):
            loop_unitary(ctx12, dataclasses.replace(ext, blocks=blocks))

    def test_full_support_unitary_rejected(self, ctx22):
        spin = ctx22.spin
        loop = np.stack([spin.sample(rng) for _ in range(4)])
        ext = lift(ctx22.model, spin, loop)
        with pytest.raises(NotInA):
            loop_unitary(ctx22, ext)

    def test_base_homomorphism(self, ctx22):
        paths = ctx22.string_cm.base
        p, q = paths.sample(rng), paths.sample(rng)
        lhs = path_automorphism(ctx22, paths.mul(p, q))
        rhs = path_automorphism(ctx22, p).compose(path_automorphism(ctx22, q))
        assert lhs.distance(rhs) < 1e-10

    def test_base_only_sees_the_first_half(self, ctx22):
        paths = ctx22.string_cm.base
        p = paths.sample(rng)
        for _ in range(3):
            q = paths.sample(rng)
            q[-1] = p[-1]
            U = lift(ctx22.model, ctx22.spin, concat_paths(p, q)).unitary
            assert path_automorphism(ctx22, p).distance(
                conjugation_action(U, ctx22.algebra)) < 1e-10


class TestCompatibilities:
    def test_t_compatibility(self, ctx22):
        res = check_t_compatibility(ctx22, 40, np.random.default_rng(2))
        assert max(res.values()) <= 1e-9, res

    def test_alpha_compatibility(self, ctx22):
        res = check_alpha_compatibility(ctx22, 40, np.random.default_rng(3))
        assert max(res.values()) <= 1e-9, res
        # the sides come from the doubled-path lift and from the solved
        # representative, so they agree to rounding, not identically
        assert res["exact"] > 0.0

    def test_alpha_compatibility_fails_for_a_wrong_action(self, ctx22):
        cm = ctx22.string_cm
        # Spin(2) is abelian, so at d = 2 the true action fixes the unitary;
        # the planted one also inverts it
        wrong = dataclasses.replace(cm, act=lambda p, ext: cm.act(p, cm.fiber.inv(ext)))
        planted = dataclasses.replace(ctx22, string_cm=wrong)
        res = check_alpha_compatibility(planted, 5, np.random.default_rng(3))
        assert res["exact"] > 1e-3, res

    def test_well_definedness(self, ctx22):
        res = check_well_definedness(ctx22, 25, np.random.default_rng(4))
        assert max(res.values()) <= 1e-9, res

    def test_full_intertwiner(self, ctx22):
        R = representation_intertwiner(ctx22)
        res = check_intertwiner(R, ctx22.string_cm, ctx22.unitary_cm, 30,
                                np.random.default_rng(5))
        assert max(res.values()) <= 1e-9, res

    @pytest.mark.parametrize("interior", [False, True])
    def test_pair_sampler_matches_the_inline_idiom(self, ctx22, interior):
        p, q, U = PairLiftGroup(ctx22).sample(np.random.default_rng(12), interior)
        local = np.random.default_rng(12)
        paths = ctx22.string_cm.base
        ref_p, ref_q = paths.sample(local, interior), paths.sample(local, interior)
        ref_q[-1] = ref_p[-1]
        V = lift(ctx22.model, ctx22.spin, concat_paths(ref_p, ref_q)).unitary
        ref_U = np.exp(2j * np.pi * local.random()) * V
        U = embed_even(ctx22.model.parity_blocks, U)
        assert np.array_equal(p, ref_p) and np.array_equal(q, ref_q) and np.array_equal(U, ref_U)
        if interior:
            assert np.array_equal(p[-1], np.eye(2)) and np.array_equal(q[-1], np.eye(2))

    def test_pair_distance_reads_a_nan_unitary(self, ctx12):
        pairs = PairLiftGroup(ctx12)
        p, q, U = pairs.sample(np.random.default_rng(12))
        planted = U.copy()
        planted[0, 0] = np.nan
        assert np.isnan(pairs.dist((p, q, U), (p, q, planted)))
        assert np.isnan(pairs.dist((p, q, planted), (p, q, U)))

    def test_mismatched_endpoints_surface(self, ctx22):
        paths = ctx22.string_cm.base
        p, q = paths.sample(rng), paths.sample(rng)
        with pytest.raises(EndpointMismatch):
            concat_paths(p, q)


class TestFusionFactorization:
    def test_trivial_path(self, ctx22):
        ff = fusion_factorization(ctx22, ctx22.string_cm.base.identity())
        assert maxabs(ff.unitary - np.eye(16)) < 1e-11
        assert maxabs(ff.loop - loop_identity(2, ctx22.spin)) == 0.0

    def test_structure_report(self, ctx22):
        res = check_fusion_factorization(ctx22, 8, np.random.default_rng(6))
        assert max(res["loop component exact"], res["homomorphism"], res["J commutation"]) <= 1e-9, res
        # the canonical unitary realizes the edge-doubled rotation, not the
        # vertex-doubled one
        assert res["vertex doubled"] > 1e-2
        assert res["edge doubled"] < 1e-9

    def test_canonical_implements_the_edge_doubling(self, ctx22):
        from loopfock.loops import edge_double_path, omega_matrix
        paths = ctx22.string_cm.base
        p = paths.sample(rng)
        W = fusion_factorization(ctx22, p).unitary
        g = omega_matrix(ctx22.model, ctx22.spin, edge_double_path(p))
        assert implementation_residual(ctx22.model, W, g) < 1e-9

    def test_an_odd_part_of_the_canonical_unitary_survives(self, ctx22, monkeypatch):
        # the canonical unitary is not a lift and nothing makes it even, so it stays dense
        model = ctx22.model
        odd = model.generators[0]
        canonical = loopfock.rep.canonical_implementation
        p = ctx22.string_cm.base.sample(np.random.default_rng(5))
        W = fusion_factorization(ctx22, p).unitary

        def planted(*args):
            out = canonical(*args)
            return out._replace(unitary=out.unitary + 1e-6 * odd)

        monkeypatch.setattr(loopfock.rep, "canonical_implementation", planted)
        planted = fusion_factorization(ctx22, p).unitary
        s = model.grading_signs
        odd_part = (planted - s[:, None] * planted * s) / 2
        assert maxabs(odd_part - 1e-6 * odd) <= 1e-15
        assert maxabs(planted - W - 1e-6 * odd) <= 1e-15

    def test_unit_comparison_defect_is_nonscalar(self, ctx22):
        res = check_f_scalar(ctx22, 10, np.random.default_rng(7))
        assert res["scalar defect"] > 1e-2


class TestTwoGroups:
    def test_pair_group_sections_and_kernels(self, ctx22):
        pair = pair_two_group(ctx22)
        res = check_minimal_data(pair, 10, np.random.default_rng(8))
        inner = {k: v for k, v in res.items() if k != "i homomorphism"}
        assert max(inner.values()) < 1e-9, inner

    def test_pair_unit_is_the_pointwise_homomorphism(self, ctx22):
        pair = pair_two_group(ctx22)
        res = check_minimal_data(pair, 10, np.random.default_rng(8))
        assert res["i homomorphism"] < 1e-9
        model, paths = ctx22.model, ctx22.string_cm.base
        sample = np.random.default_rng(16)
        for _ in range(10):
            p, q = paths.sample(sample), paths.sample(sample)
            for path in (p, q, paths.mul(p, q)):
                dbl = double_path(path)
                U = embed_even(model.parity_blocks, pair.unit(path)[2])
                g = omega_matrix(model, ctx22.spin, dbl)
                assert implementation_residual(model, U, g) < 1e-9
                # the vacuum-normalized lift is the unit times the sign of
                # its real vacuum overlap: the source of the sign cocycle
                overlap = np.vdot(model.vacuum, U @ model.vacuum)
                assert abs(overlap.imag) < 1e-12
                V = lift(model, ctx22.spin, dbl).unitary
                assert maxabs(V - np.sign(overlap.real) * U) < 1e-9

    def test_unit_sign_cocycle_structure(self, ctx22):
        data = unit_sign_cocycle(ctx22, 15, np.random.default_rng(9))
        assert data["distance from signs"] < 1e-9

    def test_normalizer_two_group(self, ctx22):
        norm = normalizer_two_group(ctx22)
        res = check_minimal_data(norm, 6, np.random.default_rng(10))
        assert max(res.values()) <= 1e-9, res

    def test_target_and_shifted_source(self, ctx22):
        res = check_two_group_compatibility(ctx22, 10, np.random.default_rng(11))
        assert res["target"] < 1e-9
        assert res["source vs edge-reversed loop"] < 1e-9
        # the vertex-aligned source comparison carries the lattice shift
        assert res["source (interior class)"] > 1e-3


class TestModularReflection:
    def test_mirror_stays_bogoliubov_and_matches_edge(self, ctx22):
        out = modular_vs_reflection(ctx22, 5, np.random.default_rng(12))
        assert out["bogoliubov defect"] < 1e-10
        assert out["edge"] < 1e-9
        assert out["vertex moved"] > 1e-2


class TestPiLevels:
    def test_report(self, ctx22):
        res = check_pi_levels(ctx22, 10, np.random.default_rng(13))
        assert max(res.values()) <= 1e-9, res

    def test_kernel_dimension(self, ctx12):
        assert irreducibility_dimension(ctx12.model, np.random.default_rng(14)) == 1


@pytest.fixture(scope="module", params=FRAME_CONFIGS, ids=lambda nd: f"{nd[0]}-{nd[1]}")
def frame_ctx(request):
    return build_context(build_clifford_model(*request.param))


class TestReflectedAction:
    """reflected_action reads J U J's automorphism off U's own frame
    factorization; the reference forms J U J densely and reads it again."""

    def mirrored(self, ctx):
        """Normalizer samples, pair lifts and canonical units."""
        draw = np.random.default_rng(21)
        pairs, units = PairLiftGroup(ctx), InnerAutomorphismGroup(ctx.algebra)
        out = [NormalizerGroup(ctx).sample(draw) for _ in range(3)]
        out += [embed_even(ctx.model.parity_blocks, pairs.sample(draw, interior)[2]) for interior in (False, True)]
        out += [canonical_implementation(ctx.sfd, ctx.algebra, units.sample(draw), ctx.tol).unitary
                for _ in range(2)]
        return out

    def test_frame_and_dense_routes_agree(self, frame_ctx):
        ctx = frame_ctx
        for U in self.mirrored(ctx):
            frame = reflected_action(U, ctx.algebra, ctx.sfd, ctx.tol)
            dense = dense_reflected_action(U, ctx.algebra, ctx.sfd, ctx.tol)
            assert frame.distance(dense) <= 1e-13
            assert max(frame.residual, dense.residual) <= 1e-13

    def test_both_routes_refuse_a_non_normalizer(self, frame_ctx):
        ctx = frame_ctx
        N = ctx.model.fock_dim
        z = np.random.default_rng(22).standard_normal((2, N, N))
        random_unitary = np.linalg.qr(z[0] + 1j * z[1])[0]
        nan = np.eye(N, dtype=complex)
        nan[1, 1] = np.nan
        for U in (random_unitary, nan):
            for route in (reflected_action, dense_reflected_action):
                with pytest.raises(NotInNormalizer):
                    route(U, ctx.algebra, ctx.sfd, ctx.tol)


class TestFrameRoutes:
    """The automorphisms of rep are formed from k x k factors: no dense J U J,
    no read-back of an embedded sample, no scatter of a pair lift outside
    the compatibility check."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = Counter()

        def counting(owner, name):
            honest = getattr(owner, name)

            def counted(*args, **kwargs):
                seen[name] += 1
                return honest(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        counting(StandardFormData, "reflect")
        counting(OperatorAlgebra, "frame_blocks")
        counting(loopfock.loops, "embed_even")
        counting(loopfock.rep, "embed_even")
        return seen

    def test_normalizer_and_compatibility_reflect_nothing_densely(self, ctx22, calls):
        check_minimal_data(normalizer_two_group(ctx22), 8, np.random.default_rng(30))
        check_two_group_compatibility(ctx22, 4, np.random.default_rng(31))
        assert calls["reflect"] == 0
        # the compatibility check scatters its two pair lifts per draw, and
        # its path automorphisms read their lifts dense
        assert calls["embed_even"] >= 2 * 4
        modular_vs_reflection(ctx22, 1, np.random.default_rng(32))
        assert calls["reflect"] == 1

    def test_sampled_automorphisms_read_no_frame_blocks(self, ctx22, calls):
        autos = InnerAutomorphismGroup(ctx22.algebra)
        draw = np.random.default_rng(33)
        sampled = [autos.sample(draw) for _ in range(4)]
        assert calls["frame_blocks"] == 0
        for theta in sampled:
            read = conjugation_action(ctx22.algebra.embed(theta.factor), ctx22.algebra)
            assert theta.distance(read) <= 1e-13
        assert calls["frame_blocks"] == 4

    def test_pair_minimal_data_scatters_no_lift(self, ctx22, calls):
        res = check_minimal_data(pair_two_group(ctx22), 8, np.random.default_rng(34))
        assert max(res.values()) <= 1e-9, res
        assert calls["embed_even"] == 0
