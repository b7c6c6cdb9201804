import io

import numpy as np
import pytest

import loopfock.linalg
import reference
from loopfock.errors import SingularInput
from loopfock.linalg import (DEFAULT_TOL, AntilinearOperator, TolerancePolicy, averaged_intertwiners,
                             dump_matrix, maxabs, polar_unitary, row_chunks, scalar_defect,
                             span_residual, sup, worst)
from reference import (NotInvolutive, antilinear_polar, joint_kernel, null_space, orthonormal_rows,
                       subspace_equal)

rng = np.random.default_rng(101)


def stacked_kernel(constraints):
    """Single-shot reference for joint_kernel: null space of all constraints stacked."""
    return null_space(np.vstack([np.asarray(c, dtype=complex) for c in constraints]))


def rref_kernel(M, tol=1e-10):
    """Row-reduction kernel oracle, independent of the SVD route."""
    M = np.array(M, dtype=complex)
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if abs(M[i, c]) > tol:
                pivot = i
                break
        if pivot is None:
            continue
        M[[r, pivot]] = M[[pivot, r]]
        M[r] = M[r] / M[r, c]
        for i in range(rows):
            if i != r and abs(M[i, c]) > tol:
                M[i] = M[i] - M[i, c] * M[r]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for c in free:
        v = np.zeros(cols, dtype=complex)
        v[c] = 1.0
        for i, pc in enumerate(pivots):
            v[pc] = -M[i, c]
        basis.append(v)
    return np.array(basis).T if basis else np.zeros((cols, 0), dtype=complex)


class TestTolerancePolicy:
    def test_defaults(self):
        assert DEFAULT_TOL.eq_tol == 1e-9
        assert DEFAULT_TOL.rank_tol == 1e-11

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TolerancePolicy(eq_tol=1e-12, rank_tol=1e-9)
        with pytest.raises(ValueError):
            TolerancePolicy(eq_tol=-1.0)


class TestNullSpace:
    def test_identity_has_trivial_kernel(self):
        assert null_space(np.eye(3)).shape == (3, 0)

    def test_zero_matrix_full_kernel(self):
        Q = null_space(np.zeros((2, 2)))
        assert Q.shape == (2, 2)
        assert maxabs(Q.conj().T @ Q - np.eye(2)) < 1e-12

    def test_rank_one_drop_matches_row_reduction(self):
        M = np.diag([1.0, 0.0, 2.0])
        Q = null_space(M)
        assert Q.shape == (3, 1)
        assert abs(abs(Q[1, 0]) - 1.0) < 1e-12
        R = rref_kernel(M)
        assert subspace_equal(Q, R)

    def test_random_kernel_vectors_annihilate(self):
        for _ in range(10):
            M = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
            Q = null_space(M)
            assert Q.shape[1] == 3
            assert maxabs(M @ Q) <= DEFAULT_TOL.eq_tol * np.linalg.norm(M, 2)
            assert subspace_equal(Q, rref_kernel(M))


class TestJointKernel:
    def test_empty_constraints_full_space(self):
        B = joint_kernel([], 5)
        assert B.shape == (5, 5)

    def test_schur_commutant_of_everything(self):
        # X commuting with all 2x2 matrices is scalar
        basis = [np.eye(2)[i][:, None] @ np.eye(2)[j][None, :] for i in range(2) for j in range(2)]

        def constraint(A):
            def apply(cols):
                X = cols.T.reshape(-1, 2, 2)
                return (A @ X - X @ A).reshape(-1, 4).T
            return apply

        B = joint_kernel([constraint(A) for A in basis], 4)
        assert B.shape[1] == 1
        X = B[:, 0].reshape(2, 2)
        defect, _ = scalar_defect(X)
        assert defect < 1e-10

    def test_permutation_invariance_and_stacked_agreement(self):
        constraints = [rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6)) for _ in range(3)]
        B1 = joint_kernel(constraints, 6)
        B2 = joint_kernel(constraints[::-1], 6)
        B3 = stacked_kernel(constraints)
        assert B1.shape[1] == 3
        assert subspace_equal(B1, B2)
        assert subspace_equal(B1, B3)


class TestPolar:
    def test_unitary_fixed(self):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        assert maxabs(polar_unitary(q) - q) < 1e-12

    def test_positive_definite_gives_identity(self):
        A = rng.standard_normal((3, 3))
        P = A @ A.T + 3 * np.eye(3)
        assert maxabs(polar_unitary(P) - np.eye(3)) < 1e-12

    def test_signed_diagonal(self):
        assert maxabs(polar_unitary(np.diag([2.0, -3.0])) - np.diag([1.0, -1.0])) < 1e-14

    def test_singular_rejected(self):
        with pytest.raises(SingularInput):
            polar_unitary(np.diag([1.0, 0.0]))

    def test_transpose_route_when_the_svd_fails(self, monkeypatch):
        # LAPACK's gesdd has failed to converge on a 64x64 multiple of a
        # unitary that the transposed matrix decomposes fine
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        M = 0.5 * np.linalg.qr(g)[0] + 1e-3 * g
        expected = polar_unitary(M)
        svd = np.linalg.svd
        seen = []

        def fail_on_m(a, *args, **kwargs):
            seen.append(a)
            if np.array_equal(a, M):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fail_on_m)
        assert maxabs(polar_unitary(M) - expected) < 1e-14
        assert len(seen) == 2 and np.array_equal(seen[1], M.T)


def random_involutive_antilinear(dim, spread=None):
    """S = J0 Delta0^{1/2} with J0 antiunitary involution and J0 Delta0 J0 = 1/Delta0.

    With spread, the eigenvalues of Delta0 fill [e^-spread, e^spread].
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    V, _ = np.linalg.qr(g)
    MJ = V @ V.T                      # symmetric unitary: (MJ conj)^2 = 1
    H = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = 0.5 * (H + H.conj().T)
    H = 0.5 * (H - MJ @ np.conj(H) @ np.conj(MJ))   # anticommutes with J0
    w, W = np.linalg.eigh(H)
    if spread is not None:
        w = w * (spread / np.abs(w).max())
    delta = (W * np.exp(w)) @ W.conj().T
    half = (W * np.exp(w / 2)) @ W.conj().T
    return AntilinearOperator(MJ @ np.conj(half)), AntilinearOperator(MJ), delta


class TestAntilinearPolar:
    def test_plain_conjugation(self):
        S = AntilinearOperator(np.eye(3, dtype=complex))
        J, delta = antilinear_polar(S)
        assert maxabs(J.linear - np.eye(3)) < 1e-12
        assert maxabs(delta - np.eye(3)) < 1e-12

    def test_diagonal_modulus_without_involution(self):
        S = AntilinearOperator(np.diag([2.0, 0.5]))
        with pytest.raises(NotInvolutive):
            antilinear_polar(S)

    def test_random_involutive_recovery(self):
        for dim in (2, 4):
            S, J0, delta0 = random_involutive_antilinear(dim)
            assert maxabs(S.linear @ np.conj(S.linear) - np.eye(dim)) < 1e-9
            J, delta = antilinear_polar(S)
            assert maxabs(J.linear - J0.linear) < 1e-8
            assert maxabs(delta - delta0) < 1e-7 * max(1.0, maxabs(delta0))
            w, W = np.linalg.eigh(delta)
            half = (W * np.sqrt(w)) @ W.conj().T
            assert maxabs(S.linear - J.linear @ np.conj(half)) < 1e-8 * max(1.0, maxabs(half))

    def test_ill_conditioned_modulus(self):
        # cond(Delta) = e^24: an eigendecomposition of S^* S would square
        # the condition number of S and fail the involution checks here
        S, J0, delta0 = random_involutive_antilinear(8, spread=12.0)
        J, delta = antilinear_polar(S)
        assert maxabs(J.linear - J0.linear) < 1e-10
        assert maxabs(delta - delta0) < 1e-12 * maxabs(delta0)


class TestAveragedIntertwiners:
    def test_matches_iterative_kernel(self):
        # anticommuting involution-type generators: Pauli pairs
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        lefts = [np.kron(X, np.eye(2)), np.kron(Y, np.eye(2))]
        rights = [np.kron(np.eye(2), X), np.kron(np.eye(2), Y)]
        basis = averaged_intertwiners(lefts, rights, 8, np.random.default_rng(5))

        def constraint(L, R):
            def apply(cols):
                Z = cols.T.reshape(-1, 4, 4)
                return (L @ Z - Z @ R).reshape(-1, 16).T
            return apply

        cols = joint_kernel([constraint(L, R) for L, R in zip(lefts, rights)], 16)
        assert basis.shape[0] == cols.shape[1]
        flat = basis.reshape(basis.shape[0], -1).T
        assert subspace_equal(flat, cols)

    def test_rejects_non_involutive_generators(self):
        with pytest.raises(ValueError):
            averaged_intertwiners([np.diag([1.0, 2.0])], [np.diag([1.0, 2.0])], 4,
                                  np.random.default_rng(0))

    def test_a_nan_in_the_last_checked_chunk_raises(self, monkeypatch):
        def with_nan_chunk(stack):
            return row_chunks(stack) + [np.full((1,) + stack.shape[1:], np.nan)]

        monkeypatch.setattr(loopfock.linalg, "row_chunks", with_nan_chunk)
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ArithmeticError, match="nan"):
            averaged_intertwiners([X], [X], 4, np.random.default_rng(0))


class TestNanGuards:
    """A planted NaN fails each guard of the module with the guard's own error."""

    def test_nan_generator_squares(self):
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        planted = X.copy()
        planted[0, 0] = np.nan
        for lefts, rights, side in (([planted], [X], "left"), ([X], [planted], "right")):
            with pytest.raises(ValueError, match=f"{side} generator square"):
                averaged_intertwiners(lefts, rights, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("first_nan", [0, 1, 2], ids=["S S", "J J", "J Delta J"])
    def test_nan_polar_residuals(self, monkeypatch, first_nan):
        # maxabs reads NaN from its call first_nan on; the builtin max kept
        # jj when only jdj was NaN
        calls = []

        def planted(M):
            calls.append(M)
            return float("nan") if len(calls) > first_nan else maxabs(M)

        monkeypatch.setattr(reference, "maxabs", planted)
        with pytest.raises(NotInvolutive):
            antilinear_polar(AntilinearOperator(np.eye(3, dtype=complex)))


class TestSubspaces:
    def test_same_and_scaled(self):
        e1 = np.array([[1.0], [0.0]])
        assert subspace_equal(e1, e1)
        assert subspace_equal(e1, 2 * e1)

    def test_distinct(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert not subspace_equal(e1, e2)

    def test_orthonormal_rows_rank(self):
        stack = np.stack([np.eye(2), 2 * np.eye(2), np.diag([1.0, -1.0])])
        basis = orthonormal_rows(stack)
        assert basis.shape[0] == 2
        assert span_residual(stack, basis) < 1e-12


def whole_stack_residual(stack, ortho):
    """span_residual's formula on the whole stack at once, as it was before
    the stack was worked through in chunks."""
    flat = stack.reshape(stack.shape[0], -1)
    B = ortho.reshape(ortho.shape[0], -1)
    rec = (flat @ B.conj().T) @ B
    return maxabs(flat - rec) / max(1.0, maxabs(flat))


class TestSpanResidual:
    # 40 rows: two full chunks of CHECK_ROWS and a short one
    @pytest.mark.parametrize("largest", [0.3, 7.0])
    def test_matches_the_whole_stack_formula(self, largest):
        local = np.random.default_rng(5)
        ortho = orthonormal_rows(local.standard_normal((10, 8, 8)) + 1j * local.standard_normal((10, 8, 8)))
        off = local.standard_normal((40, 8, 8)) + 1j * local.standard_normal((40, 8, 8))
        inside = np.tensordot(local.standard_normal((40, 10)), ortho, axes=(1, 0))
        for stack in (off, inside):
            stack = stack * (largest / maxabs(stack))
            assert span_residual(stack, ortho) == pytest.approx(whole_stack_residual(stack, ortho),
                                                                rel=1e-12, abs=1e-15)
        # the largest entry sits in the last chunk, so the denominator is the
        # whole stack's and not the chunk's
        stack = np.concatenate([0.01 * off[:39], off[39:]]) * (largest / maxabs(off[39:]))
        assert span_residual(stack, ortho) == pytest.approx(whole_stack_residual(stack, ortho), rel=1e-12)

    def test_nan_in_any_chunk_is_the_residual(self):
        ortho = orthonormal_rows(np.eye(4)[None] + np.zeros((1, 4, 4)))
        stack = np.repeat(ortho, 40, axis=0)
        assert span_residual(stack, ortho) == 0.0
        for row in (0, 39):   # in the first chunk and in the last
            planted = stack.copy()
            planted[row, 1, 2] = np.nan
            assert np.isnan(span_residual(planted, ortho))

    def test_empty_span_and_empty_stack(self):
        stack = np.full((20, 2, 2), 3.0 + 0j)
        assert span_residual(stack, np.zeros((0, 2, 2))) == 1.0
        assert span_residual(np.zeros((0, 2, 2)), stack) == 0.0


class TestDump:
    def test_format(self):
        buf = io.StringIO()
        dump_matrix(np.array([[1 + 2j, -0.5]]), buf, name="m")
        text = buf.getvalue()
        assert text.startswith("# m 1 2\n")
        row = text.splitlines()[1].split("\t")
        assert row[0] == "1+2i"
        assert row[1] == "-0.5+0i"


class TestWorst:
    def test_no_draws(self):
        res = worst(iter([]))
        assert res == {} and res.draws == 0

    def test_keywise_max_from_zero_over_the_draws(self):
        draws = [{"a": -1.0, "b": 0.5}, {}, {"a": -2.0, "b": 0.25, "c": 3.0}, {"b": 0.75}]
        res = worst(iter(draws))
        assert isinstance(res, dict)
        assert res == {"a": 0.0, "b": 0.75, "c": 3.0}
        assert res.draws == 4

    def test_nan_wins_in_either_order(self):
        draws = [{"r": 1e-3}, {"r": float("nan")}]
        assert np.isnan(worst(draws)["r"]) and np.isnan(worst(draws[::-1])["r"])

    def test_scalar_sup(self):
        assert sup([]) == 0.0 and sup([], default=-1.0) == -1.0
        assert sup([0.25, 2, 1.5]) == 2 and sup([0.5], default=1.0) == 1.0
        for values in ([np.nan, 1.0, 2.0], [1.0, np.nan, 2.0], [1.0, 2.0, np.nan]):
            assert np.isnan(sup(values)) and np.isnan(sup(iter(values)))
