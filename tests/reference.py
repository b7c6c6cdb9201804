"""Reference routes the tests compare the program against.

The program carries an algebra as its generators and its Clifford frame,
reads every commutant on generators, carries, solves and implements inner
automorphisms on k x k matrices in the frame and checks the positive cone
there; these are the descriptions and solvers those shortcuts replaced,
kept only as independent references: an algebra carried by an orthonormal
basis stack (BasisAlgebra) with its closure check and the cyclic and
separating test over that basis, the generic algebras no frame carries
(the scalars, the full M_N, M_2 from sigma_x), SVD kernels and row spaces,
the frontier growth of a generated star-algebra, the averaging and kernel
commutants and super commutants, the dense automorphism with its
conjugation action, inner solve and canonical implementation on N x N
matrices, the reflected action read from a dense J U J, the basis-sum inner solve, the cone pairing tensor with its
Cholesky membership test, and the dense modular data: a solve for the
Tomita operator's matrix and its antilinear polar decomposition by an
N x N SVD.  The commutant solvers return orthonormal
basis stacks, since an algebra needs generators and a solved commutant has
none.  The grading enters as its +-1 diagonal signs, as in the program.
Helpers stand in for what the program no longer carries: the element
of an algebra at given coordinates over its orthonormal units, an inner
automorphism applied to N x N matrices, the pointwise lift as the full
chain of 2n vertex factors, identity factors included, scattered row by row
from the vertex tables, and the string crossed module with its fiber
carried as the (2, N/2, N/2) even blocks of the Fock-space lifts.
"""

from dataclasses import dataclass, field

import numpy as np

from loopfock.algebra import (INNER_PROBES, CanonicalImplementation, CyclicSeparating, _averaging_ready,
                              _dressed_generators, conjugation_action)
from loopfock.clifford import clifford_monomials, half_space
from loopfock.errors import (ConeViolation, LoopfockError, NotAveragingReady, NotInner, NotInNormalizer,
                             SingularInput)
from loopfock.linalg import (DEFAULT_TOL, AntilinearOperator, _project_intertwiners, _rank_cut,
                             averaged_intertwiners, maxabs, polar_unitary, row_chunks, singular_rows,
                             span_residual, sup)
from loopfock.loops import (ExtLoop, PathGroup, double_path, half_supported_loop, lift, loop_identity,
                            restrict_loop)
from loopfock.rep import half_generators
from loopfock.twogroup import ComputableGroup, CrossedModule


class NotGraded(LoopfockError):
    pass


class NotInvolutive(LoopfockError):
    pass


def null_space(M, tol=DEFAULT_TOL):
    """Orthonormal basis of ker(M), as columns.

    Singular values below tol.rank_tol count as zero; the returned block Q
    satisfies Q*Q = 1 and ``M @ Q`` small relative to the spectral norm of M.
    """
    M = np.asarray(M, dtype=complex)
    # the full right factor is only needed for wide inputs; for tall ones the
    # economy decomposition already carries every kernel direction
    _, s, vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    rank = int(np.sum(s > tol.rank_tol))
    return vh[rank:].conj().T


def joint_kernel(constraints, dim, tol=DEFAULT_TOL):
    """Orthonormal column basis of the intersection of constraint kernels.

    Each constraint is a matrix acting on C^dim or a callable mapping a
    column basis (dim, k) to constraint values (out, k).  Constraints are
    imposed one at a time, each restricted to the kernel of the previous
    ones, so the working dimension only shrinks.
    """
    basis = np.eye(dim, dtype=complex)
    for c in constraints:
        if basis.shape[1] == 0:
            break
        vals = c(basis) if callable(c) else np.asarray(c, dtype=complex) @ basis
        basis = basis @ null_space(vals, tol)
    return basis


def orthonormal_rows(stack, tol=DEFAULT_TOL):
    """Orthonormalize a stack of vectors/matrices along its first axis."""
    stack = np.asarray(stack, dtype=complex)
    if stack.shape[0] == 0:
        return stack
    s, vh = singular_rows(stack.reshape(stack.shape[0], -1))
    dim = _rank_cut(s, tol)
    return vh[:dim].reshape((dim,) + stack.shape[1:])


def subspace_equal(B1, B2, tol=DEFAULT_TOL):
    """True iff two column bases span the same subspace within eq_tol."""
    Q1 = orthonormal_rows(np.asarray(B1, dtype=complex).T, tol)
    Q2 = orthonormal_rows(np.asarray(B2, dtype=complex).T, tol)
    if Q1.shape[0] != Q2.shape[0]:
        return False
    return sup((span_residual(Q1, Q2), span_residual(Q2, Q1))) <= tol.eq_tol


@dataclass
class BasisAlgebra:
    """An algebra carried by a basis stack, rows orthonormal in the
    Hilbert-Schmidt inner product, and its generators: the description the
    program's frame replaced.  It has OperatorAlgebra's dim, space_dim,
    generators, membership_residual and generators_ready, so the program's
    solvers take it too."""

    basis: np.ndarray
    generators: np.ndarray
    _ready: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def space_dim(self):
        return self.basis.shape[1]

    def membership_residual(self, X):
        X = np.asarray(X, dtype=complex)
        return span_residual(X[None] if X.ndim == 2 else X, self.basis)

    def generators_ready(self, tol):
        if tol not in self._ready:
            self._ready[tol] = _averaging_ready(self.generators, tol)
        return self._ready[tol]


def from_coordinates(alg, c):
    """The element with coordinates c (last axis) over the orthonormal units
    of alg, one or a stack: the basis sum for a BasisAlgebra, W x_hat W^*
    for an OperatorAlgebra carried by its frame W."""
    c = np.asarray(c, dtype=complex)
    if isinstance(alg, BasisAlgebra):
        return np.tensordot(c, alg.basis, axes=(c.ndim - 1, 0))
    return alg.embed(alg.coordinate_matrix(c))


def closed_span(basis, tol=DEFAULT_TOL):
    """basis, after checking that its span contains the identity and is
    closed under adjoints, CHECK_ROWS adjoints at a time (row_chunks); a NaN
    residual fails either check."""
    N = basis.shape[1]
    if not span_residual(np.eye(N, dtype=complex)[None], basis) <= tol.eq_tol:
        raise ValueError("span does not contain the identity")
    adjoints = (np.conj(np.transpose(rows, (0, 2, 1))) for rows in row_chunks(basis))
    if not sup(span_residual(adj, basis) for adj in adjoints) <= tol.eq_tol:
        raise ValueError("span is not closed under adjoints")
    return basis


def algebra_from_span(stack, generators, tol=DEFAULT_TOL):
    """BasisAlgebra on a spanning stack, orthonormalized here by an SVD;
    the span must be unital and star-closed."""
    return BasisAlgebra(closed_span(orthonormal_rows(stack, tol), tol), np.asarray(generators, dtype=complex))


def monomial_algebra(model, which):
    """BasisAlgebra of one half circle ('first' or 'second') on its Clifford
    monomials divided by sqrt(N), which are orthonormal as they come
    (clifford_monomials), with that half's generators."""
    basis = clifford_monomials(model, half_space(model, which))
    basis /= np.sqrt(model.fock_dim)
    return BasisAlgebra(basis, half_generators(model, which))


def scalars(N):
    """The scalar algebra on C^N, generated by the identity."""
    eye = np.eye(N, dtype=complex)[None]
    return algebra_from_span(eye, eye)


def full_algebra(model):
    """M_N, which all of a model's generators generate."""
    return generated_star_algebra(model.generators)


def sigma_algebra():
    """M_2 generated by sigma_x and (sigma_x + sigma_z)/sqrt(2), unitary
    involutions whose products neither commute nor anticommute."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    return generated_star_algebra(np.stack([sx, (sx + sz) / np.sqrt(2)]))


def basis_cyclic_separating(alg, omega, tol=DEFAULT_TOL):
    """Cyclicity (a omega spans) and separation (a -> a omega injective) from
    the rank of the vectors b_i omega over the basis."""
    svals = np.linalg.svd(alg.basis @ omega, compute_uv=False)
    rank = int(np.sum(svals > tol.rank_tol))
    return CyclicSeparating(cyclic=rank == alg.space_dim, separating=rank == alg.dim)


def basis_star_relation_residual(alg, omega, S):
    """Sup norm of S(b_i omega) - b_i^* omega over the basis b_i, relative to
    the largest entry of the b_i^* omega."""
    star = np.conj(np.conj(omega) @ alg.basis)   # rows b_i^* omega
    return maxabs(S((alg.basis @ omega).T).T - star) / maxabs(star)


def generated_star_algebra(gens, tol=DEFAULT_TOL):
    """Smallest unital star-closed span containing the generators.

    Grows the span by right multiplication with M, an orthonormal basis of
    the span of the generators and their adjoints, until the dimension
    stabilizes.  Only the frontier F, the rows the last round added, is
    multiplied: the span V after a round is V' + F with V' M already inside
    V, so V M lies in V + F M.  The products are projected off the current
    basis, only the remainder is orthonormalized, and growth stops when the
    remainder has rank zero.
    """
    gens = np.asarray(gens, dtype=complex)
    N = gens.shape[1]
    multipliers = orthonormal_rows(np.concatenate([gens, np.conj(np.transpose(gens, (0, 2, 1)))]), tol)
    basis = orthonormal_rows(np.concatenate([np.eye(N, dtype=complex)[None], multipliers]), tol)
    frontier = basis
    for _ in range(64):
        grown = (frontier[:, None] @ multipliers[None]).reshape(-1, N * N)
        flat = basis.reshape(-1, N * N)
        remainder = grown - (grown @ flat.conj().T) @ flat
        frontier = orthonormal_rows(remainder, tol).reshape(-1, N, N)
        if frontier.shape[0] == 0:
            return BasisAlgebra(basis, gens)
        basis = np.concatenate([basis, frontier])
    raise ArithmeticError("span growth failed to stabilize")


def averaged_commutant_basis(mats, tol, rng, expected=None):
    """Orthonormal rows spanning the commutant of mats, by the averaging
    projections on probes, doubled until the span stops growing."""
    N = mats[0].shape[0]
    probes = 8 if expected is None else min(N * N, expected + 8)
    while True:
        basis = averaged_intertwiners(mats, mats, probes, rng, tol)
        if basis.shape[0] < probes or probes >= N * N:
            return basis
        probes = min(2 * probes, N * N)


def kernel_commutant_basis(constraints, N, tol=DEFAULT_TOL, signs=None):
    """Orthonormal rows spanning the (graded) commutant of the constraints
    (matrix, is_odd), by the iterative kernel of the commutators; odd ones
    are taken against the grading with diagonal signs."""
    def constraint(a, odd):
        def apply(cols):
            X = cols.T.reshape(-1, N, N)
            if odd:
                vals = a @ X - (signs[:, None] * X * signs) @ a
            else:
                vals = a @ X - X @ a
            return vals.reshape(-1, N * N).T
        return apply

    cols = joint_kernel([constraint(a, odd) for a, odd in constraints], N * N, tol)
    return np.transpose(cols).reshape(-1, N, N)


def kernel_commutant(mats, tol=DEFAULT_TOL):
    """Commutant of the matrices mats, by the kernel route."""
    return closed_span(kernel_commutant_basis([(a, False) for a in mats], mats.shape[1], tol), tol)


def commutant(alg, tol=DEFAULT_TOL):
    """Commutant of alg as an orthonormal stack: averaging over the
    generators when they are ready for it, else the kernel route on them.

    Both routes return orthonormal rows, the averaging route as SVD rows and
    the kernel route as a product of orthonormal null-space bases."""
    if alg.generators_ready(tol):
        N = alg.space_dim
        return closed_span(averaged_commutant_basis(list(alg.generators), tol, np.random.default_rng(1),
                                                    expected=N * N // alg.dim), tol)
    return kernel_commutant(alg.generators, tol)


def grading_parts(basis, signs, tol=DEFAULT_TOL):
    """Homogeneous spanning elements (matrix, is_odd) of the span of basis;
    fails if the span is not graded."""
    twisted = signs[:, None] * basis * signs
    if not span_residual(twisted, basis) <= tol.eq_tol:
        raise NotGraded("algebra span is not invariant under the grading")
    parts = []
    for a, t in zip(basis, twisted):
        even = 0.5 * (a + t)
        odd = 0.5 * (a - t)
        if not maxabs(even) <= tol.rank_tol:
            parts.append((even, False))
        if not maxabs(odd) <= tol.rank_tol:
            parts.append((odd, True))
    return parts


def kernel_super_commutant(basis, signs, tol=DEFAULT_TOL):
    """Graded commutant of the span of the orthonormal stack basis, by the
    kernel route on its homogeneous parts."""
    parts = grading_parts(basis, signs, tol)
    return closed_span(kernel_commutant_basis(parts, basis.shape[1], tol, signs), tol)


def super_commutant(alg, signs, tol=DEFAULT_TOL):
    """Graded commutant of alg as an orthonormal stack: commutes with even
    elements, odd parts anticommute with odd elements.

    When the generators are odd and their dressings u Gamma qualify for
    averaging, it is the plain averaged commutant of the dressed
    generators; otherwise the kernel route on alg's basis."""
    dressed = _dressed_generators(alg.generators, signs, tol)
    if dressed is None:
        return kernel_super_commutant(alg.basis, signs, tol)
    N = alg.space_dim
    return closed_span(averaged_commutant_basis(dressed, tol, np.random.default_rng(2),
                                                expected=N * N // alg.dim), tol)


@dataclass
class DenseAutomorphism:
    """Star-automorphism a -> U a U^* carried as the dense unitary U and the
    N x N images U g U^* of the generators, as the program carried it
    before the frame; composition and inversion act on U."""

    algebra: object
    implementer: np.ndarray
    images: np.ndarray
    _representative: np.ndarray | None = field(default=None, repr=False)

    def distance(self, other):
        return maxabs(self.images - other.images)

    def apply(self, X):
        U = self.implementer
        return U @ X @ U.conj().T

    def compose(self, other):
        U = self.implementer
        return DenseAutomorphism(self.algebra, U @ other.implementer, U @ other.images @ U.conj().T)

    def inverse(self):
        U = self.implementer.conj().T
        return DenseAutomorphism(self.algebra, U, U @ self.algebra.generators @ U.conj().T)

    def representative(self, tol=DEFAULT_TOL):
        if self._representative is None:
            self._representative = dense_inner_unitary(self, tol)
        return self._representative


def dense_conjugation_action(U, alg, tol=DEFAULT_TOL):
    """conjugation_action on N x N matrices: U normalizes the algebra when
    the images U g U^* lie in its span, and U is the representative when it
    lies there itself."""
    images = U @ alg.generators @ U.conj().T
    if not alg.membership_residual(images) <= tol.eq_tol:
        raise NotInNormalizer("unitary does not normalize the algebra")
    rep = U if alg.membership_residual(U) <= tol.eq_tol else None
    return DenseAutomorphism(alg, U, images, rep)


def dense_reflected_action(U, alg, sfd, tol=DEFAULT_TOL):
    """reflected_action by J U J formed on N x N matrices and read in the
    frame: a second read of the factorization the program reads once."""
    return conjugation_action(sfd.reflect(U), alg, tol)


def dense_inner_unitary(theta, tol=DEFAULT_TOL):
    """inner_unitary on N x N matrices: the averaging projections over the
    dense generators on the dense embeddings of the same fixed-seed probes,
    the rank test and the polar step on N x N, and the action and
    membership checks of the dense unitary it returns."""
    alg = theta.algebra
    if not alg.generators_ready(tol):
        raise NotAveragingReady("the algebra's generators do not qualify for the averaging projections")
    k, N = alg.dim, alg.space_dim
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((INNER_PROBES, k)) + 1j * rng.standard_normal((INNER_PROBES, k))
    solved = _project_intertwiners(from_coordinates(alg, coords), theta.images, alg.generators)
    svals, vh = singular_rows(solved.reshape(INNER_PROBES, N * N))
    dim = int(np.sum(svals > max(tol.rank_tol, 1e-6 * svals[0])))
    if dim == 0:
        raise NotInner("no implementing element inside the algebra")
    if dim > 1:
        raise NotInner(f"solution space has dimension {dim}; algebra is not a factor")
    u = polar_unitary(vh[0].reshape(N, N), tol)
    worst = maxabs(u @ alg.generators @ u.conj().T - theta.images)
    if not sup((worst, alg.membership_residual(u))) <= tol.eq_tol:
        raise NotInner(f"candidate representative fails the action by {worst:.2e}")
    return u


def dense_canonical_implementation(sfd, alg, theta, tol=DEFAULT_TOL, rng=None):
    """canonical_implementation on N x N matrices: U = u J u J from the
    dense representative, its action on the generators and U J - J U
    densely, and the cone kept on the first four cone vectors of the units
    and on a J a J omega for four sampled a."""
    u = theta.representative(tol)
    U = u @ sfd.reflect(u)
    act = maxabs(U @ alg.generators @ U.conj().T - theta.images)
    jcomm = maxabs(U @ sfd.conjugation.linear - sfd.conjugation.linear @ np.conj(U))
    if not sup((act, jcomm)) <= tol.eq_tol:
        raise NotInner(f"canonical implementation failed action/J checks ({act:.2e}, {jcomm:.2e})")
    if rng is None:
        rng = np.random.default_rng(4)
    probes = list(cone_frame(sfd)[:4])
    for _ in range(4):
        a = from_coordinates(alg, rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
        probes.append(a @ sfd.conjugation(a @ sfd.omega))
    worst = float(np.max(sfd.cone_defects(np.stack(probes) @ U.T)))
    if not worst <= tol.eq_tol:
        raise ConeViolation(f"cone moved by {worst:.2e}")
    return CanonicalImplementation(U, act, jcomm)


def basis_sum_inner_unitary(theta, tol=DEFAULT_TOL):
    """dense_inner_unitary by the basis sum x -> sum_i theta(b_i) x b_i^*
    over the orthonormal basis, on the same probes and with the same rank
    cutoff; the result is checked against theta on every basis element.
    theta is a DenseAutomorphism of a BasisAlgebra."""
    alg = theta.algebra
    k, N = alg.dim, alg.space_dim
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((INNER_PROBES, k)) + 1j * rng.standard_normal((INNER_PROBES, k))
    probes = np.tensordot(coords, alg.basis, axes=(1, 0))
    images = theta.apply(alg.basis)
    # theta(b_i) x for every basis element and probe in one product, then
    # regrouped so that row a of probe p reads theta(b_i)[a, :] x over all i
    left = images.reshape(k * N, N) @ probes.transpose(1, 0, 2).reshape(N, -1)
    left = left.reshape(k, N, INNER_PROBES, N).transpose(2, 1, 0, 3).reshape(INNER_PROBES, N, k * N)
    solved = left @ np.conj(np.transpose(alg.basis, (0, 2, 1))).reshape(k * N, N)
    svals, vh = singular_rows(solved.reshape(INNER_PROBES, N * N))
    dim = int(np.sum(svals > max(tol.rank_tol, 1e-6 * svals[0])))
    if dim != 1:
        raise NotInner(f"solution space has dimension {dim}")
    u = polar_unitary(vh[0].reshape(N, N), tol)
    worst = maxabs(u @ alg.basis @ u.conj().T - images)
    if not sup((worst, alg.membership_residual(u))) <= tol.eq_tol:
        raise NotInner(f"candidate representative fails the action by {worst:.2e}")
    return u


def cone_frame(sfd):
    """The cone vectors a_pq J a_pq J omega of all k^2 units, W vec of
    StandardFormData.cone_units, in rows q k + p."""
    k = sfd.vacuum_phase.shape[0]
    return sfd.cone_units(k * k).reshape(k * k, -1) @ sfd.frame.T


def cone_tensor(alg, sfd):
    """The cone pairing tensor T[i, j] = a_i J a_j J omega, of shape
    (dim A, dim A, N), as one BLAS product with a C-contiguous result; since
    J omega = omega, the vectors J a_j J omega are J (a_j omega)."""
    jbj_omega = sfd.conjugation((alg.basis @ sfd.omega).T).T
    return np.matmul(jbj_omega, np.transpose(alg.basis, (0, 2, 1)))


def tensor_cone_defects(tensor, vectors):
    """Distance data of each row of vectors from the self-dual positive cone.

    v lies in the cone iff <v, a J b J omega> assembles to a positive
    semidefinite Hermitian form on the algebra; the defect is the worst of
    the negative-eigenvalue overshoot and the non-Hermitian part.  All forms
    come from one product.  One batched Cholesky factorization decides
    positive definiteness, and a positive definite form has no overshoot,
    so the eigenvalues are computed only when it fails.
    """
    V = np.asarray(vectors, dtype=complex)
    norms = np.linalg.norm(V, axis=1)
    V = np.conj(V) / np.where(norms == 0, 1.0, norms)[:, None]
    k = tensor.shape[0]
    M = (tensor.reshape(k * k, -1) @ V.T).T.reshape(-1, k, k)
    Mh = np.conj(np.transpose(M, (0, 2, 1)))
    skew = np.max(np.abs(M - Mh), axis=(1, 2))
    herm = 0.5 * (M + Mh)
    try:
        np.linalg.cholesky(herm)
        return skew
    except np.linalg.LinAlgError:
        lam_min = np.linalg.eigvalsh(herm)[:, 0]
        return np.maximum(skew, -np.minimum(lam_min, 0.0))


def antilinear_polar(S, tol=DEFAULT_TOL):
    """Split an involutive antilinear S as J Delta^{1/2} with J antiunitary,
    Delta > 0; S S = 1, J J = 1 and J Delta J = Delta^{-1} are checked.

    With S v = M conj(v) and the SVD M = U s V^*, J acts by U V^* and
    Delta = S^* S = conj(V) s^2 V^T; unlike an eigendecomposition of
    M^T conj(M), this does not square the condition number of M.
    """
    M = np.asarray(S.linear, dtype=complex)
    n = M.shape[0]
    u, svals, vh = np.linalg.svd(M)
    if svals[-1] < tol.rank_tol:
        raise SingularInput("antilinear operator is numerically singular")
    if not maxabs(M @ np.conj(M) - np.eye(n)) <= tol.eq_tol:
        raise NotInvolutive("S composed with itself is not the identity")
    J = AntilinearOperator(u @ vh)
    delta = vh.T @ (svals[:, None] ** 2 * np.conj(vh))
    jj = maxabs(J.linear @ np.conj(J.linear) - np.eye(n))
    inv = vh.T @ (svals[:, None] ** -2 * np.conj(vh))
    # relative residual: the inverse modulus can be large when S is badly
    # conditioned, and only the relative deviation is meaningful then
    jdj = maxabs(J.conjugate_matrix(delta) - inv) / max(1.0, maxabs(inv))
    if not sup((jj, jdj)) <= tol.eq_tol:
        raise NotInvolutive(f"polar factors violate involution identities ({jj:.2e}, {jdj:.2e})")
    return J, delta


def dense_modular_data(alg, omega, tol=DEFAULT_TOL):
    """S, J and Delta of (alg, omega) from the basis: the matrix Ms of S
    solves Ms conj(a_i omega) = a_i^* omega over the basis a_i, and J and
    Delta are its antilinear polar parts."""
    frame = (alg.basis @ omega).T             # columns a_i omega
    star_frame = np.conj(np.conj(omega) @ alg.basis).T   # columns a_i^* omega
    S = AntilinearOperator(np.linalg.solve(np.conj(frame).T, star_frame.T).T)
    J, delta = antilinear_polar(S, tol)
    return S, J, delta


def full_chain_pointwise_unitary(model, spin, loop):
    """pointwise_unitary as the product of all 2n vertex factors, identity
    factors included, each scattered into its (2, N/2, N/2) stack by block,
    row and column from the flat positions of the vertex table."""
    r, h = spin.dim, model.parity_blocks.shape[1]
    U = None
    for x, table in zip(loop, model.vertex_monomials, strict=True):
        rho = np.zeros((2, h, h), dtype=complex)
        for S, gamma_S in spin.even_gammas.items():
            flat, vals = table[S]
            rho[np.unravel_index(flat, rho.shape)] += np.vdot(gamma_S, x) / r * vals
        U = rho if U is None else U @ rho
    return U


def frame_apply(theta, X):
    """The InnerAutomorphism theta on X in its algebra, one matrix or a
    stack: conjugation by W (u_hat (x) 1) W^*, u_hat its factor."""
    U = theta.algebra.embed(theta.factor)
    return U @ X @ U.conj().T


class BlockExtLoopGroup(ComputableGroup):
    """Lifted half-supported loops with their U(1) fiber, carried as the
    loops' block lifts (loops.ExtLoop): elements multiply componentwise,
    the unitaries blockwise, and the distance is that of the N x N
    unitaries, since the odd blocks are zero."""

    def __init__(self, model, spin, tol=DEFAULT_TOL):
        self.model, self.spin, self.tol = model, spin, tol
        self.name = "lifted half loops (blocks)"

    def identity(self):
        return self.central(1.0)

    def mul(self, a, b):
        return ExtLoop(a.loop @ b.loop, a.blocks @ b.blocks, a.implemented @ b.implemented, a.places)

    def inv(self, a):
        return ExtLoop(np.conj(np.transpose(a.loop, (0, 2, 1))), np.conj(np.swapaxes(a.blocks, -1, -2)),
                       a.implemented.T, a.places)

    def dist(self, a, b):
        return sup((maxabs(a.loop - b.loop), maxabs(a.blocks - b.blocks)))

    def sample(self, rng):
        ext = lift(self.model, self.spin, half_supported_loop(self.model.n, self.spin, rng), self.tol)
        z = np.exp(2j * np.pi * rng.random())
        return ExtLoop(ext.loop, z * ext.blocks, ext.implemented, ext.places)

    def central(self, z):
        places = self.model.parity_blocks
        blocks = np.stack([z * np.eye(places.shape[1], dtype=complex)] * 2)
        return ExtLoop(loop_identity(self.model.n, self.spin), blocks, np.eye(self.model.dim_h), places)


def block_string_crossed_module(model, spin, tol=DEFAULT_TOL):
    """The string crossed module on BlockExtLoopGroup: the action conjugates
    by the block lift of the doubled path."""
    fiber = BlockExtLoopGroup(model, spin, tol)
    return CrossedModule(base=PathGroup(model.n, spin), fiber=fiber,
                         t=lambda ext: restrict_loop(ext.loop, tol),
                         act=lambda p, ext: fiber.conj(lift(model, spin, double_path(p, tol), tol), ext),
                         name="string model (blocks)")
