"""Operator subalgebras of the Fock space and their modular structure.

Algebras are carried as linear bases (stacks of matrices).  Commutants and
super commutants have a generic kernel-solver route plus an exact averaging
fast path available whenever the algebra comes with involution-type unitary
generators, which is the case for all Clifford half-circle algebras.  The
program solves for neither: the tomita checks read the half-circle
commutants on their generators (rep.half_generators), and the tests compare
both routes with the algebras those generators generate.  The
twisted-duality check applies the fast path's projections to two Gaussian
probes (super_commutant_probes), since a generic element of the super
commutant of the second half lies in the first-half algebra only if the two
are equal.

An automorphism is carried as conjugation by a unitary W that normalizes
the algebra, together with the images W g W^* of the generators (of the
basis when there are none), which fix it as a star-automorphism.  Its
representative, a unitary u inside the algebra with Ad u = Ad W on it, is
solved by averaging: x -> sum_i theta(b_i) x b_i^* over an orthonormal
basis b_i maps the algebra onto the implementers of theta times the
centre, a single line on a factor.  With the same generators, composing
the projections x -> (x + theta(g) x g^*)/2 over the generators g gives
that map up to a positive factor at the cost of a few products.
inner_unitary checks the factor assumption on every solve, refuses algebras
with a centre, and verifies its result on every generator.

Every guard here is written so that a NaN residual fails it.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (ConeViolation, NotAveragingReady, NotCyclicSeparating, NotGraded,
                     NotInNormalizer, NotInner)
from .linalg import (DEFAULT_TOL, AntilinearOperator, _project_intertwiners, antilinear_polar,
                     averaged_intertwiners, joint_kernel, maxabs, orthonormal_rows,
                     polar_unitary, row_chunks, singular_rows, span_residual, sup)


@dataclass
class OperatorAlgebra:
    """Unital star-closed linear span of Fock operators.

    basis rows are orthonormal in the Hilbert-Schmidt inner product.
    generators, when present, generate the algebra as a unital star-algebra.
    They enable averaging-based commutant and inner solves, and a
    conjugation or an automorphism is checked on them alone: a
    star-homomorphism that is right on the generators is right on the
    algebra they generate.
    """

    basis: np.ndarray
    generators: np.ndarray | None = None
    _ready: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def space_dim(self):
        return self.basis.shape[1]

    def membership_residual(self, X):
        return span_residual(np.asarray(X)[None, :, :] if np.asarray(X).ndim == 2 else X, self.basis)

    def from_coordinates(self, c):
        return np.tensordot(np.asarray(c, dtype=complex), self.basis, axes=(0, 0))

    def constraint_generators(self):
        """Matrices whose commutation constraints cut out the commutant."""
        return self.generators if self.generators is not None else self.basis

    def generators_ready(self, tol):
        """True iff the generators qualify for the averaging projections of
        commutant and inner_unitary; decided once per tolerance policy."""
        if tol not in self._ready:
            self._ready[tol] = self.generators is not None and _averaging_ready(self.generators, tol)
        return self._ready[tol]


def algebra_from_span(stack, generators=None, tol=DEFAULT_TOL):
    """Build an OperatorAlgebra from a spanning stack; it must be unital and star-closed.

    The stack may be any spanning set: it is orthonormalized here, once, and
    the orthonormal rows go to _checked_algebra.
    """
    return _checked_algebra(orthonormal_rows(np.asarray(stack, dtype=complex), tol), generators, tol)


def _checked_algebra(basis, generators=None, tol=DEFAULT_TOL):
    """OperatorAlgebra on rows that are already orthonormal in the
    Hilbert-Schmidt inner product; they are not orthonormalized again.

    Checks that their span contains the identity and is closed under
    adjoints; a NaN adjoint residual fails the check.
    """
    N = basis.shape[1]
    if not span_residual(np.eye(N, dtype=complex)[None], basis) <= tol.eq_tol:
        raise ValueError("span does not contain the identity")
    # CHECK_ROWS adjoints at a time, so the check holds no second basis-sized stack
    adjoints = (np.conj(np.transpose(rows, (0, 2, 1))) for rows in row_chunks(basis))
    if not sup(span_residual(adj, basis) for adj in adjoints) <= tol.eq_tol:
        raise ValueError("span is not closed under adjoints")
    gens = None if generators is None else np.asarray(generators, dtype=complex)
    return OperatorAlgebra(basis, gens)


def generated_star_algebra(gens, tol=DEFAULT_TOL):
    """Smallest unital star-closed span containing the generators.

    Grows the span by right multiplication with M, an orthonormal basis of
    the span of the generators and their adjoints, until the dimension
    stabilizes; at finite dimension this is the same algebra as the one
    obtained from weak closure.  Only the frontier F, the rows the last round
    added, is multiplied: the span V after a round is V' + F with V' M
    already inside V, so V M lies in V + F M.  The products are projected off
    the current basis, only the remainder is orthonormalized, and growth stops
    when the remainder has rank zero.
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
            return OperatorAlgebra(basis, gens)
        basis = np.concatenate([basis, frontier])
    raise ArithmeticError("span growth failed to stabilize")


def _averaging_ready(mats, tol):
    """Unitaries with a common scalar square +-1 that pairwise commute or
    anticommute qualify for the averaging projections: for them, and for
    their images under a star-automorphism, the maps x -> (x + l x r^*)/2
    are commuting projections."""
    eye = np.eye(mats[0].shape[0])
    sign = None
    for u in mats:
        sq = u @ u
        s = sq[0, 0].real
        if not sup((maxabs(u @ u.conj().T - eye), abs(abs(s) - 1.0), maxabs(sq - s * eye))) <= tol.eq_tol:
            return False
        if sign is None:
            sign = s
        elif not abs(s - sign) <= tol.eq_tol:
            return False
    for a in range(len(mats)):
        for b in range(a):
            ab, ba = mats[a] @ mats[b], mats[b] @ mats[a]
            if not (maxabs(ab - ba) <= tol.eq_tol or maxabs(ab + ba) <= tol.eq_tol):
                return False
    return True


def _averaged_commutant_basis(mats, tol, rng, expected=None):
    N = mats[0].shape[0]
    probes = 8 if expected is None else min(N * N, expected + 8)
    while True:
        basis = averaged_intertwiners(mats, mats, probes, rng, tol)
        if basis.shape[0] < probes or probes >= N * N:
            return basis
        probes = min(2 * probes, N * N)


def _kernel_commutant_basis(constraints_mats, N, tol, grading_twist=None):
    """Generic route: iterative kernel of the (possibly graded) commutators."""
    def constraint(a, odd):
        def apply(cols):
            X = cols.T.reshape(-1, N, N)
            if odd:
                Xt = grading_twist @ X @ grading_twist
                vals = a @ X - Xt @ a
            else:
                vals = a @ X - X @ a
            return vals.reshape(-1, N * N).T
        return apply

    cs = [constraint(a, odd) for a, odd in constraints_mats]
    cols = joint_kernel(cs, N * N, tol)
    return np.transpose(cols).reshape(-1, N, N)


def commutant(alg, tol=DEFAULT_TOL):
    """Commutant algebra {X : aX = Xa for all a}, star-closed and unital.

    Both routes return orthonormal rows, the averaging route as SVD rows and
    the kernel route as a product of orthonormal null-space bases, so the
    basis is checked but not orthonormalized again; likewise in
    super_commutant.
    """
    mats = list(alg.constraint_generators())
    N = alg.space_dim
    if alg.generators_ready(tol):
        basis = _averaged_commutant_basis(mats, tol, np.random.default_rng(1), expected=N * N // alg.dim)
    else:
        basis = _kernel_commutant_basis([(a, False) for a in mats], N, tol)
    return _checked_algebra(basis, tol=tol)


def grading_parts(alg, grading, tol=DEFAULT_TOL):
    """Homogeneous spanning elements (matrix, is_odd); fails if not graded."""
    twisted = grading @ alg.basis @ grading
    if not span_residual(twisted, alg.basis) <= tol.eq_tol:
        raise NotGraded("algebra span is not invariant under the grading")
    parts = []
    for a, t in zip(alg.basis, twisted):
        even = 0.5 * (a + t)
        odd = 0.5 * (a - t)
        if maxabs(even) > tol.rank_tol:
            parts.append((even, False))
        if maxabs(odd) > tol.rank_tol:
            parts.append((odd, True))
    return parts


def _dressed_generators(gens, grading, tol=DEFAULT_TOL):
    """The generators u @ grading, or None unless every generator u is odd
    and the dressed ones qualify for the averaging projections.

    An element graded-commutes with an odd u exactly when it commutes with
    u @ grading, so the super commutant is the plain commutant of the
    dressed generators."""
    if gens is None or not all(maxabs(grading @ u @ grading + u) <= tol.eq_tol for u in gens):
        return None
    dressed = [u @ grading for u in gens]
    return dressed if _averaging_ready(dressed, tol) else None


def super_commutant_probes(gens, grading, count, tol=DEFAULT_TOL):
    """count Gaussian probes from a fixed seed, projected onto the super
    commutant of the algebra the stack gens generates, each scaled to
    largest entry one.

    The projections are those of super_commutant's fast path; without
    generators that qualify for them, NotAveragingReady is raised."""
    dressed = _dressed_generators(gens, grading, tol)
    if dressed is None:
        raise NotAveragingReady("the algebra needs odd generators whose dressings "
                                "qualify for the averaging projections")
    N = grading.shape[0]
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    Z = _project_intertwiners(Z, dressed, dressed)
    return Z / np.max(np.abs(Z), axis=(1, 2))[:, None, None]


def super_commutant(alg, grading, tol=DEFAULT_TOL):
    """Graded commutant: commutes with even elements, odd parts anticommute
    with odd elements.

    Fast path: odd involution-type unitary generators u are dressed to
    u @ grading, turning the graded condition into a plain commutant solve.
    """
    N = alg.space_dim
    dressed = _dressed_generators(alg.generators, grading, tol)
    if dressed is not None:
        basis = _averaged_commutant_basis(dressed, tol, np.random.default_rng(2),
                                          expected=N * N // alg.dim)
        return _checked_algebra(basis, tol=tol)
    parts = grading_parts(alg, grading, tol)
    basis = _kernel_commutant_basis([(a, odd) for a, odd in parts], N, tol, grading_twist=grading)
    return _checked_algebra(basis, tol=tol)


@dataclass(frozen=True)
class CyclicSeparating:
    cyclic: bool
    separating: bool

    def __bool__(self):
        return self.cyclic and self.separating


def cyclic_separating_check(alg, omega, tol=DEFAULT_TOL):
    """Cyclicity (a Omega spans) and separation (a -> a Omega injective)."""
    frame = alg.basis @ omega
    svals = np.linalg.svd(frame, compute_uv=False)
    rank = int(np.sum(svals > tol.rank_tol))
    return CyclicSeparating(cyclic=rank == alg.space_dim, separating=rank == alg.dim)


@dataclass
class StandardFormData:
    """Vacuum vector, Tomita operator, modular pair and positive-cone data."""

    omega: np.ndarray
    tomita: AntilinearOperator
    conjugation: AntilinearOperator
    delta: np.ndarray
    cone_frame: np.ndarray
    _cone_tensor: np.ndarray = field(repr=False, default=None)

    def reflect(self, U):
        """J U J for a linear operator U."""
        return self.conjugation.conjugate_matrix(U)

    def cone_defect(self, v):
        """Distance data of v from the self-dual positive cone; cone_defects
        for one vector."""
        return float(self.cone_defects(np.asarray(v)[None])[0])

    def cone_defects(self, vectors):
        """Distance data of each row of vectors from the self-dual positive cone.

        v lies in the cone iff <v, a J b J omega> assembles to a positive
        semidefinite Hermitian form on the algebra; the defect is the worst
        of the negative-eigenvalue overshoot and the non-Hermitian part.  All
        forms come from one product.  One batched Cholesky factorization
        decides positive definiteness, and a positive definite form has no
        overshoot, so the eigenvalues are computed only when it fails.
        """
        V = np.asarray(vectors, dtype=complex)
        norms = np.linalg.norm(V, axis=1)
        V = np.conj(V) / np.where(norms == 0, 1.0, norms)[:, None]
        k = self._cone_tensor.shape[0]
        M = (self._cone_tensor.reshape(k * k, -1) @ V.T).T.reshape(-1, k, k)
        Mh = np.conj(np.transpose(M, (0, 2, 1)))
        skew = np.max(np.abs(M - Mh), axis=(1, 2))
        herm = 0.5 * (M + Mh)
        try:
            np.linalg.cholesky(herm)
            return skew
        except np.linalg.LinAlgError:
            lam_min = np.linalg.eigvalsh(herm)[:, 0]
            return np.maximum(skew, -np.minimum(lam_min, 0.0))


def tomita_data(alg, omega, tol=DEFAULT_TOL):
    """Standard-form data for (alg, omega): S: a omega -> a* omega, polar parts,
    and the positive-cone pairing tensor."""
    status = cyclic_separating_check(alg, omega, tol)
    if not status:
        raise NotCyclicSeparating(f"cyclic={status.cyclic} separating={status.separating}")
    frame = (alg.basis @ omega).T             # columns a_i omega
    star_frame = np.conj(np.conj(omega) @ alg.basis).T   # columns a_i^* omega
    Ms = np.linalg.solve(np.conj(frame).T, star_frame.T).T   # Ms conj(frame) = star_frame
    S = AntilinearOperator(Ms)
    J, delta = antilinear_polar(S, tol)
    checks = {
        "S omega": maxabs(S(omega) - omega),
        "J omega": maxabs(J(omega) - omega),
        "delta omega": maxabs(delta @ omega - omega),
    }
    if not sup(checks.values()) <= tol.eq_tol:
        raise NotCyclicSeparating(f"modular data failed vacuum identities: {checks}")
    # cone pairing tensor T[i, j] = vector a_i J a_j J omega, one BLAS product
    # whose C-contiguous result cone_defects contracts without a copy; since
    # J omega = omega, the vectors J a_j J omega are J (a_j omega)
    jbj_omega = J(frame).T
    cone_tensor = np.matmul(jbj_omega, np.transpose(alg.basis, (0, 2, 1)))
    cone_frame = np.stack([cone_tensor[i, i] for i in range(alg.dim)])
    return StandardFormData(np.asarray(omega, dtype=complex), S, J, delta, cone_frame, cone_tensor)


@dataclass
class InnerAutomorphism:
    """Star-automorphism a -> W a W^* of an algebra, W a unitary normalizing it.

    W need not lie in the algebra.  images holds W g W^* for the generators
    (the basis when there are none); they fix the automorphism, so distance
    compares them, and the phase of W is irrelevant.
    Composition and inversion act on W.  A representative unitary inside
    the algebra is attached lazily when some construction needs one.
    """

    algebra: OperatorAlgebra
    implementer: np.ndarray
    images: np.ndarray
    _representative: np.ndarray | None = field(default=None, repr=False)

    def distance(self, other):
        return maxabs(self.images - other.images)

    def apply(self, X):
        W = self.implementer
        return W @ X @ W.conj().T

    def compose(self, other):
        """self after other, implemented by the product of the implementers;
        no representative is carried over."""
        W = self.implementer
        return InnerAutomorphism(self.algebra, W @ other.implementer, W @ other.images @ W.conj().T)

    def inverse(self):
        W = self.implementer.conj().T
        return InnerAutomorphism(self.algebra, W, W @ self.algebra.constraint_generators() @ W.conj().T)

    def representative(self, tol=DEFAULT_TOL):
        if self._representative is None:
            self._representative = inner_unitary(self, tol)
        return self._representative


INNER_PROBES = 2


def inner_unitary(theta, tol=DEFAULT_TOL):
    """Unitary u in the algebra with u a u^* = theta(a) on the algebra.

    For theta = Ad u the map x -> sum_i theta(b_i) x b_i^* over the
    orthonormal basis b_i sends every x to a solution y of theta(a) y = y a,
    and sends the algebra onto u Z(A), Z(A) the centre.  When the generators
    are ready for averaging (generators_ready), the same line comes from
    composing the commuting projections x -> (x + theta(g) x g^*)/2 over the
    generators g, which is that map up to a positive factor and reads only
    the generator images; otherwise the basis sum is taken over the images
    theta(b_i) = W b_i W^*.  The solve assumes a factor, where the line is
    C u, and checks it: the images of two fixed-seed probes in the algebra
    must have rank one.  Rank zero means no implementer lies in the algebra,
    rank above one that the algebra has a centre.  The rank cutoff is
    relative to the largest image (the images may carry the conditioning
    error of the modular data).

    The returned u lies in the span and satisfies u g u^* = theta(g) to
    eq_tol on every generator (every basis element when there are none).
    """
    alg = theta.algebra
    k, N = alg.dim, alg.space_dim
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((INNER_PROBES, k)) + 1j * rng.standard_normal((INNER_PROBES, k))
    probes = np.tensordot(coords, alg.basis, axes=(1, 0))
    if alg.generators_ready(tol):
        solved = _project_intertwiners(probes, theta.images, alg.generators)
    else:
        # theta(b_i) x for every basis element and probe in one product, then
        # regrouped so that row a of probe p reads theta(b_i)[a, :] x over all i
        left = theta.apply(alg.basis).reshape(k * N, N) @ probes.transpose(1, 0, 2).reshape(N, -1)
        left = left.reshape(k, N, INNER_PROBES, N).transpose(2, 1, 0, 3).reshape(INNER_PROBES, N, k * N)
        adjoints = np.conj(np.transpose(alg.basis, (0, 2, 1))).reshape(k * N, N)
        solved = left @ adjoints
    svals, vh = singular_rows(solved.reshape(INNER_PROBES, N * N))
    dim = int(np.sum(svals > max(tol.rank_tol, 1e-6 * svals[0])))
    if dim == 0:
        raise NotInner("no implementing element inside the algebra")
    if dim > 1:
        raise NotInner(f"solution space has dimension {dim}; algebra is not a factor")
    u = polar_unitary(vh[0].reshape(N, N), tol)
    worst = maxabs(u @ alg.constraint_generators() @ u.conj().T - theta.images)
    if not sup((worst, alg.membership_residual(u))) <= tol.eq_tol:
        raise NotInner(f"candidate representative fails the action by {worst:.2e}")
    return u


def conjugation_action(U, alg, tol=DEFAULT_TOL):
    """The automorphism a -> U a U^* of the algebra (t-side structure map).

    U must normalize the algebra.  That is decided on the generator images
    the automorphism keeps (the basis when there are no generators): the
    algebra is star-closed, so a conjugation that keeps its generators
    inside it keeps the algebra they generate.  U is attached as the
    representative when it lies in the span.
    """
    images = U @ alg.constraint_generators() @ U.conj().T
    if not span_residual(images, alg.basis) <= tol.eq_tol:
        raise NotInNormalizer("unitary does not normalize the algebra")
    rep = U if alg.membership_residual(U) <= tol.eq_tol else None
    return InnerAutomorphism(alg, U, images, rep)


def reflected_action(U, alg, sfd, tol=DEFAULT_TOL):
    """The automorphism a -> (JUJ) a (JUJ)^* (s-side structure map)."""
    return conjugation_action(sfd.reflect(U), alg, tol)


class CanonicalImplementation(NamedTuple):
    """The unitary u J u J with the two residuals it was verified by."""

    unitary: np.ndarray
    action_residual: float      # sup norm of U g U^* - theta(g) over the generators
    j_residual: float           # sup norm of U J - J U


def canonical_implementation(sfd, alg, theta, tol=DEFAULT_TOL, rng=None):
    """The unitary u J u J implementing theta on the algebra.

    Phase independent in the representative u; verified to act as theta
    over the generators (over the basis when the algebra has none), to
    commute with J, and to preserve the positive cone on sampled elements.
    The first two residuals are returned with the unitary.
    """
    u = theta.representative(tol)
    U = u @ sfd.reflect(u)
    act = maxabs(U @ alg.constraint_generators() @ U.conj().T - theta.images)
    jcomm = maxabs(U @ sfd.conjugation.linear - sfd.conjugation.linear @ np.conj(U))
    if not sup((act, jcomm)) <= tol.eq_tol:
        raise NotInner(f"canonical implementation failed action/J checks ({act:.2e}, {jcomm:.2e})")
    if rng is None:
        rng = np.random.default_rng(4)
    probes = list(sfd.cone_frame[:4])
    for _ in range(4):
        c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        a = alg.from_coordinates(c)
        probes.append(a @ sfd.reflect(a) @ sfd.omega)
    worst = float(np.max(sfd.cone_defects(np.stack(probes) @ U.T)))
    if not worst <= tol.eq_tol:
        raise ConeViolation(f"cone moved by {worst:.2e}")
    return CanonicalImplementation(U, act, jcomm)
