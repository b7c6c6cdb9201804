"""Operator subalgebras of the Fock space and their modular structure.

An algebra is carried by generators, which generate it as a unital
star-algebra, and by a unitary frame W built and checked once from them
(clifford_frame); for the Clifford half-circle algebras they are the
unitary generators of one half circle.  Their local modes give matrix
units, in which the algebra is M_k (x) 1 on C^k (x) C^k, k = sqrt(N), and a
vector is a k x k matrix X; membership and coordinates are read there, and
the tests keep a basis-carrying algebra as the reference.  Every identity
check reads the generators: a star-homomorphism that is right on them is
right on the algebra they generate.  The program solves for no commutant:
the tomita checks read the half-circle commutants on their generators
(rep.half_generators), and the tests keep the commutant solvers as
references.

An automorphism is carried as conjugation by a unitary W that normalizes
the algebra, together with the images W g W^* of the generators, which fix
it as a star-automorphism.  Its representative, a unitary u inside the
algebra with Ad u = Ad W on it, is solved by projections over the
generators (inner_unitary).

The vacuum's matrix xi = rho^{1/2} V in the frame, from one k x k SVD,
gives the standard form of M_k (Bratteli-Robinson I, 2.5; Takesaki II):
Delta X = rho X sigma^{-1} with sigma = xi^* xi, J X = V X^* V and S = J
Delta^{1/2}; the cone is the positive semidefinite matrices times V, so
each membership test is one k x k eigenvalue problem.  The tests keep the
dense route, a solve for S and an N x N polar decomposition, and the cone
pairing tensor over the basis as references.

Every guard here is written so that a NaN residual fails it.
"""

from dataclasses import dataclass, field
from functools import reduce
from math import isqrt
from typing import NamedTuple

import numpy as np

from .errors import (ConeViolation, NotAveragingReady, NotClifford, NotCyclicSeparating,
                     NotInNormalizer, NotInner)
from .linalg import (DEFAULT_TOL, AntilinearOperator, _project_intertwiners, maxabs,
                     polar_unitary, singular_rows, span_residual, sup)


@dataclass
class OperatorAlgebra:
    """The algebra W (M_k (x) 1) W^* that generators generate, W = frame from
    clifford_frame, with the orthonormal units W (E_pq (x) 1) W^* / sqrt(k).
    A conjugation or an automorphism is checked on the generators alone; when
    they qualify for the averaging projections (generators_ready),
    inner_unitary solves by projecting over them.
    """

    generators: np.ndarray
    frame: np.ndarray = field(repr=False)
    _ready: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def k(self):
        return isqrt(self.space_dim)

    @property
    def space_dim(self):
        return self.frame.shape[0]

    dim = space_dim   # the k^2 = N units

    def coordinate_matrix(self, c):
        """x_hat for coordinates c over the units (last axis), row-major."""
        return np.reshape(c, np.shape(c)[:-1] + (self.k, self.k)) / np.sqrt(self.k)

    def embed(self, x_hat):
        """W (x_hat (x) 1) W^* for k x k matrices x_hat (last two axes)."""
        N, k = self.space_dim, self.k
        left = np.einsum("ips,...pr->...irs", self.frame.reshape(N, k, k), x_hat)
        return left.reshape(left.shape[:-3] + (N, N)) @ self.frame.conj().T

    def from_coordinates(self, c):
        return self.embed(self.coordinate_matrix(c))

    def membership_residual(self, X):
        """span_residual of X, one matrix or a stack: Y = W^* X W lies in M_k
        (x) 1 when each block Y[(p, .), (r, .)] lies in the span of 1_k /
        sqrt(k), whose projection leaves x_hat[p, r] 1_k, x_hat the partial
        trace of Y over the second factor over k."""
        k = self.k
        Y = self.frame.conj().T @ np.asarray(X, dtype=complex) @ self.frame
        blocks = Y.reshape(-1, k, k, k, k).transpose(0, 1, 3, 2, 4).reshape(-1, k, k)
        return span_residual(blocks, np.eye(k)[None] / np.sqrt(k))

    def generators_ready(self, tol):
        """True iff the generators qualify for the averaging projections of
        inner_unitary; decided once per tolerance policy."""
        if tol not in self._ready:
            self._ready[tol] = _averaging_ready(self.generators, tol)
        return self._ready[tol]


def _averaging_ready(mats, tol):
    """Unitaries with a common scalar square +-1 that pairwise commute or
    anticommute qualify for the averaging projections: for them, and for
    their images under a star-automorphism, the maps x -> (x + l x r^*)/2
    are commuting projections.  An empty stack does not qualify."""
    if len(mats) == 0:
        return False
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


def _dressed_generators(gens, signs, tol=DEFAULT_TOL):
    """The generators u Gamma, or None unless every generator u is odd and
    the dressed ones qualify for the averaging projections.  Gamma is the
    grading, diagonal with the +-1 entries signs, so Gamma u Gamma and
    u Gamma scale rows and columns of u.

    An element graded-commutes with an odd u exactly when it commutes with
    u Gamma, so the super commutant is the plain commutant of the dressed
    generators."""
    if not all(maxabs(signs[:, None] * u * signs + u) <= tol.eq_tol for u in gens):
        return None
    dressed = [u * signs for u in gens]
    return dressed if _averaging_ready(dressed, tol) else None


def super_commutant_probes(gens, signs, count, tol=DEFAULT_TOL):
    """count Gaussian probes from a fixed seed, projected onto the super
    commutant of the algebra the stack gens generates, each scaled to
    largest entry one; signs is the +-1 diagonal of the grading.

    The projections run over the generators dressed with the grading
    (_dressed_generators); without generators that qualify for them,
    NotAveragingReady is raised."""
    dressed = _dressed_generators(gens, signs, tol)
    if dressed is None:
        raise NotAveragingReady("the algebra needs odd generators whose dressings "
                                "qualify for the averaging projections")
    N = signs.shape[0]
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    Z = _project_intertwiners(Z, dressed, dressed)
    return Z / np.max(np.abs(Z), axis=(1, 2))[:, None, None]


@dataclass(frozen=True)
class CyclicSeparating:
    cyclic: bool
    separating: bool

    def __bool__(self):
        return self.cyclic and self.separating


def vacuum_matrix(alg, omega):
    """xi = mat(W^* omega), on whose rows the algebra acts."""
    return (alg.frame.conj().T @ omega).reshape(alg.k, alg.k)


def _cyclic_separating(s, tol):
    """a -> a omega is x_hat -> x_hat xi / sqrt(k): both hold iff rank xi = k."""
    full = int(np.sum(s / np.sqrt(len(s)) > tol.rank_tol)) == len(s)
    return CyclicSeparating(cyclic=full, separating=full)


def cyclic_separating_check(alg, omega, tol=DEFAULT_TOL):
    """Cyclicity (a Omega spans) and separation (a -> a Omega injective)."""
    return _cyclic_separating(np.linalg.svd(vacuum_matrix(alg, omega), compute_uv=False), tol)


@dataclass
class StandardFormData:
    """Vacuum vector, Tomita operator, modular pair and positive-cone data,
    all read from the Schmidt form of the vacuum in the frame.

    frame is the algebra's frame W, so a vector v reads as mat(W^* v);
    vacuum_phase is V^* for mat(W^* omega) = rho^{1/2} V.  cone_frame holds
    the cone vectors a_pq J a_pq J omega of the units in row q k + p, so its
    first k rows are not parallel.
    """

    omega: np.ndarray
    tomita: AntilinearOperator
    conjugation: AntilinearOperator
    delta: np.ndarray
    cone_frame: np.ndarray
    frame: np.ndarray = field(repr=False)
    vacuum_phase: np.ndarray = field(repr=False)

    def reflect(self, U):
        """J U J for a linear operator U."""
        return self.conjugation.conjugate_matrix(U)

    def cone_defect(self, v):
        """Distance data of v from the self-dual positive cone; cone_defects
        for one vector."""
        return float(self.cone_defects(np.asarray(v)[None])[0])

    def cone_defects(self, vectors):
        """Distance data of each row of vectors from the self-dual positive cone.

        The cone of (M_k (x) 1, rho^{1/2}) is the positive semidefinite
        matrices, and the right multiplication by V, a unitary of the
        commutant, carries it onto the cone of omega.  So a unit vector v
        lies in the cone iff X = mat(W^* v) V^* is positive semidefinite; the
        defect is the worst of the non-Hermitian part of X and the negative
        eigenvalue of its Hermitian part.
        """
        V = np.asarray(vectors, dtype=complex)
        norms = np.linalg.norm(V, axis=1)
        k = self.vacuum_phase.shape[0]
        # rows conj(conj(v) W) = (W^* v)^T, without a conjugated copy of W
        X = np.conj(np.conj(V) @ self.frame).reshape(-1, k, k) @ self.vacuum_phase
        X /= np.where(norms == 0, 1.0, norms)[:, None, None]
        Xh = np.conj(np.transpose(X, (0, 2, 1)))
        skew = np.max(np.abs(X - Xh), axis=(1, 2))
        lam_min = np.linalg.eigvalsh(0.5 * (X + Xh))[:, 0]
        return np.maximum(skew, -np.minimum(lam_min, 0.0))


def clifford_frame(gens, tol=DEFAULT_TOL):
    """Unitary W with W^* a W = a_hat (x) 1, a_hat a k x k matrix, on the
    algebra that the stack gens generates, 2m matrices that form a Clifford
    system on C^N, N = k^2, k = 2^m.

    The generators, times i where their square is -1, are Hermitian
    Majoranas h; the pairs (h_2j, h_2j+1) give local modes c_j = (h_2j +
    i h_2j+1)/2 in Jordan-Wigner order.  E_00 is the product of the local
    vacuum projections c_j c_j^* = (1 - i h_2j h_2j+1)/2, and E_p0 = c^*_j1
    ... c^*_jr E_00 for the modes j1 < ... < jr of p; W e_(p,q) = E_p0 zeta_q
    over an orthonormal basis zeta of the range of E_00.  W is checked to be
    unitary and to carry every generator to g_hat (x) 1 to eq_tol; a stack
    that fails, NaN included, raises NotClifford.
    """
    N = gens.shape[-1]
    m = len(gens) // 2
    k = 2 ** m
    if len(gens) != 2 * m or k * k != N:
        raise NotClifford(f"{len(gens)} generators cannot frame C^{N} as C^k (x) C^k, k = 2^(count/2)")
    # (g^2)[0, 0] is the square's sign for a Clifford generator
    squares = np.einsum("gi,gi->g", gens[:, 0, :], gens[:, :, 0])
    h = gens * np.where(squares.real < 0, 1j, 1.0)[:, None, None]
    creators = 0.5 * (h[0::2] - 1j * h[1::2])
    E00 = reduce(np.matmul, [0.5 * (np.eye(N) - 1j * h[2 * j] @ h[2 * j + 1]) for j in range(m)])
    if not np.all(np.isfinite(E00)):
        raise NotClifford("the local vacuum projections are not finite")
    _, vecs = np.linalg.eigh(E00)
    # column block p is E_p0 zeta; the block of p comes from that of p
    # without its lowest mode j, by c_j^*
    W = np.empty((N, k, k), dtype=complex)
    W[:, 0] = vecs[:, N - k:]
    for p in range(1, k):
        j = (p & -p).bit_length() - 1
        W[:, p] = creators[j] @ W[:, p & (p - 1)]
    W = W.reshape(N, N)
    Wh = W.conj().T
    images = (Wh @ gens @ W).reshape(-1, k, k, k, k)
    hats = np.einsum("gpqrq->gpr", images) / k
    action = maxabs(images - hats[:, :, None, :, None] * np.eye(k)[None, None, :, None, :])
    unitarity = maxabs(Wh @ W - np.eye(N))
    if not sup((unitarity, action)) <= tol.eq_tol:
        raise NotClifford(f"the frame fails unitarity ({unitarity:.2e}) or the generator actions "
                          f"({action:.2e})")
    return W


def _frame_linear(W, P, Q):
    """The operator v -> W vec(P X Q), X = mat(W^* v), in row-major vec."""
    return W @ np.kron(P, Q.T) @ W.conj().T


def _frame_conjugation(W, V):
    """The antilinear v -> W vec(V X^* V), X = mat(W^* v): since conj(vec X)
    = W^T conj(v), its linear part is W M W^T, M[(a, b), (d, c)] = V[a, c]
    V[d, b]."""
    k = V.shape[0]
    return AntilinearOperator(W @ np.einsum("ac,db->abdc", V, V).reshape(k * k, k * k) @ W.T)


def star_relation_residual(alg, omega, S):
    """Sup norm of S(a_pq omega) - a_pq^* omega over the units a_pq, relative
    to the largest entry of the a_pq^* omega: the relation that defines the
    Tomita operator of (alg, omega).  a_pq omega = W vec(E_pq xi) holds row q
    of xi in row p, and a_pq^* = a_qp."""
    N, k = alg.space_dim, alg.k
    images = np.einsum("ips,qs->pqi", alg.frame.reshape(N, k, k), vacuum_matrix(alg, omega))
    star = images.transpose(1, 0, 2).reshape(N, N)
    return maxabs(S(images.reshape(N, N).T).T - star) / maxabs(star)


def tomita_data(alg, omega, tol=DEFAULT_TOL):
    """S: a omega -> a* omega, J, Delta and the cone data of (alg, omega), in
    the frame from the SVD xi = u s vh, which first decides that omega is
    cyclic and separating.  The closed forms are checked by S(a_pq omega) =
    a_pq^* omega over the units, J omega = omega and Delta omega = omega,
    relative to Delta's largest entry (the ratio of the extreme Schmidt
    weights); a failure of either raises NotCyclicSeparating."""
    W = alg.frame
    u, s, vh = np.linalg.svd(vacuum_matrix(alg, omega))
    status = _cyclic_separating(s, tol)
    if not status:
        raise NotCyclicSeparating(f"cyclic={status.cyclic} separating={status.separating}")
    V = u @ vh
    J = _frame_conjugation(W, V)
    delta = _frame_linear(W, (u * s ** 2) @ u.conj().T, (vh.conj().T / s ** 2) @ vh)
    half = _frame_linear(W, (u * s) @ u.conj().T, (vh.conj().T / s) @ vh)
    S = AntilinearOperator(J.linear @ np.conj(half))
    checks = {
        "S a omega": star_relation_residual(alg, omega, S),
        "J omega": maxabs(J(omega) - omega),
        "delta omega": maxabs(delta @ omega - omega) / max(1.0, maxabs(delta)),
    }
    if not sup(checks.values()) <= tol.eq_tol:
        raise NotCyclicSeparating(f"modular data failed vacuum identities: {checks}")
    # a_pq J a_pq J omega = W vec(E_pq V xi^* E_qp V) = rho^{1/2}_qq W vec(E_pp V)
    root = np.einsum("qj,j,qj->q", u, s, u.conj())
    cone_frame = np.einsum("q,ips,ps->qpi", root, W.reshape(-1, alg.k, alg.k), V).reshape(alg.dim, -1)
    return StandardFormData(np.asarray(omega, dtype=complex), S, J, delta, cone_frame, W, V.conj().T)


@dataclass
class InnerAutomorphism:
    """Star-automorphism a -> W a W^* of an algebra, W a unitary normalizing it.

    W need not lie in the algebra.  images holds W g W^* for the generators
    g; they fix the automorphism, so distance compares them, and the phase
    of W is irrelevant.
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
        return InnerAutomorphism(self.algebra, W, W @ self.algebra.generators @ W.conj().T)

    def representative(self, tol=DEFAULT_TOL):
        if self._representative is None:
            self._representative = inner_unitary(self, tol)
        return self._representative


INNER_PROBES = 2


def inner_unitary(theta, tol=DEFAULT_TOL):
    """Unitary u in the algebra with u a u^* = theta(a) on the algebra.

    For theta = Ad u the map x -> sum_i theta(b_i) x b_i^* over the
    orthonormal basis b_i sends every x to a solution y of theta(a) y = y a,
    and sends the algebra onto u Z(A), Z(A) the centre.  The same line comes
    from composing the commuting projections x -> (x + theta(g) x g^*)/2
    over the generators g, which is that map up to a positive factor and
    reads only the generator images.  The projections need generators ready
    for averaging (generators_ready); without them NotAveragingReady is
    raised.  The solve assumes a factor, where the line is C u, and checks
    it: the images of two fixed-seed probes in the algebra must have rank
    one.  Rank zero means no implementer lies in the algebra, rank above
    one that the algebra has a centre.  The rank cutoff is relative to the
    largest image (the images may carry the conditioning error of the
    modular data).  The tests keep the basis sum as a reference solve.

    The returned u lies in the span and satisfies u g u^* = theta(g) to
    eq_tol on every generator.
    """
    alg = theta.algebra
    if not alg.generators_ready(tol):
        raise NotAveragingReady("the algebra's generators do not qualify for the averaging projections")
    k, N = alg.dim, alg.space_dim
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((INNER_PROBES, k)) + 1j * rng.standard_normal((INNER_PROBES, k))
    probes = alg.from_coordinates(coords)
    solved = _project_intertwiners(probes, theta.images, alg.generators)
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


def conjugation_action(U, alg, tol=DEFAULT_TOL):
    """The automorphism a -> U a U^* of the algebra (t-side structure map).

    U must normalize the algebra.  That is decided on the generator images
    the automorphism keeps: the algebra is star-closed, so a conjugation
    that keeps its generators inside it keeps the algebra they generate.  U
    is attached as the representative when it lies in the span.
    """
    images = U @ alg.generators @ U.conj().T
    if not alg.membership_residual(images) <= tol.eq_tol:
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

    Phase independent in the representative u; verified to act as theta on
    the generators, to commute with J, and to preserve the positive cone on
    sampled elements.  The first two residuals are returned with the
    unitary.
    """
    u = theta.representative(tol)
    U = u @ sfd.reflect(u)
    act = maxabs(U @ alg.generators @ U.conj().T - theta.images)
    jcomm = maxabs(U @ sfd.conjugation.linear - sfd.conjugation.linear @ np.conj(U))
    if not sup((act, jcomm)) <= tol.eq_tol:
        raise NotInner(f"canonical implementation failed action/J checks ({act:.2e}, {jcomm:.2e})")
    if rng is None:
        rng = np.random.default_rng(4)
    probes = list(sfd.cone_frame[:4])
    for _ in range(4):
        c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        a = alg.from_coordinates(c)
        probes.append(a @ sfd.conjugation(a @ sfd.omega))
    worst = float(np.max(sfd.cone_defects(np.stack(probes) @ U.T)))
    if not worst <= tol.eq_tol:
        raise ConeViolation(f"cone moved by {worst:.2e}")
    return CanonicalImplementation(U, act, jcomm)
