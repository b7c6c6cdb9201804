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

An automorphism is carried in the frame: a unitary U normalizes M_k (x) 1
exactly when W^* U W = u_hat (x) v_hat, and then U acts on the algebra as
Ad u_hat and J U J as Ad(V conj(v_hat) V^*) (conjugation_action,
reflected_action).  The automorphism keeps its factor, the frame images of
the generators, which fix it, and the residual of that one read.  Its
representative, a unitary inside the algebra with the same action, is
solved from the images alone by projections over the generators on k x k
matrices (inner_unitary), and the canonical implementation u J u J is
W (u_hat (x) B^T) W^* with B = V^* u_hat^* V, checked in the frame too.
The tests keep the dense routes on N x N matrices as references.

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
from functools import cached_property, reduce
from math import isqrt
from typing import NamedTuple

import numpy as np

from .errors import (ConeViolation, NotAveragingReady, NotClifford, NotCyclicSeparating,
                     NotInNormalizer, NotInner)
from .linalg import (DEFAULT_TOL, AntilinearOperator, _project_intertwiners, maxabs,
                     polar_unitary, scalar_defect, singular_rows, span_residual, sup)


@dataclass
class OperatorAlgebra:
    """The algebra W (M_k (x) 1) W^* that generators generate, W = frame from
    clifford_frame, with the orthonormal units W (E_pq (x) 1) W^* / sqrt(k).
    A conjugation or an automorphism is checked on the generators alone, in
    the frame on their k x k parts generator_hats; when those qualify for the
    averaging projections (generators_ready), inner_unitary solves by
    projecting over them.
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

    def embed(self, x_hat, y_hat=None):
        """W (x_hat (x) y_hat) W^* for k x k matrices x_hat (last two axes),
        y_hat the identity when it is not given."""
        N, k = self.space_dim, self.k
        left = np.einsum("ips,...pr->...irs", self.frame.reshape(N, k, k), x_hat)
        if y_hat is not None:
            left = left @ y_hat
        return left.reshape(left.shape[:-3] + (N, N)) @ self.frame.conj().T

    def frame_blocks(self, X):
        """The k x k blocks Y[(p, .), (r, .)] of Y = W^* X W, one matrix or a
        stack, at [..., p, r, :, :]; X = W (x_hat (x) y_hat) W^* has the
        blocks x_hat[p, r] y_hat."""
        k = self.k
        Y = self.frame.conj().T @ np.asarray(X, dtype=complex) @ self.frame
        return Y.reshape(Y.shape[:-2] + (k, k, k, k)).swapaxes(-3, -2)

    def membership_residual(self, X):
        """span_residual of X, one matrix or a stack: Y = W^* X W lies in M_k
        (x) 1 when each block Y[(p, .), (r, .)] lies in the span of 1_k /
        sqrt(k), whose projection leaves x_hat[p, r] 1_k, x_hat the partial
        trace of Y over the second factor over k."""
        k = self.k
        return span_residual(self.frame_blocks(X).reshape(-1, k, k), np.eye(k)[None] / np.sqrt(k))

    @cached_property
    def generator_hats(self):
        """The g_hat with W^* g W = g_hat (x) 1: the partial traces of the
        frame blocks over k, as clifford_frame reads them."""
        return np.einsum("gprqq->gpr", self.frame_blocks(self.generators)) / self.k

    def generators_ready(self, tol):
        """True iff the generators' frame parts qualify for the averaging
        projections of inner_unitary; decided once per tolerance policy."""
        if tol not in self._ready:
            self._ready[tol] = _averaging_ready(self.generator_hats, tol)
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
    vacuum_hat is xi = mat(W^* omega) = rho^{1/2} V and vacuum_phase is V^*.
    """

    omega: np.ndarray
    tomita: AntilinearOperator
    conjugation: AntilinearOperator
    delta: np.ndarray
    frame: np.ndarray = field(repr=False)
    vacuum_hat: np.ndarray = field(repr=False)
    vacuum_phase: np.ndarray = field(repr=False)

    def reflect(self, U):
        """J U J for a linear operator U."""
        return self.conjugation.conjugate_matrix(U)

    def reflect_frame(self, u_hat):
        """B = V^* u_hat^* V: J W (u_hat (x) 1) W^* J = W (1 (x) B^T) W^*, the
        right multiplication X -> X B."""
        Vh = self.vacuum_phase
        return Vh @ u_hat.conj().T @ Vh.conj().T

    def j_residual(self, P, Q):
        """Sup norm of U - J U J over the k^2 units W vec(E_pq), for U the
        operator X -> P X Q in the frame.  J X = V X^* V makes J U J the
        operator X -> L X R with L = V Q^* V^* and R = V^* P^* V, so the
        unit E_pq goes to the matrix P[a, p] Q[q, b] - L[a, p] R[q, b]."""
        Vh = self.vacuum_phase
        L = Vh.conj().T @ Q.conj().T @ Vh
        R = Vh @ P.conj().T @ Vh.conj().T
        return maxabs(np.einsum("ap,qb->apqb", P, Q) - np.einsum("ap,qb->apqb", L, R))

    def cone_units(self, count):
        """mat(W^* a_pq J a_pq J omega) = rho^{1/2}_qq E_pp V for the units
        a_pq in the order q k + p, the first count of them; the first k are
        not parallel.  rho^{1/2} = xi V^*."""
        Vh = self.vacuum_phase
        k = Vh.shape[0]
        root = np.einsum("qj,jq->q", self.vacuum_hat, Vh)
        q, p = np.divmod(np.arange(count), k)
        X = np.zeros((count, k, k), dtype=complex)
        X[np.arange(count), p] = root[q, None] * Vh.conj().T[p]
        return X

    def cone_probe(self, x_hat):
        """mat(W^* a J a J omega) = x_hat V xi^* x_hat^* V for a = W (x_hat (x)
        1) W^*: a omega reads x_hat xi, and J X = V X^* V."""
        V = self.vacuum_phase.conj().T
        return x_hat @ V @ self.vacuum_hat.conj().T @ x_hat.conj().T @ V

    def cone_defect(self, v):
        """Distance data of v from the self-dual positive cone; cone_defects
        for one vector."""
        return float(self.cone_defects(np.asarray(v)[None])[0])

    def cone_defects(self, vectors):
        """Distance data of each row of vectors from the self-dual positive
        cone: frame_cone_defects of the rows read in the frame."""
        k = self.vacuum_phase.shape[0]
        # rows conj(conj(v) W) = (W^* v)^T, without a conjugated copy of W
        return self.frame_cone_defects(np.conj(np.conj(np.asarray(vectors, dtype=complex)) @ self.frame)
                                       .reshape(-1, k, k))

    def frame_cone_defects(self, X):
        """Distance data from the self-dual positive cone of the vectors W
        vec(X) for a stack of k x k matrices X.

        The cone of (M_k (x) 1, rho^{1/2}) is the positive semidefinite
        matrices, and the right multiplication by V, a unitary of the
        commutant, carries it onto the cone of omega.  So a unit vector lies
        in the cone iff its X V^* is positive semidefinite; the defect is the
        worst of the non-Hermitian part of X V^* and the negative eigenvalue
        of its Hermitian part.
        """
        norms = np.linalg.norm(X, axis=(1, 2))
        X = X @ self.vacuum_phase / np.where(norms == 0, 1.0, norms)[:, None, None]
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
    xi = vacuum_matrix(alg, omega)
    u, s, vh = np.linalg.svd(xi)
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
    return StandardFormData(np.asarray(omega, dtype=complex), S, J, delta, W, xi, V.conj().T)


def _conjugated(u_hat, hats):
    """u_hat g_hat u_hat^* for a stack of frame parts g_hat."""
    return u_hat @ hats @ u_hat.conj().T


@dataclass
class InnerAutomorphism:
    """Star-automorphism of an algebra, carried in its frame as Ad u_hat on
    M_k: it sends W (x_hat (x) 1) W^* to W (u_hat x_hat u_hat^* (x) 1) W^*.

    factor is u_hat and images holds the frame images u_hat g_hat u_hat^* of
    the generators; they fix the automorphism, so distance compares them,
    and the phase of u_hat is irrelevant.  residual is the factorization
    residual of the unitary read (_frame_factors), 0 for one formed from
    u_hat.  Composition and inversion act on u_hat.  A representative, the
    frame part of a unitary inside the algebra with the same action, is u_hat
    when that unitary lies in the algebra, and otherwise solved lazily from
    the images (inner_unitary).
    """

    algebra: OperatorAlgebra
    factor: np.ndarray
    images: np.ndarray
    residual: float
    _representative: np.ndarray | None = field(default=None, repr=False)

    def distance(self, other):
        return maxabs(self.images - other.images)

    @classmethod
    def ad(cls, alg, u_hat, residual=0.0, inside=False):
        """Ad u_hat, with u_hat as its representative when inside is true."""
        return cls(alg, u_hat, _conjugated(u_hat, alg.generator_hats), residual, u_hat if inside else None)

    def compose(self, other):
        """self after other, in the frame; no representative is carried over."""
        u = self.factor
        return InnerAutomorphism(self.algebra, u @ other.factor, _conjugated(u, other.images),
                                 sup((self.residual, other.residual)))

    def inverse(self):
        return InnerAutomorphism.ad(self.algebra, self.factor.conj().T, self.residual)

    def representative(self, tol=DEFAULT_TOL):
        """The frame part u_hat of a representative W (u_hat (x) 1) W^*."""
        if self._representative is None:
            self._representative = inner_unitary(self, tol)
        return self._representative


INNER_PROBES = 2


def inner_unitary(theta, tol=DEFAULT_TOL):
    """The frame part u_hat of a unitary u = W (u_hat (x) 1) W^* in the
    algebra with u a u^* = theta(a) on the algebra.

    For theta = Ad u the map x -> sum_i theta(b_i) x b_i^* over an
    orthonormal basis b_i sends every x to a solution y of theta(a) y = y a,
    and sends the algebra onto u Z(A), Z(A) the centre.  The same line comes
    from composing the commuting projections x -> (x + theta(g) x g^*)/2
    over the generators g, which is that map up to a positive factor and
    reads only the generator images; in the frame they act on k x k
    matrices, x_hat -> (x_hat + theta_hat(g) x_hat g_hat^*)/2.  The
    projections need generators ready for averaging (generators_ready);
    without them NotAveragingReady is raised.  The solve assumes a factor,
    where the line is C u, and checks it: the images of two fixed-seed
    probes in the algebra must have rank one.  Rank zero means no
    implementer lies in the algebra, rank above one that the algebra has a
    centre or that the images are not those of an automorphism.  The rank
    cutoff is relative to the largest image (the images may carry the
    conditioning error of the modular data).  The tests keep the dense
    route and the basis sum as reference solves.

    The returned u_hat is unitary and satisfies u_hat g_hat u_hat^* =
    theta_hat(g) to eq_tol on every generator.
    """
    alg = theta.algebra
    if not alg.generators_ready(tol):
        raise NotAveragingReady("the algebra's generators do not qualify for the averaging projections")
    k = alg.k
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((INNER_PROBES, alg.dim)) + 1j * rng.standard_normal((INNER_PROBES, alg.dim))
    solved = _project_intertwiners(alg.coordinate_matrix(coords), theta.images, alg.generator_hats)
    svals, vh = singular_rows(solved.reshape(INNER_PROBES, k * k))
    dim = int(np.sum(svals > max(tol.rank_tol, 1e-6 * svals[0])))
    if dim == 0:
        raise NotInner("no implementing element inside the algebra")
    if dim > 1:
        raise NotInner(f"solution space has dimension {dim}; algebra is not a factor")
    u = polar_unitary(vh[0].reshape(k, k), tol)
    worst = maxabs(_conjugated(u, alg.generator_hats) - theta.images)
    if not worst <= tol.eq_tol:
        raise NotInner(f"candidate representative fails the action by {worst:.2e}")
    return u


def _frame_factors(U, alg, tol):
    """(u_hat, v_hat, residual) for W^* U W = u_hat (x) v_hat: U normalizes
    the algebra, M_k (x) 1 in the frame, exactly when the blocks of Y = W^*
    U W factor as u_hat[p, r] v_hat.  v_hat is read from the largest block,
    scaled to Frobenius norm sqrt(k) (a partial trace would lose it: v_hat
    is traceless for a second-half generator), u_hat from the overlaps of
    every block with it, and the sup norm of Y - u_hat (x) v_hat is the
    residual that decides (NotInNormalizer)."""
    k = alg.k
    blocks = alg.frame_blocks(U)
    norms = np.einsum("prqs,prqs->pr", blocks, blocks.conj()).real
    p, r = np.unravel_index(np.argmax(norms), norms.shape)
    v_hat = blocks[p, r] * np.sqrt(k / norms[p, r])
    u_hat = np.einsum("prqs,qs->pr", blocks, v_hat.conj()) / k
    residual = maxabs(blocks - u_hat[:, :, None, None] * v_hat)
    if not residual <= tol.eq_tol:
        raise NotInNormalizer(f"unitary does not normalize the algebra (frame factorization residual "
                              f"{residual:.2e})")
    return u_hat, v_hat, residual


def conjugation_action(U, alg, tol=DEFAULT_TOL):
    """The automorphism a -> U a U^* of the algebra (t-side structure map),
    Ad u_hat for W^* U W = u_hat (x) v_hat; U lies in the algebra, with
    u_hat as the representative, when v_hat is a scalar."""
    u_hat, v_hat, residual = _frame_factors(U, alg, tol)
    return InnerAutomorphism.ad(alg, u_hat, residual, scalar_defect(v_hat)[0] <= tol.eq_tol)


def reflected_action(U, alg, sfd, tol=DEFAULT_TOL):
    """The automorphism a -> (JUJ) a (JUJ)^* (s-side structure map): J X = V
    X^* V, V = vacuum_phase^*, gives J U J = W (V conj(v_hat) V^* (x) (V^*
    u_hat^* V)^T) W^* for W^* U W = u_hat (x) v_hat, so it is Ad(V conj(v_hat)
    V^*), with that factor as the representative when u_hat is a scalar."""
    u_hat, v_hat, residual = _frame_factors(U, alg, tol)
    w_hat = sfd.vacuum_phase.conj().T @ v_hat.conj() @ sfd.vacuum_phase
    return InnerAutomorphism.ad(alg, w_hat, residual, scalar_defect(u_hat)[0] <= tol.eq_tol)


class CanonicalImplementation(NamedTuple):
    """The unitary u J u J with the two residuals it was verified by."""

    unitary: np.ndarray
    action_residual: float      # sup norm of U g U^* - theta(g) in the frame, and theta's residual
    j_residual: float           # sup norm of U - J U J over the k^2 units


CONE_PROBES = 4


def canonical_implementation(sfd, alg, theta, tol=DEFAULT_TOL, rng=None):
    """The unitary u J u J implementing theta on the algebra.

    With u = W (u_hat (x) 1) W^* the representative and J u J = W (1 (x)
    B^T) W^* (reflect_frame), it is W (u_hat (x) B^T) W^*, the operator X ->
    u_hat X B in the frame, where it is checked: it acts as theta on the
    generators, u_hat g_hat u_hat^* = theta_hat(g), with theta's own
    factorization residual counted in; it commutes with J over the k^2
    units (j_residual); and it keeps the positive cone on the first
    CONE_PROBES cone vectors of the units and on CONE_PROBES vectors a J a J
    omega for sampled a.  Phase independent in u_hat.  The first two
    residuals are returned with the unitary.
    """
    u = theta.representative(tol)
    B = sfd.reflect_frame(u)
    act = sup((maxabs(_conjugated(u, alg.generator_hats) - theta.images), theta.residual))
    jcomm = sfd.j_residual(u, B)
    if not sup((act, jcomm)) <= tol.eq_tol:
        raise NotInner(f"canonical implementation failed action/J checks ({act:.2e}, {jcomm:.2e})")
    if rng is None:
        rng = np.random.default_rng(4)
    probes = list(sfd.cone_units(CONE_PROBES))
    for _ in range(CONE_PROBES):
        c = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
        probes.append(sfd.cone_probe(alg.coordinate_matrix(c)))
    worst = float(np.max(sfd.frame_cone_defects(u @ np.stack(probes) @ B)))
    if not worst <= tol.eq_tol:
        raise ConeViolation(f"cone moved by {worst:.2e}")
    return CanonicalImplementation(alg.embed(u, B.T), act, jcomm)
