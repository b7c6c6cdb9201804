"""Discrete spin loops and paths, their orthogonal action, and lifted loops.

Spin(d) lives inside a fixed gamma-matrix representation; loops are arrays
(2n, r, r) of spin elements (one per lattice vertex), based paths arrays
(n+1, r, r) starting at the identity.  The per-vertex maps take the array
whole: SpinGroup.exp and covering act on stacks, the block-diagonal embedding
places every vertex block at once, and SpinGroup draws k values in one
(k, d, d) normal draw, the same numbers as k single draws.  Pointwise
conjugation on vectors gives the orthogonal action on H; the pointwise spin
representation, phase-fixed by the vacuum overlap, lifts loops to pairs
(loop, unitary).  Every lift is even, so its unitary is carried as its two
N/2 x N/2 blocks on model.parity_blocks, and the N x N unitary is scattered
from them when a caller reads it.

The string crossed module's fiber, the lifted half-supported loops, lives in
the first-half algebra A = W (M_k (x) 1) W^*, k = sqrt(N): each first-half
vertex factor is a sum of even products of A's generators, so the lift of a
half-supported loop is W (u_hat (x) 1) W^* for the vertex-ordered product
u_hat of the k x k factors.  The extension group carries (loop, u_hat,
rotation) and multiplies, inverts and compares k x k matrices; a second-half
factor commutes with A, so the string action is Ad of the doubled path's
first-half factor.
"""

import reprlib
import weakref
from dataclasses import dataclass, field
from functools import reduce
from numbers import Real

import numpy as np

from .algebra import vacuum_matrix
from .bogoliubov import (Implementer, check_orthogonal, is_special, normalize_phase,
                         schwinger_term)
from .clifford import LiftCache, even_monomials
from .errors import EndpointMismatch, NotSpecialOrthogonal
from .linalg import DEFAULT_TOL, maxabs, sup
from .twogroup import ComputableGroup, CrossedModule, UnitaryGroup

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def gamma_matrices(d):
    """Hermitian anticommuting matrices with square one, dimension 2^ceil(d/2)."""
    pairs = (d + 1) // 2
    out = []
    for a in range(d):
        i = a // 2
        factors = [_PAULI_Z] * i + [_PAULI_X if a % 2 == 0 else _PAULI_Y]
        factors += [np.eye(2, dtype=complex)] * (pairs - i - 1)
        out.append(reduce(np.kron, factors))
    return np.stack(out)


def covering(x, gammas):
    """The rotation lambda(x) with x gamma_a x^* = sum_b lambda_{ba} gamma_b,
    for one spin element or a stack (..., r, r) of them."""
    x = np.asarray(x)[..., None, :, :]
    conj = x @ gammas @ np.conj(np.swapaxes(x, -1, -2))
    return np.real(np.einsum("bij,...aji->...ba", gammas, conj)) / gammas.shape[1]


# spread of the sampled so(d) coefficients, for spin elements and loop algebra values
SAMPLE_SCALE = 0.7


def random_bivectors(rng, k, d):
    """k antisymmetric d x d matrices from one (k, d, d) normal draw."""
    B = rng.standard_normal((k, d, d)) * SAMPLE_SCALE
    return B - np.swapaxes(B, -1, -2)


class SpinGroup(UnitaryGroup):
    """Even unit elements of the gamma representation, double covering SO(d)."""

    def __init__(self, d):
        gammas = gamma_matrices(d)
        super().__init__(gammas.shape[1], name=f"Spin({d})")
        self.d = d
        self.gammas = gammas
        self.even_gammas = even_monomials(gammas)
        self.gamma_products = gammas[:, None] @ gammas[None]    # gamma_a gamma_b at [a, b]

    def exp(self, B):
        """Exponentials of bivectors: B is an antisymmetric d x d coefficient
        matrix or a stack (..., d, d) of them.

        Normalized so that the covering map sends each result to expm(B).
        A bivector whose coefficients overflow in the sum (inf * 0 = NaN)
        has an all-NaN exponential, without a warning.
        """
        # einsum adds the planes one by one in (a, b) order, so each value is
        # bitwise that of a sum over one bivector; a BLAS contraction may reorder
        with np.errstate(over="ignore", invalid="ignore"):
            K = 0.25 * np.einsum("...ab,abij->...ij", B, self.gamma_products)
        finite = np.all(np.isfinite(K), axis=(-2, -1))[..., None, None]
        w, V = np.linalg.eigh(1j * np.where(finite, K, 0.0))
        x = (V * np.exp(-1j * w)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))
        return np.where(finite, x, np.nan)

    def samples(self, rng, k):
        """k values (k, r, r) from one (k, d, d) normal draw, equal to k calls of sample."""
        return self.exp(random_bivectors(rng, k, self.d))

    def sample(self, rng):
        return self.samples(rng, 1)[0]

    def covering(self, x):
        return covering(x, self.gammas)


class PathGroup(UnitaryGroup):
    """Based discrete paths: arrays (n+1, r, r) with p[0] = 1, pointwise product."""

    def __init__(self, n, spin):
        super().__init__(spin.dim, name=f"paths({spin.name}, n={n})")
        self.n, self.spin = n, spin

    def identity(self):
        return np.stack([self.spin.identity()] * (self.n + 1))

    def sample(self, rng, end_identity=False):
        return self.sample_common_end(rng, 1, end_identity)[0]

    def sample_common_end(self, rng, count, end_identity=False):
        """count paths (count, n+1, r, r) ending where the first one ends.

        They are drawn one after another as by sample, from one draw; the
        drawn endpoints of all but the first are then replaced by its own.
        """
        drawn = self.n - 1 if end_identity else self.n
        paths = np.stack([self.identity()] * count)
        paths[:, 1:drawn + 1] = self.spin.samples(rng, count * drawn).reshape(count, drawn, self.dim, self.dim)
        paths[1:, -1] = paths[0, -1]
        return paths


def loop_identity(n, spin):
    return np.stack([spin.identity()] * (2 * n))


def half_supported_loop(n, spin, rng):
    """Loop with sampled values at vertices 1..n-1 and the identity elsewhere."""
    loop = loop_identity(n, spin)
    loop[1:n] = spin.samples(rng, n - 1)
    return loop


def is_half_supported(loop, tol=DEFAULT_TOL):
    """Trivial at vertex 0 and on the closed second half n..2n-1."""
    n2 = loop.shape[0]
    n = n2 // 2
    eye = np.eye(loop.shape[1])
    if not maxabs(loop[0] - eye) <= tol.eq_tol:
        return False
    return all(maxabs(loop[j] - eye) <= tol.eq_tol for j in range(n, n2))


def restrict_loop(loop, tol=DEFAULT_TOL):
    """Path of the first-half values of a half-supported loop."""
    if not is_half_supported(loop, tol):
        raise ValueError("loop is not supported in the first half circle")
    n = loop.shape[0] // 2
    return np.array(loop[: n + 1])


def concat_paths(p, q, tol=DEFAULT_TOL):
    """Loop traversing p then the reverse of q; endpoints must match."""
    n = p.shape[0] - 1
    if not maxabs(p[n] - q[n]) <= tol.eq_tol:
        raise EndpointMismatch("paths end at different group elements")
    values = [p[j] for j in range(n + 1)]
    values += [q[2 * n - j] for j in range(n + 1, 2 * n)]
    return np.stack(values)


def double_path(p, tol=DEFAULT_TOL):
    return concat_paths(p, p, tol)


def edge_double_path(p):
    """Loop reflecting the path about the half-integer axis.

    Values (p_0 .. p_{n-1}, p_{n-1} .. p_0); the endpoint p_n never appears.
    This is the doubling matched to the edge reflection, and the loop whose
    rotation the modular-canonical unit of a path automorphism implements.
    """
    n = p.shape[0] - 1
    vals = [p[j] for j in range(n)] + [p[2 * n - 1 - j] for j in range(n, 2 * n)]
    return np.stack(vals)


def vertex_blocks(model, blocks):
    """The dim_h x dim_h matrix with the d x d block blocks[j] at vertex j."""
    n2, d = 2 * model.n, model.d
    out = np.zeros((n2, d, n2, d))
    np.einsum("jajb->jab", out)[...] = blocks
    return out.reshape(model.dim_h, model.dim_h)


def omega_matrix(model, spin, loop):
    """Block-diagonal orthogonal action: block lambda(loop_j) at vertex j."""
    return vertex_blocks(model, spin.covering(loop))


def embed_even(places, blocks):
    """The N x N operator whose even blocks (2, N/2, N/2) sit on the
    indices places = model.parity_blocks; its odd blocks are zero."""
    out = np.zeros((2 * places.shape[1],) * 2, dtype=blocks.dtype)
    out[places[:, :, None], places[:, None, :]] = blocks
    return out


def even_distance(X, places, blocks):
    """maxabs(X - embed_even(places, blocks)) without the scatter: X's even
    blocks against blocks and its odd blocks against zero."""
    rows = places[:, :, None]
    return sup((maxabs(X[rows, places[:, None, :]] - blocks), maxabs(X[rows, places[::-1, None, :]])))


@dataclass(frozen=True)
class ExtLoop:
    """A loop with an even Fock unitary implementing its orthogonal action
    (extension element).

    The unitary is held as its blocks (2, N/2, N/2) on places, which is
    model.parity_blocks itself, not a copy; implemented is the rotation.
    The dense unitary and the Implementer are formed when read, by one
    N x N scatter.  The element keeps only a weak reference to that array:
    a read while a caller still holds an earlier read's array returns it,
    so reading the unitary and then the implementer scatters once, and the
    lift cache holds blocks alone.
    """

    loop: np.ndarray
    blocks: np.ndarray
    implemented: np.ndarray
    places: np.ndarray
    normalization: str = "raw"
    _dense: weakref.ref = field(default=None, init=False, repr=False, compare=False)

    @property
    def unitary(self):
        dense = self._dense and self._dense()
        if dense is None:
            dense = embed_even(self.places, self.blocks)
            object.__setattr__(self, "_dense", weakref.ref(dense))
        return dense

    @property
    def implementer(self):
        return Implementer(self.unitary, self.implemented, "even", self.normalization)


def lift(model, spin, loop, tol=DEFAULT_TOL):
    """Pointwise unitary of the loop, phase fixed by its vacuum overlap.

    The phase is fixed on the block stack, whose entry [0, 0, 0] is the
    vacuum overlap: Fock index 0 is the first even basis vector.  Kept in
    model.lift_cache, which holds the 16 most recently used lifts; a lift
    evicted from it is recomputed bit for bit on its next request.
    """
    key = np.asarray(loop).tobytes()
    cached = model.lift_cache.get(key)
    if cached is not None:
        return cached
    g = check_orthogonal(omega_matrix(model, spin, loop), tol)
    if not is_special(g, tol):
        raise NotSpecialOrthogonal("a loop value is odd: its rotation has det -1")
    imp = normalize_phase(Implementer(pointwise_unitary(model, spin, loop), g, "even", "raw"),
                          "vacuum", tol)
    out = ExtLoop(np.array(loop), imp.unitary, g, model.parity_blocks, imp.normalization)
    model.lift_cache.put(key, out)
    return out


def pointwise_unitary(model, spin, loop):
    """Fock unitary of the loop through the pointwise spin representation,
    as its even blocks (2, N/2, N/2) on model.parity_blocks.

    At vertex j, gamma_a -> i pi(e_{j,a}) extends to a *-homomorphism rho_j
    of the Clifford algebra, and U = prod_j rho_j(x_j) with
    rho_j(x) = sum_{|S| even} tr(gamma_S^* x)/r M_{j,S}, M_{j,S} being the
    ordered product of the i pi(e_{j,a}), a in S.  rho_j(1) = 1, so only
    the moved vertices, whose value is not exactly the identity, enter the
    product; with none, U is the two identity blocks.  Every factor is even,
    so it is two N/2 x N/2 blocks: the blocks of the M_{j,S} are scattered
    from the vertex_monomials table by their flat positions into one
    (2, N/2, N/2) stack per moved vertex, and the stacks are multiplied
    blockwise in vertex order.  Even elements at different vertices
    commute, so loop -> U is an exact group homomorphism implementing
    omega_matrix(loop); no phase is fixed.
    """
    r, h = spin.dim, model.parity_blocks.shape[1]
    one = spin.identity()
    U = None
    for x, table in zip(loop, model.vertex_monomials, strict=True):
        if np.array_equal(x, one):
            continue
        rho = np.zeros(2 * h * h, dtype=complex)
        for S, gamma_S in spin.even_gammas.items():
            flat, vals = table[S]
            rho[flat] += np.vdot(gamma_S, x) / r * vals
        rho = rho.reshape(2, h, h)
        U = rho if U is None else U @ rho
    if U is None:
        U = np.zeros((2, h, h), dtype=complex)
        U[:, np.arange(h), np.arange(h)] = 1.0
    return U


def frame_monomials(hats, d):
    """Per first-half vertex j, the frame parts of the even monomials of the
    i pi(e_{j,a}), a stack (n, 2^(d-1), k, k) in the key order of
    even_monomials: the products of the generator_hats of vertex j, with the
    sign (-1)^(|S|/2) of vertex_monomials."""
    return np.array([[(-1) ** (S.bit_count() // 2) * M
                      for S, M in even_monomials(hats[j * d:(j + 1) * d]).items()]
                     for j in range(len(hats) // d)])


@dataclass(frozen=True)
class FrameLoop:
    """A loop with the frame factor u_hat of its first-half vertices, W
    (u_hat (x) 1) W^* being the product of their Fock factors, and the
    rotation the loop implements.  For a half-supported loop that product is
    the loop's unitary."""

    loop: np.ndarray
    factor: np.ndarray
    implemented: np.ndarray


class ExtLoopGroup(ComputableGroup):
    """Lifted half-supported loops with their U(1) fiber, in the frame of the
    first-half algebra alg.

    An element is a FrameLoop: the loop, the k x k factor u_hat of its
    unitary W (u_hat (x) 1) W^* and its rotation.  Elements multiply
    componentwise; equality sees both the loop and u_hat, so central phases
    are distinct elements.  The distance is the sup norm over the loop
    values and the entries of u_hat.
    """

    def __init__(self, model, spin, alg, tol=DEFAULT_TOL):
        self.model, self.spin, self.tol = model, spin, tol
        self.name = "lifted half loops"
        self.tables = frame_monomials(alg.generator_hats, model.d)
        self.vacuum_hat = vacuum_matrix(alg, model.vacuum)
        # tr(gamma_S^* x) / r is the coefficient of the monomial S in rho_j(x)
        self._coefficients = np.conj(np.stack(list(spin.even_gammas.values()))) / spin.dim

    def frame_loop(self, loop):
        """The loop with its rotation, checked special orthogonal as lift
        checks it, and the vertex-ordered product of the k x k factors
        rho_hat_j(x_j) of its moved first-half vertices (the identity when
        none moves)."""
        g = check_orthogonal(omega_matrix(self.model, self.spin, loop), self.tol)
        if not is_special(g, self.tol):
            raise NotSpecialOrthogonal("a loop value is odd: its rotation has det -1")
        one = self.spin.identity()
        moved = [j for j in range(self.model.n) if not np.array_equal(loop[j], one)]
        coefficients = np.einsum("sab,jab->js", self._coefficients, loop[moved])
        rho = np.einsum("js,jspq->jpq", coefficients, self.tables[moved])
        factor = reduce(np.matmul, rho) if moved else np.eye(self.tables.shape[-1], dtype=complex)
        return FrameLoop(np.array(loop), factor, g)

    def lift(self, loop):
        """The fiber element of a half-supported loop, phase fixed by its
        vacuum overlap tr(xi^* u_hat xi), xi = mat(W^* Omega), as lift fixes
        it.  Below rank_tol the overlap fixes no phase and the raw product is
        kept; the block lift scans there instead."""
        if not is_half_supported(loop, self.tol):
            raise ValueError("loop is not supported in the first half circle")
        ext = self.frame_loop(loop)
        xi = self.vacuum_hat
        overlap = np.vdot(xi, ext.factor @ xi)
        if not self.tol.rank_tol <= abs(overlap):
            return ext
        return FrameLoop(ext.loop, ext.factor * (np.conj(overlap) / abs(overlap)), ext.implemented)

    def identity(self):
        return self.central(1.0)

    def mul(self, a, b):
        return FrameLoop(a.loop @ b.loop, a.factor @ b.factor, a.implemented @ b.implemented)

    def inv(self, a):
        return FrameLoop(np.conj(np.transpose(a.loop, (0, 2, 1))), a.factor.conj().T, a.implemented.T)

    def dist(self, a, b):
        return sup((maxabs(a.loop - b.loop), maxabs(a.factor - b.factor)))

    def sample(self, rng):
        ext = self.lift(half_supported_loop(self.model.n, self.spin, rng))
        z = np.exp(2j * np.pi * rng.random())
        return FrameLoop(ext.loop, z * ext.factor, ext.implemented)

    def central(self, z):
        k = self.tables.shape[-1]
        return FrameLoop(loop_identity(self.model.n, self.spin), z * np.eye(k, dtype=complex),
                         np.eye(self.model.dim_h))


def string_crossed_module(model, spin, alg, tol=DEFAULT_TOL):
    """Lifted half loops over based paths, in the frame of the first-half
    algebra alg, acting through doubled paths.

    The action conjugates, in the fiber group, by the doubled path's
    FrameLoop: the loop pointwise by the doubled path, u_hat by the path's
    first-half factor and the rotation by the path's.  The doubled path's
    second-half factor commutes with A, so this is conjugation by its lift;
    the phase of the factor cancels.  The 16 most recently used paths keep
    their FrameLoop.
    """
    fiber = ExtLoopGroup(model, spin, alg, tol)
    base = PathGroup(model.n, spin)
    doubled = LiftCache()

    def t(ext):
        return restrict_loop(ext.loop, tol)

    def act(p, ext):
        key = p.tobytes()
        frame = doubled.get(key)
        if frame is None:
            frame = fiber.frame_loop(double_path(p, tol))
            doubled.put(key, frame)
        return fiber.conj(frame, ext)

    return CrossedModule(base=base, fiber=fiber, t=t, act=act, name="string model")


def disjoint_support_pair(model, spin, rng):
    """Loops supported strictly inside opposite half circles."""
    n = model.n
    first = half_supported_loop(n, spin, rng)
    second = loop_identity(n, spin)
    second[n + 1:] = spin.samples(rng, n - 1)
    return first, second


def vertex_reflection(model):
    """Reflection fixing vertices 0 and n, with the antiperiodic sign at 0.

    tau e_{j,a} = (+-) e_{(2n-j) mod 2n, a}; the sign at the fixed vertex 0
    makes tau map the half-integer Lagrangian into its conjugate exactly.
    """
    n, d = model.n, model.d
    T = np.zeros((model.dim_h, model.dim_h))
    for j in range(2 * n):
        sign = -1.0 if j == 0 else 1.0
        jj = (2 * n - j) % (2 * n)
        for a in range(d):
            T[jj * d + a, j * d + a] = sign
    return T


def edge_reflection(model):
    """Reflection about the half-circle boundary edges: j -> 2n-1-j, no signs.

    This fixed-point-free reflection swaps the two half circles exactly and
    is the one induced by the modular conjugation of the first-half algebra.
    """
    n, d = model.n, model.d
    T = np.zeros((model.dim_h, model.dim_h))
    for j in range(2 * n):
        jj = 2 * n - 1 - j
        for a in range(d):
            T[jj * d + a, j * d + a] = 1.0
    return T


def reflect_orthogonal(tau, g):
    """sigma(g) = tau g tau for an involutive reflection tau."""
    return tau @ g @ tau


def reversed_loop(loop, shift=0):
    """Pointwise reversal j -> (2n - shift - j) mod 2n of the value array."""
    n2 = loop.shape[0]
    idx = [(n2 - shift - j) % n2 for j in range(n2)]
    return np.array(loop[idx])


def discrete_loop_cocycle(xi, eta):
    """(2 pi i)^{-1} sum_j <xi_j, eta_{j+1} - eta_j> with <A, B> = tr(A^T B)/2.

    The forward difference is antisymmetric in (xi, eta) only up to a
    second-order lattice term; see the centered variant for the exact one.
    """
    n2 = len(xi)
    total = 0.0
    for j in range(n2):
        diff = eta[(j + 1) % n2] - eta[j]
        total += 0.5 * np.trace(xi[j].T @ diff)
    return total / (2j * np.pi)


def discrete_loop_cocycle_centered(xi, eta):
    """Centered-difference variant, exactly antisymmetric under xi <-> eta."""
    n2 = len(xi)
    total = 0.0
    for j in range(n2):
        diff = 0.5 * (eta[(j + 1) % n2] - eta[(j - 1) % n2])
        total += 0.5 * np.trace(xi[j].T @ diff)
    return total / (2j * np.pi)


def loop_cocycle_compare(model, xi, eta, tol=DEFAULT_TOL):
    """Discrete curvature pairing versus the Fock commutator anomaly.

    Exploratory: returns the scalars and the forward difference without a
    pass/fail threshold, since the lattice spacing error carries no stated
    bound.
    """
    disc = discrete_loop_cocycle(xi, eta)
    centered = discrete_loop_cocycle_centered(xi, eta)
    fock = schwinger_term(model, vertex_blocks(model, xi), vertex_blocks(model, eta), tol)
    return {"discrete": complex(disc), "centered": complex(centered), "fock": complex(fock),
            "difference": complex(fock - disc)}


def random_loop_algebra(model, rng):
    """Loop algebra values (2n, d, d), one so(d) element per vertex."""
    return random_bivectors(rng, 2 * model.n, model.d)


# abbreviates the malformed input quoted in bivector error messages
_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxlist, _SHORT.maxdict, _SHORT.maxstring, _SHORT.maxother = 2, 4, 2, 24, 24


def bivector_coordinates(coords, d):
    """The d*(d-1)/2 coordinates of one bivector, planes ordered (0,1),
    (0,2), ..., as floats.

    Malformed coordinates raise ValueError; its message quotes them in a
    bounded abbreviation, however large or deeply nested they are.
    """
    if not isinstance(coords, list):
        raise ValueError("bivector coordinates must be a list of real numbers, "
                         f"got {type(coords).__name__} {_SHORT.repr(coords)}")
    for i, c in enumerate(coords):
        if not isinstance(c, Real) or isinstance(c, bool):
            raise ValueError("bivector coordinates must be a list of real numbers, "
                             f"entry {i} is {type(c).__name__} {_SHORT.repr(c)}")
    if len(coords) != d * (d - 1) // 2:
        raise ValueError(f"expected {d * (d - 1) // 2} bivector coordinates, got {len(coords)}")
    values = np.asarray(coords, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"bivector coordinates {_SHORT.repr(coords)} are not finite")
    return values


def loop_from_bivectors(spin, coords_per_point):
    """Loop literal: one coordinate list per lattice vertex, exponentiated.

    Each entry holds the d*(d-1)/2 bivector coordinates in lexicographic
    plane order; the loop values are the spin exponentials of the
    antisymmetric matrices they fill.  Malformed coordinates, and finite
    ones whose exponential is not finite, raise ValueError naming the
    first such vertex.
    """
    values = []
    for j, c in enumerate(coords_per_point):
        try:
            values.append(bivector_coordinates(c, spin.d))
        except ValueError as exc:
            raise ValueError(f"vertex {j}: {exc}") from None
    values = np.array(values)
    B = np.zeros((len(values), spin.d, spin.d))
    rows, cols = np.triu_indices(spin.d, 1)
    B[:, rows, cols] = values
    B[:, cols, rows] = -values
    loop = spin.exp(B)
    bad = np.flatnonzero(~np.all(np.isfinite(loop), axis=(1, 2)))
    if bad.size:
        raise ValueError(f"vertex {bad[0]}: bivector coordinates {_SHORT.repr(coords_per_point[bad[0]])} "
                         "have no finite spin exponential")
    return loop
