"""Discrete circle model: lattice, Lagrangian subspace, Fock representation.

The circle is sampled at 2n vertices j = 0..2n-1 (angles pi*j/n) carrying d
internal dimensions, so the one-particle space H is R^(2nd) with basis
e_{j,a} at flat index j*d + a.  A Lagrangian of nd modes fixes the Fock
space of dimension 2^(nd); the generators pi(e_{j,a}) obey

    pi(v) pi(w) + pi(w) pi(v) = -2 <conj(v), w> * 1
    pi(v)^* = -pi(conj(v))

with pi(f) = sqrt(2) a^dag(f) on Lagrangian vectors f.

On the occupation basis (Jordan-Wigner form) every pi(e_i) is a sum of nd
signed bit flips, one per mode, and the model stores pi as the table of
their signs and amplitudes.  Each flip changes the parity of the occupation
number, so every generator is odd and every even monomial is block
diagonal on the two parity blocks.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .linalg import CHECK_ROWS, DEFAULT_TOL, maxabs, sup


@dataclass(frozen=True)
class LatticeModel:
    """Circle lattice parameters: n half-points, d internal dimensions."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")

    @property
    def points(self):
        return 2 * self.n

    @property
    def dim_h(self):
        return 2 * self.n * self.d

    @property
    def modes(self):
        return self.n * self.d

    @property
    def fock_dim(self):
        return 2 ** self.modes

    def flat_index(self, point, axis):
        return point * self.d + axis


def default_lagrangian(lattice):
    """Half-integer Fourier Lagrangian, columns l_{k,a} for k < n, a < d.

    l_{k,a} = (2n)^(-1/2) sum_j zeta^((k+1/2) j) e_{j,a} with zeta = exp(i pi/n).
    Antiperiodic mode numbers keep the span disjoint from its conjugate.
    """
    n, d = lattice.n, lattice.d
    j = np.arange(2 * n)
    L = np.zeros((lattice.dim_h, lattice.modes), dtype=complex)
    for k in range(n):
        col = np.exp(1j * np.pi * (k + 0.5) * j / n) / np.sqrt(2 * n)
        for a in range(d):
            L[j * d + a, k * d + a] = col
    return L


def lagrangian_residual(L):
    """Worst deviation of the columns of L from orthonormal (L^* L = 1) and
    isotropic (L^T L = 0)."""
    return sup((maxabs(L.conj().T @ L - np.eye(L.shape[1])), maxabs(L.T @ L)))


def validate_lagrangian(L, tol=DEFAULT_TOL):
    """Check orthonormality and isotropy of the column span."""
    L = np.asarray(L, dtype=complex)
    dim, m = L.shape
    return dim == 2 * m and lagrangian_residual(L) <= tol.eq_tol


def _popcount_below(indices, mode):
    mask = (1 << mode) - 1
    out = np.zeros_like(indices)
    v = indices & mask
    while np.any(v):
        out += v & 1
        v >>= 1
    return out


def even_monomials(mats, partners=None):
    """Ordered products prod_{a in S} mats[a] over the even subsets S, keyed by bitmask.

    A product of four or more factors is its lowest pair times the rest, so
    2^(d-1) - 1 matrix products form the even monomials and no odd one.
    partners[b] stands for mats[b] as the second factor of a pair (default
    mats): odd block stacks pass the stack with its two blocks swapped.
    """
    partners = mats if partners is None else partners
    identity = np.zeros(mats.shape[1:], dtype=complex)
    identity[..., np.arange(mats.shape[-1]), np.arange(mats.shape[-1])] = 1.0
    out = {0: identity}
    for S in range(3, 2 ** len(mats)):
        bits = [a for a in range(len(mats)) if S >> a & 1]
        if len(bits) % 2 == 0:
            pair = 1 << bits[0] | 1 << bits[1]
            out[S] = mats[bits[0]] @ partners[bits[1]] if S == pair else out[pair] @ out[S ^ pair]
    return out


def _flat_rows(M, starts):
    """(flat, vals) with M.flat[flat[..., k, :]] = vals[..., k, :], starts[..., k]
    the flat position of row k: each row's nonzero entries first, padded
    with zero entries to the widest row of the stack.  Both arrays own
    their data."""
    nonzero = M != 0
    width = int(nonzero.sum(axis=-1).max())
    cols = np.argsort(~nonzero, axis=-1, kind="stable")[..., :width].copy()
    vals = np.take_along_axis(M, cols, axis=-1)
    cols += starts
    return cols, vals


class LiftCache:
    """The CAPACITY most recently used lifts, keyed by the loop's bytes.

    get counts a hit or a miss and marks a hit as most recent; put evicts
    the least recently used entry once CAPACITY are held.  A hot loop of the
    lift workload recurs after 9 other loops and reports reuse within 8, so
    16 keeps every hit either has.
    """

    CAPACITY = 16

    def __init__(self):
        self._entries = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return value

    def put(self, key, value):
        self._entries[key] = value
        if len(self._entries) > self.CAPACITY:
            self._entries.popitem(last=False)
            self.evictions += 1


@dataclass
class CliffordModel:
    """Lattice, Lagrangian, Fock generators and grading, plus small caches.

    flip_coefficients is the stored form of pi: in Jordan-Wigner form every
    generator is a sum of signed bit flips, pi_i = sum_mu diag(c[i, mu]) X_mu
    with c[i, mu, r] = pi_i[r, r ^ 2^mu] and X_mu the flip of mode mu, so c
    is (2nd, nd, N), N/(nd) times smaller than the dense stack.  generators,
    that (2nd, N, N) stack, is scattered from c on first read; pi(v) is its
    contraction with v.  The lift and implementation_residual read only c;
    the lift through vertex_monomials, the even monomials of every vertex
    as flat positions and values in the parity block stack, built once.
    grading_signs is the +-1 diagonal of the grading, (-1) to the occupation
    number; the dense grading is formed from it on first read.  lift_cache
    holds the 16 most recently used loop lifts (LiftCache) as their even
    blocks, about 0.5 MiB each at Fock dimension 256.
    """

    lattice: LatticeModel
    lagrangian: np.ndarray
    flip_coefficients: np.ndarray
    grading_signs: np.ndarray
    lift_cache: LiftCache = field(default_factory=LiftCache, repr=False)

    @property
    def n(self):
        return self.lattice.n

    @property
    def d(self):
        return self.lattice.d

    @property
    def dim_h(self):
        return self.lattice.dim_h

    @property
    def fock_dim(self):
        return self.lattice.fock_dim

    @property
    def vacuum(self):
        v = np.zeros(self.fock_dim, dtype=complex)
        v[0] = 1.0
        return v

    @cached_property
    def generators(self):
        """The dense stack of pi(e_i) over the real basis of H, scattered from
        flip_coefficients on first read."""
        c, N = self.flip_coefficients, self.fock_dim
        out = np.zeros((self.dim_h, N, N), dtype=complex)
        rows = np.arange(N)
        for mu, cols in enumerate(flip_table(self.lattice.modes).T):
            out[:, rows, cols] = c[:, mu]
        return out

    @cached_property
    def grading(self):
        """The dense N x N grading, formed from grading_signs on first read."""
        return np.diag(self.grading_signs.astype(complex))

    @cached_property
    def parity_blocks(self):
        """(2, N/2) Fock indices of even, then of odd, parity, each ascending.

        An even operator X is its two blocks X[b, b], b in parity_blocks; an
        odd one maps each block's indices to the other's."""
        s = self.grading_signs
        return np.stack([np.flatnonzero(s > 0), np.flatnonzero(s < 0)])

    @cached_property
    def block_flips(self):
        """(flipped, right) over the parity blocks; built on first read.

        flipped[P, r, mu] is the place of r ^ 2^mu in its block for the r-th
        index of parity P (a flip changes the parity), and right[P, s, mu, i]
        = pi_i[s ^ 2^mu, s] for the s-th index of parity P."""
        c, blocks = self.flip_coefficients, self.parity_blocks
        flips = flip_table(self.lattice.modes)
        position = np.empty(self.fock_dim, dtype=np.intp)
        position[blocks] = np.arange(blocks.shape[1])
        right = c[:, np.arange(c.shape[1]), flips].transpose(1, 2, 0)[blocks]
        return position[flips[blocks]], right

    @cached_property
    def vertex_monomials(self):
        """Per vertex j, the even monomials of i pi(e_{j,a}) keyed by bitmask,
        each stored as its two parity blocks, row-compressed and stacked to
        (flat, vals) of shape (2, N/2, width); built on first read.

        flat holds each entry's position P h^2 + row h + col in the flattened
        (2, h, h) block stack, h = N/2, so a lift scatters a monomial with one
        1-D index.  Each pi(e_{j,a}) is odd, so it is scattered from its flips
        into the stack of its two off-diagonal blocks, and a product of two is
        that stack times the other's with its blocks swapped; no N x N matrix
        is formed."""
        d, blocks = self.d, self.parity_blocks
        flipped, h = self.block_flips[0], blocks.shape[1]
        parity, rows = np.arange(2)[:, None, None], np.arange(h)[:, None]
        starts = (parity * h + rows) * h
        out = []
        for j in range(self.lattice.points):
            # odd[a, P] is the block of pi(e_{j,a}) from parity 1 - P to P
            coefficients = self.flip_coefficients[j * d:(j + 1) * d, :, blocks]
            odd = np.zeros((d, 2, h, h), dtype=complex)
            odd[:, parity, rows, flipped] = coefficients.transpose(0, 2, 3, 1)
            # a product of 2k factors i pi(e_{j,a}) is (-1)^k times that of the pi(e_{j,a})
            out.append({S: _flat_rows((-1) ** (S.bit_count() // 2) * M, starts)
                        for S, M in even_monomials(odd, odd[:, ::-1]).items()})
        return out


def flip_table(modes):
    """flips[r, mu] = r ^ 2^mu over the Fock basis."""
    return np.arange(2 ** modes)[:, None] ^ (1 << np.arange(modes))


def build_clifford_model(n, d, lagrangian=None, allow_odd_modes=False, tol=DEFAULT_TOL):
    """Construct the model; n*d must be even unless allow_odd_modes.

    Odd n*d leaves the half-circle algebra with a nontrivial center, so the
    modular and representation layers reject it; the flag exists for the
    tiny single-mode examples of the operator layer.

    The flip table is written one mode at a time:
    pi(e_i) = sqrt(2) sum_mu (conj(L_{i,mu}) a^dag_mu - L_{i,mu} a_mu), and
    a^dag_mu maps the occupation mask S without mu to S + mu with the
    Jordan-Wigner sign (-1)^(set bits of S below mu), a_mu back with the
    same sign.  Nothing N^2-sized is formed.
    """
    lattice = LatticeModel(n, d)
    if lattice.modes % 2 == 1 and not allow_odd_modes:
        raise ValueError(f"n*d = {lattice.modes} is odd; the half-circle algebra would not be a factor")
    if lagrangian is None:
        lagrangian = default_lagrangian(lattice)
    else:
        lagrangian = np.asarray(lagrangian, dtype=complex)
        if not validate_lagrangian(lagrangian, tol):
            raise ValueError("provided subspace is not Lagrangian")
    N = lattice.fock_dim
    idx = np.arange(N)
    coefficients = np.empty((lattice.dim_h, lattice.modes, N), dtype=complex)
    for mu in range(lattice.modes):
        src = idx[(idx >> mu) & 1 == 0]
        dst = src | (1 << mu)
        amp = np.sqrt(2.0) * lagrangian[:, mu, None] * (1.0 - 2.0 * (_popcount_below(src, mu) & 1))
        # pi_i[dst, src] and pi_i[src, dst]; + 0.0 turns signed zeros into
        # +0.0, as a sum over modes would
        coefficients[:, mu, dst] = amp.conj() + 0.0
        coefficients[:, mu, src] = -amp + 0.0
    parity = np.array([bin(i).count("1") & 1 for i in range(N)])
    return CliffordModel(lattice, lagrangian, coefficients, 1.0 - 2.0 * parity)


def pi_vector(model, v):
    """Fock operator of v in H^C: sum_i v_i pi(e_i), pi being complex linear."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (model.dim_h,):
        raise DimensionMismatch(f"vector has shape {v.shape}, expected ({model.dim_h},)")
    return np.tensordot(v, model.generators, axes=(0, 0))


def pi_columns(model, g):
    """Stack of pi(g e_i), the Fock operators of the columns of g (2nd rows)."""
    return np.tensordot(g, model.generators, axes=(0, 0))


def half_space(model, which):
    """Vertex sets of the two half circles."""
    n = model.n
    if which == "first":
        return tuple(range(0, n))
    if which == "second":
        return tuple(range(n, 2 * n))
    raise ValueError("which must be 'first' or 'second'")


def generator_indices(model, point_subset):
    return [model.lattice.flat_index(j, a) for j in sorted(point_subset) for a in range(model.d)]


def clifford_monomials(model, point_subset):
    """Ordered generator products over subsets of the selected vertices.

    Returns a fresh stack of 2^(|subset|*d) matrices, each product written
    into it in place; the empty product is the identity and factors appear
    in increasing flat-index order.  They are Hilbert-Schmidt orthogonal
    with norm sqrt(N), N the Fock dimension: the pi_i are unitary,
    anticommute pairwise and square to -1, so M_S^* M_T = +-M_D for the
    symmetric difference D of S and T, traceless unless D is empty.
    """
    indices = generator_indices(model, point_subset)
    out = np.empty((2 ** len(indices), model.fock_dim, model.fock_dim), dtype=complex)
    out[0] = np.eye(model.fock_dim)
    for k, i in enumerate(indices):
        # the products with the new factor follow the 2^k already written
        np.matmul(out[:2 ** k], model.generators[i], out=out[2 ** k:2 ** (k + 1)])
    return out


def monomial_closure_residual(model, point_subset, mono):
    """Worst deviation of mono = clifford_monomials(model, point_subset) from
    the relations that make its span the algebra its generators generate.

    For the k-th selected generator pi_k and the monomial M_S,
    pi_k M_S = s M_{S ^ 2^k}, with s = -1 to the number of factors of S
    below k, and once more when k is in S, since pi_k squares to -1.
    pi_k M_S is summed from the flip table, CHECK_ROWS monomials at a time:
    its row r is sum_mu c[k, mu, r] M_S[r ^ 2^mu], and flipping bit mu of r
    reverses one axis of the rows split over their bits, a view.  With
    M_0 = 1, the span holds the identity and is closed under left
    multiplication by the generators, so it is the algebra they generate
    (star closed as pi^* = -pi).  The traces tr(M_S) / N of the nonempty S
    must vanish too: M_S^* M_T = +-M_{S ^ T} then makes the monomials
    orthogonal, so the span has dimension their count.
    """
    N = model.fock_dim
    subsets = np.arange(mono.shape[0])
    residuals = [maxabs(mono[0] - np.eye(N)), maxabs(np.trace(mono[1:], axis1=1, axis2=2)) / N]
    for k, i in enumerate(generator_indices(model, point_subset)):
        c = model.flip_coefficients[i]
        exponent = np.array([(S & ((1 << k) - 1)).bit_count() + (S >> k & 1) for S in subsets])
        sign = 1.0 - 2.0 * (exponent % 2)
        for start in range(0, mono.shape[0], CHECK_ROWS):
            block, S = mono[start:start + CHECK_ROWS], subsets[start:start + CHECK_ROWS]
            diff = -sign[S, None, None] * mono[S ^ 1 << k]
            for mu in range(c.shape[0]):
                split = (-1, N >> mu + 1, 2, 1 << mu, N)
                diff.reshape(split)[...] += (c[mu].reshape(split[1:4])[..., None]
                                             * block.reshape(split)[:, :, ::-1])
            residuals.append(maxabs(diff))
    return sup(residuals)


def anticommutator_residual(model, v, w):
    """Sup-norm deviation from the defining relation for one pair."""
    pv, pw = pi_vector(model, v), pi_vector(model, w)
    target = -2.0 * np.vdot(np.conj(v), w) * np.eye(model.fock_dim)
    return maxabs(pv @ pw + pw @ pv - target)


def generator_relation_residuals(model):
    """Worst deviations of {pi_i, pi_j} from -2 delta_ij over all generator
    pairs and of pi_i^* from -pi_i over all generators.

    Both relations are linear or antilinear in each argument, so together
    they are the relations for every pair of vectors.
    """
    G = model.generators
    anti = []
    for i, g in enumerate(G):
        pairs = g @ G[i:] + G[i:] @ g
        pairs[0] += 2.0 * np.eye(model.fock_dim)
        anti.append(maxabs(pairs))
    return sup(anti), maxabs(np.conj(np.transpose(G, (0, 2, 1))) + G)


def star_residual(model, v):
    pv = pi_vector(model, v)
    return maxabs(pv.conj().T + pi_vector(model, np.conj(v)))
