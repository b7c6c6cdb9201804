"""Orthogonal maps on the one-particle space and their Fock implementers.

Two independent routes construct an implementer U with
U pi(v) U^* = pi(g v) for general g in SO(2nd): a convention-free kernel
solve (group-averaged projection onto the intertwiner space) and a
constructive one from the rotated vacuum and creation operators, which
tests also use as the reference for loops.lift.  Quadratic generators and
their scalar commutator anomaly live here as well.
"""

from dataclasses import dataclass, replace

import numpy as np

from .clifford import flip_table, pi_columns
from .errors import (ContractViolation, DimensionMismatch, NonScalarDefect,
                     NonUniqueImplementer, NotOrthogonal, NotSpecialOrthogonal,
                     SingularInput)
from .linalg import (DEFAULT_TOL, averaged_intertwiners, maxabs, polar_unitary,
                     scalar_defect)

# generic probes of the averaging projection onto an intertwiner space
# expected to be a line
LINE_PROBES = 6
# entries per generator in one row block of implementation_residual
_BLOCK_ENTRIES = 2 ** 11


def check_orthogonal(g, tol=DEFAULT_TOL):
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise NotOrthogonal(f"bad shape {g.shape}")
    if not maxabs(g.T @ g - np.eye(g.shape[0])) <= tol.eq_tol:
        raise NotOrthogonal("g^T g deviates from the identity")
    return g


def is_special(g, tol=DEFAULT_TOL):
    return abs(np.linalg.det(g) - 1.0) <= max(tol.eq_tol, 1e-8)


@dataclass(frozen=True)
class Implementer:
    """A Fock unitary together with the orthogonal map it implements.

    The unitary is N x N; an even one may also be its blocks (2, N/2, N/2)
    on model.parity_blocks, which normalize_phase reads alike.
    """

    unitary: np.ndarray
    implemented: np.ndarray
    parity: str  # 'even' | 'odd'
    normalization: str  # 'raw' | 'vacuum' | 'scan'


def _classify_parity(model, U, tol):
    s = model.grading_signs
    comm = maxabs(U * s - s[:, None] * U)
    anti = maxabs(U * s + s[:, None] * U)
    if comm <= tol.eq_tol:
        return "even"
    if anti <= tol.eq_tol:
        return "odd"
    raise NonUniqueImplementer(f"implementer is not grading homogeneous ({comm:.2e}, {anti:.2e})")


def implementation_residual(model, U, g):
    """max_i ||U pi_i - pi(g e_i) U||_F, the Frobenius commutator norm over the real basis.

    For unitary U it equals ||U pi_i U^* - pi(g e_i)||_F, never below that
    matrix's largest entry.  On model.parity_blocks U = [[A, B], [C, D]] and
    every pi = [[0, p], [q, 0]], so the commutator has the blocks
    A p_i - p'_i D, D q_i - q'_i A, B q_i - p'_i C and C p_i - q'_i B, with
    p', q' the blocks of pi(g e_i); its squared norm is the sum of theirs.
    A pair of blocks whose two U-blocks are exactly zero is exactly zero and
    is skipped: the odd pair for even U, the even pair for odd U.  Each pi
    is a sum of bit flips weighted by model.flip_coefficients, so U pi_i
    gathers columns of a U-block and pi(g e_i) U gathers rows; every
    generator is taken at once, a block of rows at a time.  The gathers and
    the coefficients of U pi_i come from model.block_flips, built once per
    model; only those of pi(g e_i) U are contracted with g per call.
    """
    N, D = model.fock_dim, model.dim_h
    U, g = np.asarray(U), np.asarray(g)
    if U.shape != (N, N):
        raise DimensionMismatch(f"unitary has shape {U.shape}, expected ({N}, {N})")
    if g.shape != (D, D):
        raise DimensionMismatch(f"orthogonal map has shape {g.shape}, expected ({D}, {D})")
    blocks = model.parity_blocks
    h = N // 2
    # flipped[P][r, mu]: the place of r ^ 2^mu in its block; right[P][s, mu, i] =
    # pi_i[s ^ 2^mu, s] and left[P][r, mu, i] = pi(g e_i)[r, r ^ 2^mu] over the
    # indices r, s of parity P
    flipped, right = model.block_flips
    left = np.tensordot(g, model.flip_coefficients, axes=(0, 0)).transpose(2, 1, 0)[blocks]
    # quarter[X, Y] is the U-block from parity Y to parity X
    quarter = U[blocks.reshape(-1, 1), blocks.reshape(-1)].reshape(2, h, 2, h).transpose(0, 2, 1, 3)
    nonzero = [[np.any(quarter[X, Y]) for Y in range(2)] for X in range(2)]
    rows = max(1, _BLOCK_ENTRIES // h)
    squares = np.zeros(2 * D)
    for X, Y in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        # the commutator block from parity Y to X reads U-blocks (X, 1 - Y) and (1 - X, Y)
        if not (nonzero[X][1 - Y] or nonzero[1 - X][Y]):
            continue
        for start in range(0, h, rows):
            block = slice(start, min(start + rows, h))
            # U pi_i, written as [r, s, i] through its [s, r, i] view, and pi(g e_i) U
            u_pi = np.empty((block.stop - start, h, D), dtype=complex)
            np.matmul(quarter[X, 1 - Y, block].T[flipped[Y]].transpose(0, 2, 1), right[Y],
                      out=u_pi.transpose(1, 0, 2))
            diff = np.matmul(quarter[1 - X, Y][flipped[X, block]].transpose(0, 2, 1), left[X, block])
            diff -= u_pi
            diff = diff.view(float)
            squares += np.einsum("rsk,rsk->k", diff, diff)
    return float(np.sqrt(squares.reshape(D, 2).sum(axis=1).max()))


def implement_oracle(model, g, tol=DEFAULT_TOL, rng=None):
    """Implementer from the kernel of the intertwining constraints.

    The joint kernel {U : pi(g e_i) U = U pi_i} is produced by the exact
    averaging projection of linalg.averaged_intertwiners, whose image rank is
    asserted to be one; the polar-unitary representative is returned raw.
    """
    g = check_orthogonal(g, tol)
    if rng is None:
        rng = np.random.default_rng(0)
    basis = averaged_intertwiners(pi_columns(model, g), model.generators, LINE_PROBES, rng, tol)
    if basis.shape[0] != 1:
        raise NonUniqueImplementer(f"intertwiner space has dimension {basis.shape[0]}")
    U = polar_unitary(basis[0], tol)
    return Implementer(U, g, _classify_parity(model, U, tol), "raw")


def rotated_creators(model, g):
    """Flip coefficients of the rotated creators b^dag_mu = pi(g L_mu) / sqrt(2),
    L_mu the Lagrangian's columns: b^dag_mu[r, r ^ 2^nu] = out[mu, nu, r]."""
    return np.tensordot(g @ model.lagrangian, model.flip_coefficients, axes=(0, 0)) / np.sqrt(2.0)


def _flip_sum(coefficients, flips, M):
    """sum_nu diag(coefficients[nu]) X_nu M, X_nu the flip of mode nu."""
    return sum(coefficients[nu, :, None] * M[rows] for nu, rows in enumerate(flips.T))


def implement_pin(model, g, tol=DEFAULT_TOL):
    """Vacuum-normalized implementer of a det +1 map from its rotated vacuum.

    U a^dag_mu U^* = b^dag_mu, the rotated creators, so U Omega spans the
    joint kernel of the b_mu: the commuting projections 1 - b^dag_mu b_mu
    take a fixed-seed Gaussian vector to a multiple of it, whatever its
    vacuum overlap.  The vector is even, as U Omega is for det +1, so the
    odd blocks of U come out exactly zero.  In the Jordan-Wigner order
    e_S = a^dag_{min S} e_{S - min S} with sign +1, so the columns
    U e_S = b^dag_{min S} U e_{S - min S} are filled from the highest mode
    down, one flip sum over a block of columns per mode; no N x N product
    is formed.
    """
    g = check_orthogonal(g, tol)
    if not is_special(g, tol):
        raise NotSpecialOrthogonal("det(g) = -1 is outside the rotation fast path")
    N, m = model.fock_dim, model.lattice.modes
    creators, flips = rotated_creators(model, g), flip_table(m)
    x = np.zeros((N, 1), dtype=complex)
    x[model.grading_signs > 0] = np.random.default_rng(0).standard_normal((N // 2, 1))
    for b_dag in creators:
        # b_mu[s, s ^ 2^nu] = conj(b^dag_mu[s ^ 2^nu, s])
        b = np.conj(np.take_along_axis(b_dag, flips.T, axis=1))
        x -= _flip_sum(b_dag, flips, _flip_sum(b, flips, x))
    U = np.empty((N, N), dtype=complex)
    U[:, :1] = x
    for mu in reversed(range(m)):
        # the sets with lowest mode mu, from those without modes 0..mu
        U[:, 1 << mu::2 << mu] = _flip_sum(creators[mu], flips, U[:, ::2 << mu])
    # b^dag_mu is isometric on the kernel of b_mu, which holds U e_S for mu < min S:
    # all columns have the first one's norm, and dividing by their own drops rounding
    U /= np.linalg.norm(U, axis=0)
    return normalize_phase(Implementer(U, g, "even", "raw"), "vacuum", tol)


def normalize_phase(imp, mode="vacuum", tol=DEFAULT_TOL):
    """Fix the U(1) ambiguity of an implementer; idempotent, bit for bit.

    vacuum mode makes the vacuum expectation real positive, falling back to
    scan (first row-major entry of significant magnitude) when the vacuum
    overlap degenerates.  The pivot is set to the modulus its cutoff was
    judged by.  Rounding in the phase can still lift another entry across a
    cutoff and so move the pivot; the rotation is then repeated on the
    result, each time at an earlier pivot, until the pivot it picks is
    already real positive.

    The unitary may be dense or an even block stack: the vacuum entry is
    the first of either, and scan reads the stack in its own row-major
    order, even block first.  The vacuum row of an even unitary has norm
    one and lies in the even block's first row, so on a unitary scan picks
    the same entry in both layouts, and the two results agree bit for bit
    on the blocks.
    """
    if mode not in ("vacuum", "scan"):
        raise ValueError(f"unknown mode {mode!r}")
    U = imp.unitary
    while True:
        used, at, modulus = mode, 0, abs(U.flat[0])
        # a NaN overlap is degenerate too: scan never picks a NaN pivot
        if mode == "vacuum" and not tol.rank_tol <= modulus:
            used = "scan"
        if used == "scan":
            mags = np.abs(U.ravel())
            significant = np.flatnonzero(mags > tol.eq_tol)
            if significant.size == 0:
                raise SingularInput(f"no entry of the unitary exceeds {tol.eq_tol:g}, "
                                    f"so scan mode has no pivot")
            at = significant[0]
            modulus = mags[at]
        pivot = U.flat[at]
        if pivot.imag == 0 and pivot.real > 0:
            return replace(imp, unitary=U, normalization=used)
        U = U * (np.conj(pivot) / abs(pivot))
        U.flat[at] = modulus


def projective_distance(U, V):
    """min over unit scalars of ||U - z V||, sup norm."""
    z = np.trace(V.conj().T @ U)
    if abs(z) < 1e-300:
        return maxabs(U)
    z = z / abs(z)
    return maxabs(U - z * V)


def extension_cocycle(model, g, h, tol=DEFAULT_TOL):
    """Unit scalar U_g U_h U_{gh}^{-1} of vacuum-normalized implementers."""
    Ug = implement_pin(model, g, tol).unitary
    Uh = implement_pin(model, h, tol).unitary
    Ugh = implement_pin(model, np.asarray(g) @ np.asarray(h), tol).unitary
    defect, lam = scalar_defect(Ug @ Uh @ Ugh.conj().T)
    if not defect <= tol.eq_tol:
        raise NonScalarDefect(f"cocycle defect {defect:.2e} is not scalar")
    if not abs(abs(lam) - 1.0) <= tol.eq_tol:
        raise NonScalarDefect(f"cocycle modulus {abs(lam):.2e} is not one")
    return lam / abs(lam)


def check_skew(X, tol=DEFAULT_TOL):
    X = np.asarray(X, dtype=float)
    if not maxabs(X + X.T) <= tol.eq_tol:
        raise ValueError("generator is not antisymmetric")
    return X


def derived_implementer(model, X, tol=DEFAULT_TOL):
    """Quadratic generator dG(X) with [dG(X), pi(v)] = pi(X v), vacuum-centred.

    dG(X) = -1/4 sum_j pi_j pi(X^T e_j) minus its vacuum expectation.
    """
    X = check_skew(X, tol)
    gens = model.generators
    out = -0.25 * np.tensordot(gens, pi_columns(model, X.T), axes=([0, 2], [0, 1]))
    out -= out[0, 0] * np.eye(model.fock_dim)
    worst = maxabs(out @ gens - gens @ out - pi_columns(model, X))
    if not worst <= tol.eq_tol:
        raise ContractViolation(f"commutator contract violated by {worst:.2e}")
    return out


def schwinger_term(model, X, Y, tol=DEFAULT_TOL):
    """Scalar s(X, Y) with [dG(X), dG(Y)] - dG([X, Y]) = s(X, Y) 1."""
    X, Y = check_skew(X, tol), check_skew(Y, tol)
    dX = derived_implementer(model, X, tol)
    dY = derived_implementer(model, Y, tol)
    dXY = derived_implementer(model, X @ Y - Y @ X, tol)
    defect, lam = scalar_defect(dX @ dY - dY @ dX - dXY)
    if not defect <= tol.eq_tol:
        raise NonScalarDefect(f"commutator anomaly not scalar: {defect:.2e}")
    return lam


def random_special_orthogonal(dim, rng):
    """exp of a random antisymmetric matrix."""
    B = rng.standard_normal((dim, dim))
    B = B - B.T
    w, V = np.linalg.eigh(1j * B)
    return np.real((V * np.exp(-1j * w)) @ V.conj().T)


def random_skew(dim, rng):
    B = rng.standard_normal((dim, dim))
    return B - B.T
