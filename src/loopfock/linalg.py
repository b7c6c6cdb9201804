"""Dense complex linear algebra: intertwiners, polar unitaries, antilinear operators.

Matrices are plain complex ndarrays.  Spans of operators are row stacks
(k, n, n), which get flattened before rank computations.  Row spaces come
from the SVD of the tall orientation of the flattened stack
(``singular_rows``): for the usual wide k x n^2 stack that is the SVD of its
transpose, which LAPACK computes two to three times faster.  Every guard
here is written so that a NaN residual fails it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularInput


@dataclass(frozen=True)
class TolerancePolicy:
    """Comparison thresholds.

    eq_tol bounds operator-norm residuals in equality checks, rank_tol is the
    absolute singular-value cutoff deciding numerical rank.  Defaults leave
    double-precision headroom for products of order ten matrices at Fock
    dimensions up to 256.
    """

    eq_tol: float = 1e-9
    rank_tol: float = 1e-11

    def __post_init__(self):
        if self.eq_tol < 0 or self.rank_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if not self.rank_tol <= self.eq_tol:
            raise ValueError("rank_tol must not exceed eq_tol")


DEFAULT_TOL = TolerancePolicy()


def maxabs(M):
    return float(np.max(np.abs(M))) if np.size(M) else 0.0


def sup(values, default=0.0):
    """The largest of default and values; NaN when any value is NaN, wherever
    it comes (the builtin max keeps a number that comes before a NaN)."""
    res = default
    for value in values:
        if value > res or value != value:
            res = value
    return res


class Worst(dict):
    """Worst residual of each name over a check's draws; draws counts them."""
    draws = 0


def worst(draws):
    """Each name's sup from 0.0 over draws, dicts from residual name to value."""
    res = Worst()
    for draw in draws:
        res.draws += 1
        for name, value in draw.items():
            res[name] = sup((value,), res.get(name, 0.0))
    return res


CHECK_ROWS = 16


def row_chunks(stack):
    """Views of CHECK_ROWS consecutive rows of a stack: checks that take
    them one at a time keep their temporaries small next to the stack."""
    return [stack[i:i + CHECK_ROWS] for i in range(0, stack.shape[0], CHECK_ROWS)]


def averaged_intertwiners(lefts, rights, num_probes, rng, tol=DEFAULT_TOL):
    """Orthonormal stack spanning {X : L_k X = X R_k for all k}.

    Requires every L_k and R_k unitary with L_k^2 = R_k^2 = s*1 for a common
    scalar s in {+1, -1}, and the L_k (resp. R_k) pairwise commuting up to
    sign.  Then the maps X -> (X + L_k X R_k*)/2 are orthogonal projections
    whose ordered composition is the projection onto the joint intertwiner
    space (an average over the finite group of signed ordered products), so
    applying it to generic probes spans that space with probability one.

    Each returned element is re-verified against the constraints, CHECK_ROWS
    elements per product; a residual above tol.eq_tol or NaN raises ArithmeticError.
    """
    lefts = [np.asarray(L, dtype=complex) for L in lefts]
    rights = [np.asarray(R, dtype=complex) for R in rights]
    if len(lefts) != len(rights):
        raise DimensionMismatch("constraint sides differ in length")
    n = lefts[0].shape[0] if lefts else None
    if n is None:
        raise ValueError("need at least one constraint pair")
    eye = np.eye(n)
    for L, R in zip(lefts, rights):
        sq = L @ L
        sign = sq[0, 0].real
        if not sup((abs(abs(sign) - 1.0), maxabs(sq - sign * eye))) <= tol.eq_tol:
            raise ValueError("left generator square is not a +-1 scalar")
        sq = R @ R
        if not maxabs(sq - sign * eye) <= tol.eq_tol:
            raise ValueError("right generator square does not match the left one")

    Z = rng.standard_normal((num_probes, n, n)) + 1j * rng.standard_normal((num_probes, n, n))
    Z = _project_intertwiners(Z, lefts, rights)
    s, vh = singular_rows(Z.reshape(num_probes, n * n))
    dim = _rank_cut(s, tol)
    basis = vh[:dim].reshape(dim, n, n)
    # stacked products over a few rows at a time keep the transients small
    # next to the basis
    res = sup(maxabs(L @ X - X @ R) for X in row_chunks(basis) for L, R in zip(lefts, rights))
    if not res <= tol.eq_tol:
        raise ArithmeticError(f"averaged intertwiner violates constraints by {res:.2e}")
    return basis


def _project_intertwiners(Z, lefts, rights):
    """The stack Z after X -> (X + L X R^*)/2 for each constraint pair in turn."""
    for L, R in zip(lefts, rights):
        Z = 0.5 * (Z + L @ Z @ R.conj().T)
    return Z


def polar_unitary(M, tol=DEFAULT_TOL):
    """Unitary factor U of M = U P with P positive definite.

    LAPACK's divide-and-conquer SVD can fail to converge on a multiple of a
    unitary, as implementer solves produce; the factors then come from the
    SVD M^T = conj(V) s U^T."""
    M = np.asarray(M, dtype=complex)
    try:
        u, s, vh = np.linalg.svd(M)
    except np.linalg.LinAlgError:
        vt, s, ut = np.linalg.svd(M.T)
        u, vh = ut.T, vt.T
    if s[-1] < tol.rank_tol:
        raise SingularInput(f"smallest singular value {s[-1]:.2e} below rank cutoff")
    return u @ vh


@dataclass(frozen=True)
class AntilinearOperator:
    """Antilinear map v -> linear @ conj(v) in a fixed basis."""

    linear: np.ndarray

    def __call__(self, v):
        return self.linear @ np.conj(v)

    def conjugate_matrix(self, M):
        """S M S^{-1} for linear M (S must be involutive for this formula)."""
        return self.linear @ np.conj(M) @ np.conj(self.linear)


def singular_rows(flat):
    """Singular values and C-contiguous right singular rows of a 2-D stack.

    A wide stack is decomposed through its tall transpose: flat.T = U S V^*
    makes the rows of U^T the right singular rows of flat.  They are copied
    to C order here, once, so that reshaping them later makes no copy.
    """
    if flat.shape[0] < flat.shape[1]:
        u, s, _ = np.linalg.svd(flat.T, full_matrices=False)
        return s, np.ascontiguousarray(u.T)
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    return s, vh


def _rank_cut(s, tol):
    """Numerical rank of descending singular values s: those above
    tol.rank_tol and above 1e-7 of the largest one."""
    scale = s[0] if len(s) and s[0] > 0 else 1.0
    return int(np.sum(s > max(tol.rank_tol, 1e-7 * scale)))


def span_residual(stack, ortho):
    """Sup-norm residual of stack elements against an orthonormal row span,
    relative to the largest entry of the stack when that exceeds one.

    The stack is worked through CHECK_ROWS rows at a time, so the
    temporaries stay at about one chunk whatever the stack's length."""
    stack = np.atleast_2d(np.asarray(stack, dtype=complex))
    if stack.shape[0] == 0:
        return 0.0
    flat = stack.reshape(stack.shape[0], -1)
    B = np.asarray(ortho, dtype=complex).reshape(ortho.shape[0], flat.shape[1])
    chunks = row_chunks(flat)
    return sup(_off_span(chunk, B) for chunk in chunks) / sup((maxabs(chunk) for chunk in chunks), 1.0)


def _off_span(chunk, B):
    """Largest modulus of the rows of chunk minus their projections onto the
    orthonormal rows of B."""
    if B.shape[0] == 0:
        return maxabs(chunk)
    # conj(conj(chunk) B^T) is chunk B^*, without a conjugated copy of the span
    rec = np.conj(np.conj(chunk) @ B.T) @ B
    np.subtract(chunk, rec, out=rec)
    # the moduli overwrite rec in place rather than fill a second array
    return float(np.abs(rec, out=rec).real.max())


def scalar_part(M):
    """Best scalar approximation tr(M)/n of a square matrix, or of the
    block-diagonal matrix of a stack (..., n, n) of blocks: the summed trace
    over the total diagonal size."""
    return complex(np.trace(M, axis1=-2, axis2=-1).sum() / (M.size // M.shape[-1]))


def scalar_defect(M):
    """Distance of M from the scalar line C*1 (sup norm), and the scalar; for
    a block stack, the distance of its block-diagonal matrix, whose entries
    off the blocks are zero."""
    lam = scalar_part(M)
    return maxabs(M - lam * np.eye(M.shape[-1])), lam


def format_complex(z):
    """Render a complex scalar as 'a+bi' with full double precision."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


def dump_matrix(M, fh, name=None):
    """Write a matrix in the textual dump format: one tab-separated row per line."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if name is not None:
        fh.write(f"# {name} {M.shape[0]} {M.shape[1]}\n")
    for row in M:
        fh.write("\t".join(format_complex(z) for z in row) + "\n")
