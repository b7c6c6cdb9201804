"""Assembly of the representation data: half-loop unitaries, path
automorphisms, and the strict 2-group round trip.

The context bundles the half-circle algebra, its modular data and the
string crossed module.  Automorphisms of the algebra are formed once from
k x k data (InnerAutomorphism.ad, conjugation_action, reflected_action),
and the representation reads the string fiber there too: a lifted half
loop maps to the frame part u_hat of its unitary, and U(A) is carried as
such u_hat.
The sampled verification helpers return linalg.worst of their draws, a
dict from check name to its worst residual whose .draws counts the draws,
and gate nothing; the suite layer decides which entries gate and which are
merely recorded.  Checks that the lattice model provably cannot satisfy
(the reflection shift, see edge_reflection) are still computed faithfully
and reported with their true residuals.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (InnerAutomorphism, OperatorAlgebra, canonical_implementation,
                      clifford_frame, conjugation_action, reflected_action,
                      super_commutant_probes, tomita_data)
from .bogoliubov import LINE_PROBES, Implementer, implementation_residual, projective_distance
from .clifford import generator_indices, half_space
from .errors import NotInA
from .linalg import DEFAULT_TOL, averaged_intertwiners, maxabs, scalar_defect, sup, worst
from .loops import (SpinGroup, concat_paths, double_path, edge_double_path,
                    edge_reflection, embed_even, is_half_supported, lift, omega_matrix,
                    pointwise_unitary, reflect_orthogonal, restrict_loop,
                    reversed_loop, string_crossed_module, vertex_reflection)
from .twogroup import (ComputableGroup, CrossedModule, StrictIntertwiner,
                       TwoGroup, UnitaryGroup)


@dataclass
class RepresentationContext:
    """Half-circle algebra, its modular data and the string crossed module.

    The algebra is its generators and frame.  Its super commutant and its
    commutant are not held: the tomita checks read them on their
    generators, the second-half generators b_i (half_generators) and their
    twists Gamma b_i.
    """

    model: object
    spin: SpinGroup
    algebra: OperatorAlgebra            # first half-circle algebra
    sfd: object                         # modular data for (algebra, vacuum)
    string_cm: CrossedModule
    unitary_cm: CrossedModule           # U(A) -> inner automorphisms
    tol: object


class UnitaryInAlgebraGroup(UnitaryGroup):
    """Unitaries W (u_hat (x) 1) W^* of an algebra, carried as their k x k
    frame parts u_hat; u_hat = exp(i h) for k x k Hermitian h."""

    def __init__(self, alg):
        super().__init__(alg.k, name="U(A)")
        self.alg = alg

    def sample(self, rng):
        c = rng.standard_normal(self.alg.dim) + 1j * rng.standard_normal(self.alg.dim)
        x = self.alg.coordinate_matrix(c * 0.8)
        w, V = np.linalg.eigh(0.5 * (x + x.conj().T))
        return (V * np.exp(1j * w)) @ V.conj().T


class InnerAutomorphismGroup(ComputableGroup):
    """Automorphisms Ad u_hat of a finite factor, formed in the frame and
    compared by their action on the generators."""

    def __init__(self, alg):
        self.alg, self.unitaries = alg, UnitaryInAlgebraGroup(alg)
        self.name = "Aut(A)"

    def identity(self):
        return InnerAutomorphism.ad(self.alg, np.eye(self.alg.k, dtype=complex), inside=True)

    def mul(self, a, b):
        return a.compose(b)

    def inv(self, a):
        return a.inverse()

    def dist(self, a, b):
        return a.distance(b)

    def sample(self, rng):
        return InnerAutomorphism.ad(self.alg, self.unitaries.sample(rng), inside=True)


def unitary_automorphism_module(alg):
    """U(A) -> Aut(A) in the frame: a unit u_hat maps to Ad u_hat, and Ad w_hat
    acts on it by conjugation, u_hat -> w_hat u_hat w_hat^*."""
    base = InnerAutomorphismGroup(alg)
    return CrossedModule(
        base=base,
        fiber=base.unitaries,
        t=lambda u: InnerAutomorphism.ad(alg, u, inside=True),
        act=lambda theta, u: theta.factor @ u @ theta.factor.conj().T,
        name="unitary automorphism module",
    )


def half_generators(model, which):
    """The generators pi(e_{j,a}) of one half circle ('first' or 'second')."""
    return model.generators[generator_indices(model, half_space(model, which))]


def half_algebra(model, which, tol=DEFAULT_TOL):
    """Algebra of one half circle ('first' or 'second'): that half's
    generators and their frame, which clifford_frame checks."""
    gens = half_generators(model, which)
    return OperatorAlgebra(gens, clifford_frame(gens, tol))


def build_context(model, tol=DEFAULT_TOL, alg=None):
    """Assemble algebra, modular and string data for one lattice model; alg
    is the first-half algebra when it is already built."""
    spin = SpinGroup(model.d)
    if alg is None:
        alg = half_algebra(model, "first", tol)
    sfd = tomita_data(alg, model.vacuum, tol)
    return RepresentationContext(
        model=model,
        spin=spin,
        algebra=alg,
        sfd=sfd,
        string_cm=string_crossed_module(model, spin, alg, tol),
        unitary_cm=unitary_automorphism_module(alg),
        tol=tol,
    )


def loop_unitary(ctx, ext):
    """Fiber map of the representation: the frame part u_hat of the unitary W
    (u_hat (x) 1) W^* of a lifted half loop, which lies in the algebra and is
    even by construction.

    Verified to be unitary and to belong to a half-supported loop before it
    is returned.
    """
    u = ext.factor
    unitarity = maxabs(u @ u.conj().T - np.eye(len(u)))
    if not (unitarity <= ctx.tol.eq_tol and is_half_supported(ext.loop, ctx.tol)):
        raise NotInA(f"fiber element is no unitary of a half-supported loop (unitarity {unitarity:.2e})")
    return u


def path_automorphism(ctx, p):
    """Base map of the representation: conjugation by a doubled-path lift."""
    V = lift(ctx.model, ctx.spin, double_path(p, ctx.tol), ctx.tol)
    return conjugation_action(V.unitary, ctx.algebra, ctx.tol)


def representation_intertwiner(ctx):
    return StrictIntertwiner(
        on_base=lambda p: path_automorphism(ctx, p),
        on_fiber=lambda ext: loop_unitary(ctx, ext),
        name="loop representation",
    )


def check_membership_evenness(ctx, sample_count, rng):
    """Membership and evenness of the block lift of each sampled fiber
    element's loop, the route independent of the frame."""
    def draw():
        loop = ctx.string_cm.fiber.sample(rng).loop
        U, s = lift(ctx.model, ctx.spin, loop, ctx.tol).unitary, ctx.model.grading_signs
        return {"algebra membership": ctx.algebra.membership_residual(U),
                "evenness": maxabs(U * s - s[:, None] * U)}
    return worst(draw() for _ in range(sample_count))


def check_t_compatibility(ctx, sample_count, rng):
    """Conjugation by the half-loop unitary matches the restricted-path automorphism."""
    def draw():
        ext = ctx.string_cm.fiber.sample(rng)
        left = path_automorphism(ctx, restrict_loop(ext.loop, ctx.tol))
        right = InnerAutomorphism.ad(ctx.algebra, loop_unitary(ctx, ext))
        return {"action residual": left.distance(right)}
    return worst(draw() for _ in range(sample_count))


def check_alpha_compatibility(ctx, sample_count, rng):
    """Fiber map intertwines the two actions, as elements and up to phase.

    The string action conjugates by the doubled path's first-half factor;
    the other side conjugates by the representative u_hat in the algebra
    that is solved for the path automorphism, so the two are computed apart.
    Both sides are k x k frame parts.
    """
    def draw():
        p = ctx.string_cm.base.sample(rng)
        ext = ctx.string_cm.fiber.sample(rng)
        left = loop_unitary(ctx, ctx.string_cm.act(p, ext))
        u = path_automorphism(ctx, p).representative(ctx.tol)
        right = u @ loop_unitary(ctx, ext) @ u.conj().T
        return {"exact": maxabs(left - right), "projective": projective_distance(left, right)}
    return worst(draw() for _ in range(sample_count))


def check_well_definedness(ctx, sample_count, rng):
    """The induced automorphism depends only on the first half of the loop."""
    def draw():
        p, q, q2 = ctx.string_cm.base.sample_common_end(rng, 3)
        U1 = lift(ctx.model, ctx.spin, concat_paths(p, q, ctx.tol), ctx.tol).unitary
        U2 = lift(ctx.model, ctx.spin, concat_paths(p, q2, ctx.tol), ctx.tol).unitary
        a1 = conjugation_action(U1, ctx.algebra, ctx.tol)
        a2 = conjugation_action(U2, ctx.algebra, ctx.tol)
        return {"action residual": a1.distance(a2)}
    return worst(draw() for _ in range(sample_count))


@dataclass(frozen=True)
class FusionFactor:
    """A doubled loop with the canonical unitary of its path automorphism,
    kept dense: nothing makes that unitary even, so an odd part would show."""

    loop: np.ndarray
    implementer: Implementer

    @property
    def unitary(self):
        return self.implementer.unitary


def fusion_factorization(ctx, p):
    """Doubled loop paired with the canonical implementation of its automorphism.

    The unitary is the modular-canonical representative u J u J; it realizes
    the path automorphism and commutes with J.  On this lattice it
    implements the rotation of the edge-doubled loop (p reflected about the
    half-integer axis) rather than of the vertex-doubled loop returned in
    the loop slot; the verification layer records both residuals.
    """
    theta = path_automorphism(ctx, p)
    W = canonical_implementation(ctx.sfd, ctx.algebra, theta, ctx.tol).unitary
    dbl = double_path(p, ctx.tol)
    return FusionFactor(dbl, Implementer(W, omega_matrix(ctx.model, ctx.spin, dbl), "even", "raw"))


def check_fusion_factorization(ctx, sample_count, rng):
    """Section, homomorphism and J-commutation residuals, and the two
    implementer residuals of the canonical unitary: against the
    vertex-doubled rotation (structurally order one here) and against the
    edge-doubled one (which it matches)."""
    def draw():
        base, J = ctx.string_cm.base, ctx.sfd.conjugation.linear
        p, q = base.sample(rng), base.sample(rng)
        fp, fq = fusion_factorization(ctx, p), fusion_factorization(ctx, q)
        fpq = fusion_factorization(ctx, base.mul(p, q))
        g_edge = omega_matrix(ctx.model, ctx.spin, edge_double_path(p))
        return {"loop component exact": maxabs(fp.loop - double_path(p, ctx.tol)),
                "homomorphism": maxabs(fp.unitary @ fq.unitary - fpq.unitary),
                "J commutation": maxabs(fp.unitary @ J - J @ np.conj(fp.unitary)),
                "vertex doubled": implementation_residual(ctx.model, fp.unitary,
                                                          fp.implementer.implemented),
                "edge doubled": implementation_residual(ctx.model, fp.unitary, g_edge)}
    return worst(draw() for _ in range(sample_count))


def check_f_scalar(ctx, sample_count, rng):
    """Defect between the canonical and lifted units of doubled loops.

    f(p) = (canonical unitary) (lift of the doubled loop)^{-1}.  Returns
    "scalar defect", the distance of f(p) from a multiple of the identity,
    and "scalar minus one", the deviation of its phase from one.  On this
    lattice f(p) is an algebra-valued invariant, not a phase: the modular
    reflection is shifted by half a spacing, so the canonical unitary
    implements the edge-reversed loop instead of the doubled loop itself.
    """
    def draw():
        p = ctx.string_cm.base.sample(rng)
        W = fusion_factorization(ctx, p).unitary
        V = lift(ctx.model, ctx.spin, double_path(p, ctx.tol), ctx.tol).blocks
        # V^* is even: the columns of W V^* on each parity block are W's times that block
        WV = np.empty_like(W)
        for b, places in zip(V, ctx.model.parity_blocks, strict=True):
            WV[:, places] = W[:, places] @ b.conj().T
        defect, lam = scalar_defect(WV)
        return {"scalar defect": defect, "scalar minus one": abs(lam / max(abs(lam), 1e-300) - 1.0)}
    return worst(draw() for _ in range(sample_count))


class PairLiftGroup(ComputableGroup):
    """Morphisms of the path-pair 2-group: ((p, q), U), U the even blocks of a
    unitary implementing the concatenated loop's rotation; componentwise products."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.paths = ctx.string_cm.base
        self.name = "lifted path pairs"

    def identity(self):
        e = self.paths.identity()
        return (e, e, np.stack([np.eye(self.ctx.model.fock_dim // 2, dtype=complex)] * 2))

    def mul(self, a, b):
        return (a[0] @ b[0], a[1] @ b[1], a[2] @ b[2])

    def inv(self, a):
        return (self.paths.inv(a[0]), self.paths.inv(a[1]), np.conj(np.swapaxes(a[2], -1, -2)))

    def dist(self, a, b):
        return sup(maxabs(x - y) for x, y in zip(a, b))

    def sample(self, rng, interior=False):
        """interior: pairs whose loops vanish at both reflection-fixed vertices."""
        p, q = self.paths.sample_common_end(rng, 2, end_identity=interior)
        V = lift(self.ctx.model, self.ctx.spin, concat_paths(p, q, self.ctx.tol), self.ctx.tol).blocks
        return (p, q, np.exp(2j * np.pi * rng.random()) * V)


def pair_two_group(ctx):
    """The path-pair 2-group.

    The unit section sends p to the pointwise spin-representation unitary
    of the doubled loop (loops.pointwise_unitary).  It implements the
    doubled loop's rotation, so it lands in the morphism fiber exactly, and
    it is a homomorphism because the pointwise map is one on all lattice
    loops: each vertex factor is a *-homomorphism of that vertex's Clifford
    algebra, and even factors at different vertices commute (the extension
    of the discrete loop group trivializes).  The vacuum-normalized lift
    differs from it by the signs of unit_sign_cocycle.  The
    modular-canonical section of fusion_factorization differs from it by
    the measured unit-comparison defect and would leave the fiber.
    """
    morphisms = PairLiftGroup(ctx)

    def unit(p):
        return (p, p, pointwise_unitary(ctx.model, ctx.spin, double_path(p, ctx.tol)))

    return TwoGroup(
        objects=ctx.string_cm.base,
        morphisms=morphisms,
        source=lambda m: m[1],
        target=lambda m: m[0],
        unit=unit,
        name="path-pair 2-group",
    )


def unit_sign_cocycle(ctx, sample_count, rng):
    """Cocycle data of the vacuum-normalized lift over doubled loops.

    The lift is by construction the pointwise unitary of the loop times the
    phase of its vacuum overlap.  For loops that overlap is real, so the
    lifts of doubled loops multiply up to a sign: +1 off the branch strata
    of the vacuum overlap and -1 across them.  The signs are a
    normalization artifact rather than an obstruction class, since the
    pointwise unitaries multiply exactly; the same reason makes the
    commutator pairing of lifted half loops a sign.  These are the signs
    measured here; the pair 2-group's unit uses the pointwise unitary and
    carries none of them.
    """
    base = ctx.string_cm.base
    negative = []

    def draw():
        p, q = base.sample(rng), base.sample(rng)
        Up, Uq, Upq = (lift(ctx.model, ctx.spin, double_path(x, ctx.tol), ctx.tol).blocks
                       for x in (p, q, base.mul(p, q)))
        defect, lam = scalar_defect(Up @ Uq @ np.conj(np.swapaxes(Upq, -1, -2)))
        negative.append(abs(lam + 1.0) < 0.5)
        return {"distance from signs": sup((defect, min(abs(lam - 1.0), abs(lam + 1.0))))}
    res = worst(draw() for _ in range(sample_count))
    res["negative fraction"] = sum(negative) / sample_count
    return res


class NormalizerGroup(UnitaryGroup):
    """Sampled elements of the unitary normalizer of the algebra."""

    def __init__(self, ctx):
        super().__init__(ctx.model.fock_dim, name="N(A)")
        self.alg, self.unitaries = ctx.algebra, UnitaryInAlgebraGroup(ctx.algebra)

    def sample(self, rng):
        """W (a_hat (x) b_hat) W^* for two k x k unitary draws."""
        return self.alg.embed(self.unitaries.sample(rng), self.unitaries.sample(rng))


def normalizer_two_group(ctx):
    """Objects: inner automorphisms; morphisms: normalizer unitaries with the
    conjugation target, reflected source, and canonical unit."""
    autos = InnerAutomorphismGroup(ctx.algebra)
    morphisms = NormalizerGroup(ctx)

    def unit(theta):
        return canonical_implementation(ctx.sfd, ctx.algebra, theta, ctx.tol).unitary

    return TwoGroup(
        objects=autos,
        morphisms=morphisms,
        source=lambda U: reflected_action(U, ctx.algebra, ctx.sfd, ctx.tol),
        target=lambda U: conjugation_action(U, ctx.algebra, ctx.tol),
        unit=unit,
        name="normalizer 2-group",
    )


def check_two_group_compatibility(ctx, sample_count, rng):
    """Source/target compatibility of the morphism-level representation.

    Targets must agree always.  Sources are compared on interior pairs
    (loops trivial at both fixed vertices), the class the design singles
    out; the residual against the edge-reversed source is returned
    alongside, which is the identity this lattice actually satisfies.
    """
    pairs, places = PairLiftGroup(ctx), ctx.model.parity_blocks

    def draw():
        p, _, U = pairs.sample(rng)
        t_rep = conjugation_action(embed_even(places, U), ctx.algebra, ctx.tol)
        target = t_rep.distance(path_automorphism(ctx, p))

        pi_, qi_, Ui = pairs.sample(rng, interior=True)
        s_rep = reflected_action(embed_even(places, Ui), ctx.algebra, ctx.sfd, ctx.tol)
        source = s_rep.distance(path_automorphism(ctx, qi_))
        # identity satisfied exactly: source equals conjugation by a lift of
        # the edge-reversed concatenated loop
        shifted = reversed_loop(concat_paths(pi_, qi_, ctx.tol), shift=1)
        s_exact = conjugation_action(lift(ctx.model, ctx.spin, shifted, ctx.tol).unitary, ctx.algebra, ctx.tol)
        return {"target": target, "source (interior class)": source,
                "source vs edge-reversed loop": s_rep.distance(s_exact)}
    return worst(draw() for _ in range(sample_count))


def modular_vs_reflection(ctx, sample_count, rng):
    """What rotation does J U J implement?

    For implementers U of sampled rotations g, the conjugate J U J is
    expanded back over the generators to extract the rotation it
    implements.  That rotation is compared against the vertex reflection
    prediction tau g tau (split into moved and fixed coordinates) and
    against the edge reflection prediction, which this lattice satisfies
    identically.
    """
    model, spin = ctx.model, ctx.spin
    tau_v = vertex_reflection(model)
    tau_e = edge_reflection(model)
    N = model.fock_dim
    d = model.d
    fixed_cols = [0 * d + a for a in range(d)] + [model.n * d + a for a in range(d)]
    moved_cols = [c for c in range(model.dim_h) if c not in fixed_cols]

    def draw():
        loop = spin.samples(rng, 2 * model.n)
        g = omega_matrix(model, spin, loop)
        U = lift(model, spin, loop, ctx.tol).unitary
        W = ctx.sfd.reflect(U)
        conj = W @ model.generators @ W.conj().T
        coeff = -np.einsum("kab,iba->ki", model.generators, conj) / N
        recon = np.tensordot(coeff.T, model.generators, axes=(1, 0))
        gtilde = np.real(coeff)
        return {"bogoliubov defect": maxabs(conj - recon),
                "vertex moved": maxabs((gtilde - reflect_orthogonal(tau_v, g))[:, moved_cols]),
                "vertex fixed": maxabs((gtilde - reflect_orthogonal(tau_v, g))[:, fixed_cols]),
                "edge": maxabs(gtilde - reflect_orthogonal(tau_e, g))}
    return worst(draw() for _ in range(sample_count))


def check_pi_levels(ctx, sample_count, rng):
    """Central fiber elements map to their phase; endpoint-equal paths give
    automorphisms differing by conjugation inside the algebra."""
    def draw():
        fiber, base = ctx.string_cm.fiber, ctx.string_cm.base
        z = np.exp(2j * np.pi * rng.random())
        central = fiber.central(z)
        identity = maxabs(loop_unitary(ctx, central) - z * np.eye(ctx.algebra.k))
        p, q = base.sample_common_end(rng, 2)
        centrality = fiber.dist(ctx.string_cm.act(p, central), central)

        h = base.mul(base.inv(p), q)      # based, endpoint identity
        u = lift(ctx.model, ctx.spin, concat_paths(h, base.identity(), ctx.tol), ctx.tol).unitary
        member = ctx.algebra.membership_residual(u)
        diff = path_automorphism(ctx, p).inverse().compose(path_automorphism(ctx, q))
        inner = conjugation_action(u, ctx.algebra, ctx.tol)
        return {"central identity": identity, "centrality": centrality,
                "endpoint inner difference": sup((member, diff.distance(inner)))}
    return worst(draw() for _ in range(sample_count))


def irreducibility_dimension(model, rng, tol=DEFAULT_TOL):
    """Dimension of the commutant of all generators (1 = irreducible)."""
    basis = averaged_intertwiners(model.generators, model.generators, LINE_PROBES, rng, tol)
    return basis.shape[0]


TWISTED_PROBES = 2


def check_twisted_duality(ctx):
    """The two half algebras are each other's super commutants.

    B, the second-half algebra, is generated by the second-half generators
    b, and A by its generators g; all of them are odd.  So B lies in A's
    super commutant A^perp, and A in B's, when every b graded-commutes with
    every g: g b = Gamma b Gamma g.  The 2^k monomials of B's k generators
    are orthogonal, so with dim A * 2^k = N^2, the dimension of A^perp on a
    factor, B is all of A^perp.  The other side projects two Gaussian probes
    onto B^perp, by the averaging projections over B's generators dressed
    with Gamma, and gates their span residual against A: a generic element
    of B^perp lies in A only if B^perp = A.  No basis of B or of B^perp is
    built."""
    A, N, s = ctx.algebra, ctx.model.fock_dim, ctx.model.grading_signs
    B = half_generators(ctx.model, "second")
    probes = super_commutant_probes(B, s, TWISTED_PROBES, ctx.tol)
    a_res = A.membership_residual(probes)
    gamma_b_gamma = s[:, None] * B * s
    graded = sup(maxabs(g @ B - gamma_b_gamma @ g) for g in A.generators)
    same_perp = A.dim * 2 ** len(B) == N * N and graded <= ctx.tol.eq_tol
    same_a = graded <= ctx.tol.eq_tol and a_res <= ctx.tol.eq_tol
    return {
        "super commutant of A equals A_perp": 0.0 if same_perp else 1.0,
        "super commutant of A_perp equals A": 0.0 if same_a else 1.0,
        "graded commutator A_perp with A": graded,
        "span residual A": a_res,
    }
