"""Check catalog and suite runner.

Every check draws randomness from a generator seeded by (config.seed, crc32
of the check name), so adding or removing checks never perturbs the samples
of the others and identical configurations reproduce identical reports.
A sampled check's record takes its worst residuals from linalg.worst and
counts the draws the check took.
"""

import time
import traceback
import zlib
from collections import Counter
from functools import cached_property

import numpy as np

from . import algebra as alg_mod
from . import bogoliubov as bog
from . import clifford as cliff
from . import loops as lp
from . import rep
from . import twogroup as tg
from .errors import ConfigError
from .linalg import TolerancePolicy, averaged_intertwiners, maxabs, scalar_defect, sup, worst
from .report import CheckRecord, emit_report, summarize

EXPLORATORY = float("inf")


class Environment:
    """Lazily built model, spin group and context shared by the checks of one
    run, the records its suites made and the time of the latest record or
    suite start.  Only the tomita and rep suites read the context."""

    def __init__(self, config):
        self.config = config
        self.tol = TolerancePolicy(config.eq_tol, config.rank_tol)
        self.records = []
        self.clock = time.perf_counter()

    @cached_property
    def model(self):
        return cliff.build_clifford_model(self.config.n, self.config.d, tol=self.tol)

    @cached_property
    def ctx(self):
        return rep.build_context(self.model, self.tol)

    @cached_property
    def spin(self):
        return lp.SpinGroup(self.config.d)

    def rng(self, name):
        return np.random.default_rng([self.config.seed, zlib.crc32(name.encode())])


class _Recorder:
    """Builds the records of one suite, also into env.records, where they
    outlive a raise.  Each record's wall_time is the time since the previous
    record, the first record's since the recorder was made."""

    def __init__(self, env, suite):
        self.env, self.suite, self.records = env, suite, []
        env.clock = time.perf_counter()

    def __call__(self, name, anchor, residual, tolerance, samples):
        now = time.perf_counter()
        self.records.append(CheckRecord(self.suite, name, anchor, float(residual), tolerance,
                                        now - self.env.clock, samples))
        self.env.records.append(self.records[-1])
        self.env.clock = now


# ---------------------------------------------------------------- clifford

def clifford_checks(env):
    record = _Recorder(env, "clifford")
    cfg, model, tol = env.config, env.model, env.tol

    # complete on the generators; one sampled pair exercises pi_vector
    worst_ac, worst_star = cliff.generator_relation_residuals(model)
    rng = env.rng("clifford anticommutation")
    v = rng.standard_normal(model.dim_h) + 1j * rng.standard_normal(model.dim_h)
    w = rng.standard_normal(model.dim_h) + 1j * rng.standard_normal(model.dim_h)
    worst_ac = sup((worst_ac, cliff.anticommutator_residual(model, v, w)))
    worst_star = sup((worst_star, cliff.star_residual(model, v)))
    m = model.dim_h
    record("anticommutation", "generator anticommutator", worst_ac, 1e-10, m * (m + 1) // 2 + 1)
    record("star relation", "adjoint versus conjugate vector", worst_star, 1e-10, m + 1)

    record("lagrangian", "orthonormal and isotropic", cliff.lagrangian_residual(model.lagrangian), cfg.gate, 1)

    G, s = model.grading, model.grading_signs
    res = sup((maxabs(G @ G - np.eye(model.fock_dim)),
               maxabs(s[:, None] * model.generators * s + model.generators)))
    record("grading", "involution flipping generators", res, cfg.gate, 1)

    dim = rep.irreducibility_dimension(model, env.rng("clifford irreducibility"), tol)
    record("irreducibility", "generator commutant is scalar", abs(dim - 1), cfg.gate, 1)

    first = cliff.half_space(model, "first")
    mono = cliff.clifford_monomials(model, first)
    res = cliff.monomial_closure_residual(model, first, mono)
    record("monomial span", "monomials span the generated algebra", res, cfg.gate, 1)
    return record.records


# -------------------------------------------------------------- bogoliubov

def bogoliubov_checks(env):
    record = _Recorder(env, "bogoliubov")
    cfg, model, tol = env.config, env.model, env.tol
    D = model.dim_h

    rng = env.rng("implementer construction")
    probe_rng = env.rng("implementer uniqueness")

    def construction():
        g = bog.random_special_orthogonal(D, rng)
        line = averaged_intertwiners(cliff.pi_columns(model, g), model.generators,
                                     bog.LINE_PROBES, probe_rng, tol)
        oracle = bog.implement_oracle(model, g, tol, rng)
        relation = bog.implementation_residual(model, oracle.unitary, g)
        pin = bog.implement_pin(model, g, tol)
        no = bog.normalize_phase(oracle, "vacuum", tol)
        if no.normalization == "vacuum" and pin.normalization == "vacuum":
            agreement = maxabs(no.unitary - pin.unitary)
        else:
            agreement = bog.projective_distance(no.unitary, pin.unitary)
        return {"line": abs(line.shape[0] - 1), "relation": relation, "agreement": agreement}
    res = worst(construction() for _ in range(50))
    record("implementer uniqueness", "intertwiner space is a line", res["line"], cfg.gate, res.draws)
    record("implementer relation", "conjugation realizes the rotation", res["relation"], 1e-9, res.draws)
    record("pin oracle agreement", "two constructions, one unitary", res["agreement"], cfg.gate, res.draws)

    rng = env.rng("extension cocycle")

    def cocycle():
        g, h, k = (bog.random_special_orthogonal(D, rng) for _ in range(3))
        cgh = bog.extension_cocycle(model, g, h, tol)
        lhs = cgh * bog.extension_cocycle(model, g @ h, k, tol)
        rhs = bog.extension_cocycle(model, g, h @ k, tol) * bog.extension_cocycle(model, h, k, tol)
        return {"scalar": abs(abs(cgh) - 1.0), "identity": abs(lhs - rhs)}
    res = worst(cocycle() for _ in range(50))
    record("cocycle scalar", "triple product collapses to a phase", res["scalar"], cfg.gate, res.draws)
    record("cocycle identity", "associativity of the phase defect", res["identity"], cfg.gate, res.draws)

    rng = env.rng("derived implementers")

    def derived():
        X, Y = bog.random_skew(D, rng), bog.random_skew(D, rng)
        dX = bog.derived_implementer(model, X, tol)
        dY = bog.derived_implementer(model, Y, tol)
        dXY = bog.derived_implementer(model, X + Y, tol)
        return {"linear": maxabs(dX + dY - dXY),
                "contract": maxabs(dX @ model.generators[0] - model.generators[0] @ dX
                                   - cliff.pi_vector(model, X[:, 0].astype(complex)))}
    res = worst(derived() for _ in range(10))
    record("derived linearity", "quadratic generator is linear", res["linear"], cfg.gate, res.draws)
    record("derived contract", "commutator reproduces the generator", res["contract"], cfg.gate, res.draws)
    theta = 0.7
    K = np.zeros((D, D))
    K[1, 0], K[0, 1] = 1.0, -1.0
    dK = bog.derived_implementer(model, K, tol)
    w, V = np.linalg.eigh(1j * theta * dK)
    U_exp = (V * np.exp(-1j * w)) @ V.conj().T
    g_rot = np.eye(D)
    g_rot[0, 0] = g_rot[1, 1] = np.cos(theta)
    g_rot[1, 0], g_rot[0, 1] = np.sin(theta), -np.sin(theta)
    U_pin = bog.implement_pin(model, g_rot, tol).unitary
    expmatch = bog.projective_distance(U_exp, U_pin)
    record("derived exponential", "one-parameter rotation matches", expmatch, cfg.gate, 1)

    rng = env.rng("schwinger term")

    def schwinger():
        X, Y, Z = (bog.random_skew(D, rng) for _ in range(3))
        a, b = rng.standard_normal(2)
        sXY = bog.schwinger_term(model, X, Y, tol)
        bilinear = sup((abs(sXY + bog.schwinger_term(model, Y, X, tol)),
                        abs(bog.schwinger_term(model, a * X + b * Y, Z, tol)
                            - a * bog.schwinger_term(model, X, Z, tol)
                            - b * bog.schwinger_term(model, Y, Z, tol))))
        comm = lambda P, Q: P @ Q - Q @ P
        return {"bilinear": bilinear,
                "jacobi": abs(bog.schwinger_term(model, comm(X, Y), Z, tol)
                              + bog.schwinger_term(model, comm(Y, Z), X, tol)
                              + bog.schwinger_term(model, comm(Z, X), Y, tol))}
    res = worst(schwinger() for _ in range(20))
    record("schwinger bilinear", "anomaly is an antisymmetric form", res["bilinear"], cfg.gate, res.draws)
    record("schwinger jacobi", "cocycle identity of the anomaly", res["jacobi"], cfg.gate, res.draws)
    return record.records


# ------------------------------------------------------------------ tomita

def modular_identity_terms(alg, sfd):
    """Residual of each identity of the modular data sfd of (alg, omega): the
    polar and vacuum ones, and S(a omega) = a^* omega, which ties S to alg.

    A product is measured against the scale of its factors, which grows
    with the spread of the vacuum's Schmidt weights.  S = J Delta^{1/2} is
    read as J S = Delta^{1/2}: the matrix Mj conj(Ms) of J S must be
    Hermitian, square to Delta and have no negative eigenvalue."""
    Ms, Mj, delta, omega = sfd.tomita.linear, sfd.conjugation.linear, sfd.delta, sfd.omega
    eye = np.eye(len(omega))
    root = Mj @ np.conj(Ms)
    scale = max(1.0, maxabs(root))
    lam_min = np.linalg.eigvalsh(0.5 * (root + root.conj().T))[0]
    polar = sup((maxabs(root - root.conj().T) / scale, maxabs(root @ root - delta) / scale ** 2,
                 -min(lam_min, 0.0) / scale))
    # Delta^{-1} = S S^* exactly when S S = 1, which the terms check too
    inv = Ms @ Ms.conj().T
    return {
        "S S": maxabs(Ms @ np.conj(Ms) - eye) / max(1.0, maxabs(Ms)) ** 2,
        "J J": maxabs(Mj @ np.conj(Mj) - eye),
        "S = J Delta^1/2": polar,
        "J Delta J = Delta^-1": maxabs(sfd.conjugation.conjugate_matrix(delta) - inv) / max(1.0, maxabs(inv)),
        "S omega": maxabs(Ms @ np.conj(omega) - omega),
        "Delta omega": maxabs(delta @ omega - omega) / max(1.0, maxabs(delta)),
        "S a omega": alg_mod.star_relation_residual(alg, omega, sfd.tomita),
    }


def tomita_checks(env):
    record = _Recorder(env, "tomita")
    cfg, model, tol = env.config, env.model, env.tol
    ctx = env.ctx
    N = model.fock_dim
    A = ctx.algebra
    sfd = ctx.sfd

    status = alg_mod.cyclic_separating_check(A, model.vacuum, tol)
    record("cyclic separating", "vacuum is cyclic and separating", 0.0 if bool(status) else 1.0, cfg.gate, 1)

    res = sup(modular_identity_terms(A, sfd).values())
    record("modular identities", "polar pieces of the star map", res, 1e-9, 1)

    # A' is generated by the twisted second-half generators Gamma b, whose
    # 2^k monomials are orthogonal; commuting with A's generators g is
    # commuting with the algebra they generate
    gens = A.generators
    twisted = model.grading_signs[:, None] * rep.half_generators(model, "second")
    comm_dim = 2 ** len(twisted)
    # J A J is generated by the J g J and has dim A, so inside A' with dim A
    # = dim A' it is all of it
    inside = sup(maxabs(g @ gens - gens @ g) for g in sfd.reflect(gens))
    record("conjugation onto commutant", "J maps the algebra onto its commutant",
           sup((inside, 0.0 if A.dim == comm_dim else 1.0)), 1e-9, 1)

    res = rep.check_twisted_duality(ctx)
    record("twisted duality", "half algebras are mutual super commutants",
           sup(res.values()), cfg.gate, 1)

    pairwise = sup(maxabs(g @ twisted - twisted @ g) for g in gens)
    dim_defect = 0.0 if A.dim * comm_dim == N * N else 1.0
    record("double commutant", "commutant dimensions multiply to the full algebra",
           sup((pairwise, dim_defect)), cfg.gate, 1)

    rng = env.rng("haagerup implementation")
    units = rep.UnitaryInAlgebraGroup(A)

    def haagerup():
        theta = alg_mod.conjugation_action(units.sample(rng), A)
        theta2 = alg_mod.conjugation_action(units.sample(rng), A)
        U, act, jcomm = alg_mod.canonical_implementation(sfd, A, theta, tol, rng=rng)
        # a J a J omega for a sampled a, built in the frame as W vec(X)
        x = A.coordinate_matrix(rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
        cone = sfd.cone_defect(U @ (sfd.frame @ sfd.cone_probe(x).reshape(-1)))
        U2 = alg_mod.canonical_implementation(sfd, A, theta2, tol, rng=rng).unitary
        U12 = alg_mod.canonical_implementation(sfd, A, theta.compose(theta2), tol, rng=rng).unitary
        # kernel identity: for u in A, JuJ lies in the commutant, so
        # conjugation by JuJ is the identity on A, decided on its generators
        W = sfd.reflect(units.sample(rng))
        return {"action": act, "J": jcomm, "cone": cone, "multiplicative": maxabs(U @ U2 - U12),
                "kernel": maxabs(W @ gens @ W.conj().T - gens)}
    res = worst(haagerup() for _ in range(20))
    record("canonical action", "implementation acts as the automorphism", res["action"], 1e-9, res.draws)
    record("canonical J commutation", "implementation commutes with J", res["J"], 1e-9, res.draws)
    record("canonical cone", "implementation preserves the positive cone", res["cone"], 1e-9, res.draws)
    record("canonical multiplicative", "implementation is a homomorphism", res["multiplicative"], cfg.gate,
           res.draws)
    record("action kernels", "algebra unitaries act trivially on the mirror side", res["kernel"], cfg.gate,
           res.draws)
    return record.records


# --------------------------------------------------------------- two-group

def _builtin_crossed_modules():
    z4 = tg.FiniteGroup.cyclic(4)
    s3 = tg.FiniteGroup.symmetric(3)
    builtins = [tg.delooping(z4), tg.discrete(s3), tg.delooping(tg.FiniteGroup.cyclic(2)),
                tg.discrete(tg.FiniteGroup.cyclic(6))]
    return builtins


def twogroup_checks(env):
    record = _Recorder(env, "two-group")
    cfg, tol = env.config, env.tol

    # the stock groups are finite and small, so every tuple is checked and no draw is taken
    finite = [tg.check_crossed_module(cm, 100, env.rng(f"axioms {cm.name}"))
              for cm in _builtin_crossed_modules()]
    record("finite crossed modules", "axioms on the stock examples",
           sup(v for res in finite for v in res.values()), cfg.gate, sum(res.draws for res in finite))

    s3 = tg.FiniteGroup.symmetric(3)
    bad = tg.delooping(s3)
    res = tg.check_crossed_module(bad, 100, env.rng("nonabelian fiber"))
    detected = res["peiffer"] > 0.5
    record("peiffer detects nonabelian", "delooped nonabelian group fails",
           0.0 if detected else 1.0, cfg.gate, res.draws)

    aut = tg.matrix_automorphism_module(2)
    res = tg.check_crossed_module(aut, 50, env.rng("matrix automorphisms"))
    record("matrix automorphism module", "units over conjugations",
           sup(res.values()), cfg.gate, res.draws)

    z2, z4cm = tg.delooping(tg.FiniteGroup.cyclic(2)), tg.delooping(tg.FiniteGroup.cyclic(4))
    incl = tg.inclusion_intertwiner(2, z2, z4cm)
    res = tg.check_intertwiner(incl, z2, z4cm, 100, env.rng("inclusion"))
    record("inclusion intertwiner", "doubling map between deloopings",
           sup(res.values()), cfg.gate, res.draws)
    broken = tg.StrictIntertwiner(on_base=incl.on_base, on_fiber=lambda h: (h * h + 1) % 4, name="broken")
    res = tg.check_intertwiner(broken, z2, z4cm, 100, env.rng("broken map"))
    record("intertwiner detects defect", "non-homomorphism is flagged",
           0.0 if sup(res.values()) > 0.5 else 1.0, cfg.gate, res.draws)

    def round_trip(cm):
        two = tg.to_two_group(cm)
        rng = env.rng(f"round trip {cm.name}")
        minimal = tg.check_minimal_data(two, 50, rng)
        back = tg.to_crossed_module(two)
        axioms = tg.check_crossed_module(back, 50, rng)

        def embedded(h, g):
            e = cm.base.identity()
            return {"t": cm.base.dist(back.t((h, e)), cm.t(h)),
                    "action": cm.fiber.dist(back.act(g, (h, e))[0], cm.act(g, h))}
        fiber = worst(embedded(cm.fiber.sample(rng), cm.base.sample(rng)) for _ in range(20))
        interchange = tg.check_interchange(two, 30, rng, tol)
        x = two.morphisms.sample(rng)
        left = tg.compose_morphisms(two, tg.invert_morphism(two, x), x, tol)
        inverse = two.morphisms.dist(left, two.unit(two.source(x)))
        g = two.objects.sample(rng)
        unit = two.morphisms.dist(tg.compose_morphisms(two, two.unit(g), two.unit(g), tol), two.unit(g))
        draws.update({"round trip": axioms.draws + fiber.draws, "minimal": minimal.draws,
                      "composition": interchange.draws + 2})   # x and g above
        return {"round trip": sup((*axioms.values(), *fiber.values())), "minimal": sup(minimal.values()),
                "composition": sup((*interchange.values(), inverse, unit))}
    draws = Counter()
    res = worst(round_trip(cm) for cm in _builtin_crossed_modules() + [tg.matrix_automorphism_module(2)])
    record("functor round trip", "crossed module survives the 2-group detour", res["round trip"], 1e-10,
           draws["round trip"])
    record("minimal data", "section and kernel conditions", res["minimal"], cfg.gate, draws["minimal"])
    record("composition laws", "interchange, units and inverses", res["composition"], cfg.gate,
           draws["composition"])

    rng = env.rng("pi structure")
    z4, s3 = tg.FiniteGroup.cyclic(4), tg.FiniteGroup.symmetric(3)
    ba, dis = (tg.pi0_pi1(cm, rng, 50, tol=tol) for cm in (tg.delooping(z4), tg.discrete(s3)))
    structure = [ba.centrality, dis.centrality, 0.0 if all(ba.pi1_contains(h) for h in z4.elements) else 1.0,
                 0.0 if ba.pi0_equal(0, 0) else 1.0,
                 1.0 if dis.pi0_equal(s3.elements[0], s3.elements[1]) else 0.0]
    record("pi structure", "kernel and quotient of the stock examples", sup(structure), cfg.gate,
           ba.draws + dis.draws)
    return record.records


# ------------------------------------------------------------------ string

def string_checks(env):
    record = _Recorder(env, "string")
    cfg, model, tol = env.config, env.model, env.tol
    spin = env.spin
    d = model.d

    rng = env.rng("spin covering")
    fixed = [maxabs(spin.covering(spin.identity()) - np.eye(d)),
             maxabs(spin.covering(-spin.identity()) - np.eye(d))]
    if d >= 2:   # a fixed rotation in the (0, 1) plane
        theta = 0.9
        B = np.zeros((d, d))
        B[1, 0], B[0, 1] = theta, -theta
        R = np.eye(d)
        R[0, 0] = R[1, 1] = np.cos(theta)
        R[1, 0], R[0, 1] = np.sin(theta), -np.sin(theta)
        fixed.append(maxabs(spin.covering(spin.exp(B)) - R))

    def covering():
        x, y = spin.sample(rng), spin.sample(rng)
        product = maxabs(spin.covering(x @ y) - spin.covering(x) @ spin.covering(y))
        lam = spin.covering(x)
        return {"product": product, "orthogonal": maxabs(lam.T @ lam - np.eye(d)),
                "determinant": abs(np.linalg.det(lam) - 1.0)}
    res = worst(covering() for _ in range(50))
    record("spin covering", "double cover onto rotations", sup((*fixed, *res.values())), cfg.gate, res.draws)

    rng = env.rng("pointwise action")
    paths = lp.PathGroup(model.n, spin)

    def action():
        a = spin.samples(rng, 2 * model.n)
        b = spin.samples(rng, 2 * model.n)
        return {"action": maxabs(lp.omega_matrix(model, spin, a @ b)
                                 - lp.omega_matrix(model, spin, a) @ lp.omega_matrix(model, spin, b))}
    res = worst(action() for _ in range(50))
    record("orthogonal action", "pointwise rotations form a homomorphism", res["action"], cfg.gate, res.draws)

    rng = env.rng("paths and doubling")
    identity = maxabs(lp.double_path(paths.identity(), tol) - lp.loop_identity(model.n, spin))

    def doubling():
        p, q = paths.sample_common_end(rng, 2)
        loop = lp.concat_paths(p, q, tol)
        middle, start = maxabs(loop[model.n] - p[model.n]), maxabs(loop[0] - spin.identity())
        half = lp.half_supported_loop(model.n, spin, rng)
        back = lp.concat_paths(lp.restrict_loop(half, tol), paths.identity(), tol)
        return {"middle": middle, "start": start, "restriction": maxabs(back - half)}
    res = worst(doubling() for _ in range(20))
    record("path doubling", "concatenation and restriction bookkeeping", sup((identity, *res.values())),
           cfg.gate, res.draws)

    rng = env.rng("lift structure")

    def lifts():
        a = spin.samples(rng, 2 * model.n)
        b = spin.samples(rng, 2 * model.n)
        ext_a = lp.lift(model, spin, a, tol)
        Ua = ext_a.unitary
        Ub = lp.lift(model, spin, b, tol).unitary
        Uab = lp.lift(model, spin, a @ b, tol).unitary
        defect, lam = scalar_defect(Ua @ Ub @ Uab.conj().T)
        rescan = bog.normalize_phase(ext_a.implementer, "scan", tol).unitary
        sdef, slam = scalar_defect(rescan @ Ua.conj().T)
        return {"projective": sup((defect, abs(abs(lam) - 1.0))), "scan": sup((sdef, abs(abs(slam) - 1.0)))}
    res = worst(lifts() for _ in range(20))
    record("projective lifts", "lift products differ by a phase", res["projective"], cfg.gate, res.draws)
    record("lift ambiguity", "renormalized lifts differ by a phase", res["scan"], cfg.gate, res.draws)

    string_cm = lp.string_crossed_module(model, spin, tol)
    res = tg.check_crossed_module(string_cm, 100, env.rng("string axioms"))
    record("string crossed module", "equivariance and peiffer", sup(res.values()), cfg.gate, res.draws)

    rng = env.rng("disjoint supports")

    def commutator(first, second):
        U1 = lp.lift(model, spin, first, tol).unitary
        U2 = lp.lift(model, spin, second, tol).unitary
        return {"commutator": maxabs(U1 @ U2 - U2 @ U1)}
    res = worst(commutator(*lp.disjoint_support_pair(model, spin, rng)) for _ in range(50))
    record("disjoint commutativity", "separated half loops commute", res["commutator"], cfg.gate, res.draws)
    res = worst(commutator(spin.samples(rng, 2 * model.n), spin.samples(rng, 2 * model.n)) for _ in range(5))
    record("overlapping supports", "generic loops fail to commute (reported)", res["commutator"],
           EXPLORATORY, res.draws)

    rng = env.rng("reflection")
    tau = lp.vertex_reflection(model)
    fixed = (maxabs(tau @ tau - np.eye(model.dim_h)),
             maxabs(tau @ model.lagrangian + np.conj(model.lagrangian)))

    def reversal():
        p, q = paths.sample_common_end(rng, 2)
        gpq = lp.omega_matrix(model, spin, lp.concat_paths(p, q, tol))
        gqp = lp.omega_matrix(model, spin, lp.concat_paths(q, p, tol))
        return {"reversal": maxabs(lp.reflect_orthogonal(tau, gpq) - gqp)}
    res = worst(reversal() for _ in range(10))
    record("vertex reflection", "reversal swaps concatenated halves", sup((*fixed, res["reversal"])),
           cfg.gate, res.draws)

    rng = env.rng("endpoint section")
    res = worst({"endpoint": maxabs(lp.restrict_loop(string_cm.fiber.sample(rng).loop, tol)[model.n]
                                    - spin.identity())} for _ in range(20))
    record("endpoint section", "restricted half loops end at the identity", res["endpoint"], cfg.gate,
           res.draws)

    rng = env.rng("loop cocycle")
    xi = lp.random_loop_algebra(model, rng)
    eta = lp.random_loop_algebra(model, rng)
    cmp = lp.loop_cocycle_compare(model, xi, eta, tol)
    record("loop cocycle comparison",
           "discrete pairing versus commutator anomaly (reported)",
           abs(cmp["difference"]), EXPLORATORY, 1)
    X, Y = lp.vertex_blocks(model, xi), lp.vertex_blocks(model, eta)
    anti = sup((abs(lp.discrete_loop_cocycle_centered(xi, eta) + lp.discrete_loop_cocycle_centered(eta, xi)),
                abs(bog.schwinger_term(model, X, Y, tol) + bog.schwinger_term(model, Y, X, tol))))
    record("loop cocycle antisymmetry", "pairing changes sign under swap", anti, cfg.gate, 1)
    fwd = abs(lp.discrete_loop_cocycle(xi, eta) + lp.discrete_loop_cocycle(eta, xi))
    record("forward difference asymmetry",
           "lattice defect of the one-sided pairing (reported)", fwd, EXPLORATORY, 1)
    return record.records


# --------------------------------------------------------------------- rep

def rep_checks(env):
    record = _Recorder(env, "rep")
    cfg, tol = env.config, env.tol
    ctx = env.ctx

    res = rep.check_membership_evenness(ctx, 50, env.rng("fiber membership"))
    record("fiber lands in the algebra", "even unitaries inside the span",
           sup(res.values()), cfg.gate, res.draws)
    res = rep.check_t_compatibility(ctx, 100, env.rng("t compatibility"))
    record("t compatibility", "restriction matches conjugation", sup(res.values()), cfg.gate, res.draws)
    res = rep.check_alpha_compatibility(ctx, 100, env.rng("action compatibility"))
    record("action compatibility", "doubling action matches evaluation",
           sup(res.values()), cfg.gate, res.draws)
    res = rep.check_well_definedness(ctx, 50, env.rng("well definedness"))
    record("well definedness", "only the first half matters", sup(res.values()), cfg.gate, res.draws)

    R = rep.representation_intertwiner(ctx)
    res = tg.check_intertwiner(R, ctx.string_cm, ctx.unitary_cm, 50, env.rng("full intertwiner"))
    record("strict intertwiner", "both compatibilities and both homomorphisms",
           sup(res.values()), cfg.gate, res.draws)

    ff = rep.check_fusion_factorization(ctx, 12, env.rng("fusion factorization"))
    record("fusion factorization", "section, homomorphism, J commutation",
           sup((ff["loop component exact"], ff["homomorphism"], ff["J commutation"])), cfg.gate, ff.draws)
    record("fusion factorization implements",
           "canonical unitary versus the vertex-doubled rotation (reported)",
           ff["vertex doubled"], EXPLORATORY, ff.draws)
    record("canonical unit edge law",
           "canonical unitary implements the edge-doubled rotation (reported)",
           ff["edge doubled"], EXPLORATORY, ff.draws)

    f = rep.check_f_scalar(ctx, 20, env.rng("unit comparison"))
    record("unit comparison scalar", "canonical and lifted units differ by a phase",
           f["scalar defect"], cfg.gate, f.draws)
    record("unit comparison value", "observed deviation of the phase from one (reported)",
           f["scalar minus one"], EXPLORATORY, f.draws)

    pair_tg = rep.pair_two_group(ctx)
    norm_tg = rep.normalizer_two_group(ctx)
    res = tg.check_minimal_data(pair_tg, 12, env.rng("pair minimal data"))
    unit_res = res.pop("i homomorphism")
    record("pair 2-group minimal data", "sections and commuting kernels",
           sup(res.values()), cfg.gate, res.draws)
    record("pair 2-group unit multiplicativity",
           "pointwise unit section is a homomorphism", unit_res, cfg.gate, res.draws)
    sign_report = rep.unit_sign_cocycle(ctx, 20, env.rng("unit sign cocycle"))
    record("unit section sign cocycle",
           "worst distance of the lift cocycle from +-1 (reported)",
           sign_report["distance from signs"], EXPLORATORY, sign_report.draws)
    record("unit section sign frequency",
           "fraction of sampled pairs on the negative branch (reported)",
           sign_report["negative fraction"], EXPLORATORY, sign_report.draws)
    res = tg.check_minimal_data(norm_tg, 8, env.rng("normalizer minimal data"))
    record("normalizer 2-group minimal data", "sections and commuting kernels",
           sup(res.values()), cfg.gate, res.draws)

    res = rep.check_two_group_compatibility(ctx, 25, env.rng("2-group compatibility"))
    record("2-group target compatibility", "targets intertwine", res["target"], cfg.gate, res.draws)
    record("2-group source compatibility", "sources intertwine on interior loops",
           res["source (interior class)"], cfg.gate, res.draws)
    record("2-group source shifted", "source equals the edge-reversed conjugation (reported)",
           res["source vs edge-reversed loop"], EXPLORATORY, res.draws)

    mod = rep.modular_vs_reflection(ctx, 8, env.rng("modular reflection"))
    record("mirror is a rotation", "J conjugation stays Bogoliubov (reported)",
           mod["bogoliubov defect"], EXPLORATORY, mod.draws)
    record("mirror vs vertex reflection", "moved-coordinate defect (reported)",
           mod["vertex moved"], EXPLORATORY, mod.draws)
    record("mirror vs vertex reflection fixed", "fixed-coordinate defect (reported)",
           mod["vertex fixed"], EXPLORATORY, mod.draws)
    record("mirror vs edge reflection", "edge-reversal defect (reported)", mod["edge"], EXPLORATORY,
           mod.draws)

    res = rep.check_pi_levels(ctx, 20, env.rng("pi levels"))
    record("central fiber identity", "phases map to phases", res["central identity"], 1e-10, res.draws)
    record("centrality", "phases are fixed by the action", res["centrality"], 1e-10, res.draws)
    record("endpoint inner difference", "equal endpoints differ by an inner twist",
           res["endpoint inner difference"], cfg.gate, res.draws)
    kernel_dim = rep.irreducibility_dimension(ctx.model, env.rng("pi1 kernel"), tol)
    record("pi1 kernel dimension", "only phases fix every generator", abs(kernel_dim - 1), cfg.gate, 1)
    return record.records


SUITES = {
    "clifford": clifford_checks,
    "bogoliubov": bogoliubov_checks,
    "tomita": tomita_checks,
    "two-group": twogroup_checks,
    "string": string_checks,
    "rep": rep_checks,
}


def run_suites(config):
    """Execute the configured suites; returns (exit_code, records).

    A suite that raises keeps its records and gets a gated, failed
    "<suite> aborted" record with a NaN residual and the error, whose
    traceback goes to stderr; the suites after it still run."""
    config.validate()
    env = Environment(config)
    for suite in config.ordered_suites():
        try:
            SUITES[suite](env)
        except Exception as exc:   # the report still covers every suite
            traceback.print_exc()
            env.records.append(CheckRecord(suite, f"{suite} aborted", "the suite ran to its end",
                                           float("nan"), config.gate, time.perf_counter() - env.clock, 0,
                                           error=f"{type(exc).__name__}: {exc}"))
    return (1 if summarize(env.records)["failed"] else 0), env.records


def run(config):
    """Full entry point: run, write the report file if requested, return exit code."""
    code, records = run_suites(config)
    if config.report_path:
        data = emit_report(config, records, config.report_format)
        try:
            with open(config.report_path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise ConfigError(f"cannot write report {config.report_path}: {exc.strerror}") from None
    return code, records, summarize(records)
