"""Check catalog and suite runner.

Every check draws randomness from a generator seeded by (config.seed, crc32
of the check name), so adding or removing checks never perturbs the samples
of the others and identical configurations reproduce identical reports.
"""

import time
import zlib
from functools import cached_property

import numpy as np

from . import algebra as alg_mod
from . import bogoliubov as bog
from . import clifford as cliff
from . import loops as lp
from . import rep
from . import twogroup as tg
from .errors import ConfigError
from .linalg import (TolerancePolicy, averaged_intertwiners, maxabs, row_chunks, scalar_defect,
                     span_residual)
from .report import CheckRecord, emit_report, summarize

EXPLORATORY = float("inf")


class Environment:
    """Lazily built model, spin group and context shared by the checks of one
    run.  Only the tomita and rep suites read the context."""

    def __init__(self, config):
        self.config = config
        self.tol = TolerancePolicy(config.eq_tol, config.rank_tol)

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
    """Builds the records of one suite.  Each record's wall_time is the time
    since the previous record, the first record's since the recorder was made."""

    def __init__(self, suite):
        self.suite = suite
        self.records = []
        self.last = time.perf_counter()

    def __call__(self, name, anchor, residual, tolerance, samples):
        now = time.perf_counter()
        self.records.append(CheckRecord(self.suite, name, anchor, float(residual), tolerance,
                                        now - self.last, samples))
        self.last = now


# ---------------------------------------------------------------- clifford

def clifford_checks(env):
    record = _Recorder("clifford")
    cfg, model, tol = env.config, env.model, env.tol

    # complete on the generators; one sampled pair exercises pi_vector
    worst_ac, worst_star = cliff.generator_relation_residuals(model)
    rng = env.rng("clifford anticommutation")
    v = rng.standard_normal(model.dim_h) + 1j * rng.standard_normal(model.dim_h)
    w = rng.standard_normal(model.dim_h) + 1j * rng.standard_normal(model.dim_h)
    worst_ac = max(worst_ac, cliff.anticommutator_residual(model, v, w))
    worst_star = max(worst_star, cliff.star_residual(model, v))
    m = model.dim_h
    record("anticommutation", "generator anticommutator", worst_ac, 1e-10, m * (m + 1) // 2 + 1)
    record("star relation", "adjoint versus conjugate vector", worst_star, 1e-10, m + 1)

    L = model.lagrangian
    m = model.lattice.modes
    res = max(maxabs(L.conj().T @ L - np.eye(m)), maxabs(L.T @ L))
    record("lagrangian", "orthonormal and isotropic", res, cfg.gate, 1)

    G = model.grading
    s = G.diagonal().real
    res = maxabs(G @ G - np.eye(model.fock_dim))
    res = max(res, maxabs(s[:, None] * model.generators * s + model.generators))
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
    record = _Recorder("bogoliubov")
    cfg, model, tol = env.config, env.model, env.tol
    D = model.dim_h

    rng = env.rng("implementer construction")
    probe_rng = env.rng("implementer uniqueness")
    dim_defect = 0.0
    relation = 0.0
    agreement = 0.0
    for _ in range(50):
        g = bog.random_special_orthogonal(D, rng)
        line = averaged_intertwiners(cliff.pi_columns(model, g), model.generators,
                                     bog.LINE_PROBES, probe_rng, tol)
        dim_defect = max(dim_defect, abs(line.shape[0] - 1))
        oracle = bog.implement_oracle(model, g, tol, rng)
        relation = max(relation, bog.implementation_residual(model, oracle.unitary, g))
        pin = bog.implement_pin(model, g, tol)
        no = bog.normalize_phase(oracle, "vacuum", tol)
        npi = bog.normalize_phase(pin, "vacuum", tol)
        if no.normalization == "vacuum" and npi.normalization == "vacuum":
            agreement = max(agreement, maxabs(no.unitary - npi.unitary))
        else:
            agreement = max(agreement, bog.projective_distance(no.unitary, npi.unitary))
    record("implementer uniqueness", "intertwiner space is a line", dim_defect, cfg.gate, 50)
    record("implementer relation", "conjugation realizes the rotation", relation, 1e-9, 50)
    record("pin oracle agreement", "two constructions, one unitary", agreement, cfg.gate, 50)

    rng = env.rng("extension cocycle")
    scal = 0.0
    ident = 0.0
    for _ in range(50):
        g = bog.random_special_orthogonal(D, rng)
        h = bog.random_special_orthogonal(D, rng)
        k = bog.random_special_orthogonal(D, rng)
        cgh = bog.extension_cocycle(model, g, h, tol)
        scal = max(scal, abs(abs(cgh) - 1.0))
        lhs = cgh * bog.extension_cocycle(model, g @ h, k, tol)
        rhs = bog.extension_cocycle(model, g, h @ k, tol) * bog.extension_cocycle(model, h, k, tol)
        ident = max(ident, abs(lhs - rhs))
    record("cocycle scalar", "triple product collapses to a phase", scal, cfg.gate, 50)
    record("cocycle identity", "associativity of the phase defect", ident, cfg.gate, 50)

    rng = env.rng("derived implementers")
    contract = 0.0
    linear = 0.0
    expmatch = 0.0
    for _ in range(10):
        X = bog.random_skew(D, rng)
        Y = bog.random_skew(D, rng)
        dX = bog.derived_implementer(model, X, tol)
        dY = bog.derived_implementer(model, Y, tol)
        dXY = bog.derived_implementer(model, X + Y, tol)
        linear = max(linear, maxabs(dX + dY - dXY))
        contract = max(contract, maxabs(dX @ model.generators[0] - model.generators[0] @ dX
                                        - cliff.pi_vector(model, X[:, 0].astype(complex))))
    theta = 0.7
    K = np.zeros((D, D))
    K[1, 0], K[0, 1] = 1.0, -1.0
    dK = bog.derived_implementer(model, K, tol)
    w, V = np.linalg.eigh(1j * theta * dK)
    U_exp = (V * np.exp(-1j * w)) @ V.conj().T
    g_rot = np.eye(D)
    g_rot[0, 0] = g_rot[1, 1] = np.cos(theta)
    g_rot[1, 0], g_rot[0, 1] = np.sin(theta), -np.sin(theta)
    U_pin = bog.normalize_phase(bog.implement_pin(model, g_rot, tol), "vacuum", tol).unitary
    expmatch = bog.projective_distance(U_exp, U_pin)
    record("derived linearity", "quadratic generator is linear", linear, cfg.gate, 10)
    record("derived contract", "commutator reproduces the generator", contract, cfg.gate, 10)
    record("derived exponential", "one-parameter rotation matches", expmatch, cfg.gate, 1)

    rng = env.rng("schwinger term")
    bilin = 0.0
    jacobi = 0.0
    for _ in range(20):
        X, Y, Z = (bog.random_skew(D, rng) for _ in range(3))
        a, b = rng.standard_normal(2)
        sXY = bog.schwinger_term(model, X, Y, tol)
        bilin = max(bilin, abs(sXY + bog.schwinger_term(model, Y, X, tol)))
        bilin = max(bilin, abs(bog.schwinger_term(model, a * X + b * Y, Z, tol)
                               - a * bog.schwinger_term(model, X, Z, tol)
                               - b * bog.schwinger_term(model, Y, Z, tol)))
        comm = lambda P, Q: P @ Q - Q @ P
        jacobi = max(jacobi, abs(bog.schwinger_term(model, comm(X, Y), Z, tol)
                                 + bog.schwinger_term(model, comm(Y, Z), X, tol)
                                 + bog.schwinger_term(model, comm(Z, X), Y, tol)))
    record("schwinger bilinear", "anomaly is an antisymmetric form", bilin, cfg.gate, 20)
    record("schwinger jacobi", "cocycle identity of the anomaly", jacobi, cfg.gate, 20)
    return record.records


# ------------------------------------------------------------------ tomita

def tomita_checks(env):
    record = _Recorder("tomita")
    cfg, model, tol = env.config, env.model, env.tol
    ctx = env.ctx
    N = model.fock_dim
    A = ctx.algebra
    sfd = ctx.sfd

    status = alg_mod.cyclic_separating_check(A, model.vacuum, tol)
    record("cyclic separating", "vacuum is cyclic and separating", 0.0 if bool(status) else 1.0, cfg.gate, 1)

    Ms = sfd.tomita.linear
    Mj = sfd.conjugation.linear
    delta = sfd.delta
    w, V = np.linalg.eigh(delta)
    half = (V * np.sqrt(w)) @ V.conj().T
    # Delta^{-1} = S S^* exactly when S S = 1, which this record checks too
    inv = Ms @ Ms.conj().T
    res = max(
        maxabs(Ms @ np.conj(Ms) - np.eye(N)),
        maxabs(Mj @ np.conj(Mj) - np.eye(N)),
        maxabs(Ms - Mj @ np.conj(half)) / max(1.0, maxabs(half)),
        maxabs(sfd.conjugation.conjugate_matrix(delta) - inv) / max(1.0, maxabs(inv)),
        maxabs(Ms @ np.conj(model.vacuum) - model.vacuum),
        maxabs(delta @ model.vacuum - model.vacuum),
    )
    record("modular identities", "polar pieces of the star map", res, 1e-9, 1)

    comm = ctx.algebra_comm
    # J is antiunitary and A.basis orthonormal, so J A J has orthonormal rows,
    # and inside the commutant with its dimension it is all of it
    inside = max(span_residual(sfd.conjugation.conjugate_matrix(a), comm.basis)
                 for a in row_chunks(A.basis))
    res = max(inside, 0.0 if A.dim == comm.dim else 1.0)
    record("conjugation onto commutant", "J maps the algebra onto its commutant", res, 1e-9, 1)

    res = rep.check_twisted_duality(ctx)
    record("twisted duality", "half algebras are mutual super commutants",
           max(res.values()), cfg.gate, 1)

    # commuting with the generators is commuting with the algebra they generate
    gens = A.constraint_generators()
    pairwise = max(maxabs(g @ c - c @ g) for c in row_chunks(comm.basis) for g in gens)
    dim_defect = 0.0 if A.dim * comm.dim == N * N else 1.0
    record("double commutant", "commutant dimensions multiply to the full algebra",
           max(pairwise, dim_defect), cfg.gate, 1)

    rng = env.rng("haagerup implementation")
    units = rep.UnitaryInAlgebraGroup(A)
    act_res, j_res, cone_res, mult_res, kernel_res = 0.0, 0.0, 0.0, 0.0, 0.0
    for _ in range(20):
        theta = alg_mod.conjugation_action(units.sample(rng), A)
        theta2 = alg_mod.conjugation_action(units.sample(rng), A)
        U, act, jcomm = alg_mod.canonical_implementation(sfd, A, theta, tol, rng=rng)
        act_res = max(act_res, act)
        j_res = max(j_res, jcomm)
        probe = A.from_coordinates(rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim))
        cone_res = max(cone_res, sfd.cone_defect(U @ (probe @ sfd.reflect(probe) @ sfd.omega)))
        U2 = alg_mod.canonical_implementation(sfd, A, theta2, tol, rng=rng).unitary
        U12 = alg_mod.canonical_implementation(sfd, A, theta.compose(theta2), tol, rng=rng).unitary
        mult_res = max(mult_res, maxabs(U @ U2 - U12))
        # kernel identity: for u in A, JuJ lies in the commutant, so
        # conjugation by JuJ is the identity on A, decided on its generators
        W = sfd.reflect(units.sample(rng))
        kernel_res = max(kernel_res, maxabs(W @ gens @ W.conj().T - gens))
    record("canonical action", "implementation acts as the automorphism", act_res, 1e-9, 20)
    record("canonical J commutation", "implementation commutes with J", j_res, 1e-9, 20)
    record("canonical cone", "implementation preserves the positive cone", cone_res, 1e-9, 20)
    record("canonical multiplicative", "implementation is a homomorphism", mult_res, cfg.gate, 20)
    record("action kernels", "algebra unitaries act trivially on the mirror side", kernel_res, cfg.gate, 20)
    return record.records


# --------------------------------------------------------------- two-group

def _builtin_crossed_modules():
    z4 = tg.FiniteGroup.cyclic(4)
    s3 = tg.FiniteGroup.symmetric(3)
    builtins = [tg.delooping(z4), tg.discrete(s3), tg.delooping(tg.FiniteGroup.cyclic(2)),
                tg.discrete(tg.FiniteGroup.cyclic(6))]
    return builtins


def twogroup_checks(env):
    record = _Recorder("two-group")
    cfg, tol = env.config, env.tol
    samples = cfg.samples

    worst = 0.0
    for cm in _builtin_crossed_modules():
        res = tg.check_crossed_module(cm, samples, env.rng(f"axioms {cm.name}"))
        worst = max(worst, *res.values())
    record("finite crossed modules", "axioms on the stock examples", worst, cfg.gate, samples)

    s3 = tg.FiniteGroup.symmetric(3)
    bad = tg.delooping(s3)
    res = tg.check_crossed_module(bad, samples, env.rng("nonabelian fiber"))
    detected = res["peiffer"] > 0.5
    record("peiffer detects nonabelian", "delooped nonabelian group fails",
           0.0 if detected else 1.0, cfg.gate, samples)

    aut = tg.matrix_automorphism_module(2)
    res = tg.check_crossed_module(aut, 50, env.rng("matrix automorphisms"))
    record("matrix automorphism module", "units over conjugations",
           max(res.values()), cfg.gate, 50)

    z2, z4cm = tg.delooping(tg.FiniteGroup.cyclic(2)), tg.delooping(tg.FiniteGroup.cyclic(4))
    incl = tg.inclusion_intertwiner(2, z2, z4cm)
    res = tg.check_intertwiner(incl, z2, z4cm, samples, env.rng("inclusion"))
    record("inclusion intertwiner", "doubling map between deloopings",
           max(res.values()), cfg.gate, samples)
    broken = tg.StrictIntertwiner(on_base=incl.on_base, on_fiber=lambda h: (h * h + 1) % 4, name="broken")
    res = tg.check_intertwiner(broken, z2, z4cm, samples, env.rng("broken map"))
    record("intertwiner detects defect", "non-homomorphism is flagged",
           0.0 if max(res.values()) > 0.5 else 1.0, cfg.gate, samples)

    round_trip = 0.0
    minimal = 0.0
    composition = 0.0
    for cm in _builtin_crossed_modules() + [tg.matrix_automorphism_module(2)]:
        two = tg.to_two_group(cm)
        rng = env.rng(f"round trip {cm.name}")
        minimal = max(minimal, *tg.check_minimal_data(two, 50, rng).values())
        back = tg.to_crossed_module(two)
        round_trip = max(round_trip, *tg.check_crossed_module(back, 50, rng).values())
        for _ in range(20):
            h = cm.fiber.sample(rng)
            g = cm.base.sample(rng)
            round_trip = max(round_trip, cm.base.dist(back.t((h, cm.base.identity())), cm.t(h)))
            round_trip = max(round_trip,
                             cm.fiber.dist(back.act(g, (h, cm.base.identity()))[0], cm.act(g, h)))
        composition = max(composition, *tg.check_interchange(two, 30, rng, tol).values())
        x = two.morphisms.sample(rng)
        left = tg.compose_morphisms(two, tg.invert_morphism(two, x), x, tol)
        composition = max(composition, two.morphisms.dist(left, two.unit(two.source(x))))
        g = two.objects.sample(rng)
        composition = max(composition,
                          two.morphisms.dist(tg.compose_morphisms(two, two.unit(g), two.unit(g), tol),
                                             two.unit(g)))
    record("functor round trip", "crossed module survives the 2-group detour", round_trip, 1e-10, 50)
    record("minimal data", "section and kernel conditions", minimal, cfg.gate, 50)
    record("composition laws", "interchange, units and inverses", composition, cfg.gate, 30)

    rng = env.rng("pi structure")
    z4 = tg.FiniteGroup.cyclic(4)
    ba = tg.delooping(z4)
    pi = tg.pi0_pi1(ba, rng, 50, tol=tol)
    res = pi.centrality
    res = max(res, 0.0 if all(pi.pi1_contains(h) for h in z4.elements) else 1.0)
    res = max(res, 0.0 if pi.pi0_equal(0, 0) else 1.0)
    s3 = tg.FiniteGroup.symmetric(3)
    dis = tg.discrete(s3)
    pi = tg.pi0_pi1(dis, rng, 50, tol=tol)
    eq01 = pi.pi0_equal(s3.elements[0], s3.elements[1])
    res = max(res, 1.0 if eq01 else 0.0)
    record("pi structure", "kernel and quotient of the stock examples", res, cfg.gate, 50)
    return record.records


# ------------------------------------------------------------------ string

def string_checks(env):
    record = _Recorder("string")
    cfg, model, tol = env.config, env.model, env.tol
    spin = env.spin
    d = model.d

    rng = env.rng("spin covering")
    res = maxabs(spin.covering(spin.identity()) - np.eye(d))
    res = max(res, maxabs(spin.covering(-spin.identity()) - np.eye(d)))
    if d >= 2:   # a fixed rotation in the (0, 1) plane
        theta = 0.9
        B = np.zeros((d, d))
        B[1, 0], B[0, 1] = theta, -theta
        R = np.eye(d)
        R[0, 0] = R[1, 1] = np.cos(theta)
        R[1, 0], R[0, 1] = np.sin(theta), -np.sin(theta)
        res = max(res, maxabs(spin.covering(lp.spin_exp(B, spin.gammas)) - R))
    for _ in range(50):
        x, y = spin.sample(rng), spin.sample(rng)
        res = max(res, maxabs(spin.covering(x @ y) - spin.covering(x) @ spin.covering(y)))
        lam = spin.covering(x)
        res = max(res, maxabs(lam.T @ lam - np.eye(d)))
        res = max(res, abs(np.linalg.det(lam) - 1.0))
    record("spin covering", "double cover onto rotations", res, cfg.gate, 50)

    rng = env.rng("pointwise action")
    paths = lp.PathGroup(model.n, spin)
    res = 0.0
    for _ in range(50):
        a = spin.samples(rng, 2 * model.n)
        b = spin.samples(rng, 2 * model.n)
        res = max(res, maxabs(lp.omega_matrix(model, spin, a @ b)
                              - lp.omega_matrix(model, spin, a) @ lp.omega_matrix(model, spin, b)))
    record("orthogonal action", "pointwise rotations form a homomorphism", res, cfg.gate, 50)

    rng = env.rng("paths and doubling")
    res = maxabs(lp.double_path(paths.identity(), tol) - lp.loop_identity(model.n, spin))
    for _ in range(20):
        p, q = paths.sample_common_end(rng, 2)
        loop = lp.concat_paths(p, q, tol)
        res = max(res, maxabs(loop[model.n] - p[model.n]))
        res = max(res, maxabs(loop[0] - spin.identity()))
        half = lp.half_supported_loop(model.n, spin, rng)
        back = lp.concat_paths(lp.restrict_loop(half, tol), paths.identity(), tol)
        res = max(res, maxabs(back - half))
    record("path doubling", "concatenation and restriction bookkeeping", res, cfg.gate, 20)

    rng = env.rng("lift structure")
    res_proj = 0.0
    res_scan = 0.0
    for _ in range(20):
        a = spin.samples(rng, 2 * model.n)
        b = spin.samples(rng, 2 * model.n)
        ext_a = lp.lift(model, spin, a, tol)
        Ua = ext_a.unitary
        Ub = lp.lift(model, spin, b, tol).unitary
        Uab = lp.lift(model, spin, a @ b, tol).unitary
        defect, lam = scalar_defect(Ua @ Ub @ Uab.conj().T)
        res_proj = max(res_proj, defect, abs(abs(lam) - 1.0))
        rescan = bog.normalize_phase(ext_a.implementer, "scan", tol).unitary
        sdef, slam = scalar_defect(rescan @ Ua.conj().T)
        res_scan = max(res_scan, max(sdef, abs(abs(slam) - 1.0)))
    record("projective lifts", "lift products differ by a phase", res_proj, cfg.gate, 20)
    record("lift ambiguity", "renormalized lifts differ by a phase", res_scan, cfg.gate, 20)

    string_cm = lp.string_crossed_module(model, spin, tol)
    res = tg.check_crossed_module(string_cm, 100, env.rng("string axioms"))
    record("string crossed module", "equivariance and peiffer", max(res.values()), cfg.gate, 100)

    rng = env.rng("disjoint supports")
    res = 0.0
    overlap = 0.0
    for _ in range(50):
        first, second = lp.disjoint_support_pair(model, spin, rng)
        U1 = lp.lift(model, spin, first, tol).unitary
        U2 = lp.lift(model, spin, second, tol).unitary
        res = max(res, maxabs(U1 @ U2 - U2 @ U1))
    for _ in range(5):
        a = spin.samples(rng, 2 * model.n)
        b = spin.samples(rng, 2 * model.n)
        Ua, Ub = lp.lift(model, spin, a, tol).unitary, lp.lift(model, spin, b, tol).unitary
        overlap = max(overlap, maxabs(Ua @ Ub - Ub @ Ua))
    record("disjoint commutativity", "separated half loops commute", res, cfg.gate, 50)
    record("overlapping supports", "generic loops fail to commute (reported)", overlap, EXPLORATORY, 5)

    rng = env.rng("reflection")
    tau = lp.vertex_reflection(model)
    res = maxabs(tau @ tau - np.eye(model.dim_h))
    res = max(res, maxabs(tau @ model.lagrangian + np.conj(model.lagrangian)))
    for _ in range(10):
        p, q = paths.sample_common_end(rng, 2)
        gpq = lp.omega_matrix(model, spin, lp.concat_paths(p, q, tol))
        gqp = lp.omega_matrix(model, spin, lp.concat_paths(q, p, tol))
        res = max(res, maxabs(lp.reflect_orthogonal(tau, gpq) - gqp))
    record("vertex reflection", "reversal swaps concatenated halves", res, cfg.gate, 10)

    rng = env.rng("endpoint section")
    fiber = string_cm.fiber
    res = 0.0
    for _ in range(20):
        ext = fiber.sample(rng)
        res = max(res, maxabs(lp.restrict_loop(ext.loop, tol)[model.n] - spin.identity()))
    record("endpoint section", "restricted half loops end at the identity", res, cfg.gate, 20)

    rng = env.rng("loop cocycle")
    xi = lp.random_loop_algebra(model, rng)
    eta = lp.random_loop_algebra(model, rng)
    cmp = lp.loop_cocycle_compare(model, xi, eta, tol)
    record("loop cocycle comparison",
           "discrete pairing versus commutator anomaly (reported)",
           abs(cmp["difference"]), EXPLORATORY, 1)
    anti = abs(lp.discrete_loop_cocycle_centered(xi, eta) + lp.discrete_loop_cocycle_centered(eta, xi))
    anti = max(anti, abs(bog.schwinger_term(model, lp.skew_from_loop_algebra(model, xi),
                                            lp.skew_from_loop_algebra(model, eta), tol)
                         + bog.schwinger_term(model, lp.skew_from_loop_algebra(model, eta),
                                              lp.skew_from_loop_algebra(model, xi), tol)))
    record("loop cocycle antisymmetry", "pairing changes sign under swap", anti, cfg.gate, 1)
    fwd = abs(lp.discrete_loop_cocycle(xi, eta) + lp.discrete_loop_cocycle(eta, xi))
    record("forward difference asymmetry",
           "lattice defect of the one-sided pairing (reported)", fwd, EXPLORATORY, 1)
    return record.records


# --------------------------------------------------------------------- rep

def rep_checks(env):
    record = _Recorder("rep")
    cfg, tol = env.config, env.tol
    ctx = env.ctx

    res = rep.check_membership_evenness(ctx, 50, env.rng("fiber membership"))
    record("fiber lands in the algebra", "even unitaries inside the span",
           max(res.values()), cfg.gate, 50)
    res = rep.check_t_compatibility(ctx, 100, env.rng("t compatibility"))
    record("t compatibility", "restriction matches conjugation", max(res.values()), cfg.gate, 100)
    res = rep.check_alpha_compatibility(ctx, 100, env.rng("action compatibility"))
    record("action compatibility", "doubling action matches evaluation",
           max(res.values()), cfg.gate, 100)
    res = rep.check_well_definedness(ctx, 50, env.rng("well definedness"))
    record("well definedness", "only the first half matters", max(res.values()), cfg.gate, 50)

    R = rep.representation_intertwiner(ctx)
    res = tg.check_intertwiner(R, ctx.string_cm, ctx.unitary_cm, 50, env.rng("full intertwiner"))
    record("strict intertwiner", "both compatibilities and both homomorphisms",
           max(res.values()), cfg.gate, 50)

    ff = rep.check_fusion_factorization(ctx, 12, env.rng("fusion factorization"))
    record("fusion factorization", "section, homomorphism, J commutation",
           max(ff["loop component exact"], ff["homomorphism"], ff["J commutation"]), cfg.gate, 12)
    record("fusion factorization implements",
           "canonical unitary versus the vertex-doubled rotation (reported)",
           ff["vertex doubled"], EXPLORATORY, 12)
    record("canonical unit edge law",
           "canonical unitary implements the edge-doubled rotation (reported)",
           ff["edge doubled"], EXPLORATORY, 12)

    f = rep.check_f_scalar(ctx, 20, env.rng("unit comparison"))
    record("unit comparison scalar", "canonical and lifted units differ by a phase",
           f["scalar defect"], cfg.gate, 20)
    record("unit comparison value", "observed deviation of the phase from one (reported)",
           f["scalar minus one"], EXPLORATORY, 20)

    pair_tg = rep.pair_two_group(ctx)
    norm_tg = rep.normalizer_two_group(ctx)
    res = tg.check_minimal_data(pair_tg, 12, env.rng("pair minimal data"))
    unit_res = res.pop("i homomorphism")
    record("pair 2-group minimal data", "sections and commuting kernels",
           max(res.values()), cfg.gate, 12)
    record("pair 2-group unit multiplicativity",
           "pointwise unit section is a homomorphism", unit_res, cfg.gate, 12)
    sign_report = rep.unit_sign_cocycle(ctx, 20, env.rng("unit sign cocycle"))
    record("unit section sign cocycle",
           "worst distance of the lift cocycle from +-1 (reported)",
           sign_report["distance from signs"], EXPLORATORY, 20)
    record("unit section sign frequency",
           "fraction of sampled pairs on the negative branch (reported)",
           sign_report["negative fraction"], EXPLORATORY, 20)
    res = tg.check_minimal_data(norm_tg, 8, env.rng("normalizer minimal data"))
    record("normalizer 2-group minimal data", "sections and commuting kernels",
           max(res.values()), cfg.gate, 8)

    res = rep.check_two_group_compatibility(ctx, 25, env.rng("2-group compatibility"))
    record("2-group target compatibility", "targets intertwine", res["target"], cfg.gate, 25)
    record("2-group source compatibility", "sources intertwine on interior loops",
           res["source (interior class)"], cfg.gate, 25)
    record("2-group source shifted", "source equals the edge-reversed conjugation (reported)",
           res["source vs edge-reversed loop"], EXPLORATORY, 25)

    mod = rep.modular_vs_reflection(ctx, 8, env.rng("modular reflection"))
    record("mirror is a rotation", "J conjugation stays Bogoliubov (reported)",
           mod["bogoliubov defect"], EXPLORATORY, 8)
    record("mirror vs vertex reflection", "moved-coordinate defect (reported)",
           mod["vertex moved"], EXPLORATORY, 8)
    record("mirror vs vertex reflection fixed", "fixed-coordinate defect (reported)",
           mod["vertex fixed"], EXPLORATORY, 8)
    record("mirror vs edge reflection", "edge-reversal defect (reported)", mod["edge"], EXPLORATORY, 8)

    res = rep.check_pi_levels(ctx, 20, env.rng("pi levels"))
    record("central fiber identity", "phases map to phases", res["central identity"], 1e-10, 20)
    record("centrality", "phases are fixed by the action", res["centrality"], 1e-10, 20)
    record("endpoint inner difference", "equal endpoints differ by an inner twist",
           res["endpoint inner difference"], cfg.gate, 20)
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
    """Execute the configured suites; returns (exit_code, records)."""
    config.validate()
    env = Environment(config)
    records = [r for suite in config.ordered_suites() for r in SUITES[suite](env)]
    return (1 if summarize(records)["failed"] else 0), records


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
