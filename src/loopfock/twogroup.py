"""Generic crossed modules and strict 2-groups over pluggable groups.

Groups are value objects with tolerance-aware equality and seeded random
sampling.  Each axiom checker returns linalg.worst of its draws: a dict from
identity name to its worst residual, whose .draws counts the tuples
checked, every tuple of small finite groups and sample_count draws from the
caller's rng otherwise; the caller decides what to gate.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotComposable
from .linalg import DEFAULT_TOL, maxabs, sup, worst


class ComputableGroup:
    """Interface: identity, mul, inv, dist, sample."""

    name = "group"
    elements = None  # populated for finite groups

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def dist(self, a, b):
        raise NotImplementedError

    def sample(self, rng):
        raise NotImplementedError

    def eq(self, a, b, tol=DEFAULT_TOL):
        return self.dist(a, b) <= tol.eq_tol

    def conj(self, a, b):
        """a b a^{-1}"""
        return self.mul(self.mul(a, b), self.inv(a))


class FiniteGroup(ComputableGroup):
    """Group on hashable elements given by explicit operations."""

    def __init__(self, elements, mul, inv, identity, name="finite"):
        self.elements = list(elements)
        self._mul, self._inv, self._id = mul, inv, identity
        self.name = name

    def identity(self):
        return self._id

    def mul(self, a, b):
        return self._mul(a, b)

    def inv(self, a):
        return self._inv(a)

    def dist(self, a, b):
        return 0.0 if a == b else 1.0

    def sample(self, rng):
        return self.elements[int(rng.integers(0, len(self.elements)))]

    @staticmethod
    def cyclic(k):
        return FiniteGroup(range(k), lambda a, b: (a + b) % k, lambda a: (-a) % k, 0, name=f"Z{k}")

    @staticmethod
    def symmetric(n):
        elements = [tuple(p) for p in itertools.permutations(range(n))]

        def mul(p, q):
            return tuple(p[q[i]] for i in range(n))

        def inv(p):
            out = [0] * n
            for i, v in enumerate(p):
                out[v] = i
            return tuple(out)

        return FiniteGroup(elements, mul, inv, tuple(range(n)), name=f"S{n}")

    @staticmethod
    def trivial():
        return FiniteGroup([0], lambda a, b: 0, lambda a: 0, 0, name="1")


class MatrixGroup(ComputableGroup):
    """Matrix group with max-abs entry distance; subclasses fix sampling."""

    def __init__(self, dim, name="matrix"):
        self.dim = dim
        self.name = name

    def identity(self):
        return np.eye(self.dim, dtype=complex)

    def mul(self, a, b):
        return a @ b

    def inv(self, a):
        return np.linalg.inv(a)

    def dist(self, a, b):
        return maxabs(np.asarray(a) - np.asarray(b))


class UnitaryGroup(MatrixGroup):
    """Unitary matrices, or stacks of them: the inverse is the conjugate
    transpose over the last two axes; subclasses fix sampling."""

    def inv(self, a):
        return np.conj(np.swapaxes(a, -1, -2))


class GeneralLinearGroup(MatrixGroup):
    # conditioning bound keeps inverse-based residuals far below the gates
    MAX_COND = 20.0

    def __init__(self, dim):
        super().__init__(dim, name=f"GL{dim}")

    def sample(self, rng):
        while True:
            g = rng.standard_normal((self.dim, self.dim)) + 1j * rng.standard_normal((self.dim, self.dim))
            if np.linalg.cond(g) < self.MAX_COND:
                return g


class ProjectiveUnitGroup(MatrixGroup):
    """Invertible matrices modulo scalars (inner automorphisms of the matrix
    algebra).

    Two elements define the same automorphism iff they are proportional, so
    equality is ray distance in the Frobenius sphere; this avoids the
    inverse-conditioning noise a conjugation-based comparison would carry.
    """

    def __init__(self, dim):
        super().__init__(dim, name=f"PGL{dim}")
        self._sampler = GeneralLinearGroup(dim)

    def dist(self, a, b):
        an = np.asarray(a) / np.linalg.norm(a)
        bn = np.asarray(b) / np.linalg.norm(b)
        return maxabs(an - np.vdot(bn, an) * bn)

    def sample(self, rng):
        return self._sampler.sample(rng)


@dataclass
class CrossedModule:
    """Groups H -t-> G with G acting on H."""

    base: ComputableGroup          # G
    fiber: ComputableGroup         # H
    t: callable
    act: callable                  # (g, h) -> h'
    name: str = "crossed module"


@dataclass
class TwoGroup:
    """Object and morphism groups with source, target and unit homomorphisms."""

    objects: ComputableGroup       # Gamma_0
    morphisms: ComputableGroup     # Gamma_1
    source: callable
    target: callable
    unit: callable
    name: str = "2-group"


@dataclass
class StrictIntertwiner:
    on_base: callable              # G -> G'
    on_fiber: callable             # H -> H'
    name: str = "intertwiner"


def _tuples(groups, sample_count, rng, cap=300_000):
    """Either the full product of small finite groups or sampled tuples."""
    if all(g.elements is not None and len(g.elements) <= 64 for g in groups):
        total = int(np.prod([len(g.elements) for g in groups]))
        if total <= cap:
            return itertools.product(*[g.elements for g in groups])
    return ([g.sample(rng) for g in groups] for _ in range(sample_count))


def check_crossed_module(cm, sample_count, rng):
    """Homomorphism, action, equivariance and Peiffer residuals."""
    G, H = cm.base, cm.fiber
    return worst({"t homomorphism": G.dist(cm.t(H.mul(h, k)), G.mul(cm.t(h), cm.t(k))),
                  "action homomorphism": H.dist(cm.act(g, H.mul(h, k)), H.mul(cm.act(g, h), cm.act(g, k))),
                  "action composition": H.dist(cm.act(G.mul(g, g2), h), cm.act(g, cm.act(g2, h))),
                  "action unit": H.dist(cm.act(G.identity(), h), h),
                  "equivariance": G.dist(cm.t(cm.act(g, h)), G.conj(g, cm.t(h))),
                  "peiffer": H.dist(cm.act(cm.t(h), k), H.conj(h, k))}
                 for g, g2, h, k in _tuples([G, G, H, H], sample_count, rng))


def check_intertwiner(R, cm, cm2, sample_count, rng):
    """Homomorphism laws for both components plus the two compatibilities."""
    G, H = cm.base, cm.fiber
    G2, H2 = cm2.base, cm2.fiber
    return worst({"base homomorphism": G2.dist(R.on_base(G.mul(g, gb)), G2.mul(R.on_base(g), R.on_base(gb))),
                  "fiber homomorphism": H2.dist(R.on_fiber(H.mul(h, hb)),
                                                H2.mul(R.on_fiber(h), R.on_fiber(hb))),
                  "t compatibility": G2.dist(R.on_base(cm.t(h)), cm2.t(R.on_fiber(h))),
                  "action compatibility": H2.dist(R.on_fiber(cm.act(g, h)),
                                                  cm2.act(R.on_base(g), R.on_fiber(h)))}
                 for g, gb, h, hb in _tuples([G, G, H, H], sample_count, rng))


class SemidirectGroup(ComputableGroup):
    """H x| G with (h, g)(h', g') = (h alpha_g(h'), g g')."""

    def __init__(self, fiber, base, act, name=None):
        self.fiber, self.base, self.act = fiber, base, act
        self.name = name or f"{fiber.name} x| {base.name}"
        if fiber.elements is not None and base.elements is not None:
            self.elements = [(h, g) for h in fiber.elements for g in base.elements]

    def identity(self):
        return (self.fiber.identity(), self.base.identity())

    def mul(self, a, b):
        return (self.fiber.mul(a[0], self.act(a[1], b[0])), self.base.mul(a[1], b[1]))

    def inv(self, a):
        ginv = self.base.inv(a[1])
        return (self.act(ginv, self.fiber.inv(a[0])), ginv)

    def dist(self, a, b):
        return sup((self.fiber.dist(a[0], b[0]), self.base.dist(a[1], b[1])))

    def sample(self, rng):
        return (self.fiber.sample(rng), self.base.sample(rng))


def to_two_group(cm):
    """Morphism group H x| G with s(h,g) = g, t(h,g) = t(h) g, i(g) = (1, g)."""
    morphisms = SemidirectGroup(cm.fiber, cm.base, cm.act)
    return TwoGroup(
        objects=cm.base,
        morphisms=morphisms,
        source=lambda x: x[1],
        target=lambda x: cm.base.mul(cm.t(x[0]), x[1]),
        unit=lambda g: (cm.fiber.identity(), g),
        name=f"2-group({cm.name})",
    )


class SourceKernelGroup(ComputableGroup):
    """ker(s) inside a 2-group's morphisms, sampled by the projection x i(s(x))^{-1}."""

    def __init__(self, tg):
        self.tg = tg
        self.name = f"ker s [{tg.name}]"
        M = tg.morphisms
        if M.elements is not None:
            self.elements = [x for x in M.elements
                             if tg.objects.dist(tg.source(x), tg.objects.identity()) == 0.0]

    def project(self, x):
        M = self.tg.morphisms
        return M.mul(x, M.inv(self.tg.unit(self.tg.source(x))))

    def identity(self):
        return self.tg.morphisms.identity()

    def mul(self, a, b):
        return self.tg.morphisms.mul(a, b)

    def inv(self, a):
        return self.tg.morphisms.inv(a)

    def dist(self, a, b):
        return self.tg.morphisms.dist(a, b)

    def sample(self, rng):
        return self.project(self.tg.morphisms.sample(rng))


def to_crossed_module(tg):
    """G = objects, H = ker(s), t = target restriction, action by unit conjugation."""
    H = SourceKernelGroup(tg)
    M = tg.morphisms

    def act(g, h):
        return M.conj(tg.unit(g), h)

    return CrossedModule(base=tg.objects, fiber=H, t=tg.target, act=act,
                         name=f"crossed module({tg.name})")


def compose_morphisms(tg, x, y, tol=DEFAULT_TOL):
    """x o y = x i(s(x))^{-1} y for s(x) = t(y)."""
    if not tg.objects.dist(tg.source(x), tg.target(y)) <= tol.eq_tol:
        raise NotComposable("source of x differs from target of y")
    M = tg.morphisms
    return M.mul(M.mul(x, M.inv(tg.unit(tg.source(x)))), y)


def compose_morphisms_target_form(tg, x, y, tol=DEFAULT_TOL):
    """Equivalent formula x i(t(y))^{-1} y, used as a consistency cross-check."""
    if not tg.objects.dist(tg.source(x), tg.target(y)) <= tol.eq_tol:
        raise NotComposable("source of x differs from target of y")
    M = tg.morphisms
    return M.mul(M.mul(x, M.inv(tg.unit(tg.target(y)))), y)


def invert_morphism(tg, x):
    """inv(x) = i(s(x)) x^{-1} i(t(x))."""
    M = tg.morphisms
    return M.mul(M.mul(tg.unit(tg.source(x)), M.inv(x)), tg.unit(tg.target(x)))


def check_minimal_data(tg, sample_count, rng):
    """Section and homomorphism laws plus commutation of the two kernels."""
    O, M = tg.objects, tg.morphisms

    def draw(g, g2, x, y):
        ker_s = M.mul(x, M.inv(tg.unit(tg.source(x))))
        ker_t = M.mul(y, M.inv(tg.unit(tg.target(y))))
        return {"s o i": O.dist(tg.source(tg.unit(g)), g),
                "t o i": O.dist(tg.target(tg.unit(g)), g),
                "s homomorphism": O.dist(tg.source(M.mul(x, y)), O.mul(tg.source(x), tg.source(y))),
                "t homomorphism": O.dist(tg.target(M.mul(x, y)), O.mul(tg.target(x), tg.target(y))),
                "i homomorphism": M.dist(tg.unit(O.mul(g, g2)), M.mul(tg.unit(g), tg.unit(g2))),
                "kernel commutation": M.dist(M.mul(ker_s, ker_t), M.mul(ker_t, ker_s))}
    return worst(draw(*tup) for tup in _tuples([O, O, M, M], sample_count, rng))


def check_interchange(tg, sample_count, rng, tol=DEFAULT_TOL):
    """(x o y)(x' o y') = (x x') o (y y') on composable samples.

    Composable pairs are manufactured by replacing x with a unit-corrected
    morphism so that s(x) = t(y) holds exactly.
    """
    M = tg.morphisms

    def draw():
        y, yb = M.sample(rng), M.sample(rng)
        x = _force_composable(tg, M.sample(rng), y)
        xb = _force_composable(tg, M.sample(rng), yb)
        lhs = M.mul(compose_morphisms(tg, x, y, tol), compose_morphisms(tg, xb, yb, tol))
        rhs = compose_morphisms(tg, M.mul(x, xb), M.mul(y, yb), tol)
        return {"interchange": M.dist(lhs, rhs),
                "composition forms agree": M.dist(compose_morphisms(tg, x, y, tol),
                                                  compose_morphisms_target_form(tg, x, y, tol))}
    return worst(draw() for _ in range(sample_count))


def _force_composable(tg, x, y):
    M, O = tg.morphisms, tg.objects
    fix = tg.unit(O.mul(O.inv(tg.source(x)), tg.target(y)))
    return M.mul(x, fix)


PI0_ATTEMPTS = 200   # fiber samples searched by pi0_equal outside finite groups


@dataclass
class PiReport:
    """pi_1 predicate/sampler, pi_0 equivalence predicate, centrality residual and its draws."""

    pi1_contains: callable
    pi0_equal: callable
    centrality: float
    draws: int


def pi0_pi1(cm, rng, sample_count, tol=DEFAULT_TOL):
    """Kernel and cokernel structure of t, with a centrality test of the action.

    pi1 membership is the predicate t(h) = 1.  pi0 equality of g, g' is
    decided by searching for h with g' = t(h) g among PI0_ATTEMPTS fiber
    samples (exact enumeration for small finite groups).
    """
    G, H = cm.base, cm.fiber

    def pi1_contains(h):
        return G.eq(cm.t(h), G.identity(), tol)

    def pi0_equal(g, g2):
        pool = H.elements if H.elements is not None else (H.sample(rng) for _ in range(PI0_ATTEMPTS))
        for h in pool:
            if G.eq(g2, G.mul(cm.t(h), g), tol):
                return True
        return False

    def centrality():
        h = H.sample(rng)
        return {"centrality": H.dist(cm.act(G.sample(rng), h), h)} if pi1_contains(h) else {}
    central = worst(centrality() for _ in range(sample_count))
    return PiReport(pi1_contains, pi0_equal, central.get("centrality", 0.0), central.draws)


def delooping(abelian_group):
    """A -> 1 with the trivial action; Peiffer forces A abelian."""
    trivial = FiniteGroup.trivial()
    return CrossedModule(base=trivial, fiber=abelian_group,
                         t=lambda h: trivial.identity(),
                         act=lambda g, h: h,
                         name=f"B({abelian_group.name})")


def discrete(group):
    """1 -> G, the group seen as a crossed module with trivial fiber."""
    trivial = FiniteGroup.trivial()
    return CrossedModule(base=group, fiber=trivial,
                         t=lambda h: group.identity(),
                         act=lambda g, h: h,
                         name=f"{group.name}_dis")


def inclusion_intertwiner(scale, source_cm, target_cm):
    """B(Z/k) -> B(Z/(k*scale)) induced by x -> scale*x."""
    return StrictIntertwiner(
        on_base=lambda g: target_cm.base.identity(),
        on_fiber=lambda h: (scale * h) % len(target_cm.fiber.elements),
        name=f"x -> {scale} x",
    )


def matrix_automorphism_module(dim=2):
    """Units of the d x d matrix algebra mapping onto its conjugation automorphisms."""
    units = GeneralLinearGroup(dim)
    autos = ProjectiveUnitGroup(dim)
    return CrossedModule(
        base=autos,
        fiber=units,
        t=lambda u: u,
        act=lambda g, u: g @ u @ np.linalg.inv(g),
        name=f"AUT(M{dim})",
    )
