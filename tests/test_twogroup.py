import numpy as np
import pytest

from loopfock.errors import NotComposable
from loopfock.twogroup import (FiniteGroup, SemidirectGroup, StrictIntertwiner,
                               check_crossed_module, check_interchange,
                               check_intertwiner, check_minimal_data,
                               compose_morphisms, compose_morphisms_target_form, delooping, discrete,
                               inclusion_intertwiner, invert_morphism,
                               matrix_automorphism_module, pi0_pi1,
                               to_crossed_module, to_two_group)

rng = np.random.default_rng(41)


class TestFiniteGroups:
    def test_cyclic_laws(self):
        z6 = FiniteGroup.cyclic(6)
        for a in z6.elements:
            assert z6.mul(a, z6.inv(a)) == z6.identity()

    def test_symmetric_laws(self):
        s3 = FiniteGroup.symmetric(3)
        assert len(s3.elements) == 6
        for a in s3.elements:
            for b in s3.elements:
                ab = s3.mul(a, b)
                assert ab in s3.elements
                assert s3.mul(s3.inv(ab), ab) == s3.identity()


class TestCrossedModuleChecks:
    def test_abelian_delooping_passes(self):
        res = check_crossed_module(delooping(FiniteGroup.cyclic(4)), 200, np.random.default_rng(0))
        assert max(res.values()) <= 1e-9

    def test_group_as_crossed_module_passes(self):
        res = check_crossed_module(discrete(FiniteGroup.symmetric(3)), 200, np.random.default_rng(0))
        assert max(res.values()) <= 1e-9

    def test_nonabelian_delooping_fails_peiffer(self):
        res = check_crossed_module(delooping(FiniteGroup.symmetric(3)), 200, np.random.default_rng(0))
        assert res["peiffer"] > 0.5
        clean = {k: v for k, v in res.items() if k != "peiffer"}
        assert max(clean.values()) == 0.0

    def test_matrix_automorphism_module_passes(self):
        res = check_crossed_module(matrix_automorphism_module(2), 60, np.random.default_rng(3))
        assert max(res.values()) <= 1e-9


class TestIntertwiners:
    def test_identity_intertwiner(self):
        cm = delooping(FiniteGroup.cyclic(4))
        ident = StrictIntertwiner(on_base=lambda g: g, on_fiber=lambda h: h)
        assert max(check_intertwiner(ident, cm, cm, 100, np.random.default_rng(0)).values()) <= 1e-9

    def test_doubling_inclusion(self):
        z2 = delooping(FiniteGroup.cyclic(2))
        z4 = delooping(FiniteGroup.cyclic(4))
        incl = inclusion_intertwiner(2, z2, z4)
        assert max(check_intertwiner(incl, z2, z4, 100, np.random.default_rng(0)).values()) <= 1e-9

    def test_non_homomorphism_detected(self):
        z2 = delooping(FiniteGroup.cyclic(2))
        z4 = delooping(FiniteGroup.cyclic(4))
        broken = StrictIntertwiner(on_base=lambda g: 0, on_fiber=lambda h: h + 1)
        res = check_intertwiner(broken, z2, z4, 100, np.random.default_rng(0))
        assert max(res.values()) > 0.5


class TestFunctors:
    def test_discrete_group_round(self):
        g = FiniteGroup.symmetric(3)
        tg = to_two_group(discrete(g))
        for x in tg.morphisms.elements:
            assert tg.source(x) == tg.target(x)
        assert max(check_minimal_data(tg, 100, np.random.default_rng(0)).values()) <= 1e-9

    def test_delooping_two_group(self):
        tg = to_two_group(delooping(FiniteGroup.cyclic(2)))
        assert len(tg.morphisms.elements) == 2
        assert max(check_minimal_data(tg, 100, np.random.default_rng(0)).values()) <= 1e-9

    @pytest.mark.parametrize("make", [
        lambda: delooping(FiniteGroup.cyclic(4)),
        lambda: discrete(FiniteGroup.symmetric(3)),
        lambda: matrix_automorphism_module(2),
    ])
    def test_round_trip_structure(self, make):
        cm = make()
        tg = to_two_group(cm)
        back = to_crossed_module(tg)
        assert max(check_crossed_module(back, 60, np.random.default_rng(0)).values()) <= 1e-9
        local = np.random.default_rng(1)
        for _ in range(20):
            h = cm.fiber.sample(local)
            g = cm.base.sample(local)
            assert cm.base.dist(back.t((h, cm.base.identity())), cm.t(h)) < 1e-10
            assert cm.fiber.dist(back.act(g, (h, cm.base.identity()))[0], cm.act(g, h)) < 1e-10

    def test_kernel_projection_lands_in_kernel(self):
        tg = to_two_group(matrix_automorphism_module(2))
        back = to_crossed_module(tg)
        local = np.random.default_rng(2)
        for _ in range(10):
            h = back.fiber.sample(local)
            assert tg.objects.dist(tg.source(h), tg.objects.identity()) < 1e-10


class TestComposition:
    def test_units_compose_to_units(self):
        tg = to_two_group(discrete(FiniteGroup.symmetric(3)))
        for g in tg.objects.elements:
            u = tg.unit(g)
            assert tg.morphisms.dist(compose_morphisms(tg, u, u), u) == 0.0

    def test_inverse_then_compose(self):
        tg = to_two_group(matrix_automorphism_module(2))
        local = np.random.default_rng(4)
        for _ in range(10):
            x = tg.morphisms.sample(local)
            left = compose_morphisms(tg, invert_morphism(tg, x), x)
            assert tg.morphisms.dist(left, tg.unit(tg.source(x))) < 1e-9

    def test_interchange(self):
        tg = to_two_group(matrix_automorphism_module(2))
        assert max(check_interchange(tg, 30, np.random.default_rng(5)).values()) <= 1e-9

    def test_nan_source_is_not_composable(self):
        tg = to_two_group(matrix_automorphism_module(2))
        x = tg.morphisms.sample(np.random.default_rng(4))
        y = tg.unit(tg.source(x))
        planted = (x[0], x[1].copy())
        planted[1][0, 0] = np.nan
        for compose in (compose_morphisms, compose_morphisms_target_form):
            assert tg.morphisms.dist(compose(tg, x, y), x) < 1e-9
            with np.errstate(invalid="ignore"), pytest.raises(NotComposable):
                compose(tg, planted, y)

    def test_not_composable_raises(self):
        tg = to_two_group(discrete(FiniteGroup.symmetric(3)))
        x = (0, (1, 0, 2))
        y = (0, (0, 2, 1))
        with pytest.raises(NotComposable):
            compose_morphisms(tg, x, y)


class TestPiStructure:
    def test_delooping(self):
        z4 = FiniteGroup.cyclic(4)
        cm = delooping(z4)
        pi = pi0_pi1(cm, np.random.default_rng(0), 50)
        assert all(pi.pi1_contains(h) for h in z4.elements)
        assert pi.pi0_equal(0, 0)
        assert pi.centrality == 0.0

    def test_discrete(self):
        s3 = FiniteGroup.symmetric(3)
        cm = discrete(s3)
        pi = pi0_pi1(cm, np.random.default_rng(0), 50)
        assert pi.pi1_contains(cm.fiber.identity())
        assert not pi.pi0_equal(s3.elements[0], s3.elements[1])
        assert pi.pi0_equal(s3.elements[2], s3.elements[2])


class TestSemidirect:
    def test_distance_reads_nan_in_either_component(self):
        cm = matrix_automorphism_module(2)
        sd = SemidirectGroup(cm.fiber, cm.base, cm.act)
        x = sd.sample(np.random.default_rng(6))
        for k in range(2):
            y = list(x)
            y[k] = x[k].copy()
            y[k][0, 0] = np.nan
            with np.errstate(invalid="ignore"):
                assert np.isnan(sd.dist(x, tuple(y))) and np.isnan(sd.dist(tuple(y), x))

    def test_inverse_law(self):
        s3 = FiniteGroup.symmetric(3)
        cm = discrete(s3)
        sd = SemidirectGroup(cm.fiber, cm.base, cm.act)
        local = np.random.default_rng(6)
        for _ in range(20):
            x = sd.sample(local)
            assert sd.dist(sd.mul(x, sd.inv(x)), sd.identity()) == 0.0
