import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopfock.clifford
import loopfock.loops
from loopfock.bogoliubov import Implementer, implement_pin, implementation_residual, normalize_phase
from loopfock.clifford import LiftCache, build_clifford_model, even_monomials
from loopfock.errors import EndpointMismatch, NotOrthogonal, NotSpecialOrthogonal
from loopfock.linalg import maxabs, scalar_defect
from loopfock.loops import (ExtLoopGroup, PathGroup, SpinGroup, concat_paths,
                            disjoint_support_pair, discrete_loop_cocycle,
                            discrete_loop_cocycle_centered, double_path,
                            edge_reflection, embed_even, gamma_matrices,
                            half_supported_loop, is_half_supported,
                            lift, loop_cocycle_compare, loop_from_bivectors,
                            loop_identity, omega_matrix, pointwise_unitary,
                            random_loop_algebra, reflect_orthogonal, restrict_loop, reversed_loop,
                            string_crossed_module, vertex_blocks, vertex_reflection)
from loopfock.report import RunConfig
from loopfock.suites import run_suites
from loopfock.twogroup import check_crossed_module
from reference import full_chain_pointwise_unitary

rng = np.random.default_rng(53)


@pytest.fixture(scope="module")
def model22():
    return build_clifford_model(2, 2)


@pytest.fixture(scope="module")
def spin3():
    return SpinGroup(3)


class TestGammaMatrices:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_clifford_relations(self, d):
        G = gamma_matrices(d)
        eye = np.eye(G.shape[1])
        for a in range(d):
            for b in range(d):
                anti = G[a] @ G[b] + G[b] @ G[a]
                assert maxabs(anti - 2.0 * (a == b) * eye) < 1e-14
                assert maxabs(G[a].conj().T - G[a]) == 0.0


class TestSpinGroup:
    def test_covering_kernel(self, spin3):
        assert maxabs(spin3.covering(spin3.identity()) - np.eye(3)) < 1e-14
        assert maxabs(spin3.covering(-spin3.identity()) - np.eye(3)) < 1e-14

    def test_closed_form_rotation(self, spin3):
        theta = 1.3
        B = np.zeros((3, 3))
        B[1, 0], B[0, 1] = theta, -theta
        x = spin3.exp(B)
        R = np.eye(3)
        R[0, 0] = R[1, 1] = np.cos(theta)
        R[1, 0], R[0, 1] = np.sin(theta), -np.sin(theta)
        assert maxabs(spin3.covering(x) - R) < 1e-12

    def test_covering_is_a_homomorphism(self, spin3):
        for _ in range(30):
            x, y = spin3.sample(rng), spin3.sample(rng)
            assert maxabs(spin3.covering(x @ y) - spin3.covering(x) @ spin3.covering(y)) < 1e-12
            lam = spin3.covering(x)
            assert maxabs(lam.T @ lam - np.eye(3)) < 1e-12
            assert abs(np.linalg.det(lam) - 1.0) < 1e-12

    def test_samples_are_unitary(self, spin3):
        x = spin3.sample(rng)
        assert maxabs(x @ x.conj().T - np.eye(spin3.dim)) < 1e-12


class TestPathsAndLoops:
    def test_double_of_trivial(self, model22):
        spin = SpinGroup(2)
        paths = PathGroup(2, spin)
        assert maxabs(double_path(paths.identity()) - loop_identity(2, spin)) == 0.0

    def test_concat_consistency_at_midpoint(self):
        spin = SpinGroup(2)
        paths = PathGroup(2, spin)
        p = paths.sample(rng)
        loop = concat_paths(p, p)
        assert maxabs(loop[2] - p[2]) == 0.0
        assert is_half_supported(double_path(paths.identity()))

    def test_endpoint_mismatch(self):
        spin = SpinGroup(2)
        paths = PathGroup(2, spin)
        p, q = paths.sample(rng), paths.sample(rng)
        with pytest.raises(EndpointMismatch):
            concat_paths(p, q)

    def test_nan_endpoints_are_refused(self):
        paths = PathGroup(2, SpinGroup(2))
        p = paths.sample(rng)
        q = p.copy()
        q[-1, 0, 0] = np.nan
        with pytest.raises(EndpointMismatch):
            concat_paths(p, q)
        loop = double_path(paths.identity())
        loop[0, 0, 0] = np.nan
        assert not is_half_supported(loop)
        with pytest.raises(ValueError, match="not supported"):
            restrict_loop(loop)

    def test_restrict_is_a_homomorphism_on_half_loops(self, model22):
        spin = SpinGroup(2)
        H = ExtLoopGroup(model22, spin)
        for _ in range(10):
            a, b = H.sample(rng), H.sample(rng)
            left = restrict_loop((a.loop @ b.loop))
            right = restrict_loop(a.loop) @ restrict_loop(b.loop)
            assert maxabs(left - right) < 1e-12

    def test_distance_reads_a_nan_unitary(self):
        # the builtin max keeps a number that comes before a NaN
        H = ExtLoopGroup(build_clifford_model(1, 2), SpinGroup(2))
        a = H.sample(np.random.default_rng(0))
        blocks = a.blocks.copy()
        blocks[0, 0, 0] = np.nan
        b = dataclasses.replace(a, blocks=blocks)
        assert np.isnan(b.unitary[0, 0])
        assert np.isnan(H.dist(a, b)) and np.isnan(H.dist(b, a))


class TestOmega:
    def test_identity_loop(self, model22):
        spin = SpinGroup(2)
        assert maxabs(omega_matrix(model22, spin, loop_identity(2, spin)) - np.eye(8)) < 1e-14

    def test_homomorphism_and_rotation(self, model22):
        spin = SpinGroup(2)
        for _ in range(50):
            a = np.stack([spin.sample(rng) for _ in range(4)])
            b = np.stack([spin.sample(rng) for _ in range(4)])
            ga, gb = omega_matrix(model22, spin, a), omega_matrix(model22, spin, b)
            assert maxabs(omega_matrix(model22, spin, a @ b) - ga @ gb) < 1e-12
            assert maxabs(ga.T @ ga - np.eye(8)) < 1e-12
            assert abs(np.linalg.det(ga) - 1.0) < 1e-10

    def test_half_supported_blocks(self, model22):
        spin = SpinGroup(2)
        H = ExtLoopGroup(model22, spin)
        g = omega_matrix(model22, spin, H.sample(rng).loop)
        assert maxabs(g[4:, 4:] - np.eye(4)) < 1e-13
        assert maxabs(g[:2, :2] - np.eye(2)) < 1e-13  # vertex 0 fixed as well


def vertexwise_spin_exp(B, gammas):
    """Reference: the spin exponential of one bivector, summed plane by plane."""
    d = B.shape[0]
    K = np.zeros_like(gammas[0])
    for a in range(d):
        for b in range(d):
            if B[a, b] != 0.0:
                K += 0.25 * B[a, b] * (gammas[a] @ gammas[b])
    w, V = np.linalg.eigh(1j * K)
    return (V * np.exp(-1j * w)) @ V.conj().T


def vertexwise_spin_sample(spin, rng):
    """Reference: one spin value from its own (d, d) draw."""
    B = rng.standard_normal((spin.d, spin.d)) * loopfock.loops.SAMPLE_SCALE
    return vertexwise_spin_exp(B - B.T, spin.gammas)


def vertexwise_blocks(model, blocks):
    """Reference: the block-diagonal matrix assembled one vertex at a time."""
    d = model.d
    out = np.zeros((model.dim_h, model.dim_h))
    for j in range(2 * model.n):
        out[j * d:(j + 1) * d, j * d:(j + 1) * d] = blocks[j]
    return out


def vertexwise_path(spin, n, rng, end_identity=False):
    """Reference: a based path drawn one vertex at a time."""
    values = [spin.identity()] + [vertexwise_spin_sample(spin, rng) for _ in range(n - 1)]
    values.append(spin.identity() if end_identity else vertexwise_spin_sample(spin, rng))
    return np.stack(values)


class TestLoopArrays:
    """The loop layer computes on whole loop arrays; each map equals its
    per-vertex reference bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stacked_spin_maps_match_per_element_calls(self, d):
        spin = SpinGroup(d)
        local = np.random.default_rng(d)
        B = local.standard_normal((6, d, d))
        B = B - np.swapaxes(B, 1, 2)
        B[0] = 0.0
        if d >= 3:   # a zero plane, which the per-vertex sum skips
            B[1, 0, 2] = B[1, 2, 0] = 0.0
        x = spin.exp(B)
        assert np.array_equal(x, np.stack([spin.exp(b) for b in B]))
        assert np.array_equal(x, np.stack([vertexwise_spin_exp(b, spin.gammas) for b in B]))
        lam = spin.covering(x.reshape(2, 3, spin.dim, spin.dim))
        assert lam.shape == (2, 3, d, d)
        assert np.array_equal(lam.reshape(6, d, d), np.stack([spin.covering(v) for v in x]))

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_k_value_draw_matches_single_draws(self, k):
        spin = SpinGroup(3)
        stacked_rng, single_rng = np.random.default_rng(8), np.random.default_rng(8)
        stacked = spin.samples(stacked_rng, k)
        single = np.array([vertexwise_spin_sample(spin, single_rng) for _ in range(k)])
        assert stacked.shape == (k, spin.dim, spin.dim)
        assert np.array_equal(stacked, single.reshape(stacked.shape))
        # both generators have drawn the same numbers
        assert stacked_rng.random() == single_rng.random()

    @pytest.mark.parametrize("n, d", [(2, 3), (2, 4)])
    def test_block_embeddings_match_vertex_assembly(self, n, d):
        model, spin = build_clifford_model(n, d), SpinGroup(d)
        local = np.random.default_rng(5)
        loop = spin.samples(local, 2 * n)
        assert np.array_equal(omega_matrix(model, spin, loop),
                              vertexwise_blocks(model, [spin.covering(x) for x in loop]))
        xi = random_loop_algebra(model, local)
        assert np.array_equal(vertex_blocks(model, xi), vertexwise_blocks(model, xi))

    @pytest.mark.parametrize("end_identity", [False, True])
    def test_common_end_paths_match_the_inline_idiom(self, end_identity):
        spin = SpinGroup(3)
        paths = PathGroup(3, spin)
        p, q, q2 = paths.sample_common_end(np.random.default_rng(4), 3, end_identity)
        local = np.random.default_rng(4)
        rp, rq, rq2 = (vertexwise_path(spin, 3, local, end_identity) for _ in range(3))
        rq[-1] = rp[-1]
        rq2[-1] = rp[-1]
        assert np.array_equal(p, rp) and np.array_equal(q, rq) and np.array_equal(q2, rq2)
        assert np.array_equal(paths.sample(np.random.default_rng(4), end_identity),
                              vertexwise_path(spin, 3, np.random.default_rng(4), end_identity))

    def test_half_and_disjoint_loops_match_vertex_draws(self, model22):
        spin = SpinGroup(2)
        first, second = disjoint_support_pair(model22, spin, np.random.default_rng(6))
        local = np.random.default_rng(6)
        ref_first, ref_second = loop_identity(2, spin), loop_identity(2, spin)
        ref_first[1] = vertexwise_spin_sample(spin, local)
        ref_second[3] = vertexwise_spin_sample(spin, local)
        assert np.array_equal(first, ref_first) and np.array_equal(second, ref_second)

    def test_loop_literal_matches_vertex_exponentials(self):
        spin = SpinGroup(3)
        coords = [[0.1, -0.2, 0.3], [0, 0, 0], [1, 0.0, -2], [0.5, 0.25, 0.0]]
        ref = []
        for c in coords:
            B = np.zeros((3, 3))
            for k, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
                B[a, b], B[b, a] = c[k], -c[k]
            ref.append(vertexwise_spin_exp(B, spin.gammas))
        assert np.array_equal(loop_from_bivectors(spin, coords), np.stack(ref))

    @pytest.mark.parametrize("coords, message", [
        ([[0.1, 0.2, 0.3], [0.0, 1.0], [0, 0, 0], [0, 0, 0]],
         "vertex 1: expected 3 bivector coordinates, got 2"),
        ([[0, 0, 0], [0, 0, 0], [0, "x", 0], [0, 0, 0]],
         "vertex 2: bivector coordinates must be a list of real numbers, entry 1 is str 'x'"),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, float("nan"), 0]],
         "vertex 3: bivector coordinates [0, nan, 0] are not finite"),
        ([[0, 0, 0], [1e308, 1e308, 0], [0, 0, 0], [0, 0, 0]],
         "vertex 1: bivector coordinates [1e+308, 1e+308, 0] have no finite spin exponential"),
    ])
    def test_loop_literal_errors_name_the_vertex(self, coords, message):
        with pytest.raises(ValueError) as err:
            loop_from_bivectors(SpinGroup(3), coords)
        assert str(err.value) == message


class TestLifts:
    def test_identity_loop_lifts_to_one(self, model22):
        spin = SpinGroup(2)
        ext = lift(model22, spin, loop_identity(2, spin))
        assert maxabs(ext.unitary - np.eye(16)) < 1e-12

    def test_lift_implements(self, model22):
        spin = SpinGroup(2)
        loop = np.stack([spin.sample(rng) for _ in range(4)])
        ext = lift(model22, spin, loop)
        g = omega_matrix(model22, spin, loop)
        assert implementation_residual(model22, ext.unitary, g) < 1e-11

    def test_products_implement_products(self, model22):
        spin = SpinGroup(2)
        a = np.stack([spin.sample(rng) for _ in range(4)])
        b = np.stack([spin.sample(rng) for _ in range(4)])
        U = lift(model22, spin, a).unitary @ lift(model22, spin, b).unitary
        g = omega_matrix(model22, spin, a @ b)
        assert implementation_residual(model22, U, g) < 1e-11

    def test_scan_relift_differs_by_phase(self, model22):
        spin = SpinGroup(2)
        loop = np.stack([spin.sample(rng) for _ in range(4)])
        ext = lift(model22, spin, loop)
        rescan = normalize_phase(ext.implementer, "scan")
        defect, lam = scalar_defect(rescan.unitary @ ext.unitary.conj().T)
        assert defect < 1e-12
        assert abs(abs(lam) - 1.0) < 1e-12

    def test_rejects_values_outside_the_spin_group(self, model22):
        spin = SpinGroup(2)
        with pytest.raises(NotOrthogonal):
            lift(model22, spin, 2.0 * loop_identity(2, spin))
        odd = loop_identity(2, spin)
        odd[1] = spin.gammas[0]
        with pytest.raises(NotSpecialOrthogonal):
            lift(model22, spin, odd)

    def test_cache_hits(self, model22):
        spin = SpinGroup(2)
        loop = np.stack([spin.sample(rng) for _ in range(4)])
        first = lift(model22, spin, loop)
        again = lift(model22, spin, np.array(loop))
        assert first is again


class TestLiftCache:
    def test_evicts_the_least_recently_used_and_counts(self):
        cache = LiftCache()
        keys = [bytes([k]) for k in range(LiftCache.CAPACITY + 2)]
        for k in keys[:LiftCache.CAPACITY]:
            assert cache.get(k) is None
            cache.put(k, k)
        assert cache.get(keys[0]) == keys[0]    # keys[1] is now the oldest
        cache.put(keys[-2], keys[-2])
        assert len(cache) == LiftCache.CAPACITY
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) == keys[0]
        cache.put(keys[-1], keys[-1])           # evicts keys[2]
        assert cache.get(keys[2]) is None
        assert all(cache.get(k) == k for k in keys[3:])
        assert (cache.hits, cache.misses, cache.evictions) == (2 + len(keys) - 3,
                                                               LiftCache.CAPACITY + 2, 2)

    def test_lift_recomputed_after_eviction_is_bitwise_equal(self):
        model, spin = build_clifford_model(2, 2), SpinGroup(2)
        local = np.random.default_rng(31)
        samples = [np.stack([spin.sample(local) for _ in range(4)])
                   for _ in range(LiftCache.CAPACITY + 1)]
        first = lift(model, spin, samples[0])
        for loop in samples[1:]:
            lift(model, spin, loop)
        assert model.lift_cache.evictions == 1
        again = lift(model, spin, samples[0])
        assert again is not first
        assert again.unitary.tobytes() == first.unitary.tobytes()
        assert again.implementer.implemented.tobytes() == first.implementer.implemented.tobytes()

    def test_string_suite_lifts_each_loop_once(self, monkeypatch):
        # a report reuses its lifts within the capacity, so no loop is lifted twice
        lifted = []

        def counting(model, spin, loop):
            lifted.append(np.asarray(loop).tobytes())
            return pointwise_unitary(model, spin, loop)

        monkeypatch.setattr(loopfock.loops, "pointwise_unitary", counting)
        code, _ = run_suites(RunConfig(n=2, d=2, suites=("string",)))
        assert code == 0
        assert len(lifted) > LiftCache.CAPACITY
        assert len(set(lifted)) == len(lifted)

    def test_a_cached_lift_keeps_no_dense_unitary(self):
        model, spin = build_clifford_model(2, 4), SpinGroup(4)
        ext = lift(model, spin, spin.samples(np.random.default_rng(33), 4))
        U = ext.unitary
        # read while held, the unitary is scattered once, for the implementer too
        assert ext.unitary is U and ext.implementer.unitary is U
        assert U.nbytes == 2 * ext.blocks.nbytes == 2 ** 20
        del U
        assert ext._dense() is None
        assert lift(model, spin, ext.loop) is ext

    def test_holds_the_capacity_after_many_fresh_lifts(self):
        model, spin = build_clifford_model(2, 4), SpinGroup(4)
        local = np.random.default_rng(32)
        for _ in range(40):
            lift(model, spin, np.stack([spin.sample(local) for _ in range(4)]))
        cache = model.lift_cache
        assert len(cache) == LiftCache.CAPACITY
        assert (cache.hits, cache.misses, cache.evictions) == (0, 40, 40 - LiftCache.CAPACITY)


def vacuum_lift(model, spin, loop):
    """The lift's reference: the implementer of omega(loop) built from its
    rotated vacuum, vacuum-normalised."""
    return implement_pin(model, omega_matrix(model, spin, loop))


class TestSingleRoute:
    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (2, 3), (3, 2), (4, 2), (2, 4)])
    def test_lift_equals_the_givens_route(self, n, d):
        """The lift equals implement_pin, now built from the rotated vacuum;
        the name is that of the Givens product it replaced."""
        model, spin = build_clifford_model(n, d), SpinGroup(d)
        local = np.random.default_rng(100 * n + d)
        for _ in range(3):
            loop = np.stack([spin.sample(local) for _ in range(2 * n)])
            assert maxabs(lift(model, spin, loop).unitary
                          - vacuum_lift(model, spin, loop).unitary) <= 1e-12

    @pytest.mark.parametrize("n, d", [(2, 3), (2, 4)])
    def test_commutator_pairing_is_a_sign(self, n, d):
        model, spin = build_clifford_model(n, d), SpinGroup(d)
        local = np.random.default_rng(7 * d)

        def half_loop():
            return np.stack([spin.sample(local) if 0 < j < n else spin.identity()
                             for j in range(2 * n)])

        def inv(loop):
            return np.conj(np.transpose(loop, (0, 2, 1)))

        for _ in range(3):
            a, b = half_loop(), half_loop()
            Ua, Ub = lift(model, spin, a).unitary, lift(model, spin, b).unitary
            Uc = lift(model, spin, a @ b @ inv(a) @ inv(b)).unitary
            defect, lam = scalar_defect(Ua @ Ub @ Ua.conj().T @ Ub.conj().T @ Uc.conj().T)
            assert defect <= 1e-9
            assert min(abs(lam - 1.0), abs(lam + 1.0)) <= 1e-9


def dense_pointwise_unitary(model, spin, loop):
    """The tabled lift's reference: each vertex's dense Fock monomials, rebuilt and summed."""
    d, r = model.d, spin.dim
    U = None
    for j in range(2 * model.n):
        fock = even_monomials(1j * model.generators[j * d:(j + 1) * d])
        rho = sum(np.vdot(gamma_S, loop[j]) / r * fock[S] for S, gamma_S in spin.even_gammas.items())
        U = rho if U is None else U @ rho
    return U


def tabled_vs_dense(model, spin, seed):
    local = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        loop = np.stack([spin.sample(local) for _ in range(2 * model.n)])
        worst = max(worst, maxabs(embed_even(model.parity_blocks, pointwise_unitary(model, spin, loop))
                                  - dense_pointwise_unitary(model, spin, loop)))
    return worst


def dense_lift(model, spin, loop):
    """The dense reference of the lift: the dense pointwise unitary, its phase fixed."""
    raw = Implementer(dense_pointwise_unitary(model, spin, loop), omega_matrix(model, spin, loop),
                      "even", "raw")
    return normalize_phase(raw, "vacuum")


BLOCK_CONFIGS = [(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)]


class TestBlockLifts:
    """Lifts and the string crossed module carried as even blocks, against the
    same computations on dense N x N unitaries."""

    @pytest.mark.parametrize("n, d", BLOCK_CONFIGS)
    def test_block_lift_equals_the_dense_route(self, n, d):
        model, spin = build_clifford_model(n, d), SpinGroup(d)
        h = model.fock_dim // 2
        local = np.random.default_rng(40 + 10 * n + d)
        for loop in [spin.samples(local, 2 * n) for _ in range(3)] + [loop_identity(n, spin)]:
            ext, ref = lift(model, spin, loop), dense_lift(model, spin, loop)
            assert ext.blocks.shape == (2, h, h) and ext.places is model.parity_blocks
            assert ext.normalization == ref.normalization == "vacuum"
            assert maxabs(ext.unitary - ref.unitary) <= 1e-12
            assert ext.implemented.tobytes() == ref.implemented.tobytes()

    @pytest.mark.parametrize("n, d", BLOCK_CONFIGS)
    def test_group_operations_and_action_equal_the_dense_ones(self, n, d):
        model, spin = build_clifford_model(n, d), SpinGroup(d)
        cm = string_crossed_module(model, spin)
        H, N = cm.fiber, model.fock_dim
        local = np.random.default_rng(50 + 10 * n + d)
        a, b, p = H.sample(local), H.sample(local), cm.base.sample(local)
        Ua, Ub = a.unitary, b.unitary
        V = lift(model, spin, double_path(p)).unitary
        z = np.exp(0.3j)
        state = local.bit_generator.state
        drawn = H.sample(local)
        local.bit_generator.state = state
        half = lift(model, spin, half_supported_loop(n, spin, local))
        pairs = {"identity": (H.identity(), np.eye(N)),
                 "mul": (H.mul(a, b), Ua @ Ub),
                 "inv": (H.inv(a), Ua.conj().T),
                 "sample": (drawn, np.exp(2j * np.pi * local.random()) * half.unitary),
                 "central": (H.central(z), z * np.eye(N)),
                 "act": (cm.act(p, a), V @ Ua @ V.conj().T)}
        for name, (ext, dense) in pairs.items():
            assert maxabs(ext.unitary - dense) <= 1e-13, name
        assert H.mul(a, b).implemented.tobytes() == (a.implemented @ b.implemented).tobytes()
        assert H.inv(a).implemented.tobytes() == a.implemented.T.tobytes()
        g = lift(model, spin, double_path(p)).implemented
        assert maxabs(cm.act(p, a).implemented - g @ a.implemented @ g.T) == 0.0
        # the odd blocks are zero, so the block distance is the dense one exactly
        for x, y in [(a, b), (b, a), (a, H.central(z)), (cm.act(p, a), a)]:
            assert H.dist(x, y) == max(maxabs(x.loop - y.loop), maxabs(x.unitary - y.unitary))

    def test_action_is_conjugation_by_the_doubled_path_lift(self, model22):
        spin = SpinGroup(2)
        cm = string_crossed_module(model22, spin)
        p, ext = cm.base.sample(rng), cm.fiber.sample(rng)
        conj = cm.fiber.conj(lift(model22, spin, double_path(p)), ext)
        acted = cm.act(p, ext)
        assert acted.blocks.tobytes() == conj.blocks.tobytes()
        assert acted.loop.tobytes() == conj.loop.tobytes()

    def test_crossed_module_axioms_form_no_dense_unitary(self, monkeypatch):
        model, spin = build_clifford_model(2, 3), SpinGroup(3)
        embedded = []
        real = loopfock.loops.embed_even

        def counting(places, blocks):
            embedded.append(blocks.shape)
            return real(places, blocks)

        monkeypatch.setattr(loopfock.loops, "embed_even", counting)
        cm = string_crossed_module(model, spin)
        res = check_crossed_module(cm, 10, np.random.default_rng(3))
        assert max(res.values()) <= 1e-9, res
        assert embedded == []
        # reading the unitary is what forms it
        cm.fiber.sample(np.random.default_rng(4)).unitary
        assert embedded == [(2, 32, 32)]


def moved_vertex_loops(model, spin, local):
    """Loops that leave some vertices exactly at the identity, and the
    identity loop; "minus one" moves one vertex, to -1."""
    n = model.n
    half = half_supported_loop(n, spin, local)
    minus = loop_identity(n, spin)
    minus[1] = -spin.identity()
    return {"half-supported": half,
            "doubled path": double_path(PathGroup(n, spin).sample(local)),
            "doubled restriction": double_path(restrict_loop(half)),
            "identity": loop_identity(n, spin),
            "minus one": minus}


class TestMovedVertices:
    """The lift multiplies the factors of the moved vertices only."""

    @pytest.mark.parametrize("n, d", BLOCK_CONFIGS)
    def test_moved_vertex_product_equals_the_full_chain(self, n, d):
        model, spin = build_clifford_model(n, d), SpinGroup(d)
        eye = np.stack([np.eye(model.fock_dim // 2)] * 2)
        for name, loop in moved_vertex_loops(model, spin, np.random.default_rng(60 + 10 * n + d)).items():
            blocks = pointwise_unitary(model, spin, loop)
            # bit for bit up to the sign of zeros (+ 0.0 makes -0 +0): at (1,2)
            # the chain's product 1 (-1) has an off-diagonal -0
            full = full_chain_pointwise_unitary(model, spin, loop)
            assert (blocks + 0.0).tobytes() == (full + 0.0).tobytes(), name
            assert maxabs(embed_even(model.parity_blocks, blocks)
                          - dense_pointwise_unitary(model, spin, loop)) <= 1e-13, name
            if name in ("identity", "minus one"):
                assert np.array_equal(blocks, eye if name == "identity" else -eye), name

    def test_a_vertex_left_at_the_identity_reads_no_table(self):
        model, spin = build_clifford_model(2, 3), SpinGroup(3)
        loop = half_supported_loop(2, spin, np.random.default_rng(61))
        expected = pointwise_unitary(model, spin, loop)
        # only vertex 1 is moved; the other vertices' tables are gone
        model.vertex_monomials = [table if j == 1 else None for j, table in enumerate(model.vertex_monomials)]
        assert pointwise_unitary(model, spin, loop).tobytes() == expected.tobytes()
        with pytest.raises(TypeError):
            pointwise_unitary(model, spin, spin.samples(np.random.default_rng(62), 4))


class TestVertexTable:
    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (2, 3), (3, 2), (4, 2), (1, 4), (2, 4)])
    def test_tabled_lift_equals_the_dense_route(self, n, d):
        model, spin = build_clifford_model(n, d), SpinGroup(d)
        assert tabled_vs_dense(model, spin, 10 * n + d) <= 1e-15

    def test_dropping_one_table_entry_is_detected(self):
        model, spin = build_clifford_model(2, 3), SpinGroup(3)
        table = [dict(vertex) for vertex in model.vertex_monomials]
        flat, vals = table[1][3]
        vals = vals.copy()
        vals[0, 0, 0] = 0.0
        table[1][3] = flat, vals
        model.vertex_monomials = table
        assert tabled_vs_dense(model, spin, 23) > 1e-3

    def test_table_is_built_once_on_the_first_lift(self, monkeypatch):
        model, spin = build_clifford_model(2, 4), SpinGroup(4)
        assert "vertex_monomials" not in vars(model)
        fock_calls = []

        def counting(mats, partners=None):
            if mats.shape[-1] == model.fock_dim // 2:
                fock_calls.append(mats.shape)
            return even_monomials(mats, partners)

        monkeypatch.setattr(loopfock.clifford, "even_monomials", counting)
        local = np.random.default_rng(24)
        lift(model, spin, np.stack([spin.sample(local) for _ in range(4)]))
        assert "vertex_monomials" in vars(model)
        assert len(fock_calls) == 2 * model.n
        lift(model, spin, np.stack([spin.sample(local) for _ in range(4)]))
        assert len(model.lift_cache) == 2
        assert len(fock_calls) == 2 * model.n

    def test_table_size_and_ownership(self):
        model = build_clifford_model(2, 4)
        arrays = [a for vertex in model.vertex_monomials for entry in vertex.values() for a in entry]
        assert sum(a.nbytes for a in arrays) <= 2 * 2 ** 20
        # a view would pin the full N x N array it was cut from
        assert all(a.base is None for a in arrays)
        assert {a.shape[:2] for a in arrays} == {(2, model.fock_dim // 2)}
        widths = {S: flat.shape[2] for S, (flat, _) in model.vertex_monomials[0].items()}
        assert widths == {0: 1, 3: 4, 5: 4, 6: 4, 9: 4, 10: 4, 12: 4, 15: 16}

    def test_table_build_memory_peak_at_fock_256(self):
        model = build_clifford_model(2, 4)
        tracemalloc.start()
        try:
            model.vertex_monomials
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the build of the dense row tables peaked at 12.73 MiB
        assert peak <= 12.7 * 2 ** 20


coordinate_lists = {
    (n, d): st.lists(st.lists(st.floats(-20.0, 20.0), min_size=d * (d - 1) // 2,
                              max_size=d * (d - 1) // 2), min_size=2 * n, max_size=2 * n)
    for n, d in [(1, 2), (2, 2)]
}
models = {}


@pytest.mark.parametrize("n, d", sorted(coordinate_lists))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_lift_property_single_route_and_cache(n, d, data):
    """Over arbitrary bivector coordinates the lift is the rotated-vacuum route, and
    the cache hands each loop its own entry."""
    if (n, d) not in models:
        models[n, d] = build_clifford_model(n, d), SpinGroup(d)
    model, spin = models[n, d]
    first, second = (loop_from_bivectors(spin, data.draw(coordinate_lists[n, d]))
                     for _ in range(2))
    ext = lift(model, spin, first)
    ref = vacuum_lift(model, spin, first)
    assert ext.implementer.normalization == ref.normalization
    assert maxabs(ext.unitary - ref.unitary) <= 1e-12
    other = lift(model, spin, second)
    again = lift(model, spin, np.array(first))
    assert again is ext
    assert maxabs(ext.loop - first) == 0.0 and maxabs(other.loop - second) == 0.0
    if maxabs(first - second) > 0.0:
        assert other is not ext


class TestStringCrossedModule:
    def test_axioms(self):
        model = build_clifford_model(2, 3)
        spin = SpinGroup(3)
        cm = string_crossed_module(model, spin)
        res = check_crossed_module(cm, 40, np.random.default_rng(9))
        assert max(res.values()) <= 1e-9, res

    def test_action_phase_independence(self, model22):
        spin = SpinGroup(2)
        cm = string_crossed_module(model22, spin)
        paths = cm.base
        p = paths.sample(rng)
        ext = cm.fiber.sample(rng)
        out1 = cm.act(p, ext)
        # conjugating by any other lift of the doubled loop gives the same result
        dbl = double_path(p)
        V = lift(model22, spin, dbl).unitary * np.exp(0.61j)
        twisted = V @ ext.unitary @ V.conj().T
        assert maxabs(out1.unitary - twisted) < 1e-11

    def test_central_fiber(self, model22):
        spin = SpinGroup(2)
        cm = string_crossed_module(model22, spin)
        z = np.exp(0.4j)
        central = cm.fiber.central(z)
        assert maxabs(central.unitary - z * np.eye(16)) == 0.0
        p = cm.base.sample(rng)
        acted = cm.act(p, central)
        assert cm.fiber.dist(acted, central) < 1e-12

    def test_restriction_ends_at_identity(self, model22):
        spin = SpinGroup(2)
        cm = string_crossed_module(model22, spin)
        ext = cm.fiber.sample(rng)
        path = cm.t(ext)
        assert maxabs(path[0] - np.eye(2)) < 1e-13
        assert maxabs(path[2] - np.eye(2)) < 1e-13


class TestDisjointness:
    def test_disjoint_half_loops_commute(self, model22):
        spin = SpinGroup(2)
        for _ in range(20):
            a, b = disjoint_support_pair(model22, spin, rng)
            Ua = lift(model22, spin, a).unitary
            Ub = lift(model22, spin, b).unitary
            assert maxabs(Ua @ Ub - Ub @ Ua) < 1e-12

    def test_abelian_internal_rotations_commute(self, model22):
        # d = 2 is special: every loop rotation lies in one torus, so even
        # overlapping supports give commuting lifts
        spin = SpinGroup(2)
        local = np.random.default_rng(77)
        for _ in range(3):
            a = np.stack([spin.sample(local) for _ in range(4)])
            b = np.stack([spin.sample(local) for _ in range(4)])
            Ua = lift(model22, spin, a).unitary
            Ub = lift(model22, spin, b).unitary
            assert maxabs(Ua @ Ub - Ub @ Ua) < 1e-12

    def test_overlapping_supports_do_not_commute(self):
        model = build_clifford_model(2, 3)
        spin = SpinGroup(3)
        local = np.random.default_rng(77)
        worst = 0.0
        for _ in range(3):
            a = np.stack([spin.sample(local) for _ in range(4)])
            b = np.stack([spin.sample(local) for _ in range(4)])
            Ua = lift(model, spin, a).unitary
            Ub = lift(model, spin, b).unitary
            worst = max(worst, maxabs(Ua @ Ub - Ub @ Ua))
        assert worst > 0.05


class TestReflections:
    def test_vertex_reflection_involution_and_lagrangian(self, model22):
        tau = vertex_reflection(model22)
        assert maxabs(tau @ tau - np.eye(8)) == 0.0
        assert maxabs(tau @ model22.lagrangian + np.conj(model22.lagrangian)) < 1e-14

    def test_reversal_swaps_concatenation(self, model22):
        spin = SpinGroup(2)
        paths = PathGroup(2, spin)
        tau = vertex_reflection(model22)
        for _ in range(10):
            p, q = paths.sample(rng), paths.sample(rng)
            q[-1] = p[-1]
            gpq = omega_matrix(model22, spin, concat_paths(p, q))
            gqp = omega_matrix(model22, spin, concat_paths(q, p))
            assert maxabs(reflect_orthogonal(tau, gpq) - gqp) < 1e-12

    def test_doubled_loops_are_reversal_fixed(self, model22):
        spin = SpinGroup(2)
        paths = PathGroup(2, spin)
        tau = vertex_reflection(model22)
        p = paths.sample(rng)
        g = omega_matrix(model22, spin, double_path(p))
        assert maxabs(reflect_orthogonal(tau, g) - g) < 1e-12

    def test_edge_reflection_swaps_halves(self, model22):
        tau = edge_reflection(model22)
        assert maxabs(tau @ tau - np.eye(8)) == 0.0
        spin = SpinGroup(2)
        loop = np.stack([spin.sample(rng) for _ in range(4)])
        g = omega_matrix(model22, spin, loop)
        shifted = omega_matrix(model22, spin, reversed_loop(loop, shift=1))
        assert maxabs(reflect_orthogonal(tau, g) - shifted) < 1e-12


class TestLoopCocycle:
    def test_diagonal_vanishes(self, model22):
        xi = random_loop_algebra(model22, rng)
        cmp = loop_cocycle_compare(model22, xi, xi)
        assert abs(cmp["centered"]) < 1e-12
        assert abs(cmp["fock"]) < 1e-12
        # the one-sided difference is only antisymmetric up to lattice terms
        assert abs(cmp["discrete"]) > 1e-8

    def test_constant_loops(self, model22):
        B = rng.standard_normal((2, 2))
        xi = [B - B.T] * 4
        eta = random_loop_algebra(model22, rng)
        assert abs(discrete_loop_cocycle(eta, xi)) < 1e-12

    def test_centered_antisymmetry_exact(self, model22):
        xi = random_loop_algebra(model22, rng)
        eta = random_loop_algebra(model22, rng)
        assert abs(discrete_loop_cocycle_centered(xi, eta)
                   + discrete_loop_cocycle_centered(eta, xi)) < 1e-14

    def test_forward_difference_asymmetry_is_second_order(self, model22):
        xi = random_loop_algebra(model22, rng)
        eta = random_loop_algebra(model22, rng)
        asym = abs(discrete_loop_cocycle(xi, eta) + discrete_loop_cocycle(eta, xi))
        assert asym > 1e-8  # genuine lattice artifact of the one-sided difference
