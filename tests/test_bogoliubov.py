import functools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopfock.bogoliubov
import loopfock.clifford
from loopfock import suites
from loopfock.bogoliubov import (Implementer, check_orthogonal, check_skew, derived_implementer,
                                 extension_cocycle, implement_oracle, implement_pin, implementation_residual,
                                 normalize_phase, projective_distance,
                                 random_skew, random_special_orthogonal,
                                 schwinger_term)
from loopfock.cli import main
from loopfock.clifford import build_clifford_model, pi_columns
from loopfock.errors import (ContractViolation, DimensionMismatch, NonScalarDefect, NotOrthogonal,
                             NotSpecialOrthogonal, SingularInput)
from loopfock.linalg import DEFAULT_TOL, maxabs, polar_unitary, scalar_defect
from loopfock.loops import SpinGroup, embed_even, lift, loop_identity, omega_matrix, pointwise_unitary
from loopfock.report import RunConfig
from reference import joint_kernel

rng = np.random.default_rng(23)


def kernel_implementer(model, g):
    """Slow reference for implement_oracle: the implementer line as the
    iterative joint kernel of the constraints pi(g e_i) U = U pi_i on the
    matrix space, for small Fock dimensions; its polar unitary."""
    N = model.fock_dim
    lefts = pi_columns(model, g)

    def constraint(i):
        def apply(cols):
            X = cols.T.reshape(-1, N, N)
            return (lefts[i] @ X - X @ model.generators[i]).reshape(-1, N * N).T
        return apply

    basis = joint_kernel([constraint(i) for i in range(model.dim_h)], N * N)
    assert basis.shape[1] == 1
    return polar_unitary(basis[:, 0].reshape(N, N))


@pytest.fixture(scope="module")
def micro():
    return build_clifford_model(1, 1, allow_odd_modes=True)


@pytest.fixture(scope="module")
def model12():
    return build_clifford_model(1, 2)


@pytest.fixture(scope="module")
def model22():
    return build_clifford_model(2, 2)


def plane_rotation(dim, i, j, theta):
    g = np.eye(dim)
    g[i, i] = g[j, j] = np.cos(theta)
    g[j, i], g[i, j] = np.sin(theta), -np.sin(theta)
    return g


class TestOracle:
    def test_identity_is_scalar(self, model12):
        imp = implement_oracle(model12, np.eye(4), rng=rng)
        defect, _ = scalar_defect(imp.unitary)
        assert defect < 1e-12
        norm = normalize_phase(imp)
        assert maxabs(norm.unitary - np.eye(4)) < 1e-12

    def test_micro_rotation_closed_form(self, micro):
        theta = 0.83
        g = plane_rotation(2, 0, 1, theta)
        imp = implement_oracle(micro, g, rng=rng)
        target = np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])
        assert projective_distance(imp.unitary, target) < 1e-12

    def test_micro_half_turn(self, micro):
        imp = implement_oracle(micro, -np.eye(2), rng=rng)
        assert projective_distance(imp.unitary, np.diag([1j, -1j])) < 1e-12

    def test_reflection_is_odd(self, model12):
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        imp = implement_oracle(model12, g, rng=rng)
        assert imp.parity == "odd"
        assert implementation_residual(model12, imp.unitary, g) < 1e-12

    def test_agrees_with_iterative_kernel(self, model12):
        g = random_special_orthogonal(4, rng)
        fast = implement_oracle(model12, g, rng=rng)
        slow = kernel_implementer(model12, g)
        assert projective_distance(fast.unitary, slow) < 1e-10

    def test_rejects_non_orthogonal(self, model12):
        with pytest.raises(NotOrthogonal):
            implement_oracle(model12, np.diag([2.0, 1.0, 1.0, 1.0]), rng=rng)

    @pytest.mark.parametrize("extra_dim, passed", [(0, True), (1, False)])
    def test_uniqueness_record_measures_the_intertwiner_dimension(self, monkeypatch,
                                                                  extra_dim, passed):
        averaged = suites.averaged_intertwiners

        def widened(*args):
            line = averaged(*args)
            return np.concatenate([line] * (1 + extra_dim))

        monkeypatch.setattr(suites, "averaged_intertwiners", widened)
        records = suites.bogoliubov_checks(suites.Environment(RunConfig(n=1, d=2, seed=5)))
        record = next(r for r in records if r.name == "implementer uniqueness")
        assert record.residual == extra_dim
        assert record.passed is passed


def dense_implementation_residual(model, U, g):
    """The flip residual's reference: max_i of the largest entry of
    U pi_i U^* - pi(g e_i), by dense products."""
    conj = U @ model.generators @ U.conj().T
    return maxabs(conj - pi_columns(model, g))


def residual_cases(n, d):
    """(unitary, implemented map) pairs from a lift, a rotated-vacuum implementer and,
    at Fock dimension <= 64, the averaging oracle."""
    model, spin = build_clifford_model(n, d), SpinGroup(d)
    local = np.random.default_rng(10 * n + d)
    loop = np.stack([spin.sample(local) for _ in range(2 * n)])
    cases = [(lift(model, spin, loop).unitary, omega_matrix(model, spin, loop))]
    g = random_special_orthogonal(model.dim_h, local)
    cases.append((implement_pin(model, g).unitary, g))
    if model.fock_dim <= 64:
        cases.append((implement_oracle(model, g, rng=local).unitary, g))
    return model, cases


class TestFlipResidual:
    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (2, 3), (3, 2), (4, 2), (1, 4), (2, 4)])
    def test_bounds_the_dense_route_and_detects_wrong_maps(self, n, d):
        model, cases = residual_cases(n, d)
        for U, g in cases:
            flip = implementation_residual(model, U, g)
            # U pi_i U^* - pi(g e_i) = R_i U^* + pi(g e_i)(U U^* - 1) with R_i the
            # flip commutator and pi(g e_i) unitary; the largest entry is below
            # the Frobenius norm
            bound = flip * np.linalg.norm(U, 2) + np.linalg.norm(np.eye(len(U)) - U @ U.conj().T)
            assert dense_implementation_residual(model, U, g) <= bound
            assert flip <= 1e-12
            swapped = g[:, [1, 0] + list(range(2, model.dim_h))]
            assert implementation_residual(model, U, swapped) >= 0.1
            assert dense_implementation_residual(model, U, swapped) >= 0.1
            odd = U @ model.generators[0]
            assert implementation_residual(model, odd, g) >= 0.1
            assert dense_implementation_residual(model, odd, g) >= 0.1
        # on a generic matrix every entry counts: the dense Frobenius norms agree
        local, shape, g = np.random.default_rng(n + 10 * d), (model.fock_dim,) * 2, cases[0][1]
        M = local.standard_normal(shape) + 1j * local.standard_normal(shape)
        dense = max(np.linalg.norm(M @ P - Q @ M)
                    for P, Q in zip(model.generators, pi_columns(model, g)))
        assert abs(implementation_residual(model, M, g) - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (2, 4)])
    def test_only_an_exactly_zero_parity_part_is_skipped(self, n, d):
        # a lift plus 1e-13 times an odd matrix: a skip by tolerance would drop the odd part
        model, spin = build_clifford_model(n, d), SpinGroup(d)
        local, shape = np.random.default_rng(n + d), (model.fock_dim,) * 2
        s = model.grading.diagonal().real
        odd = (local.standard_normal(shape) + 1j * local.standard_normal(shape)) * (s[:, None] != s)
        sampled = np.stack([spin.sample(local) for _ in range(2 * n)])
        # the constant loop lifts to 1 exactly; a sampled lift carries its own
        # residual of about 1e-14, which the two routes round differently
        for loop, rel in [(loop_identity(n, spin), 1e-12), (sampled, 1e-6)]:
            g = omega_matrix(model, spin, loop)
            M = lift(model, spin, loop).unitary + 1e-13 * odd
            dense = max(np.linalg.norm(M @ P - Q @ M)
                        for P, Q in zip(model.generators, pi_columns(model, g)))
            assert dense >= 1e-13
            assert abs(implementation_residual(model, M, g) - dense) <= rel * dense

    def test_rejects_a_missized_unitary(self, model22):
        g = np.eye(model22.dim_h)
        larger = np.eye(model22.fock_dim + 1, dtype=complex)
        with pytest.raises(DimensionMismatch, match="unitary"):
            implementation_residual(model22, larger, g)
        with pytest.raises(DimensionMismatch, match="unitary"):
            implementation_residual(model22, larger[:-1], g)

    def test_rejects_a_missized_map(self, model22):
        U = np.eye(model22.fock_dim, dtype=complex)
        with pytest.raises(DimensionMismatch, match="orthogonal map"):
            implementation_residual(model22, U, np.eye(model22.dim_h + 2))
        with pytest.raises(DimensionMismatch, match="orthogonal map"):
            implementation_residual(model22, U, np.eye(model22.dim_h)[:-1])

    def test_first_residual_builds_the_table_and_the_second_reuses_it(self, monkeypatch):
        model = build_clifford_model(2, 2)
        assert "block_flips" not in vars(model)
        flip_table = loopfock.clifford.flip_table
        builds = []

        def counting(modes):
            builds.append(modes)
            return flip_table(modes)

        monkeypatch.setattr(loopfock.clifford, "flip_table", counting)
        U, g = np.eye(model.fock_dim, dtype=complex), np.eye(model.dim_h)
        assert implementation_residual(model, U, g) == 0.0
        table = vars(model)["block_flips"]
        assert implementation_residual(model, U, g) == 0.0
        assert vars(model)["block_flips"] is table
        assert len(builds) == 1
        assert "generators" not in vars(model)

    def test_memory_peak_at_fock_256(self):
        model, [(U, g), *_] = residual_cases(2, 4)
        model.block_flips  # built outside the traced call
        tracemalloc.start()
        try:
            implementation_residual(model, U, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 9.04 MiB while the flip gathers were rebuilt on every call
        assert peak <= 4 * 2 ** 20

    def test_a_lift_request_never_builds_the_dense_stack(self):
        model, spin = build_clifford_model(2, 4), SpinGroup(4)
        local = np.random.default_rng(31)
        loop = np.stack([spin.sample(local) for _ in range(2 * model.n)])
        U = lift(model, spin, loop).unitary
        assert implementation_residual(model, U, omega_matrix(model, spin, loop)) <= 1e-12
        s = model.grading.diagonal().real
        assert maxabs(U * s - s[:, None] * U) <= 1e-12
        assert "generators" not in vars(model)


class TestParityFromGradingDiagonal:
    def test_commutators_equal_the_dense_products_bitwise(self, model22):
        G, s = model22.grading, model22.grading.diagonal().real
        even = implement_pin(model22, random_special_orthogonal(8, rng)).unitary
        odd = implement_oracle(model22, np.diag([-1.0] + [1.0] * 7), rng=rng).unitary
        for U in (even, odd):
            assert np.array_equal(U * s - s[:, None] * U, U @ G - G @ U)
            assert np.array_equal(U * s + s[:, None] * U, U @ G + G @ U)


class TestPin:
    def test_identity(self, model22):
        imp = implement_pin(model22, np.eye(8))
        assert maxabs(imp.unitary - np.eye(model22.fock_dim)) < 1e-12

    def test_single_plane_closed_form(self, model22):
        theta = 1.21
        g = plane_rotation(8, 2, 5, theta)
        imp = implement_pin(model22, g)
        gens = model22.generators
        target = np.cos(theta / 2) * np.eye(model22.fock_dim) + np.sin(theta / 2) * gens[2] @ gens[5]
        assert maxabs(imp.unitary - target) < 1e-12
        assert implementation_residual(model22, imp.unitary, g) < 1e-12

    def test_two_disjoint_planes_match_oracle(self, model22):
        g = plane_rotation(8, 0, 1, 0.4) @ plane_rotation(8, 4, 6, -1.1)
        pin = normalize_phase(implement_pin(model22, g))
        oracle = normalize_phase(implement_oracle(model22, g, rng=rng))
        assert maxabs(pin.unitary - oracle.unitary) < 1e-11

    def test_parity_even(self, model22):
        g = random_special_orthogonal(8, rng)
        imp = implement_pin(model22, g)
        assert imp.parity == "even"
        G = model22.grading
        assert maxabs(imp.unitary @ G - G @ imp.unitary) < 1e-11

    def test_rejects_reflections(self, model22):
        with pytest.raises(NotSpecialOrthogonal):
            implement_pin(model22, np.diag([-1.0] + [1.0] * 7))

    def test_returns_the_vacuum_normalized_unitary(self, model22):
        imp = implement_pin(model22, random_special_orthogonal(8, rng))
        assert imp.normalization == "vacuum"
        assert np.array_equal(normalize_phase(imp).unitary, imp.unitary)

    def test_zero_vacuum_overlap_falls_back_to_scan(self, model22):
        # e_0 and e_1 carry different internal axes, so pi(e_0) pi(e_1) Omega,
        # the rotated vacuum of a pi rotation in their plane, is orthogonal to Omega
        g = plane_rotation(8, 0, 1, np.pi)
        imp = implement_pin(model22, g)
        assert imp.normalization == "scan"
        assert implementation_residual(model22, imp.unitary, g) <= 1e-12
        oracle = normalize_phase(implement_oracle(model22, g, rng=rng), "scan")
        assert maxabs(imp.unitary - oracle.unitary) <= 1e-12

    @pytest.mark.parametrize("planted", [False, True])
    def test_a_wrong_creator_sign_fails_the_agreement_record(self, monkeypatch, tmp_path, planted):
        # b^dag_1 -> -b^dag_1 multiplies U by (-1) to the occupation of mode 1,
        # an implementer of another map
        creators = loopfock.bogoliubov.rotated_creators

        def flipped(model, g):
            out = creators(model, g)
            out[1] *= -1.0
            return out

        if planted:
            monkeypatch.setattr(loopfock.bogoliubov, "rotated_creators", flipped)
        path = tmp_path / "report.json"
        code = main(["--points", "4", "--dim", "2", "--suite", "bogoliubov", "--report", str(path)])
        record = next(r for r in json.loads(path.read_text())["records"]
                      if r["name"] == "pin oracle agreement")
        assert record["passed"] is not planted
        assert (record["residual"] > record["tolerance"]) is planted
        assert code == (1 if planted else 0)


# Fock dimensions 4, 16, 16, 64 and 64
PIN_CONFIGS = [(1, 2), (2, 2), (1, 4), (3, 2), (2, 3)]
# pi rotations can leave no vacuum overlap, quarter turns a signed permutation
ANGLES = st.one_of(st.sampled_from([np.pi, -np.pi, np.pi / 2]), st.floats(-np.pi, np.pi))


@functools.cache
def pin_model(nd):
    return build_clifford_model(*nd)


@st.composite
def special_orthogonal_maps(draw, D):
    """Products of up to three factors: signed permutations, plane rotations
    and generic rotations, each of determinant +1 by construction."""
    g = np.eye(D)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["signed permutation", "plane rotation", "generic"]))
        if kind == "signed permutation":
            perm = draw(st.permutations(range(D)))
            signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=D, max_size=D)))
            factor = np.eye(D)[:, perm] * signs
            if np.linalg.det(factor) < 0:
                factor[:, 0] *= -1.0
        elif kind == "plane rotation":
            i = draw(st.integers(0, D - 1))
            j = (i + draw(st.integers(1, D - 1))) % D
            factor = plane_rotation(D, i, j, draw(ANGLES))
        else:
            factor = random_special_orthogonal(D, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
        g = g @ factor
    return g


@settings(derandomize=True, max_examples=250, deadline=None)
@given(data=st.data())
def test_pin_matches_oracle_property(data):
    """The rotated vacuum and the averaging kernel implement one map, up to
    phase, on signed permutations, pi rotations and their products too."""
    model = pin_model(data.draw(st.sampled_from(PIN_CONFIGS)))
    g = data.draw(special_orthogonal_maps(model.dim_h))
    pin = implement_pin(model, g)
    oracle = implement_oracle(model, g, rng=np.random.default_rng(0))
    assert projective_distance(pin.unitary, oracle.unitary) < 1e-10


class TestNormalization:
    def test_vacuum_example(self, micro):
        theta = 0.37
        imp = implement_oracle(micro, plane_rotation(2, 0, 1, theta), rng=rng)
        norm = normalize_phase(imp)
        assert maxabs(norm.unitary - np.diag([1.0, np.exp(-1j * theta)])) < 1e-12
        assert norm.normalization == "vacuum"

    def test_scalars_normalize_to_one(self, model12):
        imp = implement_oracle(model12, np.eye(4), rng=rng)
        for z in (1.0, 1j, np.exp(0.3j)):
            scaled = type(imp)(z * imp.unitary, imp.implemented, imp.parity, "raw")
            assert maxabs(normalize_phase(scaled).unitary - np.eye(4)) < 1e-12
            assert maxabs(normalize_phase(scaled, "scan").unitary - np.eye(4)) < 1e-12

    def test_idempotent(self, model22):
        imp = implement_pin(model22, random_special_orthogonal(8, rng))
        once = normalize_phase(imp)
        twice = normalize_phase(once)
        assert maxabs(once.unitary - twice.unitary) < 1e-15

    def test_scan_fallback_on_degenerate_overlap(self, micro):
        imp = implement_oracle(micro, plane_rotation(2, 0, 1, np.pi), rng=rng)
        # vacuum expectation of diag(i, -i) normalizes fine; build a unitary
        # with an exactly zero corner instead
        U = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        fake = type(imp)(U, np.eye(2), "odd", "raw")
        norm = normalize_phase(fake)
        assert norm.normalization == "scan"
        assert maxabs(norm.unitary - U) < 1e-12

    @pytest.mark.parametrize("mode", ["scan", "vacuum"])
    def test_scan_without_pivot_raises(self, mode):
        # vacuum mode falls back to scan on the zero corner, and scan finds
        # no significant entry: an error, not a NaN unitary
        zero = Implementer(np.zeros((2, 2), dtype=complex), np.eye(2), "even", "raw")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInput, match="no pivot"):
                normalize_phase(zero, mode)


def even_unitary_blocks(model, rng, vacuum_overlap=None):
    """Blocks (2, N/2, N/2) of a random even unitary; with vacuum_overlap, the
    even block's first column and first row mixed so that entry [0, 0, 0] has it."""
    h = model.fock_dim // 2
    blocks = np.stack([np.linalg.qr(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))[0]
                       for _ in range(2)])
    if vacuum_overlap is not None:
        # a unitary mix of the first two columns takes (a, b) to r (c, -s)
        a, b = blocks[0, 0, :2]
        r = np.hypot(abs(a), abs(b))
        c = vacuum_overlap / r
        s = np.sqrt(1.0 - c * c)
        G = np.array([[np.conj(a), -b], [np.conj(b), a]]) / r @ np.array([[c, -s], [s, c]])
        blocks[0, :, :2] = blocks[0, :, :2] @ G
    return blocks


class TestNormalizationLayouts:
    """normalize_phase on an even block stack and on its dense embedding."""

    @pytest.mark.parametrize("mode, overlap, used", [
        ("vacuum", None, "vacuum"), ("scan", None, "scan"), ("vacuum", 0.0, "scan"),
        ("vacuum", DEFAULT_TOL.rank_tol / 4, "scan"), ("scan", 0.0, "scan")])
    def test_blocks_and_dense_agree_bit_for_bit(self, mode, overlap, used):
        model = build_clifford_model(2, 2)
        places = model.parity_blocks
        blocks = even_unitary_blocks(model, np.random.default_rng(11), overlap)
        if overlap is not None:
            assert abs(abs(blocks[0, 0, 0]) - overlap) <= 1e-15
        dense = embed_even(places, blocks)
        on_blocks = normalize_phase(Implementer(blocks, np.eye(8), "even", "raw"), mode)
        on_dense = normalize_phase(Implementer(dense, np.eye(8), "even", "raw"), mode)
        assert on_blocks.normalization == on_dense.normalization == used
        assert on_blocks.unitary.shape == blocks.shape
        dense_blocks = on_dense.unitary[places[:, :, None], places[:, None, :]]
        assert on_blocks.unitary.tobytes() == dense_blocks.tobytes()
        assert not np.any(on_dense.unitary[places[0][:, None], places[1]])
        # scan skips a vacuum entry of at most eq_tol
        pivot = on_blocks.unitary[0, 0, 0 if overlap is None else 1]
        assert pivot.imag == 0.0 and pivot.real > 0.0

    def test_lift_blocks_against_the_dense_pointwise_unitary(self):
        model, spin = build_clifford_model(2, 3), SpinGroup(3)
        local = np.random.default_rng(12)
        for _ in range(4):
            loop = spin.samples(local, 4)
            raw = pointwise_unitary(model, spin, loop)
            g = omega_matrix(model, spin, loop)
            for mode in ("vacuum", "scan"):
                on_blocks = normalize_phase(Implementer(raw, g, "even", "raw"), mode)
                dense = embed_even(model.parity_blocks, raw)
                on_dense = normalize_phase(Implementer(dense, g, "even", "raw"), mode)
                assert on_blocks.normalization == on_dense.normalization == mode
                assert embed_even(model.parity_blocks, on_blocks.unitary).tobytes() == on_dense.unitary.tobytes()


# entry magnitudes around both cutoffs of normalize_phase: below rank_tol a
# vacuum overlap falls back to scan, at or below eq_tol scan skips the entry
CUTOFF_SCALES = (0.0, 1e-13, DEFAULT_TOL.rank_tol, 3e-11, DEFAULT_TOL.eq_tol, 2e-9, 1.0)
entries = st.builds(lambda scale, x, y: scale * complex(x, y),
                    st.sampled_from(CUTOFF_SCALES),
                    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(size=st.integers(1, 3), data=st.data(), mode=st.sampled_from(["vacuum", "scan"]))
def test_normalize_phase_property_idempotent(size, data, mode):
    """A second normalization in the same mode changes nothing, bit for bit,
    on any matrix: generic, with a degenerate vacuum overlap, or with no
    significant entry at all."""
    U = np.array(data.draw(st.lists(entries, min_size=size * size, max_size=size * size)),
                 dtype=complex).reshape(size, size)
    imp = Implementer(U, np.eye(2), "even", "raw")
    try:
        once = normalize_phase(imp, mode)
    except SingularInput:
        assert maxabs(U) <= DEFAULT_TOL.eq_tol
        with pytest.raises(SingularInput):
            normalize_phase(Implementer(1j * U, np.eye(2), "even", "raw"), mode)
        return
    assert once.normalization == ("scan" if mode == "scan" or abs(U[0, 0]) < DEFAULT_TOL.rank_tol
                                  else "vacuum")
    twice = normalize_phase(once, mode)
    assert twice.normalization == once.normalization
    assert np.array_equal(twice.unitary, once.unitary)
    assert np.allclose(np.abs(once.unitary), np.abs(U), rtol=1e-15, atol=0)


@pytest.mark.parametrize("mode, corner", [("scan", DEFAULT_TOL.eq_tol),
                                          ("vacuum", np.nextafter(DEFAULT_TOL.rank_tol, 0))])
def test_normalize_phase_idempotent_at_cutoffs(mode, corner):
    # a corner entry just at or below a cutoff can cross it when the phase of
    # a later pivot is applied; the second pass must not move the pivot
    for phase in np.exp(2j * np.pi * np.linspace(0, 1, 400, endpoint=False)):
        U = np.array([[corner, 2e-9 * phase], [0.3, 0.1j]], dtype=complex)
        once = normalize_phase(Implementer(U, np.eye(2), "even", "raw"), mode)
        twice = normalize_phase(once, mode)
        assert twice.normalization == once.normalization
        assert np.array_equal(twice.unitary, once.unitary)


def test_normalize_phase_nan_vacuum_overlap_scans():
    U = np.array([[np.nan, 1j], [1.0, 0.0]], dtype=complex)
    norm = normalize_phase(Implementer(U, np.eye(2), "even", "raw"), "vacuum")
    assert norm.normalization == "scan"
    assert norm.unitary[0, 1] == 1.0


class TestCocycle:
    def test_identity_pair(self, model12):
        assert abs(extension_cocycle(model12, np.eye(4), np.eye(4)) - 1.0) < 1e-12

    def test_same_plane_rotations(self, model12):
        g = plane_rotation(4, 0, 1, 0.6)
        h = plane_rotation(4, 0, 1, 0.9)
        assert abs(extension_cocycle(model12, g, h) - 1.0) < 1e-10

    def test_cocycle_identity_random_triples(self, model12):
        for _ in range(50):
            g, h, k = (random_special_orthogonal(4, rng) for _ in range(3))
            lhs = extension_cocycle(model12, g, h) * extension_cocycle(model12, g @ h, k)
            rhs = extension_cocycle(model12, g, h @ k) * extension_cocycle(model12, h, k)
            assert abs(lhs - rhs) < 1e-10

    def test_unit_modulus(self, model22):
        for _ in range(10):
            c = extension_cocycle(model22, random_special_orthogonal(8, rng),
                                  random_special_orthogonal(8, rng))
            assert abs(abs(c) - 1.0) < 1e-10


class TestDerived:
    def test_zero(self, model12):
        assert maxabs(derived_implementer(model12, np.zeros((4, 4)))) == 0.0

    def test_linearity(self, model22):
        X, Y = random_skew(8, rng), random_skew(8, rng)
        dsum = derived_implementer(model22, X + Y)
        assert maxabs(dsum - derived_implementer(model22, X) - derived_implementer(model22, Y)) < 1e-11

    def test_exponential_matches_pin(self, model22):
        K = np.zeros((8, 8))
        K[3, 1], K[1, 3] = 1.0, -1.0
        dK = derived_implementer(model22, K)
        for theta in rng.uniform(-2.5, 2.5, size=10):
            w, V = np.linalg.eigh(1j * theta * dK)
            U_exp = (V * np.exp(-1j * w)) @ V.conj().T
            pin = implement_pin(model22, plane_rotation(8, 1, 3, theta))
            # agreement is up to the vacuum phase of the exponential
            assert projective_distance(U_exp, pin.unitary) < 1e-10

    def test_vacuum_expectation_vanishes(self, model22):
        X = random_skew(8, rng)
        assert abs(derived_implementer(model22, X)[0, 0]) < 1e-12


class TestNanGuards:
    """A planted NaN fails each guard of the module with the guard's own
    error; written as res > tol, a guard lets it through."""

    def test_nan_maps(self):
        planted = np.eye(4)
        planted[1, 2] = np.nan
        with pytest.raises(NotOrthogonal, match="deviates"):
            check_orthogonal(planted)
        with pytest.raises(ValueError, match="antisymmetric"):
            check_skew(planted)

    def test_nan_derived_implementer(self, model12, monkeypatch):
        # past check_skew, which refuses the NaN itself
        monkeypatch.setattr(loopfock.bogoliubov, "check_skew", lambda X, tol: X)
        X = random_skew(4, rng)
        X[0, 1] = np.nan
        with pytest.raises(ContractViolation):
            derived_implementer(model12, X)

    @pytest.mark.parametrize("defect, lam, match", [(np.nan, 1.0, "defect"), (0.0, np.nan, "modulus")])
    def test_nan_cocycle(self, model12, monkeypatch, defect, lam, match):
        monkeypatch.setattr(loopfock.bogoliubov, "scalar_defect", lambda M: (defect, lam))
        with pytest.raises(NonScalarDefect, match=match):
            extension_cocycle(model12, np.eye(4), np.eye(4))

    def test_nan_schwinger_defect(self, model12, monkeypatch):
        monkeypatch.setattr(loopfock.bogoliubov, "scalar_defect", lambda M: (np.nan, 0.0))
        with pytest.raises(NonScalarDefect, match="anomaly"):
            schwinger_term(model12, random_skew(4, rng), random_skew(4, rng))


class TestSchwinger:
    def test_diagonal_vanishes(self, model12):
        X = random_skew(4, rng)
        assert abs(schwinger_term(model12, X, X)) < 1e-12

    def test_antisymmetry_and_bilinearity(self, model22):
        for _ in range(20):
            X, Y, Z = (random_skew(8, rng) for _ in range(3))
            a, b = rng.standard_normal(2)
            assert abs(schwinger_term(model22, X, Y) + schwinger_term(model22, Y, X)) < 1e-10
            combo = schwinger_term(model22, a * X + b * Y, Z)
            parts = a * schwinger_term(model22, X, Z) + b * schwinger_term(model22, Y, Z)
            assert abs(combo - parts) < 1e-9

    def test_jacobi(self, model22):
        comm = lambda P, Q: P @ Q - Q @ P
        for _ in range(10):
            X, Y, Z = (random_skew(8, rng) for _ in range(3))
            total = (schwinger_term(model22, comm(X, Y), Z)
                     + schwinger_term(model22, comm(Y, Z), X)
                     + schwinger_term(model22, comm(Z, X), Y))
            assert abs(total) < 1e-9

    def test_imaginary_valued(self, model22):
        s = schwinger_term(model22, random_skew(8, rng), random_skew(8, rng))
        assert abs(s.real) < 1e-10
