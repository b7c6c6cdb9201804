import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopfock.algebra
import loopfock.clifford
import loopfock.loops
import loopfock.rep
import loopfock.suites
import loopfock.twogroup
from loopfock.cli import build_config, main
from loopfock.errors import ConfigError, NotInner
from loopfock.linalg import maxabs
from loopfock.report import (SUITE_NAMES, CheckRecord, RunConfig, emit_report,
                             strip_timing, summarize)
from loopfock.suites import Environment, modular_identity_terms, run_suites, tomita_checks
from reference import dense_modular_data, monomial_algebra


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_odd_mode_count_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(n=3, d=3).validate()

    def test_cap(self):
        with pytest.raises(ConfigError):
            RunConfig(n=5, d=2).validate()

    def test_bad_suite(self):
        with pytest.raises(ConfigError):
            RunConfig(suites=("clifford", "nope")).validate()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(seed=seed).validate()

    @pytest.mark.parametrize("gate", [float("inf"), float("nan"), -1.0, 0.0])
    def test_gate_must_be_positive_and_finite(self, gate):
        with pytest.raises(ConfigError, match="gate"):
            RunConfig(gate=gate).validate()

    def test_suite_order_is_canonical(self):
        cfg = RunConfig(suites=("rep", "clifford", "two-group"))
        assert cfg.ordered_suites() == ("clifford", "two-group", "rep")


def sample_records():
    return [
        CheckRecord("clifford", "a", "identity a", 1e-12, 1e-8, 0.1, 10),
        CheckRecord("clifford", "b", "identity b", 0.5, 1e-8, 0.2, 5),
        CheckRecord("string", "c", "observed c", 0.3, float("inf"), 0.3, 2),
    ]


class TestReports:
    def test_summary_counts(self):
        s = summarize(sample_records())
        assert s == {"total": 3, "passed": 1, "failed": 1, "exploratory": 1}

    def test_empty_summary(self):
        assert summarize([]) == {"total": 0, "passed": 0, "failed": 0, "exploratory": 0}

    def test_json_schema(self):
        data = emit_report(RunConfig(), sample_records(), "json")
        payload = json.loads(data.decode())
        assert set(payload) == {"config", "records", "summary"}
        rec = payload["records"][0]
        assert set(rec) == {"suite", "name", "anchor", "residual", "tolerance",
                            "passed", "wall_time", "sample_count"}
        assert payload["records"][2]["tolerance"] is None  # exploratory
        assert payload["summary"]["passed"] == 1

    def test_markdown_tables(self):
        text = emit_report(RunConfig(), sample_records(), "md").decode()
        assert "## clifford" in text and "## string" in text
        assert "| b | identity b |" in text
        assert "FAIL" in text and "info" in text

    def test_nan_residual_is_null_and_error_is_set_only_on_aborts(self):
        nan = CheckRecord("string", "d", "identity d", float("nan"), 1e-8, 0.4, 1)
        aborted = CheckRecord("tomita", "tomita aborted", "the suite ran to its end", float("nan"), 1e-8,
                              0.5, 0, error="NotInner: planted")
        assert not nan.passed and not aborted.passed and not aborted.exploratory
        payload = json.loads(emit_report(RunConfig(), sample_records() + [nan, aborted], "json").decode())
        assert [(r["residual"], r.get("error")) for r in payload["records"][3:]] == \
            [(None, None), (None, "NotInner: planted")]
        assert ["error" in r for r in payload["records"]] == [False] * 4 + [True]
        assert payload["summary"]["failed"] == 3
        text = emit_report(RunConfig(), [nan, aborted], "md").decode()
        assert "| d | identity d | nan |" in text
        assert "| tomita aborted | the suite ran to its end | NotInner: planted |" in text

    def test_strip_timing_normalizes(self):
        recs = sample_records()
        a = emit_report(RunConfig(), recs, "json")
        recs[0].wall_time = 9.9
        b = emit_report(RunConfig(), recs, "json")
        assert a != b
        assert strip_timing(a) == strip_timing(b)


records = st.builds(CheckRecord, st.sampled_from(SUITE_NAMES), st.text(), st.text(),
                    st.floats(), st.floats(min_value=0.0), st.floats(min_value=0.0),
                    st.integers(1, 10 ** 6))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(recs=st.lists(records, max_size=6), seed=st.integers(0, 2 ** 64 - 1))
def test_strip_timing_property_idempotent(recs, seed):
    once = strip_timing(emit_report(RunConfig(seed=seed), recs, "json"))
    assert strip_timing(once) == once
    assert all(r["wall_time"] == 0.0 for r in json.loads(once)["records"])


@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(-2 ** 64, 2 ** 65))
def test_reports_property_byte_identical_for_any_seed(seed):
    """Two runs of one configuration give the same stripped report; seeds
    outside 64 bits are a configuration error, not a crash."""
    cfg = RunConfig(n=1, d=2, suites=("clifford", "two-group"), seed=seed)
    if not 0 <= seed < 2 ** 64:
        with pytest.raises(ConfigError, match="seed"):
            run_suites(cfg)
        return
    _, r1 = run_suites(cfg)
    _, r2 = run_suites(cfg)
    assert strip_timing(emit_report(cfg, r1, "json")) == strip_timing(emit_report(cfg, r2, "json"))


CONFIG_KEYS = ("points", "dim", "seed", "suite", "tol", "report", "format", "dump", "loop")
config_values = st.one_of(
    st.sampled_from(["4", "2", "6", "16", "0", "-2", "5", "1e-7", "nan", "inf", "1e400",
                     "-0.0", "", "abc", "all", "tomita,string", ",", "json", "md", "xml",
                     "0x10", "1_0", "\u0664", "9" * 5000, "r.json"]),
    st.integers().map(str), st.floats().map(repr), st.text(max_size=12))
config_lines = st.one_of(
    st.builds("{}={}".format, st.sampled_from(CONFIG_KEYS), config_values),
    st.builds("{}={}".format, st.sampled_from(("config", "sead", "", "Points", " dim")) | st.text(max_size=6),
              config_values),
    st.sampled_from(["# comment", "", "   ", "points", "==", "dim 2"]),
    st.text(max_size=16),
).map(lambda line: line.encode("utf-8", "surrogatepass")) | st.binary(max_size=16)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(lines=st.lists(config_lines, max_size=8))
def test_config_file_property_validates_or_raises_config_error(lines, tmp_path_factory):
    """Any config file gives a validated RunConfig or a ConfigError."""
    cfgfile = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfgfile.write_bytes(b"\n".join(lines))
    try:
        cfg, _ = build_config(["--config", str(cfgfile)])
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig) and cfg.validate() is cfg


class TestDeterminism:
    def test_two_group_suite_reports_identical(self):
        cfg = RunConfig(n=1, d=2, suites=("two-group",))
        _, r1 = run_suites(cfg)
        _, r2 = run_suites(cfg)
        a = strip_timing(emit_report(cfg, r1, "json"))
        b = strip_timing(emit_report(cfg, r2, "json"))
        assert a == b

    def test_suite_independence(self):
        # a suite run alone reports the same residuals as inside a full run
        cfg_all = RunConfig(n=1, d=2)
        cfg_one = RunConfig(n=1, d=2, suites=("two-group",))
        _, r_all = run_suites(cfg_all)
        _, r_one = run_suites(cfg_one)
        inside = {r.name: r.residual for r in r_all if r.suite == "two-group"}
        alone = {r.name: r.residual for r in r_one}
        assert inside == alone

    def test_wall_time_is_time_since_previous_record(self, monkeypatch):
        # only the two pi0_pi1 calls of the "pi structure" check advance the clock
        clock = [0.0]
        pi0_pi1 = loopfock.twogroup.pi0_pi1

        def ticking(*args, **kwargs):
            clock[0] += 1.0
            return pi0_pi1(*args, **kwargs)

        monkeypatch.setattr(loopfock.suites.time, "perf_counter", lambda: clock[0])
        monkeypatch.setattr(loopfock.twogroup, "pi0_pi1", ticking)
        _, records = run_suites(RunConfig(n=1, d=2, suites=("two-group",)))
        times = {r.name: r.wall_time for r in records}
        assert len(times) == 9
        assert times.pop("pi structure") == 2.0
        assert set(times.values()) == {0.0}

    def test_all_alias(self):
        cfg, _ = build_config(["--points", "2", "--dim", "2", "--suite", "all"])
        assert set(cfg.ordered_suites()) == {"clifford", "bogoliubov", "tomita",
                                             "two-group", "string", "rep"}

    def test_seed_changes_nothing_structural_but_samples(self):
        base = RunConfig(n=1, d=2, suites=("two-group",))
        other = RunConfig(n=1, d=2, suites=("two-group",), seed=99)
        _, r1 = run_suites(base)
        _, r2 = run_suites(other)
        assert [r.name for r in r1] == [r.name for r in r2]


def record_named(records, name):
    return next(r for r in records if r.name == name)


class TestGatedRecords:
    def test_monomial_span_fails_on_a_short_span(self, monkeypatch):
        cfg = RunConfig(n=2, d=2, suites=("clifford",))
        assert record_named(run_suites(cfg)[1], "monomial span").passed
        monomials = loopfock.clifford.clifford_monomials

        def short(model, points):
            # the last monomial repeats the one before: 15 of 16 left
            stack = monomials(model, points)
            stack[-1] = stack[-2]
            return stack

        monkeypatch.setattr(loopfock.clifford, "clifford_monomials", short)
        assert not record_named(run_suites(cfg)[1], "monomial span").passed

    def test_string_crossed_module_fails_on_swapped_lift_blocks(self, monkeypatch):
        cfg = RunConfig(n=2, d=2, suites=("string",))
        code, records = run_suites(cfg)
        assert code == 0 and record_named(records, "string crossed module").passed
        honest = loopfock.loops.string_crossed_module

        def planted(model, spin, alg, tol):
            # the action conjugates by a wrong doubled-path factor: the true one
            # times the frame part of a vertex-1 generator, which is odd
            cm = honest(model, spin, alg, tol)
            odd = alg.generator_hats[model.d]

            def act(p, ext):
                frame = cm.fiber.frame_loop(loopfock.loops.double_path(p, tol))
                return cm.fiber.conj(dataclasses.replace(frame, factor=odd @ frame.factor), ext)

            return dataclasses.replace(cm, act=act)

        monkeypatch.setattr(loopfock.loops, "string_crossed_module", planted)
        code, planted_records = run_suites(cfg)
        assert code == 1
        assert not record_named(planted_records, "string crossed module").passed
        assert [r.name for r in planted_records if not r.passed] == ["string crossed module"]

    @pytest.mark.parametrize("n, d, crossed_module_fails", [(2, 2, False), (2, 3, True)])
    def test_frame_fiber_agreement_fails_on_a_wrong_table_sign(self, monkeypatch, n, d, crossed_module_fails):
        cfg = RunConfig(n=n, d=d, suites=("string",))
        code, records = run_suites(cfg)
        honest = record_named(records, "frame fiber agreement")
        assert code == 0 and honest.passed and honest.tolerance == cfg.gate and honest.sample_count == 20
        tables = loopfock.loops.frame_monomials

        def planted(hats, d):
            # the largest entry of vertex 1's first bivector monomial changes sign
            out = tables(hats, d)
            entry = np.unravel_index(np.argmax(np.abs(out[1, 1])), out[1, 1].shape)
            out[(1, 1) + entry] *= -1
            return out

        monkeypatch.setattr(loopfock.loops, "frame_monomials", planted)
        code, records = run_suites(cfg)
        failed = [r.name for r in records if not r.passed]
        assert code == 1 and "frame fiber agreement" in failed
        # at d = 2 every vertex factor lies in one commutative algebra, so a
        # wrong factor still satisfies the crossed-module axioms
        assert ("string crossed module" in failed) == crossed_module_fails
        assert set(failed) <= {"frame fiber agreement", "string crossed module"}

    def test_one_frame_per_report(self, monkeypatch):
        calls = []
        honest = loopfock.algebra.clifford_frame

        def counting(*args, **kwargs):
            calls.append(1)
            return honest(*args, **kwargs)

        monkeypatch.setattr(loopfock.algebra, "clifford_frame", counting)
        monkeypatch.setattr(loopfock.rep, "clifford_frame", counting)
        code, _ = run_suites(RunConfig(n=2, d=3, suites=("clifford", "tomita", "two-group", "string")))
        assert code == 0 and len(calls) == 1

    def test_double_commutant_record(self, plant_second_half):
        env = Environment(RunConfig(n=2, d=2, suites=("tomita",)))
        A, model = env.ctx.algebra, env.model

        def all_pairs(second):
            twisted = model.grading_signs[:, None] * second
            return maxabs(np.einsum("aij,bjk->abik", A.generators, twisted)
                          - np.einsum("bij,ajk->abik", twisted, A.generators))

        second = loopfock.rep.half_generators(model, "second")
        untouched = record_named(tomita_checks(env), "double commutant")
        assert untouched.passed
        assert untouched.residual == pytest.approx(all_pairs(second), rel=0, abs=1e-15)
        # A's first generator g in place of the last b: Gamma g does not commute with g
        second = second.copy()
        second[-1] = A.generators[0]
        plant_second_half(second)
        planted = record_named(tomita_checks(env), "double commutant")
        assert not planted.passed
        assert planted.residual == pytest.approx(all_pairs(second), rel=1e-12)

    def test_double_commutant_fails_without_the_grading_twist(self, plant_second_half):
        env = Environment(RunConfig(n=2, d=2, suites=("tomita",)))
        model = env.model
        second = loopfock.rep.half_generators(model, "second")
        assert record_named(tomita_checks(env), "double commutant").passed
        # Gamma b in place of b: the record's twist gives back the b, which
        # anticommute with the first half
        plant_second_half(model.grading_signs[:, None] * second)
        planted = record_named(tomita_checks(env), "double commutant")
        assert not planted.passed and planted.residual == pytest.approx(2.0)

    def test_conjugation_record_fails_on_a_planted_reflection(self, monkeypatch):
        env = Environment(RunConfig(n=2, d=2, suites=("tomita",)))
        sfd = env.ctx.sfd
        assert record_named(tomita_checks(env), "conjugation onto commutant").passed
        # J g J replaced by g, which anticommutes with A's other generators;
        # the canonical implementations keep the true reflection
        honest = dataclasses.replace(sfd)
        canonical = loopfock.algebra.canonical_implementation
        monkeypatch.setattr(loopfock.algebra, "canonical_implementation",
                            lambda _, *args, **kwargs: canonical(honest, *args, **kwargs))
        monkeypatch.setattr(sfd, "reflect", lambda U: U)
        planted = record_named(tomita_checks(env), "conjugation onto commutant")
        assert planted.residual > 0.1 and not planted.passed

    @pytest.mark.parametrize("wrong", ["first half", "twisted second half"])
    def test_twisted_duality_fails_on_a_wrong_second_half(self, plant_second_half, wrong):
        env = Environment(RunConfig(n=2, d=2, suites=("tomita",)))
        model = env.model
        assert record_named(tomita_checks(env), "twisted duality").passed
        if wrong == "first half":
            plant_second_half(loopfock.rep.half_generators(model, "first"))
        else:
            # Gamma b for the second-half generators b: odd, and dressed with
            # Gamma they are -b, so the probes land in the commutant of B
            plant_second_half(model.grading_signs[:, None] * loopfock.rep.half_generators(model, "second"))
        assert not record_named(tomita_checks(env), "twisted duality").passed
        # each half of the record fails on its own: B inside A_perp, and A
        # as the super commutant of B
        res = loopfock.rep.check_twisted_duality(env.ctx)
        assert res["graded commutator A_perp with A"] > 0.1
        assert res["super commutant of A equals A_perp"] == 1.0
        assert res["span residual A"] > 0.1
        assert res["super commutant of A_perp equals A"] == 1.0

    def test_action_kernels_record_fails_on_a_planted_reflection(self, monkeypatch):
        env = Environment(RunConfig(n=2, d=2, suites=("tomita",)))
        sfd = env.ctx.sfd
        assert record_named(tomita_checks(env), "action kernels").passed
        # J u J replaced by u, which does not commute with the algebra; the
        # canonical implementations keep the true reflection
        honest = dataclasses.replace(sfd)
        canonical = loopfock.algebra.canonical_implementation
        monkeypatch.setattr(loopfock.algebra, "canonical_implementation",
                            lambda _, *args, **kwargs: canonical(honest, *args, **kwargs))
        monkeypatch.setattr(sfd, "reflect", lambda U: U)
        planted = record_named(tomita_checks(env), "action kernels")
        assert planted.residual > 0.1 and not planted.passed

    def test_modular_identities_fail_on_the_modular_data_of_the_second_half(self, monkeypatch):
        # the dense S, J and Delta of the second-half algebra B for the same
        # vacuum pass every polar and vacuum term; only S(a omega) = a^* omega
        # over A's matrix units tells them from A's
        env = Environment(RunConfig(n=2, d=2, suites=("tomita",)))
        B = monomial_algebra(env.model, "second")
        S, J, delta = dense_modular_data(B, env.model.vacuum)
        honest = loopfock.rep.tomita_data
        monkeypatch.setattr(loopfock.rep, "tomita_data", lambda *args: dataclasses.replace(
            honest(*args), tomita=S, conjugation=J, delta=delta))
        terms = modular_identity_terms(env.ctx.algebra, env.ctx.sfd)
        assert max(v for name, v in terms.items() if name != "S a omega") <= 1e-12
        assert terms["S a omega"] > 0.1
        _, records = run_suites(RunConfig(n=2, d=2, suites=("tomita",)))
        planted = record_named(records, "modular identities")
        assert not planted.passed and planted.residual == terms["S a omega"]

    def test_canonical_action_fails_on_a_planted_frame_image(self, monkeypatch):
        # conjugation_action with 1e-6 g_hat_1 added to the frame image of
        # g_0: the representative still comes from the implementer, so the
        # first draw's action check reads about 1e-6.  canonical_implementation
        # gates at the record's own tolerance, so the draw raises and the
        # suite ends in a failed abort instead of a passed record
        env = Environment(RunConfig(n=2, d=2, suites=("tomita",)))
        assert record_named(tomita_checks(env), "canonical action").passed
        honest = loopfock.algebra.conjugation_action

        def planted(U, alg, *args):
            theta = honest(U, alg, *args)
            images = theta.images.copy()
            images[0] += 1e-6 * alg.generator_hats[1]
            return dataclasses.replace(theta, images=images)

        monkeypatch.setattr(loopfock.algebra, "conjugation_action", planted)
        _, records = run_suites(RunConfig(n=2, d=2, suites=("tomita",)))
        assert "canonical action" not in [r.name for r in records if r.passed]
        assert records[-1].name == "tomita aborted" and not records[-1].passed
        assert records[-1].error.startswith("NotInner: canonical implementation failed action/J checks")
        assert all(r.passed for r in records[:-1])

    def test_modular_identities_resolve_to_rounding_at_3_2(self):
        # cond(Delta) is about 1.3e6 here; inverting Delta by eigh read 3.4e-10
        env = Environment(RunConfig(n=3, d=2, suites=("tomita",)))
        assert record_named(tomita_checks(env), "modular identities").residual <= 1e-12


class TestSampleCounts:
    # each record counts the draws its check took
    FIXED = {"matrix automorphism module": 50, "fiber lands in the algebra": 50,
             "well definedness": 50, "strict intertwiner": 50, "t compatibility": 100,
             "action compatibility": 100, "string crossed module": 100, "frame fiber agreement": 20,
             "fusion factorization": 12, "unit comparison scalar": 20, "twisted duality": 1,
             # every generator pair, or every generator, plus one sampled pair
             "anticommutation": 4 * 5 // 2 + 1, "star relation": 4 + 1}
    # small finite groups are enumerated whole, every tuple of G x G x H x H:
    # B(Z4), S3, B(Z2) and Z6 give 4^2 + 6^2 + 2^2 + 6^2, B(S3) 6^2, and both
    # intertwiners out of B(Z2) 2^2
    ENUMERATED = {"finite crossed modules": 92, "peiffer detects nonabelian": 36,
                  "inclusion intertwiner": 4, "intertwiner detects defect": 4,
                  # the round trips enumerate the 2-groups of the four stock
                  # examples, O x O x M x M, and draw 50 tuples for AUT(M2):
                  # 1 * 4^2 + 6^2 * 6^2 + 1 * 2^2 + 6^2 * 6^2 + 50; the crossed
                  # modules back, 4^2 + 6^2 + 2^2 + 6^2 + 50, plus 20 embedded
                  # draws each; 30 interchange draws, one inverse and one unit
                  # draw each; 50 centrality draws for each of the two pi examples
                  "minimal data": 2662, "functor round trip": 142 + 5 * 20,
                  "composition laws": 5 * (30 + 2), "pi structure": 2 * 50}

    def test_records_count_the_samples_their_checks_draw(self):
        cfg, _ = build_config(["--points", "2", "--dim", "2"])
        _, records = run_suites(cfg)
        counts = {r.name: r.sample_count for r in records}
        assert {name: counts[name] for name in self.FIXED} == self.FIXED
        assert {name: counts[name] for name in self.ENUMERATED} == self.ENUMERATED

    def test_samples_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--points", "2", "--dim", "2", "--samples", "7"])
        assert exc.value.code == 2
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("samples=7\n")
        assert main(["--config", str(cfgfile)]) == 2
        assert "unknown key samples" in capsys.readouterr().err
        assert "samples" not in {field.name for field in dataclasses.fields(RunConfig)}
        assert "samples" not in json.loads(emit_report(RunConfig(), [], "json"))["config"]


class TestAbortedSuite:
    """A check that raises fails its suite, not the run."""

    @pytest.fixture
    def planted(self, monkeypatch):
        def raising(ctx):
            raise NotInner("planted")
        monkeypatch.setattr(loopfock.rep, "check_twisted_duality", raising)

    def test_run_keeps_the_records_and_goes_on(self, planted, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["--points", "2", "--dim", "2", "--report", str(path)]) == 1
        records = json.loads(path.read_text())["records"]
        assert [r["name"] for r in records if r["suite"] == "tomita"] == \
            ["cyclic separating", "modular identities", "conjugation onto commutant", "tomita aborted"]
        aborted = next(r for r in records if r["name"] == "tomita aborted")
        assert aborted["error"] == "NotInner: planted" and aborted["residual"] is None
        assert aborted["passed"] is False and aborted["tolerance"] == RunConfig().gate
        assert [r for r in records if "error" in r] == [aborted]
        after = [r["suite"] for r in records[records.index(aborted) + 1:]]
        assert list(dict.fromkeys(after)) == ["two-group", "string", "rep"]
        out, err = capsys.readouterr()
        assert "tomita aborted" in out.split("error NotInner: planted")[0]
        assert "Traceback" in err and "NotInner: planted" in err

    def test_a_sign_flipped_canonical_implementation_aborts_tomita(self, monkeypatch, tmp_path):
        # -U acts as U does and commutes with J, but maps the cone to its
        # negative; U = W (u_hat (x) B^T) W^* with -B in place of B
        reflect = loopfock.algebra.StandardFormData.reflect_frame
        monkeypatch.setattr(loopfock.algebra.StandardFormData, "reflect_frame",
                            lambda self, u: -reflect(self, u))
        path = tmp_path / "report.json"
        assert main(["--points", "2", "--dim", "2", "--suite", "tomita", "--report", str(path)]) == 1
        records = json.loads(path.read_text())["records"]
        assert [r["name"] for r in records][-1] == "tomita aborted"
        assert all(r["passed"] for r in records[:-1])
        assert records[-1]["passed"] is False
        assert records[-1]["error"].startswith("ConeViolation: cone moved by ")

    def test_a_wrong_phase_in_the_conjugation_aborts_tomita(self, monkeypatch, tmp_path):
        # V^* in place of V in J's closed form: tomita_data refuses the data
        honest = loopfock.algebra._frame_conjugation
        monkeypatch.setattr(loopfock.algebra, "_frame_conjugation", lambda W, V: honest(W, V.conj().T))
        path = tmp_path / "report.json"
        assert main(["--points", "4", "--dim", "2", "--suite", "tomita", "--report", str(path)]) == 1
        records = json.loads(path.read_text())["records"]
        assert records[-1]["name"] == "tomita aborted" and records[-1]["passed"] is False
        assert records[-1]["error"].startswith("NotCyclicSeparating: modular data failed vacuum identities")

    def test_a_suite_called_directly_still_raises(self, planted):
        with pytest.raises(NotInner, match="planted"):
            tomita_checks(Environment(RunConfig(n=1, d=2, suites=("tomita",))))


class TestNanResiduals:
    def test_nan_schwinger_term_fails_loop_cocycle_antisymmetry(self, monkeypatch):
        monkeypatch.setattr(loopfock.bogoliubov, "schwinger_term", lambda *args: float("nan"))
        _, records = run_suites(RunConfig(n=1, d=2, suites=("string",)))
        rec = record_named(records, "loop cocycle antisymmetry")
        assert np.isnan(rec.residual) and not rec.passed


class TestCli:
    def test_flag_parsing(self):
        cfg, literal = build_config(["--points", "4", "--dim", "3", "--seed", "5",
                                     "--suite", "clifford", "--tol", "1e-7"])
        assert literal is None
        assert cfg.n == 2 and cfg.d == 3 and cfg.seed == 5
        assert cfg.suites == ("clifford",)
        assert cfg.gate == 1e-7

    def test_odd_points_rejected(self):
        with pytest.raises(ConfigError):
            build_config(["--points", "5", "--dim", "2"])

    def test_config_file_and_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("points=4\ndim=2\nseed=7\nsuite=two-group\n# comment\n")
        cfg, _ = build_config(["--config", str(cfgfile)])
        assert (cfg.n, cfg.d, cfg.seed) == (2, 2, 7)
        cfg, _ = build_config(["--config", str(cfgfile), "--seed", "8"])
        assert cfg.seed == 8

    @pytest.mark.parametrize("text, named", [
        (None, "missing.cfg"),
        ("points=abc\n", "points=abc"),
        ("seed=1.5\n", "seed=1.5"),
        ("dim=2\nsead=5\n", "sead"),
    ], ids=["missing file", "points", "seed", "unknown key"])
    def test_malformed_config_file_rejected(self, tmp_path, text, named):
        cfgfile = tmp_path / "missing.cfg"
        if text is not None:
            cfgfile.write_text(text)
        with pytest.raises(ConfigError, match=named):
            build_config(["--config", str(cfgfile)])

    def test_non_utf8_config_file_exits_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"points=4\ndim=2\n\xff=1\n")
        assert main(["--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.count("configuration error:") == 1 and "not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--report", "--dump"])
    def test_unwritable_output_path_exits_two(self, tmp_path, capsys, flag):
        path = str(tmp_path / "no-such-dir" / "out")
        code = main(["--points", "2", "--dim", "2", "--suite", "two-group", flag, path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("configuration error:") == 1 and path in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config, flags, named", [
        ("suite=\n", [], "no suite"),
        ("suite=two-group\nreport=\n", [], "report path is empty"),
        ("suite=two-group\ndump=\n", [], "dump path is empty"),
        (None, ["--suite", "two-group", "--report", ""], "report path is empty"),
        (None, ["--suite", "two-group", "--dump", ""], "dump path is empty"),
    ], ids=["suite=", "report=", "dump=", "--report", "--dump"])
    def test_empty_value_exits_two(self, tmp_path, capsys, config, flags, named):
        if config is not None:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(config)
            flags = ["--config", str(cfgfile)]
        assert main(["--points", "2", "--dim", "2"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.err.count("configuration error:") == 1 and named in captured.err
        assert "Traceback" not in captured.err and "passed" not in captured.out

    def test_exit_codes_and_report(self, tmp_path, capsys):
        report = tmp_path / "out.json"
        code = main(["--points", "2", "--dim", "2", "--suite", "two-group",
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["summary"]["failed"] == 0
        out = capsys.readouterr().out
        assert "passed" in out

    def test_one_dimensional_target_writes_a_report(self, tmp_path, capsys):
        # d = 1 has no rotation plane; every suite must still end in a report
        report = tmp_path / "out.json"
        code = main(["--points", "4", "--dim", "1", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["config"]["d"] == 1
        assert payload["summary"]["failed"] == 0 and payload["summary"]["passed"] > 0
        assert "Traceback" not in capsys.readouterr().err

    def test_exit_one_on_failure(self, tmp_path):
        # an absurdly tight gate forces failures without heavy computation
        code = main(["--points", "2", "--dim", "2", "--suite", "two-group",
                     "--tol", "1e-300"])
        assert code == 1

    def test_exit_two_on_config_error(self):
        assert main(["--points", "5", "--dim", "3"]) == 2

    def test_loop_literal(self, tmp_path, capsys):
        literal = "[[0.0], [0.4], [0.0], [0.0]]"
        code = main(["--points", "4", "--dim", "2", "--loop", literal])
        assert code == 0
        out = capsys.readouterr().out
        assert "half supported: True" in out
        assert "parity even" in out
        literal_file = tmp_path / "loop.json"
        literal_file.write_text("[[0.3], [0.4], [0.1], [0.2]]")
        code = main(["--points", "4", "--dim", "2", "--loop", str(literal_file)])
        assert code == 0
        assert "half supported: False" in capsys.readouterr().out

    def test_loop_literal_errors(self):
        assert main(["--points", "4", "--dim", "2", "--loop", "[[0.0]]"]) == 2
        assert main(["--points", "4", "--dim", "2", "--loop", "not json"]) == 2

    @pytest.mark.parametrize("key, value", [("report", "r.json"), ("format", "md"), ("suite", "tomita")])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_loop_refuses_suite_keys(self, tmp_path, monkeypatch, capsys, key, value, where):
        # a --loop run lifts the loop and returns: it ran no suite and wrote no report
        monkeypatch.chdir(tmp_path)
        args = ["--points", "4", "--dim", "2", "--loop", "[[0], [0], [0], [0]]"]
        if where == "flag":
            args += [f"--{key}", value]
        else:
            (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
            args += ["--config", "run.cfg"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--{key}" in captured.err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("literal", ["[" * 5000, "[" * 5000 + "]" * 5000],
                             ids=["unclosed", "closed"])
    def test_deeply_nested_loop_literal_exits_two(self, literal, capsys):
        assert main(["--points", "4", "--dim", "2", "--loop", literal]) == 2
        err = capsys.readouterr().err
        assert err.count("configuration error:") == 1 and "nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("binary", [False, True], ids=["directory", "binary file"])
    def test_unreadable_loop_file_exits_two(self, tmp_path, capsys, binary):
        path = tmp_path
        if binary:
            path = tmp_path / "loop.bin"
            path.write_bytes(b"\xff\xfe\x00[")
        code = main(["--points", "2", "--dim", "2", "--loop", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("configuration error:") == 1 and str(path) in err
        assert "Traceback" not in err

    def test_loop_does_not_build_the_representation_context(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("--loop built the representation context")

        monkeypatch.setattr(loopfock.rep, "build_context", refuse)
        code = main(["--points", "4", "--dim", "3", "--loop",
                     "[[0.1, 0.2, 0.3], [0.0, 0.4, 0.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]"])
        assert code == 0
        assert "parity even" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["clifford", "bogoliubov", "two-group", "string"])
    def test_context_free_suites_do_not_build_the_representation_context(self, suite, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError(f"--suite {suite} built the representation context")

        monkeypatch.setattr(loopfock.rep, "build_context", refuse)
        assert main(["--points", "2", "--dim", "2", "--suite", suite]) == 0

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_loop_rejects_non_finite_coordinates(self, bad, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--points", "2", "--dim", "2", "--loop", f"[[{bad}], [0]]"])
        assert code == 2
        err = capsys.readouterr().err
        assert "not finite" in err
        assert "det(g)" not in err

    def test_loop_rejects_coordinates_whose_exponential_overflows(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--points", "4", "--dim", "2", "--loop", "[[1e308],[1e308],[0],[0]]"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("configuration error: vertex 0: bivector coordinates [1e+308] "
                       "have no finite spin exponential\n")

    @pytest.mark.parametrize("bad", ["[1, 0]", "[[{}], [0]]"])
    def test_loop_rejects_malformed_coordinates(self, bad, capsys):
        code = main(["--points", "2", "--dim", "2", "--loop", bad])
        assert code == 2
        assert "must be a list of real numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["[" + "[" * 900 + "0" + "]" * 900 + ", [0]]",
                                     "[[" + ", ".join([f'"{"x" * 40}"'] * 200) + "], [0]]"],
                             ids=["nested vertex", "strings"])
    def test_loop_coordinate_errors_are_one_short_line(self, bad, capsys):
        code = main(["--points", "2", "--dim", "2", "--loop", bad])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith("configuration error: vertex 0:") and "entry 0" in err

    def test_dump(self, tmp_path):
        dump = tmp_path / "mats.txt"
        code = main(["--points", "2", "--dim", "2", "--suite", "two-group",
                     "--dump", str(dump)])
        assert code == 0
        text = dump.read_text()
        assert text.startswith("# lagrangian 4 2")
        assert "# grading 4 4" in text
        assert "# generator vertex 1 axis 1" in text
