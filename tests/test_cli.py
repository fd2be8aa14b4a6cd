import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorgraphs import cli
from sectorgraphs.cli import _build_parser, _config_from_args, main
from sectorgraphs.degree_sets import DegreeSet
from sectorgraphs.config import (
    ConfigError,
    RunConfig,
    parse_alpha,
    parse_config_text,
    resolve_params,
    serialize_config,
    validate_config,
)


def run_cli(*args):
    return main(list(args))


# A non-default text form of every RunConfig field.
_NON_DEFAULT_TEXT = {
    "n": "2500", "alpha": "pi/2", "r": "0.05", "mu_target": "1.5", "v": "0.1",
    "q": "0.2", "mode": "poisson", "seed": "42", "trials": "64", "parallelism": "2",
    "slack": "0.2", "side": "in", "a_sets": "tail:7,set:0,1",
    "out": "runs/x", "outer_samples": "300", "ew_samples": "500", "trunc_cap": "1e-6",
    "n_grid": "100,1000", "r_grid": "0.1,0.2",
}


class TestConfig:
    def test_parse_alpha_forms(self):
        assert parse_alpha("pi") == math.pi
        assert parse_alpha("2pi") == 2 * math.pi
        assert parse_alpha("pi/2") == math.pi / 2
        assert parse_alpha("0.5pi") == 0.5 * math.pi
        assert parse_alpha("1.25") == 1.25
        with pytest.raises(ConfigError):
            parse_alpha("two pies")

    def test_round_trip_identity(self):
        text = """
        # comment
        n = 2500
        alpha = 1.5707963267948966
        mu_target = 1.0
        v = 0.1
        q = 0.2
        mode = poisson
        seed = 42
        trials = 64
        a_sets = tail:7,set:0,1
        n_grid = 100,1000
        """
        cfg = parse_config_text(text)
        assert cfg.a_sets == ("tail:7", "set:0,1")
        validate_config(cfg)
        assert cfg == parse_config_text(serialize_config(cfg))
        # a second serialize is byte-stable
        assert serialize_config(cfg) == serialize_config(parse_config_text(serialize_config(cfg)))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("bogus = 1")

    def test_requires_exactly_one_radius_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(RunConfig())
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(RunConfig(r=0.1, mu_target=1.0))
        validate_config(RunConfig(r=0.1))

    def test_field_specific_messages(self):
        with pytest.raises(ConfigError, match="alpha"):
            resolve_params(RunConfig(r=0.1, alpha=3 * math.pi), "binomial")
        # The model's fields are checked before a radius is derived from them.
        for field, value in (("alpha", 0.0), ("v", 1.0), ("n", 0)):
            with pytest.raises(ConfigError, match=f"^{field} must"):
                resolve_params(RunConfig(mu_target=1.0, **{field: value}), "binomial")
        with pytest.raises(ConfigError, match="trials"):
            validate_config(RunConfig(r=0.1, trials=0))
        with pytest.raises(ConfigError, match="a_sets"):
            validate_config(RunConfig(r=0.1, a_sets=("mid:3",)))
        for name in ("outer_samples", "ew_samples"):
            with pytest.raises(ConfigError, match=name):
                validate_config(RunConfig(r=0.1, **{name: 0}))

    def test_grid_entries_rejected(self):
        for n_grid in ((0,), (100, -1)):
            with pytest.raises(ConfigError, match="n_grid"):
                validate_config(RunConfig(mu_target=1.0, n_grid=n_grid))
        for r_grid in ((0.0,), (0.1, 0.5), (0.6,), (-0.1,)):
            with pytest.raises(ConfigError, match="r_grid"):
                validate_config(RunConfig(r=0.1, n_grid=(100,), r_grid=r_grid))
        validate_config(RunConfig(r=0.1, n_grid=(1, 100), r_grid=(1e-9, 0.49)))

    def test_negative_tail_rejected(self):
        with pytest.raises(ValueError, match="tail:-1"):
            DegreeSet.parse("tail:-1")
        with pytest.raises(ConfigError, match="a_sets: .*tail:-1"):
            validate_config(RunConfig(r=0.1, a_sets=("tail:-1",)))
        assert DegreeSet.parse("tail:0") == DegreeSet.upper_tail(0)
        assert DegreeSet.upper_tail(-1) == DegreeSet.upper_tail(0)
        validate_config(RunConfig(r=0.1, a_sets=("tail:0",)))

    def test_degree_sets_with_commas_round_trip(self):
        cfg = RunConfig(r=0.1, a_sets=("set:1,2", "tail:3", "set:"))
        text = serialize_config(cfg)
        assert "a_sets = set:1,2,tail:3,set:\n" in text
        back = parse_config_text(text)
        validate_config(back)
        assert back == cfg

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
    def test_flag_and_file_line_agree(self, field):
        text = _NON_DEFAULT_TEXT[field]
        flag = "--a-set" if field == "a_sets" else "--" + field.replace("_", "-")
        from_flag = _config_from_args(_build_parser().parse_args(["predict", flag, text]))
        from_file = parse_config_text(f"{field} = {text}")
        assert from_flag == from_file
        assert getattr(from_file, field) != getattr(RunConfig(), field)

    @pytest.mark.parametrize("out", ["runs#1", "a\nb", "a\rb", " runs", "runs\t", "runs\n"])
    def test_out_that_cannot_round_trip_rejected(self, out):
        with pytest.raises(ConfigError, match="^out: "):
            validate_config(RunConfig(r=0.1, out=out))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.text(alphabet=st.sampled_from("ab #=/\t\n\r\x85\u2028."), max_size=8))
    def test_accepted_out_replays(self, out):
        cfg = RunConfig(r=0.1, out=out)
        try:
            validate_config(cfg)
        except ConfigError:
            return
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_nonpositive_mu_target_rejected(self):
        for mu in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError, match="^mu_target: "):
                validate_config(RunConfig(mu_target=mu))

    @pytest.mark.parametrize("field, value", [
        ("slack", -0.1), ("slack", math.nan), ("slack", math.inf),
    ])
    def test_slack_and_epsilon_must_be_finite(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: must be finite"):
            validate_config(RunConfig(r=0.1, **{field: value}))


class TestPredict:
    def test_worked_prediction(self, capsys):
        rc = run_cli(
            "predict", "--n", "10000", "--alpha", "pi", "--mu-target", "1",
            "--v", "0", "--q", "0",
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "j=7 k=7" in out
        assert "P(max=6)=0.434999" in out
        assert "P(max=7)=0.565001" in out

    def test_missing_radius_source_exits_1(self, capsys):
        assert run_cli("predict", "--n", "100") == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mode", "bogus", "mode: must be binomial, poisson or both"),
            ("--side", "up", "side: must be out, in or both"),
            ("--n", "1e3", "n: cannot parse '1e3'"),
            ("--v", "tenth", "v: cannot parse 'tenth'"),
        ],
    )
    def test_bad_flag_value_exits_1(self, flag, value, message, capsys):
        rc = run_cli("predict", "--n", "100", "--mu-target", "1", flag, value)
        assert rc == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--mu-target", "-1"], "mu_target: must be > 0"),
            (["--mu-target", "1", "--alpha", "pi/0"], "alpha: division by zero"),
            (["--mu-target", "1", "--out", "runs#1"], "out: must not contain '#'"),
            (["--mu-target", "200"], "mu_target 200.0 needs r ="),  # RadiusOutOfRange
            (["--r", "0.1", "--v", "0.999"], "n*(1-v) = 0.1 must exceed 1"),  # NoFocusingIndex
            (["--mu-target", "1", "--epsilon", "1"], "unrecognized arguments: --epsilon 1"),
            (["--mu-target", "1", "--parallelism", "0"], "parallelism: must be >= 1"),
            (["--mu-target", "1", "--trunc-cap", "1"], "trunc_cap: must lie in (0, 1)"),
            (["--mu-target", "5e-324"], "r must lie in (0, 0.5)"),  # the radius underflows to 0
            (["--r", "1e-200"], "mean degree"),  # the mean degree underflows to 0
        ],
    )
    def test_user_input_errors_exit_1(self, args, message, capsys):
        assert run_cli("predict", "--n", "100", *args) == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["predict", "--n", "100", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
            ([], "the following arguments are required: command"),
            (["frobnicate"], "invalid choice"),
            (["predict", "--n"], "argument --n: expected one argument"),
            (["verify", "--selftest"], "unrecognized arguments: --selftest"),
        ],
    )
    def test_argument_errors_exit_1(self, argv, message, capsys):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err

    def test_whole_law_line_printed(self, capsys):
        rc = run_cli(
            "predict", "--n", "10000", "--alpha", "pi", "--mu-target", "2",
            "--v", "0.1", "--q", "0.2",
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "whole law: P(max in {8,9})=0.657993  likeliest pair P(max in {9,10})=0.809948" in out
        assert "regime" not in out and "warning" not in out

    def test_epsilon_key_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("n = 100\nmu_target = 1\nepsilon = 1\n")
        assert run_cli("predict", "--config", str(path)) == 1
        assert "unknown configuration key 'epsilon'" in capsys.readouterr().err

    def test_config_line_without_equals_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("n = 100\nmu_target 1\n")
        assert run_cli("predict", "--config", str(path)) == 1
        assert "config error: line 2: expected 'key = value'" in capsys.readouterr().err

    def test_config_file_not_text_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_bytes(b"n = 100\nmu_target = \xff\n")
        assert run_cli("predict", "--config", str(path)) == 1
        assert "config error: " in capsys.readouterr().err

    def test_removed_area_samples_key_exits_1(self, tmp_path, capsys):
        # Region areas are exact, so their sample count is no setting.
        path = tmp_path / "config.txt"
        path.write_text("n = 100\nmu_target = 1\narea_samples = 400\n")
        assert run_cli("bound", "--config", str(path)) == 1
        assert "unknown configuration key 'area_samples'" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_config_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("internal invariant broken")

        monkeypatch.setattr(cli, "predict", broken)
        with pytest.raises(ValueError, match="internal invariant broken"):
            run_cli("predict", "--n", "100", "--mu-target", "1")
        assert "config error" not in capsys.readouterr().err

    def test_alpha_out_of_range_exits_1(self, capsys):
        rc = run_cli("predict", "--n", "100", "--mu-target", "1", "--alpha", "3pi")
        assert rc == 1
        assert "alpha" in capsys.readouterr().err

    def test_report_written(self, tmp_path, capsys):
        rc = run_cli(
            "predict", "--n", "10000", "--alpha", "pi", "--mu-target", "1",
            "--out", str(tmp_path),
        )
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["prediction"]["k"] == 7
        assert (tmp_path / "config.txt").exists()

    def test_report_holds_the_whole_law(self, tmp_path, capsys):
        rc = run_cli(
            "predict", "--n", "10000", "--alpha", "pi", "--mu-target", "2",
            "--v", "0.1", "--q", "0.2", "--out", str(tmp_path),
        )
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert "regime" not in payload
        keys = [int(m) for m in payload["law"]]
        assert keys == list(range(keys[0], keys[0] + len(keys)))
        assert len(keys) > 10  # "10" follows "9", as it would not in text order
        assert payload["law"]["9"] == pytest.approx(0.540039, abs=5e-7)


class TestSimulate:
    def test_single_trial_csv(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--n", "200", "--alpha", "pi", "--mu-target", "1",
            "--trials", "1", "--out", str(tmp_path), "--seed", "3",
        )
        assert rc == 0
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial,seed,N,alive,max_out,max_in,empty"
        assert len(lines) == 2

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            rc = run_cli(
                "simulate", "--n", "300", "--alpha", "pi", "--mu-target", "1",
                "--trials", "8", "--seed", "11", "--mode", "poisson",
                "--out", str(tmp_path / sub),
            )
            assert rc == 0
        assert (tmp_path / "a/trials.csv").read_bytes() == (tmp_path / "b/trials.csv").read_bytes()

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = run_cli(
            "simulate", "--n", "100", "--alpha", "pi", "--mu-target", "1",
            "--trials", "1", "--out", str(blocker / "sub"),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and "Not a directory" in err

    def test_both_modes_rejected(self, capsys):
        rc = run_cli(
            "simulate", "--n", "100", "--alpha", "pi", "--mu-target", "1",
            "--mode", "both",
        )
        assert rc == 1

    def test_report_hist_keys_in_numeric_order(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--n", "2000", "--alpha", "2pi", "--mu-target", "2.3",
            "--trials", "40", "--seed", "1", "--out", str(tmp_path),
        )
        assert rc == 0
        hist = json.loads((tmp_path / "report.json").read_text())["max_out_hist"]
        keys = [int(k) for k in hist]
        assert "9" in hist and "10" in hist
        assert keys == sorted(keys)

    def test_replay_from_persisted_config(self, tmp_path, capsys):
        rc = run_cli(
            "simulate", "--n", "250", "--alpha", "pi/2", "--mu-target", "1",
            "--v", "0.1", "--trials", "6", "--seed", "13", "--mode", "poisson",
            "--out", str(tmp_path / "first"),
        )
        assert rc == 0
        rc = run_cli(
            "simulate", "--config", str(tmp_path / "first/config.txt"),
            "--out", str(tmp_path / "replay"),
        )
        assert rc == 0
        assert (tmp_path / "first/trials.csv").read_bytes() == (
            tmp_path / "replay/trials.csv"
        ).read_bytes()

    def test_radius_below_cell_budget(self, tmp_path, capsys):
        # Cells of side 1e-12 would need about 1e24 keys; the index
        # coarsens them instead.
        rc = run_cli(
            "simulate", "--n", "50", "--r", "1e-12", "--alpha", "pi",
            "--trials", "3", "--seed", "8", "--out", str(tmp_path),
        )
        assert rc == 0
        assert len((tmp_path / "trials.csv").read_text().splitlines()) == 4


class TestVerify:
    def test_wrong_k_override_fails_with_2(self, tmp_path, capsys):
        rc = run_cli(
            "verify", "--n", "500", "--alpha", "pi", "--mu-target", "1",
            "--trials", "150", "--seed", "5", "--override-k", "12",
            "--out", str(tmp_path),
        )
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_override_k_below_one_exits_1_before_any_trial(self, tmp_path, monkeypatch, capsys, k):
        monkeypatch.setattr(cli, "run_verify", None)
        rc = run_cli(
            "verify", "--n", "300", "--mu-target", "1", "--trials", "5",
            "--override-k", k, "--out", str(tmp_path / "v"),
        )
        assert rc == 1
        assert f"config error: override_k: must be at least 1, got {k}" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_override_k_one_runs(self, tmp_path, capsys):
        rc = run_cli(
            "verify", "--n", "300", "--mu-target", "1", "--trials", "5",
            "--override-k", "1", "--out", str(tmp_path),
        )
        assert rc == 2
        assert json.loads((tmp_path / "report.json").read_text())["prediction"]["k"] == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_nan_slack_exits_1_without_report(self, tmp_path, capsys):
        rc = run_cli(
            "verify", "--n", "300", "--alpha", "pi", "--mu-target", "1",
            "--trials", "10", "--slack", "nan", "--out", str(tmp_path / "v"),
        )
        assert rc == 1
        assert "config error: slack: must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_report_contains_both_modes(self, tmp_path, capsys):
        rc = run_cli(
            "verify", "--n", "300", "--alpha", "pi", "--mu-target", "1",
            "--trials", "100", "--mode", "both", "--slack", "1.0",
            "--out", str(tmp_path), "--seed", "4",
        )
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert set(payload["reports"]) == {"binomial", "poisson"}
        assert (tmp_path / "trials_binomial.csv").exists()
        assert (tmp_path / "trials_poisson.csv").exists()


class TestBound:
    def test_empty_set_zero_bound(self, tmp_path, capsys):
        rc = run_cli(
            "bound", "--n", "400", "--alpha", "pi", "--mu-target", "1",
            "--a-set", "set:", "--side", "out", "--out", str(tmp_path),
            "--outer-samples", "200", "--ew-samples", "200",
        )
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["bounds"][0]["bound"] == 0.0

    def test_with_empirical_dominance_recorded(self, tmp_path, capsys):
        rc = run_cli(
            "bound", "--n", "400", "--alpha", "pi", "--mu-target", "1",
            "--side", "out", "--trials", "400", "--out", str(tmp_path),
            "--outer-samples", "400", "--ew-samples", "1000", "--with-empirical", "--seed", "6",
        )
        assert rc == 0
        row = json.loads((tmp_path / "report.json").read_text())["bounds"][0]
        assert "empirical_tv" in row and "dominated" in row

    def test_degree_set_with_commas_replays(self, tmp_path, capsys):
        rc = run_cli(
            "bound", "--n", "400", "--alpha", "pi", "--mu-target", "1",
            "--a-set", "set:1,2", "--a-set", "tail:3", "--side", "out",
            "--outer-samples", "200", "--ew-samples", "200",
            "--seed", "2", "--out", str(tmp_path / "first"),
        )
        assert rc == 0
        rc = run_cli(
            "bound", "--config", str(tmp_path / "first/config.txt"),
            "--out", str(tmp_path / "replay"),
        )
        assert rc == 0
        first = (tmp_path / "first/report.json").read_bytes()
        assert first == (tmp_path / "replay/report.json").read_bytes()
        rows = json.loads(first)["bounds"]
        assert [row["degree_set"] for row in rows] == ["set:1,2", "tail:3"]

    @pytest.mark.parametrize("mode", [None, "binomial", "poisson"])
    def test_records_the_mode_it_computed(self, mode, tmp_path, capsys):
        # The bound is computed in Poisson mode, whatever mode is asked for.
        flags = ("--mode", mode) if mode else ()
        rc = run_cli(
            "bound", "--n", "400", "--alpha", "pi", "--mu-target", "1", *flags,
            "--side", "out", "--outer-samples", "200", "--ew-samples", "200",
            "--seed", "3", "--out", str(tmp_path / "first"),
        )
        assert rc == 0
        config = (tmp_path / "first/config.txt").read_text()
        report = (tmp_path / "first/report.json").read_bytes()
        assert "mode = poisson" in config.splitlines()
        assert json.loads(report)["params"]["mode"] == "poisson"
        rc = run_cli(
            "bound", "--config", str(tmp_path / "first/config.txt"),
            "--out", str(tmp_path / "replay"),
        )
        assert rc == 0
        assert (tmp_path / "replay/report.json").read_bytes() == report

    @pytest.mark.parametrize("flag", ["--outer-samples", "--ew-samples"])
    def test_zero_samples_exits_1(self, flag, tmp_path, capsys):
        rc = run_cli(
            "bound", "--n", "400", "--alpha", "pi", "--mu-target", "1",
            "--side", "out", flag, "0", "--out", str(tmp_path),
        )
        assert rc == 1
        assert not (tmp_path / "report.json").exists()
        name = flag[2:].replace("-", "_")
        assert f"config error: {name}: must be >= 1" in capsys.readouterr().err

    def test_negative_tail_exits_1(self, tmp_path, capsys):
        out = tmp_path / "d"
        rc = run_cli(
            "bound", "--n", "400", "--alpha", "pi", "--mu-target", "1",
            "--a-set", "tail:-1", "--out", str(out),
        )
        assert rc == 1
        assert not out.exists()
        assert "config error: a_sets:" in capsys.readouterr().err

    def test_impossible_truncation_budget_exits_3(self, tmp_path, capsys):
        rc = run_cli(
            "bound", "--n", "40000", "--alpha", "2pi", "--r", "0.45",
            "--a-set", "tail:1", "--side", "out", "--out", str(tmp_path),
            "--outer-samples", "100", "--ew-samples", "100", "--trunc-cap", "1e-300",
        )
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err


class TestSweep:
    def test_one_point_matches_verify(self, tmp_path, capsys):
        rc = run_cli(
            "sweep", "--n-grid", "400", "--alpha", "pi", "--mu-target", "1",
            "--trials", "80", "--seed", "5", "--mode", "poisson",
            "--slack", "1.0", "--out", str(tmp_path / "s"),
        )
        assert rc == 0
        rc = run_cli(
            "verify", "--n", "400", "--alpha", "pi", "--mu-target", "1",
            "--trials", "80", "--seed", "5", "--mode", "poisson",
            "--slack", "1.0", "--out", str(tmp_path / "v"),
        )
        assert rc == 0
        sweep_payload = json.loads((tmp_path / "s/report.json").read_text())
        verify_payload = json.loads((tmp_path / "v/report.json").read_text())
        point = sweep_payload["points"][0]["report"]
        direct = verify_payload["reports"]["poisson"]
        assert point["sides"]["out"]["hist"] == direct["sides"]["out"]["hist"]

    def test_summary_has_monotone_k_for_fixed_mu(self, tmp_path, capsys):
        rc = run_cli(
            "sweep", "--n-grid", "500,2000,8000", "--alpha", "pi",
            "--mu-target", "1", "--trials", "5", "--slack", "1.0",
            "--seed", "2", "--out", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("n,r,mu,j,k,a")
        ks = [int(line.split(",")[4]) for line in lines[1:]]
        assert ks == sorted(ks)

    def test_partial_failure_reported_on_stderr(self, tmp_path, capsys):
        # At n = 2, mu = 1 needs r >= 0.5, so that point errors; n = 400 passes.
        rc = run_cli(
            "sweep", "--n-grid", "2,400", "--alpha", "pi", "--mu-target", "1",
            "--trials", "20", "--slack", "1.0", "--seed", "3", "--out", str(tmp_path),
        )
        assert rc == 0
        assert "sweep: 1 of 2 points failed" in capsys.readouterr().err
        rows = (tmp_path / "summary.csv").read_text().splitlines()
        verdicts = [row.split(",")[-1] for row in rows]
        assert verdicts[1].startswith("ERROR:") and verdicts[2] == "PASS"

    def test_error_point_report_is_strict_json(self, tmp_path, capsys):
        # At n = 2, mu = 1 needs r >= 0.5, so that point has no radius.
        rc = run_cli(
            "sweep", "--n-grid", "2,200", "--mu-target", "1", "--v", "0.6",
            "--trials", "20", "--out", str(tmp_path),
        )
        assert rc == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        error_point = payload["points"][0]
        assert error_point["n"] == 2 and error_point["error"]
        assert error_point["r"] is None and error_point["report"] is None

    @pytest.mark.parametrize(
        "grid,field",
        [
            (("--n-grid", "0,2000", "--mu-target", "1"), "n_grid"),
            (("--n-grid", "400,400", "--r-grid", "0.6,0.01"), "r_grid"),
        ],
    )
    def test_invalid_grid_entry_exits_1(self, tmp_path, capsys, grid, field):
        rc = run_cli("sweep", *grid, "--alpha", "pi", "--trials", "10", "--out", str(tmp_path / "d"))
        assert rc == 1
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not (tmp_path / "d/summary.csv").exists()

    def test_misaligned_radius_grid_exits_1(self, capsys):
        rc = run_cli("sweep", "--n-grid", "100,200", "--r-grid", "0.1", "--trials", "2")
        assert rc == 1
        assert "config error: r_grid: " in capsys.readouterr().err

    def test_unused_n_is_not_validated(self, tmp_path, capsys):
        rc = run_cli(
            "sweep", "--n", "0", "--n-grid", "300", "--mu-target", "1",
            "--trials", "5", "--slack", "1.0", "--out", str(tmp_path),
        )
        assert rc == 0
        assert (tmp_path / "config.txt").read_text().startswith("n = 0\n")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--mu-target", "1", "--mode", "both"], "mode: sweep needs a single mode"),
            ([], "sweep needs exactly one of 'mu_target' or 'r_grid'"),
        ],
    )
    def test_schedule_and_mode_errors_exit_1(self, args, message, capsys):
        assert run_cli("sweep", "--n-grid", "100", "--trials", "2", *args) == 1
        assert f"config error: {message}" in capsys.readouterr().err

    def test_only_point_failing_exits_2(self, tmp_path, capsys):
        rc = run_cli(
            "sweep", "--n-grid", "300", "--mu-target", "1", "--trials", "5",
            "--slack", "0", "--seed", "1", "--out", str(tmp_path),
        )
        assert rc == 2
        assert "sweep: 1 of 1 points failed" in capsys.readouterr().err
        assert (tmp_path / "summary.csv").read_text().splitlines()[1].endswith(",FAIL")

    def test_zero_mean_degree_point_errors_and_the_rest_run(self, tmp_path, capsys):
        # At r = 1e-200 the mean degree underflows to 0: no two-point law.
        rc = run_cli(
            "sweep", "--n-grid", "1000,2000", "--r-grid", "1e-200,0.05",
            "--trials", "20", "--slack", "1", "--out", str(tmp_path),
        )
        assert rc == 0
        rows = (tmp_path / "summary.csv").read_text().splitlines()
        assert rows[1].startswith("1000,,,,,,,,ERROR:") and "mean degree" in rows[1]
        assert rows[2].startswith("2000,0.05,") and rows[2].endswith(",PASS")

    def test_empty_grid_exits_1(self, capsys):
        rc = run_cli("sweep", "--alpha", "pi", "--mu-target", "1")
        assert rc == 1
