import json

import pytest

from regbound.cli import main
from regbound.fuzz import FuzzConfig, run_fuzz, trial_seed
from regbound.groebner import parse_ideal_text

QUADRICS = "ring n=3 p=32003\nx1^2\nx2^2\nx3^2\n"


@pytest.fixture
def quadrics_file(tmp_path):
    path = tmp_path / "quadrics.ideal"
    path.write_text(QUADRICS)
    return str(path)


class TestAnalyzeCommand:
    def test_exact_run(self, quadrics_file, capsys):
        assert main(["analyze", quadrics_file, "--exact"]) == 0
        out = capsys.readouterr().out
        assert "dim_le1=4" in out
        assert "reg(S/I)=3" in out
        assert "dim_le1:OK" in out

    def test_json_schema_keys(self, quadrics_file, capsys):
        assert main(["analyze", quadrics_file, "--exact", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"ring", "ideal", "invariants", "bounds", "exact", "verdicts"}
        assert set(data["bounds"]) == {
            "dim_le1",
            "dim_ge2_phi",
            "dim_ge2_Dh",
            "corollary",
            "classical",
            "green_variant",
            "egh_conditional",
            "cs_recursive",
        }
        assert set(data["invariants"]) == {
            "d",
            "h",
            "e",
            "c",
            "cprime",
            "lsop_seed",
            "length_artinian",
        }

    def test_betti_flag(self, quadrics_file, capsys):
        assert main(["analyze", quadrics_file, "--exact", "--betti"]) == 0
        assert "betti table" in capsys.readouterr().out

    def test_parse_error_cites_line(self, tmp_path, capsys):
        path = tmp_path / "bad.ideal"
        path.write_text("ring n=2 p=32003\nx^\n")
        assert main(["analyze", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.ideal"]) == 2

    def test_verdict_failure_flips_exit_code(self, quadrics_file, monkeypatch, capsys):
        import regbound.cli as cli_mod

        real_analyze = cli_mod.analyze

        def broken(*args, **kwargs):
            report = real_analyze(*args, **kwargs)
            report.verdicts["dim_le1"] = False
            return report

        monkeypatch.setattr(cli_mod, "analyze", broken)
        assert main(["analyze", quadrics_file, "--exact"]) == 1
        assert "SOUNDNESS VIOLATION" in capsys.readouterr().err

    def test_prime_env_override(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "noprime.ideal"
        path.write_text("ring n=2\nx1^2\n")
        monkeypatch.setenv("REGBOUND_PRIME", "101")
        assert main(["analyze", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ring"]["p"] == "101"

    def test_prime_above_cap_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "noprime.ideal"
        path.write_text("ring n=2\nx1^2\n")
        monkeypatch.setenv("REGBOUND_PRIME", "4294967311")
        for args in (["analyze", str(path)], ["fuzz", "--trials", "1"]):
            with pytest.raises(SystemExit, match="REGBOUND_PRIME=4294967311: .* below 2\\^24"):
                main(args)
        with pytest.raises(ValueError, match="below 2\\^24"):
            FuzzConfig(p=4294967311)


class TestFuzzCommand:
    def test_summaries_are_byte_identical(self, tmp_path, capsys):
        args = [
            "fuzz", "--trials", "6", "--seed", "7", "--json",
            "--out-dir", str(tmp_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_zero_trials(self, tmp_path, capsys):
        assert main(["fuzz", "--trials", "0", "--json", "--out-dir", str(tmp_path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["analyzed"] == 0 and data["failures"] == []

    def test_human_summary(self, tmp_path, capsys):
        assert main(["fuzz", "--trials", "4", "--seed", "3",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bound_dim_le1" in out and "egh_conditional" in out

    def test_weak_egh_experiment_mode(self, tmp_path, capsys):
        assert main([
            "fuzz", "--trials", "6", "--seed", "1", "--dim", "0",
            "--experiment", "weak-egh", "--json", "--out-dir", str(tmp_path),
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["weak_egh"]["checked"] >= 1
        assert data["weak_egh"]["violations"] == []


class TestFuzzInternals:
    def test_trial_records_round_trip(self):
        cfg = FuzzConfig(trials=3, seed=5)
        summary = run_fuzz(cfg)
        for rec in summary["records"]:
            text = "\n".join(rec["ideal"]) + "\n"
            ideal = parse_ideal_text(text)
            assert [str(g) for g in ideal.generators] == [
                line for line in rec["ideal"][1:]
            ]

    def test_seed_splitting_is_deterministic(self):
        assert trial_seed(7, 3) == trial_seed(7, 3)
        assert trial_seed(7, 3) != trial_seed(7, 4)
        assert trial_seed(7, 0) != trial_seed(8, 0)

    def test_parallel_matches_sequential(self):
        cfg = FuzzConfig(trials=4, seed=9)
        seq = run_fuzz(cfg, jobs=1)
        par = run_fuzz(cfg, jobs=2)
        assert json.dumps(seq) == json.dumps(par)

    def test_dim_filter(self):
        cfg = FuzzConfig(trials=5, seed=2, dim_filter="ge2")
        summary = run_fuzz(cfg)
        for rec in summary["records"]:
            assert int(rec["report"]["invariants"]["d"]) >= 2

    def test_reproducers_round_trip(self, tmp_path):
        from regbound.fuzz import write_reproducers

        cfg = FuzzConfig(trials=2, seed=5)
        summary = run_fuzz(cfg)
        # pretend the first trial failed a check so a reproducer is written
        summary["failures"] = [{"trial": 0, "failed": ["bound_dim_le1"]}]
        names = write_reproducers(summary, str(tmp_path))
        assert names == ["reproducer_t0000.ideal"]
        text = (tmp_path / names[0]).read_text()
        ideal = parse_ideal_text(text)
        assert "\n".join(
            line for line in text.splitlines() if not line.startswith("#")
        ) + "\n" == "\n".join(summary["records"][0]["ideal"]) + "\n"
        assert not ideal.is_zero


class TestLppCommand:
    def test_spec_example(self, capsys):
        assert main(["lpp", "--n", "3", "--D", "3", "--c", "2"]) == 0
        out = capsys.readouterr().out
        assert "u = x2^3" in out
        assert "reg(S/L) = 4" in out

    def test_mixed_degrees(self, capsys):
        assert main(["lpp", "--n", "3", "--D", "4", "--c", "5",
                     "--degrees", "3,3,4"]) == 0
        out = capsys.readouterr().out
        assert "reg(S/L) = 6" in out

    def test_bad_target(self, capsys):
        assert main(["lpp", "--n", "2", "--D", "2", "--c", "99"]) == 2


class TestMacaulayCommand:
    def test_expansion(self, capsys):
        assert main(["macaulay", "--a", "10", "--D", "3"]) == 0
        out = capsys.readouterr().out
        assert "C(5,3)" in out and "[5]" in out

    def test_empty_expansion(self, capsys):
        assert main(["macaulay", "--a", "0", "--D", "2"]) == 0
        assert "[]" in capsys.readouterr().out

    def test_with_restriction(self, capsys):
        assert main(["macaulay", "--a", "6", "--D", "2", "--k", "1"]) == 0
        assert "3" in capsys.readouterr().out.splitlines()[-1]
