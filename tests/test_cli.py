import json
from pathlib import Path

import pytest

from bridge.cli import main
from bridge.prompts import list_strategies

MINI_CONFIG = "fixtures/configs/mini_replay.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimpleCommands:
    def test_strategies_lists_all_keys(self, capsys):
        code, out, err = run_cli(capsys, "strategies")
        assert code == 0 and err == ""
        keys = out.splitlines()
        assert len(keys) == 22
        assert all("/" in k for k in keys)
        assert "code/direct" in keys and "proof/termination" in keys
        assert keys == [s.key for s in list_strategies()]

    def test_validate_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "fixtures/corpus.jsonl")
        assert code == 0
        assert "12 problems ok" in out

    def test_validate_malformed_manifest(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x"}\n', encoding="utf-8")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 3
        assert err.startswith("error:")

    def test_validate_missing_manifest(self, capsys):
        code, _, err = run_cli(capsys, "validate", "no/such/file.jsonl")
        assert code == 3
        assert "error:" in err


class TestRunCommand:
    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", "no/such/config.json")
        assert code == 2
        assert "error:" in err

    def test_malformed_override(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", MINI_CONFIG,
                               "--override", "runs_root")
        assert code == 2
        assert "key=value" in err

    @pytest.mark.parametrize("override", [
        "decoding.temperature=abc", 'temperature_grid=["a"]',
        'decoding.n_samples="x"', 'python.timeout="x"', "lean.mathlib=False",
        "intersection_threshold=0", "temperature_grid=[0.7, 2.5]",
        "gateway.providers=5", "lean.transcripts=5", "gateway.archive_dir=7",
        "decoding.max_tokens=0", "decoding.n_samples=0", 'models=["mock-alpha","mock-alpha"]',
        "k_ladder=[1,1,5]", "lean.command=[]",
        'gateway={"mode": "live", "providers": {"mock-alpha": 5}}',
        'gateway={"mode": "live", "providers": {"mock-alpha": {"provider": "acme"}}}',
        "python.timeout=-1", "python.timeout=0", "lean.timeout=0", "spec_checks.trials=-5",
        "spec_checks.trials=0", "spec_checks.random_trials=-1",
        'gateway.providers={"mock-alpha": {"provider": "", "endpoint": "https://x.test"}}',
        'gateway.providers={"mock-alpha": {"provider": "acme", "endpoint": ""}}'])
    def test_non_numeric_override_is_a_config_error(self, capsys, tmp_path, override):
        code, out, err = run_cli(capsys, "run", "--config", MINI_CONFIG,
                                 "--runs-root", str(tmp_path / "runs"),
                                 "--override", override)
        assert code == 2 and out == ""
        assert err.startswith("error: bad value for ") and err.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    def test_mini_replay_run(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "run", "--config", MINI_CONFIG,
            "--runs-root", str(tmp_path / "runs"))
        assert code == 0, err
        assert "chains=60" in out
        run_id = out.split()[0]
        run_dir = tmp_path / "runs" / run_id
        assert (run_dir / "chains.jsonl").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["chain_count"] == 60

    def test_runs_root_is_taken_verbatim(self, capsys, tmp_path, monkeypatch):
        # `true` parses as JSON, yet as a runs root it names a directory
        obj = json.loads(Path(MINI_CONFIG).read_text(encoding="utf-8"))
        obj["corpus"] = str(Path(obj["corpus"]).resolve())
        obj["gateway"]["archive_dir"] = str(Path(obj["gateway"]["archive_dir"]).resolve())
        obj["lean"]["transcripts"] = str(Path(obj["lean"]["transcripts"]).resolve())
        config = tmp_path / "mini.json"
        config.write_text(json.dumps(obj), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "run", "--config", str(config),
                                 "--runs-root", "true")
        assert code == 0, err
        run_id = out.split()[0]
        assert (tmp_path / "true" / run_id).is_dir()
        code, out, err = run_cli(capsys, "replay", "--run", run_id,
                                 "--runs-root", "true")
        assert code == 0, err
        assert f"dir=true/{run_id}-2" in out

    def test_replay_miss_exit_code(self, capsys, tmp_path):
        empty = tmp_path / "empty-archive"
        empty.mkdir()
        code, _, err = run_cli(
            capsys, "run", "--config", MINI_CONFIG,
            "--runs-root", str(tmp_path / "runs"),
            "--override", f"gateway.archive_dir={empty}")
        assert code == 5
        assert "error:" in err

    def test_mock_miss_exit_code(self, capsys, tmp_path):
        script = tmp_path / "script.json"
        script.write_text('{"entries": []}', encoding="utf-8")
        code, _, err = run_cli(
            capsys, "run", "--config", MINI_CONFIG,
            "--runs-root", str(tmp_path / "runs"),
            "--override", "gateway.mode=mock", "--override", f"gateway.script={script}")
        assert code == 5
        assert "no mock completions" in err

    def test_missing_transcript_bank_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--config", MINI_CONFIG,
            "--runs-root", str(tmp_path / "runs"),
            "--override", "lean.transcripts=no/such/bank.json")
        assert code == 4
        assert "transcript bank not found" in err


class TestTemperatureGrid:
    def test_grid_point_runs_and_replays_like_a_plain_run(self, capsys, tmp_path):
        runs_root = tmp_path / "runs"
        code, out, err = run_cli(
            capsys, "run", "--config", MINI_CONFIG, "--runs-root", str(runs_root))
        assert code == 0, err
        plain = (runs_root / out.split()[0] / "chains.jsonl").read_bytes()

        # the one point keeps temperature 0.7 and gets seed 17 ^ 0, so every
        # replay digest hits
        code, out, err = run_cli(
            capsys, "run", "--config", MINI_CONFIG, "--runs-root", str(runs_root),
            "--override", "temperature_grid=[0.7]")
        assert code == 0, err
        [line] = out.splitlines()
        point_id = line.split()[0]
        assert point_id.endswith("-t0") and "chains=60" in line
        assert line.endswith(f"dir={runs_root / point_id}")
        assert (runs_root / point_id / "chains.jsonl").read_bytes() == plain

        # a point's config holds an empty grid, so its replay is one run
        code, out, err = run_cli(
            capsys, "replay", "--run", point_id, "--runs-root", str(runs_root))
        assert code == 0, err
        [line] = out.splitlines()
        replayed = Path(line.split("dir=")[1])
        assert replayed != runs_root / point_id
        assert (replayed / "chains.jsonl").read_bytes() == plain

    def test_sweep_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", MINI_CONFIG, "--sweep"])
        assert exc.value.code == 2


class TestUnverifiedWarning:
    def test_warns_when_no_lean_verdict(self, capsys, tmp_path):
        command = json.dumps([str(tmp_path / "no-such-lean")])
        code, out, err = run_cli(
            capsys, "run", "--config", MINI_CONFIG,
            "--runs-root", str(tmp_path / "runs"),
            "--override", "lean.transcripts=null",
            "--override", f"lean.command={command}")
        assert code == 0, err
        assert out.startswith("run-") and "warning" not in out
        chains = [json.loads(line) for line in (
            tmp_path / "runs" / out.split()[0] / "chains.jsonl").read_text(
                encoding="utf-8").splitlines()]
        unverified = [c for c in chains if c["annotations"].get("lean_unavailable")]
        # NoArtifact chains never reach a check, so not all 60 are counted
        assert len(unverified) == 54
        assert err.splitlines() == [
            "warning: 54 of 60 chains had no Lean verdict "
            "(no Lean toolchain or transcript)"
        ]

    def test_silent_with_committed_transcripts(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--config", MINI_CONFIG,
            "--runs-root", str(tmp_path / "runs"))
        assert code == 0
        assert err == ""


class TestReplayAndReport:
    @pytest.fixture()
    def finished_run(self, capsys, tmp_path):
        runs_root = tmp_path / "runs"
        code, out, err = run_cli(
            capsys, "run", "--config", MINI_CONFIG,
            "--runs-root", str(runs_root))
        assert code == 0, err
        return runs_root, out.split()[0]

    def test_replay_creates_fresh_directory(self, capsys, finished_run):
        runs_root, run_id = finished_run
        code, out, err = run_cli(
            capsys, "replay", "--run", run_id, "--runs-root", str(runs_root))
        assert code == 0, err
        new_dir = out.split("dir=")[1].strip()
        assert new_dir != str(runs_root / run_id)
        original = (runs_root / run_id / "chains.jsonl").read_bytes()
        replayed = (runs_root / run_id).parent.joinpath(
            new_dir.rsplit("/", 1)[-1], "chains.jsonl").read_bytes()
        assert original == replayed
        assert err == ""

    def test_replay_unknown_run(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "replay", "--run", "run-doesnotexist",
            "--runs-root", str(tmp_path))
        assert code == 2
        assert "error:" in err

    def test_report_writes_metrics(self, capsys, finished_run):
        runs_root, run_id = finished_run
        code, out, err = run_cli(
            capsys, "report", "--run", run_id, "--runs-root", str(runs_root))
        assert code == 0, err
        rows = (runs_root / run_id / "report" / "rows.csv").read_text(
            encoding="utf-8")
        assert "pass@1" in rows.splitlines()[0]
        assert (runs_root / run_id / "report" / "curves.jsonl").exists()

    def test_report_on_truncated_chains_is_one_error_line(self, capsys, finished_run):
        runs_root, run_id = finished_run
        chains = runs_root / run_id / "chains.jsonl"
        lines = chains.read_bytes().splitlines(keepends=True)
        # a run killed while writing leaves half a line
        chains.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        code, out, err = run_cli(
            capsys, "report", "--run", run_id, "--runs-root", str(runs_root))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and f"chains.jsonl:{len(lines)}: " in err
        assert not (runs_root / run_id / "report").exists()

    @pytest.mark.parametrize("keep", [30, 0], ids=["first-half", "empty"])
    def test_report_refuses_fewer_chains_than_the_manifest(self, capsys, finished_run, keep):
        runs_root, run_id = finished_run
        chains = runs_root / run_id / "chains.jsonl"
        lines = chains.read_bytes().splitlines(keepends=True)
        assert len(lines) == 60
        # cut at a line boundary, so every line left is a whole chain
        chains.write_bytes(b"".join(lines[:keep]))
        code, out, err = run_cli(
            capsys, "report", "--run", run_id, "--runs-root", str(runs_root))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {chains} holds {keep} chains")
        assert err.endswith("records chain_count 60\n")
        assert not (runs_root / run_id / "report").exists()

    @pytest.mark.parametrize("damage", ["cut", "array", "no-config"])
    def test_damaged_manifest_is_one_error_line(self, capsys, finished_run, damage):
        runs_root, run_id = finished_run
        manifest = runs_root / run_id / "manifest.json"
        manifest.write_text({
            "cut": manifest.read_text(encoding="utf-8")[:100],
            "array": "[]",
            "no-config": '{"version": "0.1.0"}',
        }[damage], encoding="utf-8")
        for command in ("report", "replay"):
            code, out, err = run_cli(
                capsys, command, "--run", run_id, "--runs-root", str(runs_root))
            assert code == 2 and out == ""
            assert err.count("\n") == 1
            assert err.startswith(f"error: {manifest}: ")
        assert not (runs_root / run_id / "report").exists()
        assert [path.name for path in runs_root.iterdir()] == [run_id]

    def test_report_unknown_run(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "report", "--run", "run-missing", "--runs-root", str(tmp_path))
        assert code == 2
