"""The ``python -m repro.diffcheck`` entry point, driven in-process."""

import json
import os

from repro.diffcheck.__main__ import main
from repro.diffcheck.fixtures import save_fixture
from repro.diffcheck.generator import CorpusSpec
from repro.o2sql.engine import QueryEngine

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "sel_attvar_union_content.json")


class TestCli:
    def test_fuzz_mode_clean_budget_exits_zero(self, tmp_path, capsys):
        code = main(["--budget", "8", "--seed", "3",
                     "--out", str(tmp_path / "repros")])
        out = capsys.readouterr().out
        assert code == 0
        assert "zero divergences" in out
        assert "queries=8" in out
        assert not list((tmp_path / "repros").glob("*.json"))

    def test_fuzz_mode_writes_minimized_fixture_on_divergence(
            self, tmp_path, capsys, monkeypatch):
        """Break one backend deliberately; the CLI must exit non-zero
        and write a replayable minimized fixture."""
        original = QueryEngine.execute

        def sabotaged(self, entry):
            if self.backend == "algebra" and not self.structural:
                raise RuntimeError("sabotaged backend")
            return original(self, entry)

        monkeypatch.setattr(QueryEngine, "execute", sabotaged)
        out_dir = tmp_path / "repros"
        code = main(["--budget", "3", "--seed", "3", "--fail-fast",
                     "--quiet", "--out", str(out_dir)])
        assert code == 1
        written = sorted(out_dir.glob("divergence_*.json"))
        assert written
        payload = json.loads(written[0].read_text())
        assert payload["format"] == "repro.diffcheck/1"
        assert payload["meta"]["divergent_configs"] == [
            "algebra", "algebra+rerun"]
        assert "is a bug" in capsys.readouterr().out

    def test_replay_mode_passes_on_fixed_fixture(self, capsys):
        code = main(["--replay", FIXTURE])
        out = capsys.readouterr().out
        assert code == 0
        assert f"{FIXTURE}: ok" in out

    def test_replay_mode_fails_on_divergent_fixture(
            self, tmp_path, capsys):
        """A fixture whose bug is *not* fixed must fail replay — the
        tracked-divergence path of the fix-or-fixture policy."""
        spec = CorpusSpec(count=1, seed=6)
        path = tmp_path / "tracked.json"
        from repro.diffcheck.fixtures import load_fixture
        _, query, _ = load_fixture(FIXTURE)
        save_fixture(str(path), spec, query, meta={})

        import unittest.mock as mock

        def always_diverges(self, entry):
            raise RuntimeError("sabotaged backend")

        with mock.patch.object(QueryEngine, "execute", always_diverges):
            code = main(["--replay", str(path), "--quiet"])
        assert code == 1
        assert "DIVERGENT" in capsys.readouterr().out

    def test_no_minimize_reports_raw_divergence(self, tmp_path,
                                                monkeypatch, capsys):
        """--no-minimize writes the raw (unshrunk) failing case."""
        def broken(self, entry):
            raise RuntimeError("sabotaged backend")

        monkeypatch.setattr(QueryEngine, "execute", broken)
        code = main(["--budget", "1", "--seed", "3", "--no-minimize",
                     "--quiet", "--out", str(tmp_path)])
        assert code == 1
        assert "minimized=" not in capsys.readouterr().out
