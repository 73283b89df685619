"""``python -m repro.plancheck`` — exit codes, --json, --file, --verify."""

import json

import pytest

from repro.plancheck.__main__ import main

CLEAN = "select a from a in Articles"
DIRTY = "select x from a in Articles, a PATH_p.zzz_ghost(x)"
WARNED = "select a from a in Articles where 1 = 2"


class TestExitCodes:
    def test_clean_query_exits_zero(self, capsys):
        assert main([CLEAN]) == 0
        assert capsys.readouterr().out.startswith("ok ")

    def test_error_counts_into_exit_code(self, capsys):
        assert main([DIRTY]) == 1
        out = capsys.readouterr().out
        assert "PC-E103" in out and DIRTY in out

    def test_warnings_do_not_fail(self, capsys):
        assert main([WARNED]) == 0
        assert "PC-W003" in capsys.readouterr().out

    def test_exit_code_sums_over_queries(self, capsys):
        assert main([DIRTY, CLEAN, DIRTY]) == 2

    def test_no_queries_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestVerify:
    def test_clean_query_verifies_all_configs(self, capsys):
        assert main(["--verify", CLEAN]) == 0

    def test_verifies_the_pipeline_as_served(self, capsys):
        # both stores ran the engine's own stages
        # over the Figure-2 document the built-in DTD comes with
        assert main(["--verify",
                     "select t from my_article PATH_p.title(t)"]) == 0

    def test_rejected_stage_is_reported_with_its_faults(
            self, capsys, monkeypatch):
        """The engine would warn and serve the last verified plan; the
        CLI escalates, so a broken rewrite fails with its fault code
        and stage — once per store whose pipeline contains it."""
        import repro.algebra.optimizer as optimizer
        monkeypatch.setattr(optimizer, "_TEST_MUTATION",
                            "pushdown_unguarded")
        code = main(["--verify", "select t from my_article "
                     "PATH_p.title(t) where t = 'On Sets'"])
        out = capsys.readouterr().out
        assert code >= 2
        assert "PC-UNBOUND after pushdown" in out

    def test_dirty_query_skips_verification(self, capsys):
        # an error-level lint stops before compilation: the exit code
        # counts the diagnostic once, not a cascade of plan faults
        assert main(["--verify", DIRTY]) == 1


class TestInputs:
    def test_file_input(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(f"{CLEAN}\n\n{DIRTY}\n")
        assert main(["--file", str(queries)]) == 1

    def test_json_output(self, capsys):
        assert main(["--json", DIRTY, WARNED]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert [r["query"] for r in reports] == [DIRTY, WARNED]
        assert reports[0]["diagnostics"][0]["code"] == "PC-E103"
        assert reports[0]["diagnostics"][0]["severity"] == "error"
        assert reports[1]["diagnostics"][0]["code"] == "PC-W003"

    def test_json_verify_reports_plan_faults_key(self, capsys):
        assert main(["--json", "--verify", CLEAN]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["plan_faults"] == []

    def test_custom_dtd(self, tmp_path, capsys):
        dtd = tmp_path / "note.dtd"
        dtd.write_text("<!ELEMENT note - - (subject)>\n"
                       "<!ELEMENT subject - - (#PCDATA)>")
        assert main(["--dtd", str(dtd),
                     "select n from n in Notes"]) == 0
        assert main(["--dtd", str(dtd), CLEAN]) == 1  # no Articles root
