"""``python -m repro.lint sql`` — embedded consume scanning."""

from pathlib import Path

from repro.lint import sqlscan
from repro.lint.__main__ import main as lint_main

REPO = Path(__file__).resolve().parents[2]


def write(tmp_path: Path, name: str, text: str) -> Path:
    target = tmp_path / name
    target.write_text(text)
    return target


class TestExtraction:
    def test_finds_literal_consumes(self, tmp_path):
        write(
            tmp_path,
            "job.py",
            'SQL = "CONSUME SELECT v FROM r WHERE v > 3"\n'
            'OTHER = "SELECT v FROM r"\n',
        )
        found = list(sqlscan.iter_embedded([tmp_path]))
        assert len(found) == 1
        assert found[0].sql == "CONSUME SELECT v FROM r WHERE v > 3"
        assert found[0].line == 1

    def test_fstring_consume_is_dynamic_not_duplicated(self, tmp_path):
        write(
            tmp_path,
            "job.py",
            'def q(t):\n    return f"CONSUME SELECT v FROM r WHERE v > {t}"\n',
        )
        found = list(sqlscan.iter_embedded([tmp_path]))
        assert len(found) == 1
        assert found[0].sql is None
        assert found[0].verdict == "dynamic"

    def test_prose_mentioning_consume_is_ignored(self, tmp_path):
        write(
            tmp_path,
            "doc.py",
            '"""The 500s are CONSUMEd during review; see CONSUME docs."""\n',
        )
        assert list(sqlscan.iter_embedded([tmp_path])) == []


class TestVerdicts:
    def test_total_consume_fails_the_scan(self, tmp_path, capsys):
        write(tmp_path, "bad.py", 'SQL = "CONSUME SELECT v FROM r"\n')
        assert lint_main(["sql", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "total" in out

    def test_tautology_consume_fails_schemaless(self, tmp_path):
        write(
            tmp_path,
            "bad.py",
            'SQL = "CONSUME SELECT v FROM r WHERE 1 = 1"\n',
        )
        results = sqlscan.scan([tmp_path])
        assert [r.verdict for r in results] == ["total"]

    def test_partial_consume_passes(self, tmp_path, capsys):
        write(
            tmp_path,
            "good.py",
            'SQL = "CONSUME SELECT v FROM r WHERE v > 3"\n',
        )
        assert lint_main(["sql", str(tmp_path)]) == 0
        assert "partial" in capsys.readouterr().out

    def test_contradiction_is_reported_none(self, tmp_path):
        write(
            tmp_path,
            "noop.py",
            'SQL = "CONSUME SELECT v FROM r WHERE v > 5 AND v < 2"\n',
        )
        results = sqlscan.scan([tmp_path])
        assert [r.verdict for r in results] == ["none"]


class TestUnparseableCandidates:
    def test_scan_reports_invalid_instead_of_crashing(self, tmp_path, capsys):
        """An error message that merely *starts* like a consume."""
        write(
            tmp_path,
            "errors.py",
            'MSG = "CONSUME SELECT does not support JOIN"\n'
            'SQL = "CONSUME SELECT v FROM r WHERE v > 3"\n',
        )
        assert lint_main(["sql", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "errors.py:1: invalid (expected FROM" in out
        assert "errors.py:2: partial" in out
        assert "2 consume statement(s) analyzed, 0 statically total" in out

    def test_shipped_package_scans_and_explains(self, capsys):
        """The CI contract now covers src/: no planner error message
        reads as an embedded statement, and every real one plans."""
        assert lint_main(["sql", str(REPO / "src")]) == 0
        assert "invalid" not in capsys.readouterr().out
        assert lint_main(["sql", "--explain", str(REPO / "src")]) == 0
        assert "0 failed" in capsys.readouterr().out


class TestSchemaInference:
    """``_inferred_catalog`` sees every node the analyzer sees."""

    @staticmethod
    def analyzed(sql: str):
        from repro.query import QueryEngine, parse

        stmt = parse(sql)
        catalog = sqlscan._inferred_catalog(stmt)
        report = QueryEngine(catalog).analyze_consume(stmt)
        return catalog.table("r").schema, report

    def test_comparison_under_is_null_types_the_column(self):
        schema, report = self.analyzed(
            "CONSUME SELECT v FROM r WHERE (site = 'a') IS NOT NULL"
        )
        assert schema.column("site").dtype.value == "str"
        assert report.verdict == "partial", report.errors

    def test_comparison_under_not_and_beside_in_list(self):
        schema, report = self.analyzed(
            "CONSUME SELECT v FROM r "
            "WHERE v IN (1, 2) AND NOT ((site = 'a') IS NULL)"
        )
        assert schema.column("site").dtype.value == "str"
        assert schema.column("v").dtype.value == "float"
        assert report.verdict == "partial", report.errors


class TestExplainCheck:
    def test_every_statement_kind_is_picked_up(self, tmp_path):
        write(
            tmp_path,
            "job.py",
            'A = "SELECT v FROM r WHERE v > 3"\n'
            'B = "CONSUME SELECT v FROM r WHERE v > 3"\n'
            'C = "DELETE FROM r WHERE v > 3"\n'
            'D = "INSERT INTO r (v) VALUES (1)"\n'
            'E = "EXPLAIN ANALYZE SELECT v FROM r WHERE v > 3"\n'
            'PROSE = "SELECT committee minutes are in the drive"\n',
        )
        outcomes = sqlscan.explain_check([tmp_path])
        assert [o.status for o in outcomes] == ["ok", "ok", "ok", "insert", "ok"]

    def test_schema_inference_types_string_comparisons(self, tmp_path):
        """key = 'a' must infer a str column, not choke on float."""
        write(
            tmp_path,
            "job.py",
            "SQL = \"SELECT v FROM r WHERE key = 'a' AND v > 2\"\n",
        )
        (outcome,) = sqlscan.explain_check([tmp_path])
        assert outcome.status == "ok", outcome.detail

    def test_join_and_in_list_statements_explain(self, tmp_path):
        write(
            tmp_path,
            "job.py",
            'SQL = ("SELECT r.v FROM r JOIN s ON r.key = s.k "\n'
            "       \"WHERE s.label IN ('X', 'Y')\")\n",
        )
        found = [o for o in sqlscan.explain_check([tmp_path]) if o.sql]
        assert [o.status for o in found] == ["ok"], [o.detail for o in found]

    def test_renderer_error_fails_the_check(self, tmp_path, capsys):
        write(
            tmp_path,
            "bad.py",
            'SQL = "SELECT v FROM r WHERE v >"\n',  # parse error
        )
        assert lint_main(["sql", "--explain", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE failed" in out
        assert "1 failed" in out

    def test_dynamic_statements_do_not_fail(self, tmp_path):
        write(
            tmp_path,
            "job.py",
            'def q(t):\n    return f"SELECT v FROM r WHERE v > {t}"\n',
        )
        (outcome,) = sqlscan.explain_check([tmp_path])
        assert outcome.status == "dynamic"
        assert not outcome.failed


class TestRepoExamples:
    def test_shipped_examples_have_no_total_consumes(self, capsys):
        """The CI smoke contract: every example consume is bounded."""
        assert lint_main(["sql", str(REPO / "examples")]) == 0
        out = capsys.readouterr().out
        assert "0 statically total" in out

    def test_shipped_examples_actually_contain_consumes(self):
        results = sqlscan.scan([REPO / "examples"])
        assert len([r for r in results if r.sql is not None]) >= 4

    def test_shipped_examples_all_explain(self, capsys):
        """The CI contract: every example statement renders a plan."""
        assert lint_main(["sql", "--explain", str(REPO / "examples")]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        explained = int(out.splitlines()[-1].split()[0])
        assert explained >= 10
