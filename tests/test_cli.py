import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lieop
from lieop import cli
from lieop.cli import main
from lieop.documents import MAX_KMAX, parse_document

from conftest import count_bracket_builds, count_rep_loops
from fixtures import write_fixtures


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    return write_fixtures(root)


def run(*argv):
    return main(list(argv))


def run_capture(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestValidate:
    def test_catalog_export_passes(self, fixtures):
        assert run("validate", str(fixtures["aff1_kn"])) == 0

    def test_broken_jacobi_fails_with_witness(self, fixtures, capsys):
        code, out = run_capture(capsys, "validate", str(fixtures["broken_jacobi"]))
        assert code == 1
        assert "jacobi" in out and "(0, 1, 2)" in out

    def test_malformed_rational_is_usage_error(self, fixtures):
        assert run("validate", str(fixtures["malformed_rational"])) == 2

    def test_unreadable_file(self, tmp_path):
        assert run("validate", str(tmp_path / "absent.json")) == 2

    def test_broken_representation_fails(self, fixtures):
        assert run("validate", str(fixtures["broken_rep"])) == 1

    @pytest.mark.parametrize(
        "text",
        ["[" * 100000, '{"algebra": {"dim": ' + "9" * 5000 + "}}"],
        ids=["deep_nesting", "overlong_integer"],
    )
    def test_unparseable_json_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        assert run("validate", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: $")


class TestCheck:
    def test_nijenhuis_diag_passes(self, fixtures):
        assert run("check", "nijenhuis", str(fixtures["aff1_nij"])) == 0

    def test_kn_triple_passes(self, fixtures):
        assert run("check", "kn", str(fixtures["aff1_kn"])) == 0

    def test_kn_checks_the_representation_once(self, fixtures, monkeypatch):
        # When the document's representation is built; the Kupershmidt
        # hypothesis then reads the constructor's pass.
        calls = count_rep_loops(monkeypatch)
        assert run("check", "kn", str(fixtures["aff1_kn"])) == 0
        assert len(calls) == 1

    def test_only_json_builds_the_certificates(self, fixtures, monkeypatch, capsys):
        # Text output prints no certificates, so it builds no bracket; --json
        # builds the two it prints: the NT-induced bracket and the
        # S-deformation of the T-induced one, itself a sub-adjacent bracket.
        calls = count_bracket_builds(monkeypatch)
        code, out = run_capture(capsys, "check", "kn", str(fixtures["aff1_kn"]))
        assert (code, out, calls) == (0, "kn: PASS\n", [])
        code, out = run_capture(capsys, "check", "kn", str(fixtures["aff1_kn"]), "--json")
        assert code == 0
        assert sorted(calls) == ["deformed_algebra", "sub_adjacent_bracket", "sub_adjacent_bracket"]
        assert set(json.loads(out)["certificates"]) == {"via_nt", "deformed_by_s"}

    def test_rbn_identity_fails_on_nonabelian(self, fixtures, capsys):
        # R = Id is not Rota-Baxter, reported as a hypothesis failure
        code, out = run_capture(capsys, "check", "rbn", str(fixtures["aff1_bad_rbn"]))
        assert code == 1
        assert "hypothesis" in out

    def test_missing_stanza_is_usage_error(self, fixtures):
        assert run("check", "rbn", str(fixtures["aff1_nij"])) == 2

    def test_unknown_kind_is_usage_error(self, fixtures):
        assert run("check", "frobenius", str(fixtures["aff1_kn"])) == 2

    def test_r_matrix_and_bilinear(self, fixtures):
        assert run("check", "r_matrix", str(fixtures["aff1_rmatrix"])) == 0
        assert run("check", "bilinear_form", str(fixtures["sl2_rbn"])) == 0

    def test_failing_pair_reports_witnesses(self, fixtures, capsys):
        code, out = run_capture(
            capsys, "check", "nijenhuis_pair", str(fixtures["aff1_bad_pair"])
        )
        assert code == 1
        assert "witness" in out

    def test_jacobi_reports_on_the_unvalidated_bracket(self, fixtures, capsys):
        doc = str(fixtures["broken_jacobi"])
        _, validated = run_capture(capsys, "validate", doc, "--json")
        expected = json.loads(validated)["checks"]["jacobi"]
        code, out = run_capture(capsys, "check", "jacobi", doc)
        assert code == 1
        assert out == (
            f"jacobi: FAIL ({len(expected['witnesses'])} witness(es))\n"
            "  jacobi at (0, 1, 2): defect (0, 0, -1)\n"
        )
        code = main(["check", "jacobi", doc, "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert json.loads(captured.out) == {**expected, "certificates": {}}

    def test_deformation_kinds(self, fixtures):
        assert run("check", "deformation_pair", str(fixtures["aff1_deformation"])) == 0
        assert run("check", "trivial_equivalence", str(fixtures["aff1_deformation"])) == 0


class TestJsonOutput:
    def test_verdicts_match_text(self, fixtures, capsys):
        code, out = run_capture(capsys, "check", "kn", str(fixtures["aff1_kn"]), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "pass"
        assert payload["kind"] == "kn"
        assert payload["witnesses"] == []

    def test_byte_stable_across_runs(self, fixtures, capsys):
        outs = []
        for _ in range(2):
            code, out = run_capture(
                capsys, "check", "nijenhuis_pair", str(fixtures["aff1_bad_pair"]), "--json"
            )
            assert code == 1
            outs.append(out)
        assert outs[0] == outs[1]

    def test_search_json_lists_stanzas(self, fixtures, capsys):
        code, out = run_capture(
            capsys, "search", "rota_baxter", "--algebra", "aff1", "--grid", "-1,0,1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 15
        assert {"R": [["1", "0"], ["0", "0"]]} in payload["results"]

    def test_precondition_field_present(self, fixtures, capsys):
        code, out = run_capture(
            capsys, "check", "rbn", str(fixtures["aff1_bad_rbn"]), "--json"
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["precondition"] == "rota_baxter"
        # The failing hypothesis report reaches the output, witnesses and all.
        assert payload["witnesses"]
        assert {w["condition"] for w in payload["witnesses"]} == {"rota_baxter"}


class TestHierarchy:
    def test_catalog_triple(self, fixtures, capsys):
        code, out = run_capture(
            capsys, "hierarchy", str(fixtures["aff1_kn"]), "--kmax", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["operators"]) == 4
        assert all(payload["kupershmidt"])
        assert all(all(row) for row in payload["compatible"])

    def test_non_structure_fails(self, fixtures):
        assert run("hierarchy", str(fixtures["aff1_bad_kn"]), "--kmax", "2") == 1

    @pytest.mark.parametrize("kmax", (-1, MAX_KMAX + 1), ids=("negative", "past-bound"))
    def test_negative_kmax_is_usage_error(self, fixtures, capsys, kmax):
        # Past MAX_KMAX too: the hierarchy's work grows faster than k_max^2.
        assert run("hierarchy", str(fixtures["aff1_kn"]), "--kmax", str(kmax)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "kmax" in captured.err


class TestConvert:
    def test_round_trip_byte_identical_operator_stanza(self, fixtures, tmp_path):
        rmn_path = tmp_path / "rmn.json"
        back_path = tmp_path / "back.json"
        assert run("convert", "rbn-to-rmn", str(fixtures["sl2_rbn"]), "--output", str(rmn_path)) == 0
        assert run("convert", "rmn-to-rbn", str(rmn_path), "--output", str(back_path)) == 0
        original = json.loads(fixtures["sl2_rbn"].read_text())
        returned = json.loads(back_path.read_text())
        assert json.dumps(original["operators"], sort_keys=True) == json.dumps(
            returned["operators"], sort_keys=True
        )

    def test_missing_form_is_usage_error(self, fixtures):
        assert run("convert", "rbn-to-rmn", str(fixtures["aff1_kn"])) == 2

    def test_output_parses_and_reverifies(self, fixtures, tmp_path):
        out_path = tmp_path / "rmn.json"
        assert run("convert", "rbn-to-rmn", str(fixtures["sl2_rbn"]), "--output", str(out_path)) == 0
        assert run("check", "rmn", str(out_path)) == 0


class TestSearchAndCatalog:
    def test_cap_exceeded_is_usage_error(self, capsys):
        assert run("search", "nijenhuis", "--algebra", "sl2", "--grid", "-1,0,1", "--cap", "10") == 2

    def test_unknown_algebra(self):
        assert run("search", "nijenhuis", "--algebra", "e8", "--grid", "0,1") == 2

    def test_bad_grid_scalar(self):
        assert run("search", "nijenhuis", "--algebra", "aff1", "--grid", "0,1/0") == 2

    def test_catalog_list(self, capsys):
        code, out = run_capture(capsys, "catalog", "list")
        assert code == 0
        assert "sl2" in out.split()

    def test_catalog_export_round_trips_through_parser(self, fixtures):
        text = fixtures["sl2_rbn"].read_text()
        doc = parse_document(text)
        assert doc.dim == 3
        assert doc.b_matrix is not None

    def test_export_unknown_bundle(self, tmp_path):
        assert run("catalog", "export", "sl2", "--bundle", "nope", "--output", str(tmp_path / "x.json")) == 2


class TestCachedParser:
    """main parses with one parser per process; a call after others, a usage
    error among them, behaves as on a freshly built parser."""

    def calls(self, fixtures):
        kn, bad_pair = str(fixtures["aff1_kn"]), str(fixtures["aff1_bad_pair"])
        return [
            (["check", "frobenius", kn], 2),
            (["--json", "check", "kn", kn], 0),
            (["check", "kn", kn, "--json"], 0),
            (["--quiet", "check", "kn", kn], 0),
            (["hierarchy", kn, "--kmax", "2", "--quiet"], 0),
            (["check", "nijenhuis_pair", bad_pair], 1),
            (["check", "kn", kn], 0),
        ]

    def run_all(self, capsys, calls):
        outcomes = []
        for argv, status in calls:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == status
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    def test_same_outcomes_as_a_fresh_parser(self, fixtures, capsys, monkeypatch):
        calls = self.calls(fixtures)
        cached = self.run_all(capsys, calls)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        assert cached == self.run_all(capsys, calls)
        assert "invalid choice: 'frobenius'" in cached[0][2]
        assert json.loads(cached[1][1]) == json.loads(cached[2][1])
        assert cached[3][1] == ""

    def test_a_rebound_command_takes_effect(self, fixtures, monkeypatch):
        doc = str(fixtures["aff1_kn"])
        assert run("validate", doc) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_validate", lambda args, out: seen.append(args.file) or 1)
        assert run("validate", doc) == 1
        assert seen == [doc]


class TestClosedStdout:
    """A reader that stops early (`lieop ... | head -1`) closes the pipe;
    the CLI stops writing and exits quietly with the command's own status."""

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["catalog", "list"], 0),
            (["catalog", "export", "sl2", "--bundle", "rbn_identity"], 0),
            # About 10 kB of output, more than the stdout buffer holds.
            (["search", "kn_structure", "--algebra", "aff1", "--grid", "0,1"], 0),
            (["search", "rota_baxter", "--algebra", "aff1", "--grid", "-1,0,1", "--json"], 0),
            (["check", "nijenhuis_pair", "<aff1_bad_pair>"], 1),
            (["convert", "rbn-to-rmn", "<sl2_rbn>"], 0),
        ],
        ids=["catalog_list", "export", "search_text", "search_json", "check_fail", "convert"],
    )
    def test_exits_with_the_command_status_and_no_stderr(self, fixtures, argv, status):
        argv = [str(fixtures[a[1:-1]]) if a.startswith("<") else a for a in argv]
        src = str(Path(lieop.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lieop", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == status
