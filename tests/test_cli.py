"""Command layer: golden reports, JSON round-trips, exit codes, determinism."""

import io
import json

import pytest

from cwmoduli import (
    HurwitzVector,
    SessionConfig,
    character_table,
    cw_character,
    genus,
    group_from_spec,
    run,
    validate,
)
from cwmoduli.cli import SCHEMA, main

V_GENUS6 = '{"g_quot": 2, "handles": [1, 0, 0, 2], "branches": [2, 1]}'
V_ALT = '{"g_quot": 0, "handles": [], "branches": [1, 1, 2, 2, 1, 1, 2, 2]}'


def invoke(command, **kw):
    out, err = io.StringIO(), io.StringIO()
    code = run(command, SessionConfig(**kw), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def json_lines(text):
    return [json.loads(line) for line in text.splitlines()]


class TestTextReports:
    def test_metacyclic_h2_prints_bare_order(self):
        code, out, err = invoke("metacyclic-h2", m=4, n=2, r=3)
        assert (code, out, err) == (0, "2\n", "")

    def test_rr_bound_prints_bare_bound(self):
        code, out, err = invoke("metacyclic-rr-bound", m=4, n=2, r=3, genus=9)
        assert (code, out, err) == (0, "2\n", "")

    def test_cw_table_rows_match_multiplicities(self):
        code, out, err = invoke("cw", group_spec="cyclic:3",
                                vector_json=V_GENUS6, k_range="1..3")
        assert code == 0 and err == ""
        rows = [line.split() for line in out.splitlines()
                if line and line.split()[0].isdigit()]
        assert rows == [["1", "2", "2", "2"],
                        ["2", "5", "5", "5"],
                        ["3", "9", "8", "8"]]
        assert out.splitlines()[0].startswith("group: cyclic:3")

    def test_group_info_lists_invariants_and_table(self):
        code, out, _ = invoke("group-info", group_spec="metacyclic:3,2,2")
        assert code == 0
        lines = out.splitlines()
        assert "order: 6" in lines
        assert "abelian: no" in lines
        assert "class sizes: 1 3 2" in lines
        assert "degrees: 1 1 2" in lines
        assert any(line == "character table:" for line in lines)
        # every cell of the S3 table is a rational integer
        table = [line.split()[1:] for line in lines
                 if line.lstrip().startswith("chi_")]
        assert all(cell.lstrip("-").isdigit() for row in table for cell in row)

    def test_group_info_marks_irrational_values(self):
        _, out, _ = invoke("group-info", group_spec="cyclic:3")
        assert "(ord3)" in out

    def test_wide_table_falls_back_to_json_lines(self):
        code, out, _ = invoke("group-info", group_spec="cyclic:24")
        assert code == 0
        lines = out.splitlines()
        marker = [i for i, line in enumerate(lines)
                  if line.startswith("character table (24 irreducibles")]
        assert len(marker) == 1
        records = [json.loads(line) for line in lines[marker[0] + 1:]]
        assert len(records) == 24
        assert all(rec["schema"] == SCHEMA and rec["degree"] == 1
                   for rec in records)

    def test_hurwitz_enumerate_text_report(self):
        code, out, _ = invoke("hurwitz-enumerate", group_spec="cyclic:2",
                              genus=2)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "group: cyclic:2  genus: 2  granularity: raw"
        assert ("branching data g_quot=0 orders=[2,2,2,2,2,2]: 1 vectors"
                in lines)
        assert "branching data g_quot=1 orders=[2,2]: 4 vectors" in lines
        assert "  ( ; 1 1 1 1 1 1)" in lines
        assert lines[-1] == "total: 5"

    def test_decompose_text_report(self):
        code, out, _ = invoke("decompose", group_spec="cyclic:3", genus=6)
        assert code == 0
        lines = out.splitlines()
        data_lines = [line for line in lines
                      if line.startswith("branching data")]
        assert data_lines == [
            "branching data g_quot=0 orders=[3,3,3,3,3,3,3,3]: 86 vectors",
            "branching data g_quot=1 orders=[3,3,3,3,3]: 90 vectors",
            "branching data g_quot=2 orders=[3,3]: 162 vectors",
        ]
        assert "items: 338" in lines
        assert "levels refined: 1..3" in lines
        assert "stabilization depth: 1" in lines
        assert "blocks: 6" in lines


class TestJsonReports:
    def test_enumerate_records_parse_and_revalidate(self):
        G = group_from_spec("cyclic:3")
        code, out, _ = invoke("hurwitz-enumerate", group_spec="cyclic:3",
                              genus=6, output="json")
        assert code == 0
        records = json_lines(out)
        assert all(rec["schema"] == SCHEMA for rec in records)
        data = [rec for rec in records if rec["kind"] == "branching-data"]
        vectors = [rec for rec in records if rec["kind"] == "hurwitz-vector"]
        totals = [rec for rec in records if rec["kind"] == "total"]
        assert [rec["count"] for rec in data] == [86, 90, 162]
        assert [rec["branch_orders"] for rec in data] == [[3] * 8, [3] * 5,
                                                          [3, 3]]
        assert totals == [{"schema": SCHEMA, "kind": "total", "count": 338}]
        assert len(vectors) == 338
        for rec in vectors:
            v = HurwitzVector(rec["g_quot"], tuple(rec["handles"]),
                              tuple(rec["branches"]))
            validate(v, G)
            assert genus(v, G) == 6

    def test_enumerated_vector_line_feeds_cw(self):
        _, out, _ = invoke("hurwitz-enumerate", group_spec="cyclic:2",
                           genus=2, output="json")
        rec = next(r for r in json_lines(out) if r["kind"] == "hurwitz-vector")
        code, out, _ = invoke("cw", group_spec="cyclic:2",
                              vector_json=json.dumps(rec), k_range="1..2",
                              output="json")
        assert code == 0
        G = group_from_spec("cyclic:2")
        T = character_table(G, k_max=2, g_max=2)
        v = HurwitzVector(rec["g_quot"], tuple(rec["handles"]),
                          tuple(rec["branches"]))
        expect = [{"schema": SCHEMA, "k": k,
                   "mults": list(cw_character(v, T, k).mults)}
                  for k in (1, 2)]
        assert json_lines(out) == expect

    def test_cw_json_golden(self):
        code, out, _ = invoke("cw", group_spec="cyclic:3",
                              vector_json=V_GENUS6, k_range="1..3",
                              output="json")
        assert code == 0
        assert json_lines(out) == [
            {"schema": SCHEMA, "k": 1, "mults": [2, 2, 2]},
            {"schema": SCHEMA, "k": 2, "mults": [5, 5, 5]},
            {"schema": SCHEMA, "k": 3, "mults": [9, 8, 8]},
        ]

    def test_decompose_json_structure(self):
        code, out, _ = invoke("decompose", group_spec="cyclic:3", genus=6,
                              output="json")
        assert code == 0
        rec = json.loads(out)
        assert rec["schema"] == SCHEMA
        assert rec["group"] == "cyclic:3"
        assert rec["granularity"] == "raw"
        assert rec["k_values"] == [1, 2, 3]
        assert rec["stabilization_depth"] == 1
        members = [m for block in rec["blocks"] for m in block["members"]]
        assert sorted(members) == list(range(len(rec["items"])))
        assert len(rec["items"]) == 338
        assert sorted(len(b["members"]) for b in rec["blocks"]) == [
            8, 8, 45, 45, 70, 162]
        for block in rec["blocks"]:
            assert len(block["key"]) == 3
            assert all(len(mults) == 3 for mults in block["key"])

    def test_decompose_separates_the_two_genus6_vectors(self):
        _, out, _ = invoke("decompose", group_spec="cyclic:3", genus=6,
                           output="json")
        rec = json.loads(out)
        items = [(r["g_quot"], tuple(r["handles"]), tuple(r["branches"]))
                 for r in rec["items"]]
        i = items.index((2, (1, 0, 0, 2), (2, 1)))
        j = items.index((0, (), (1, 1, 2, 2, 1, 1, 2, 2)))
        block_of = {}
        for b, block in enumerate(rec["blocks"]):
            for m in block["members"]:
                block_of[m] = b
        assert block_of[i] != block_of[j]
        key_i = rec["blocks"][block_of[i]]["key"]
        key_j = rec["blocks"][block_of[j]]["key"]
        assert key_i[0] == [2, 2, 2] and key_j[0] == [0, 3, 3]
        assert key_i[1] == key_j[1] == [5, 5, 5]

    def test_group_info_json_record(self):
        code, out, _ = invoke("group-info", group_spec="cyclic:3",
                              output="json")
        assert code == 0
        rec = json.loads(out)
        assert rec["schema"] == SCHEMA
        assert rec["order"] == 3 and rec["exponent"] == 3
        assert rec["abelian"] is True
        assert rec["prime"] == {"p": 13, "e": 3, "z": rec["prime"]["z"],
                                "bound": 4}
        assert rec["class_sizes"] == [1, 1, 1]
        assert rec["degrees"] == [1, 1, 1]
        assert len(rec["characters"]) == 3
        assert rec["rational_values"][0] == [1, 1, 1]
        # non-rational cells are JSON null
        assert rec["rational_values"][1][1] is None

    def test_metacyclic_json_records(self):
        _, out, _ = invoke("metacyclic-h2", m=4, n=2, r=3, output="json")
        assert json.loads(out) == {"schema": SCHEMA, "m": 4, "n": 2, "r": 3,
                                   "d": 2}
        _, out, _ = invoke("metacyclic-rr-bound", m=4, n=2, r=3, genus=9,
                           output="json")
        assert json.loads(out) == {"schema": SCHEMA, "m": 4, "n": 2, "r": 3,
                                   "genus": 9, "bound": 2}


class TestDeterminism:
    CASES = [
        ("hurwitz-enumerate",
         dict(group_spec="cyclic:3", genus=6, output="json")),
        ("decompose", dict(group_spec="cyclic:2", genus=3, output="json")),
        ("group-info", dict(group_spec="metacyclic:3,2,2", output="json")),
        ("cw", dict(group_spec="cyclic:3", vector_json=V_GENUS6,
                    k_range="1..3")),
    ]

    def test_byte_identical_reruns(self):
        for command, kw in self.CASES:
            first = invoke(command, **kw)
            second = invoke(command, **kw)
            assert first == second, command

    def test_multiplicities_ignore_seed(self):
        outputs = {invoke("cw", group_spec="metacyclic:3,2,2",
                          vector_json='{"g_quot": 2, "handles": [1, 0, 0, 0],'
                                      ' "branches": []}',
                          k_range="1..4", seed=seed)[1]
                   for seed in (0, 7, 123)}
        assert len(outputs) == 1

    def test_decompose_ignores_seed(self):
        # the characters of cyclic:8 are labelled through the working field's
        # primitive 8th root of unity, which must not depend on the seed
        outputs = {invoke("decompose", group_spec="cyclic:8", genus=9, seed=seed)
                   for seed in range(4)}
        assert len(outputs) == 1
        (code, _, err), = outputs
        assert (code, err) == (0, "")


class TestExitCodes:
    def test_success_is_zero_with_empty_stderr(self):
        code, _, err = invoke("group-info", group_spec="cyclic:2")
        assert code == 0 and err == ""

    def test_relation_violation_is_domain_error(self):
        code, out, err = invoke(
            "cw", group_spec="cyclic:3",
            vector_json='{"g_quot": 0, "handles": [], "branches": [1, 1, 1, 1]}')
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_identity_branch_is_domain_error(self):
        code, _, err = invoke(
            "cw", group_spec="cyclic:3",
            vector_json='{"g_quot": 0, "handles": [], "branches": [0, 1, 2]}')
        assert code == 1 and "c_1" in err

    def test_low_genus_cover_is_domain_error(self):
        code, _, err = invoke(
            "cw", group_spec="cyclic:2",
            vector_json='{"g_quot": 1, "handles": [1, 0], "branches": []}')
        assert code == 1 and err.startswith("error: ")

    def test_enumeration_genus_below_two_is_domain_error(self):
        code, _, err = invoke("hurwitz-enumerate", group_spec="cyclic:2",
                              genus=1)
        assert code == 1 and err.startswith("error: ")

    def test_cap_exceeded_is_domain_error(self):
        code, _, err = invoke("hurwitz-enumerate", group_spec="cyclic:3",
                              genus=6, enumeration_cap=10)
        assert code == 1 and err.startswith("error: ")

    def test_impossible_metacyclic_params_are_domain_error(self):
        code, _, err = invoke("metacyclic-h2", m=4, n=2, r=2)
        assert code == 1 and err.startswith("error: ")

    def test_rr_bound_rejects_abelian_with_diagnostic(self):
        code, _, err = invoke("metacyclic-rr-bound", m=5, n=2, r=1, genus=11)
        assert code == 1 and "is abelian" in err

    def test_rr_bound_divisibility_diagnostic_text(self):
        code, _, err = invoke("metacyclic-rr-bound", m=4, n=2, r=3, genus=8)
        assert code == 1
        assert err == "error: g - 1 = 7 is not a multiple of |G| = 8\n"

    def test_rr_bound_quotient_genus_below_two(self):
        code, _, err = invoke("metacyclic-rr-bound", m=4, n=2, r=3, genus=1)
        assert code == 1 and "below 2" in err

    def test_unknown_command_is_usage_error(self):
        code, out, err = invoke("frobnicate", group_spec="cyclic:2")
        assert code == 2 and out == ""
        assert err == "usage error: unknown command 'frobnicate'\n"

    def test_bad_group_spec_is_usage_error(self):
        for spec in ("nosuch:3", "cyclic:zero", "cyclic:"):
            code, _, err = invoke("group-info", group_spec=spec)
            assert code == 2 and err.startswith("usage error: "), spec

    def test_missing_required_option_is_usage_error(self):
        code, _, err = invoke("hurwitz-enumerate", group_spec="cyclic:2")
        assert code == 2 and "--genus" in err
        code, _, err = invoke("cw", group_spec="cyclic:2")
        assert code == 2 and "--vector" in err
        code, _, err = invoke("metacyclic-h2", m=4, n=2)
        assert code == 2 and "--r" in err

    def test_malformed_vector_json_is_usage_error(self):
        for text in ("{", "[1, 2]", '{"g_quot": 0}',
                     '{"g_quot": 0, "handles": ["a"], "branches": []}'):
            code, _, err = invoke("cw", group_spec="cyclic:3",
                                  vector_json=text)
            assert code == 2 and err.startswith("usage error: "), text

    def test_out_of_range_element_id_is_usage_error(self):
        code, _, err = invoke(
            "cw", group_spec="cyclic:2",
            vector_json='{"g_quot": 0, "handles": [], "branches": [5, 1]}')
        assert code == 2 and "0..1" in err

    def test_bad_k_range_is_usage_error(self):
        for text in ("0..3", "3..1", "x", "1..b"):
            code, _, err = invoke("cw", group_spec="cyclic:3",
                                  vector_json=V_GENUS6, k_range=text)
            assert code == 2 and err.startswith("usage error: "), text

    def test_config_invariants_reject_bad_values(self):
        with pytest.raises(ValueError):
            SessionConfig(k_max=0)
        with pytest.raises(ValueError):
            SessionConfig(enumeration_cap=0)
        with pytest.raises(ValueError):
            SessionConfig(output="yaml")


class TestMainEntry:
    def test_alias_group_info(self, capsys):
        assert main(["group", "info", "--group", "cyclic:2"]) == 0
        assert "order: 2" in capsys.readouterr().out

    def test_alias_metacyclic_h2(self, capsys):
        assert main(["metacyclic", "h2", "--m", "4", "--n", "2",
                     "--r", "3"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_alias_metacyclic_rr_bound(self, capsys):
        assert main(["metacyclic", "rr-bound", "--m", "3", "--n", "2",
                     "--r", "2", "--genus", "7"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_canonical_names_accepted_unchanged(self, capsys):
        assert main(["metacyclic-h2", "--m", "4", "--n", "2", "--r", "3"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_flag_wiring_matches_run_level_output(self, capsys):
        assert main(["cw", "--group", "cyclic:3", "--vector", V_GENUS6,
                     "--k", "1..3", "--json"]) == 0
        via_main = capsys.readouterr().out
        assert via_main == invoke("cw", group_spec="cyclic:3",
                                  vector_json=V_GENUS6, k_range="1..3",
                                  output="json")[1]

    def test_usage_error_exit_code(self, capsys):
        assert main(["cw", "--group", "cyclic:3", "--vector", "notjson"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_domain_error_exit_code(self, capsys):
        assert main(["metacyclic-rr-bound", "--m", "4", "--n", "2",
                     "--r", "3", "--genus", "8"]) == 1
        assert "not a multiple" in capsys.readouterr().err

    def test_config_invariant_maps_to_usage_exit(self, capsys):
        assert main(["decompose", "--group", "cyclic:2", "--genus", "3",
                     "--cap", "0"]) == 2
        assert "enumeration cap" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestLevelRange:
    VEC2 = '{"g_quot": 0, "handles": [], "branches": [1, 1, 1, 1, 1, 1]}'

    def ks(self, **kw):
        _, out, _ = invoke("cw", group_spec="cyclic:2", vector_json=self.VEC2,
                           output="json", **kw)
        return [rec["k"] for rec in json_lines(out)]

    def test_default_range_is_one_to_group_order(self):
        assert self.ks() == [1, 2]

    def test_single_level(self):
        assert self.ks(k_range="2") == [2]

    def test_explicit_range(self):
        assert self.ks(k_range="2..5") == [2, 3, 4, 5]

    def test_k_max_widens_the_default(self):
        assert self.ks(k_max=4) == [1, 2, 3, 4]

    def test_golden_multiplicities_for_z2_cover(self):
        _, out, _ = invoke("cw", group_spec="cyclic:2", vector_json=self.VEC2,
                           k_range="1..2", output="json")
        assert [rec["mults"] for rec in json_lines(out)] == [[0, 2], [3, 0]]
