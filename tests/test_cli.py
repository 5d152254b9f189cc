"""Command layer: golden reports, JSON round-trips, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from cwmoduli import (
    CwModuliError,
    EnumerationOptions,
    HurwitzVector,
    NotGenerating,
    OrderViolation,
    RelationViolation,
    character_table,
    chevalley_weil,
    cli,
    cw_character,
    enumerate_branching_data,
    enumerate_hurwitz_vectors,
    genus,
    group_from_spec,
    run,
    stabilization_report,
    validate,
)
from cwmoduli.cli import SCHEMA, _id_strings, _vector_lines, _vector_text, main

V_GENUS6 = '{"g_quot": 2, "handles": [1, 0, 0, 2], "branches": [2, 1]}'
V_ALT = '{"g_quot": 0, "handles": [], "branches": [1, 1, 2, 2, 1, 1, 2, 2]}'


def argv_of(command, **kw):
    """The argv of one command: x_y=v becomes --x-y v, True a bare flag."""
    argv = [command]
    for key, value in kw.items():
        if value is None or value is False:
            continue
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv.append(str(value))
    return argv


def invoke(command, **kw):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv_of(command, **kw), out=out, err=err)
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
        code, out, err = invoke("cw", group="cyclic:3",
                                vector=V_GENUS6, k="1..3")
        assert code == 0 and err == ""
        rows = [line.split() for line in out.splitlines()
                if line and line.split()[0].isdigit()]
        assert rows == [["1", "2", "2", "2"],
                        ["2", "5", "5", "5"],
                        ["3", "9", "8", "8"]]
        assert out.splitlines()[0].startswith("group: cyclic:3")

    def test_group_info_lists_invariants_and_table(self):
        code, out, _ = invoke("group-info", group="metacyclic:3,2,2")
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
        _, out, _ = invoke("group-info", group="cyclic:3")
        assert "(ord3)" in out

    def test_wide_table_falls_back_to_json_lines(self):
        code, out, _ = invoke("group-info", group="cyclic:24")
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
        code, out, _ = invoke("hurwitz-enumerate", group="cyclic:2",
                              genus=2)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "group: cyclic:2  genus: 2  granularity: raw"
        assert ("branching data g_quot=0 orders=[2,2,2,2,2,2]: 1 vectors"
                in lines)
        assert "branching data g_quot=1 orders=[2,2]: 4 vectors" in lines
        assert "  ( ; 1 1 1 1 1 1)" in lines
        assert lines[-1] == "total: 5"

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_hurwitz_enumerate_streams_each_datum(self, monkeypatch, output):
        # a datum's vectors are written before the next datum is enumerated
        import cwmoduli.cli as cli
        original = cli.enumerate_hurwitz_rows
        calls = []

        def fail_on_second(G, data, opts):
            calls.append(data)
            if len(calls) == 2:
                raise RuntimeError("second datum")
            return original(G, data, opts)

        monkeypatch.setattr(cli, "enumerate_hurwitz_rows", fail_on_second)
        out = io.StringIO()
        with pytest.raises(RuntimeError):
            run(argv_of("hurwitz-enumerate", group="cyclic:2", genus=2,
                        json=output == "json"), out=out)
        lines = out.getvalue().splitlines()
        if output == "text":
            assert lines == ["group: cyclic:2  genus: 2  granularity: raw",
                             "branching data g_quot=0 orders=[2,2,2,2,2,2]: 1 vectors",
                             "  ( ; 1 1 1 1 1 1)"]
        else:
            records = json_lines(out.getvalue())
            assert [r["kind"] for r in records] == ["branching-data", "hurwitz-vector"]
            assert records[0]["count"] == 1

    def test_decompose_text_report(self):
        code, out, _ = invoke("decompose", group="cyclic:3", genus=6)
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

    def test_decompose_prints_a_multiplicity_equal_to_the_genus(self):
        # the trivial group at genus 128: one block, level-1 multiplicity 128
        code, out, _ = invoke("decompose", group="cyclic:1", genus=128)
        assert code == 0 and "block 0: 1 items\n  k=1: (128)\n" in out

    def test_decompose_past_the_period_keeps_the_blocks(self):
        # --k-max 7 > |G| also runs both periodicity checks
        def blocks(**kw):
            code, out, _ = invoke("decompose", group="cyclic:3", genus=6, **kw)
            assert code == 0
            return [line for line in out.splitlines()
                    if line.startswith("block ") or line.lstrip().startswith("members:")]

        long = blocks(k_max=7)
        assert len(long) == 12
        assert long == blocks()


    @pytest.mark.parametrize("g_quot, r", [(0, 0), (0, 1), (0, 3), (1, 0), (1, 2), (2, 1)])
    def test_vector_lines_match_the_format_of_a_shape(self, g_quot, r):
        # the text line as a %d format of its entries, written out here
        fmt = ("  (" + " ".join(["%d"] * (2 * g_quot)) + " ; "
               + " ".join(["%d"] * r) + ")\n")
        rng = np.random.default_rng(2 * g_quot + r)
        rows = rng.integers(0, 300, size=(7, 2 * g_quot + r)).astype(np.int16)
        ids = _id_strings(300)
        assert _vector_lines(rows, 2 * g_quot, ids) == "".join(
            fmt % tuple(row) for row in rows.tolist())
        v = HurwitzVector(g_quot, rows[0, :2 * g_quot], rows[0, 2 * g_quot:])
        assert _vector_text(v, ids) == fmt[2:-1] % v.entries


class TestJsonReports:
    def test_enumerate_records_parse_and_revalidate(self):
        G = group_from_spec("cyclic:3")
        code, out, _ = invoke("hurwitz-enumerate", group="cyclic:3",
                              genus=6, json=True)
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
        _, out, _ = invoke("hurwitz-enumerate", group="cyclic:2",
                           genus=2, json=True)
        rec = next(r for r in json_lines(out) if r["kind"] == "hurwitz-vector")
        code, out, _ = invoke("cw", group="cyclic:2",
                              vector=json.dumps(rec), k="1..2",
                              json=True)
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
        code, out, _ = invoke("cw", group="cyclic:3",
                              vector=V_GENUS6, k="1..3",
                              json=True)
        assert code == 0
        assert json_lines(out) == [
            {"schema": SCHEMA, "k": 1, "mults": [2, 2, 2]},
            {"schema": SCHEMA, "k": 2, "mults": [5, 5, 5]},
            {"schema": SCHEMA, "k": 3, "mults": [9, 8, 8]},
        ]

    def test_decompose_json_structure(self):
        code, out, _ = invoke("decompose", group="cyclic:3", genus=6,
                              json=True)
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
        _, out, _ = invoke("decompose", group="cyclic:3", genus=6,
                           json=True)
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
        code, out, _ = invoke("group-info", group="cyclic:3",
                              json=True)
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
        _, out, _ = invoke("metacyclic-h2", m=4, n=2, r=3, json=True)
        assert json.loads(out) == {"schema": SCHEMA, "m": 4, "n": 2, "r": 3,
                                   "d": 2}
        _, out, _ = invoke("metacyclic-rr-bound", m=4, n=2, r=3, genus=9,
                           json=True)
        assert json.loads(out) == {"schema": SCHEMA, "m": 4, "n": 2, "r": 3,
                                   "genus": 9, "bound": 2}


# sha256 of the full stdout of group-info, recorded before the character
# values became one matrix; the bench digests cover only some JSON fields
GROUP_INFO_STDOUT = {
    ("cyclic:5", True): "7b47662787bfe2a024c46f3ebe3c2f3986af82ee2a1bd0c5c989615469d9397f",
    ("cyclic:5", False): "28719f62b3eb36682bbeb2bd73770791878858b8dd067c2edaef8439b2d09d44",
    ("metacyclic:8,2,5", True):
        "5fecc37a58b4cc7e8641b35513c045bf8a679363c0edc395bde78e40960b1fa6",
    ("metacyclic:8,2,5", False):
        "7ecb757ec31bd7c03d02ac31cd1a7407ea02c5b581025275ac8d8e6324b762b1",
    # past TEXT_TABLE_LIMIT: the JSON-lines fallback
    ("cyclic:24", False): "9241426d707d1948b90f4c96b04986fb1aca546f1da6d1624029bb897c87f9fb",
    # recorded while roots were still found by Cantor-Zassenhaus at every
    # prime; the first two have irrational characters
    ("cyclic:40", True): "d9adcc86a0789e31da2f7b250082ba027f5c1fb8752db29eada1cb631b96b34b",
    ("metacyclic:13,12,2", True):
        "a6f4e3bbd49cffe9c44f16a4ad916f072153aceb8062358f7b58cc6e4d5caa11",
    ("abelian:2,2,2,2,2,2,2", True):
        "fe2fa72f539a560c7bf5e0db16dc0d355cc9bdaeb3be6c2a1ea00c23da2db571",
}


@pytest.mark.parametrize("spec, as_json", GROUP_INFO_STDOUT)
def test_group_info_stdout_is_pinned(spec, as_json):
    code, out, err = invoke("group-info", group=spec, json=as_json)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GROUP_INFO_STDOUT[spec, as_json]


# sha256 of the full stdout of hurwitz-enumerate and decompose, recorded
# before HurwitzVector became a tuple record and rendering table-driven; both
# genera reach quotient genus 1, so handle entries are rendered too
ENUMERATION_STDOUT = {
    ("hurwitz-enumerate", "cyclic:4", 3, ()):
        "1dca9016c6c8f5f3e1a4e14b6a015746e12cb3a6e0f664a12c3ae80a8c82d81d",
    ("hurwitz-enumerate", "cyclic:4", 3, ("up_to_conjugacy",)):
        "0ea01cfe91e911e51620153ac659ca293d2b8f14adfe7c0f4d32c93309841d17",
    ("hurwitz-enumerate", "cyclic:4", 3, ("json",)):
        "5fdb4c42d5825bd1d2d1ef4a52fa379ddb5bd2754695c4eff5959d88c9dc4bb1",
    ("decompose", "cyclic:4", 3, ()):
        "e1f4965f557cfa01d88f1f5991e51c34eeace4b8bb555e8067385eb804fcdb0f",
    ("hurwitz-enumerate", "metacyclic:3,2,2", 4, ()):
        "918869ce44471c3943ed8e0da13869c73be8f36e2b5410e57515bd691c5cbaea",
    ("hurwitz-enumerate", "metacyclic:3,2,2", 4, ("up_to_conjugacy",)):
        "ddea7afb65078c8272840469616fcd5783c5ffd1f7172720d703b73d0632f04f",
    ("hurwitz-enumerate", "metacyclic:3,2,2", 4, ("json",)):
        "504e25777396e7bb4df23d6bbb6560c28e13200261c7c4e4fad20a2022030eca",
    ("decompose", "metacyclic:3,2,2", 4, ()):
        "3cda0506c6e0fdaf85764a2c13831883d5bb4f60771c82ccc52912f70a58b0e0",
    # g' = 2 with no branch points, and the trivial group
    ("hurwitz-enumerate", "cyclic:3", 4, ()):
        "8221f0e8e03cf985a4bf16a210410e514ebf6ce6a3422b30b6fe697b10290969",
    ("hurwitz-enumerate", "cyclic:3", 4, ("json",)):
        "c6e98e623dc92a1b28fdbe44d7db8ce6231ee12ce17e6f2a79b7dbfecb22d803",
    ("hurwitz-enumerate", "cyclic:1", 2, ()):
        "c4baa7818747106e5534f2ad2e85323afc5498eb5722ecfde0d629e5f9a6ca77",
    ("hurwitz-enumerate", "cyclic:1", 2, ("json",)):
        "3338e309222582618893687232c3ecd0b98b9a335e2637151bb8406536d95d54",
    # the cw text header renders its vector like hurwitz-enumerate does
    ("cw", "cyclic:3", None, (("vector", V_GENUS6),)):
        "88683f21ae1cdf2c242f276d705059972c85fe176916f3f98146279047a2dfe1",
    # sized primes above 2^15 (76673 and 58549), where the table is the
    # default one reduced, and irrational characters; recorded while such
    # primes ran a split of their own, by Cantor-Zassenhaus
    ("decompose", "cyclic:32", 20, ()):
        "a1af7132e44b46fb58847dd39c88c4b79fa631f91e9421f415d30213506b3580",
    ("decompose", "metacyclic:7,3,2", 8, (("k_max", 100),)):
        "f32a2c3d108d77a56313fcfb8fcaa2e53dc28162880b5a179b993a46e351ca10",
}


@pytest.mark.parametrize("command, spec, g, flags", ENUMERATION_STDOUT)
def test_enumeration_stdout_is_pinned(command, spec, g, flags):
    # a flag is a bare option name or an (option, value) pair
    options = dict(f if isinstance(f, tuple) else (f, True) for f in flags)
    code, out, err = invoke(command, group=spec, genus=g, **options)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ENUMERATION_STDOUT[command, spec, g, flags]


class TestRationalCells:
    """Cells are integers exactly where the value is, read without count matrices."""

    def test_modular_group_zeros_print_as_integers(self):
        # metacyclic:8,2,5 is the modular group of order 16: its degree-2
        # characters vanish at the elements of order 8 but not at their squares
        code, out, _ = invoke("group-info", group="metacyclic:8,2,5")
        assert code == 0
        lines = out.splitlines()
        orders = next(line for line in lines if line.startswith("representative orders:"))
        order8 = [c for c, o in enumerate(orders.split(":")[1].split()) if o == "8"]
        assert len(order8) == 4
        rows = {line.split()[0]: line.split()[1:] for line in lines
                if line.lstrip().startswith("chi_")}
        for name in ("chi_8", "chi_9"):
            assert [rows[name][c] for c in order8] == ["0"] * 4

    def test_modular_group_json_rational_values(self):
        code, out, _ = invoke("group-info", group="metacyclic:8,2,5", json=True)
        assert code == 0
        assert json.loads(out)["rational_values"][8] == [2, 0, 0, 0, None, 0, 0, 0, -2, None]

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("spec", ["cyclic:24", "metacyclic:8,2,5"])
    def test_group_info_builds_no_count_matrix(self, monkeypatch, spec, output):
        import cwmoduli.characters as characters

        def refuse(T, cls):
            raise AssertionError("group-info built a count matrix")

        monkeypatch.setattr(characters, "_count_matrix", refuse)
        code, out, err = invoke("group-info", group=spec, json=output == "json")
        assert (code, err) == (0, "")
        assert out


class TestDeterminism:
    CASES = [
        ("hurwitz-enumerate",
         dict(group="cyclic:3", genus=6, json=True)),
        ("decompose", dict(group="cyclic:2", genus=3, json=True)),
        ("group-info", dict(group="metacyclic:3,2,2", json=True)),
        ("cw", dict(group="cyclic:3", vector=V_GENUS6,
                    k="1..3")),
    ]

    def test_byte_identical_reruns(self):
        for command, kw in self.CASES:
            first = invoke(command, **kw)
            second = invoke(command, **kw)
            assert first == second, command

    def test_multiplicities_ignore_seed(self):
        outputs = {invoke("cw", group="metacyclic:3,2,2",
                          vector='{"g_quot": 2, "handles": [1, 0, 0, 0],'
                                      ' "branches": []}',
                          k="1..4", seed=seed)[1]
                   for seed in (0, 7, 123)}
        assert len(outputs) == 1

    def test_decompose_ignores_seed(self):
        # the characters of cyclic:8 are labelled through the working field's
        # primitive 8th root of unity, which must not depend on the seed
        outputs = {invoke("decompose", group="cyclic:8", genus=9, seed=seed)
                   for seed in range(4)}
        assert len(outputs) == 1
        (code, _, err), = outputs
        assert (code, err) == (0, "")


class TestExitCodes:
    def test_success_is_zero_with_empty_stderr(self):
        code, _, err = invoke("group-info", group="cyclic:2")
        assert code == 0 and err == ""

    def test_relation_violation_is_domain_error(self):
        code, out, err = invoke(
            "cw", group="cyclic:3",
            vector='{"g_quot": 0, "handles": [], "branches": [1, 1, 1, 1]}')
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_identity_branch_is_domain_error(self):
        code, _, err = invoke(
            "cw", group="cyclic:3",
            vector='{"g_quot": 0, "handles": [], "branches": [0, 1, 2]}')
        assert code == 1 and "c_1" in err

    def test_low_genus_cover_is_domain_error(self):
        code, _, err = invoke(
            "cw", group="cyclic:2",
            vector='{"g_quot": 1, "handles": [1, 0], "branches": []}')
        assert code == 1 and err.startswith("error: ")

    def test_enumeration_genus_below_two_is_domain_error(self):
        code, _, err = invoke("hurwitz-enumerate", group="cyclic:2",
                              genus=1)
        assert code == 1 and err.startswith("error: ")

    def test_cap_exceeded_is_domain_error(self):
        code, _, err = invoke("hurwitz-enumerate", group="cyclic:3",
                              genus=6, cap=10)
        assert code == 1 and err.startswith("error: ")

    def test_branching_data_cap_is_domain_error(self):
        # listing the data of this genus was killed for its memory before
        # the branch-entry cap
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from cwmoduli.cli import main; sys.exit(main())",
             "hurwitz-enumerate", "--group", "cyclic:4", "--genus", "99999999"],
            env=env, capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 2
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: a branching datum of genus 99999999 can have")

    def test_decompose_cap_bounds_the_whole_genus(self, monkeypatch):
        # cyclic:3 genus 6 holds 86 + 90 + 162 = 338 vectors
        import cwmoduli.cli as cli
        original = cli.enumerate_hurwitz_rows
        caps = []

        def recording(G, data, opts):
            caps.append(opts.max_vectors)
            return original(G, data, opts)

        monkeypatch.setattr(cli, "enumerate_hurwitz_rows", recording)
        code, out, err = invoke("decompose", group="cyclic:3", genus=6, cap=200)
        assert (code, out) == (1, "")
        assert err == ("error: genus 6 has more than 200 vectors over all its "
                       "branching data; raise --cap\n")
        # each datum may emit only what remains of the cap
        assert caps == [200, 114, 24]
        caps.clear()
        code, out, err = invoke("decompose", group="cyclic:3", genus=6, cap=338)
        assert (code, err) == (0, "") and "items: 338" in out
        assert caps == [338, 252, 162]
        code, _, err = invoke("decompose", group="cyclic:3", genus=6, cap=337)
        assert code == 1 and "genus 6" in err
        # a cap used up exactly by earlier data leaves the next datum none
        caps.clear()
        code, _, err = invoke("decompose", group="cyclic:3", genus=6, cap=176)
        assert code == 1 and "genus 6" in err
        assert caps == [176, 90, 0]

    def test_hurwitz_enumerate_cap_bounds_each_datum(self):
        code, out, _ = invoke("hurwitz-enumerate", group="cyclic:3", genus=6, cap=162)
        assert code == 0 and out.endswith("total: 338\n")
        code, _, err = invoke("hurwitz-enumerate", group="cyclic:3", genus=6, cap=161)
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
        code, out, err = invoke("frobnicate", group="cyclic:2")
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and "'frobnicate'" in err

    def test_bad_group_spec_is_usage_error(self):
        for spec in ("nosuch:3", "cyclic:zero", "cyclic:"):
            code, _, err = invoke("group-info", group=spec)
            assert code == 2 and err.startswith("usage error: "), spec

    def test_overlapping_perm_cycles_are_usage_error(self):
        code, out, err = invoke("group-info", group="perm:(1,2)(2,3)")
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and "point 2" in err

    def test_missing_required_option_is_usage_error(self):
        code, _, err = invoke("hurwitz-enumerate", group="cyclic:2")
        assert code == 2 and "--genus" in err
        code, _, err = invoke("cw", group="cyclic:2")
        assert code == 2 and "--vector" in err
        code, _, err = invoke("metacyclic-h2", m=4, n=2)
        assert code == 2 and "--r" in err

    def test_malformed_vector_json_is_usage_error(self):
        for text in ("{", "[1, 2]", '{"g_quot": 0}',
                     '{"g_quot": 0, "handles": ["a"], "branches": []}'):
            code, _, err = invoke("cw", group="cyclic:3",
                                  vector=text)
            assert code == 2 and err.startswith("usage error: "), text

    @pytest.mark.parametrize("text", [
        '{"g_quot": 0, "handles": [], "branches": [1.9, 1, 1, 2, 2, 2]}',
        '{"g_quot": 0, "handles": [], "branches": [true, 1, 1, 2, 2, 2]}',
        '{"g_quot": 0, "handles": [], "branches": ["1", 1, 1, 2, 2, 2]}',
        '{"g_quot": 0.5, "handles": [], "branches": [1, 2]}',
        '{"g_quot": false, "handles": [], "branches": [1, 2]}',
        '{"g_quot": 0, "handles": [], "branches": "12"}',
    ])
    def test_non_integer_vector_values_are_usage_error(self, text):
        # int() would truncate or coerce each of these into a vector and answer
        code, out, err = invoke("cw", group="cyclic:3", vector=text)
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_out_of_range_element_id_is_usage_error(self):
        code, _, err = invoke(
            "cw", group="cyclic:2",
            vector='{"g_quot": 0, "handles": [], "branches": [5, 1]}')
        assert code == 2 and "0..1" in err

    def test_bad_k_range_is_usage_error(self):
        for text in ("0..3", "3..1", "x", "1..b"):
            code, _, err = invoke("cw", group="cyclic:3",
                                  vector=V_GENUS6, k=text)
            assert code == 2 and err.startswith("usage error: "), text



VEC_Z2 = '{"g_quot": 0, "handles": [], "branches": [1, 1, 1, 1, 1, 1]}'

# argv rejected by the parser, and the flag or word its message must name
USAGE_ERRORS = {
    "decompose-without-genus": (["decompose", "--group", "cyclic:2"], "--genus"),
    "genus-not-int": (["decompose", "--group", "cyclic:2", "--genus", "x"], "--genus"),
    "cap-0": (["hurwitz-enumerate", "--group", "cyclic:2", "--genus", "2", "--cap", "0"],
              "--cap"),
    "cw-k-max-0": (["cw", "--group", "cyclic:2", "--vector", VEC_Z2, "--k-max", "0"],
                   "--k-max"),
    "decompose-k-max-0": (["decompose", "--group", "cyclic:2", "--genus", "3",
                           "--k-max", "0"], "--k-max"),
    "h2-without-r": (["metacyclic-h2", "--m", "4", "--n", "2"], "--r"),
    "unknown-subcommand": (["frobnicate"], "frobnicate"),
    "two-word-group-info": (["group", "info", "--group", "cyclic:2"], "'group'"),
    "two-word-metacyclic-h2": (["metacyclic", "h2", "--m", "4", "--n", "2", "--r", "3"],
                               "'metacyclic'"),
    "group-info-k-max": (["group-info", "--group", "cyclic:2", "--k-max", "2"], "--k-max"),
}


@pytest.mark.parametrize("argv, named", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
class TestUsageErrors:
    """Parse errors: one `usage error:` line naming the flag, exit code 2, no report."""

    def test_run_writes_one_usage_line(self, argv, named):
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out=out, err=err) == 2
        assert out.getvalue() == ""
        text = err.getvalue()
        assert text.startswith("usage error: ") and text.count("\n") == 1
        assert named in text

    def test_main_returns_two(self, argv, named, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and named in captured.err


class TestMainEntry:
    def test_canonical_names_accepted_unchanged(self, capsys):
        assert main(["metacyclic-h2", "--m", "4", "--n", "2", "--r", "3"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_flag_wiring_matches_run_level_output(self, capsys):
        assert main(["cw", "--group", "cyclic:3", "--vector", V_GENUS6,
                     "--k", "1..3", "--json"]) == 0
        via_main = capsys.readouterr().out
        assert via_main == invoke("cw", group="cyclic:3",
                                  vector=V_GENUS6, k="1..3",
                                  json=True)[1]

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
        assert "--cap" in capsys.readouterr().err

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["no-such-command"]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("argv", [["--help"], ["cw", "--help"]])
    def test_run_writes_help_to_out(self, argv, capsys):
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out=out, err=err) == 0
        assert out.getvalue().startswith("usage: cw-moduli")
        assert err.getvalue() == ""
        assert capsys.readouterr() == ("", "")

    def test_parser_is_built_once(self):
        from cwmoduli import cli
        assert cli._build_parser() is cli._build_parser()
        # a parse leaves the shared parser as it was: flags of one run do
        # not become the defaults of the next
        assert invoke("hurwitz-enumerate", group="cyclic:3", genus=6, cap=161)[0] == 1
        assert invoke("hurwitz-enumerate", group="cyclic:3", genus=6)[2] == ""
        code, out, _ = invoke("hurwitz-enumerate", group="cyclic:2", genus=2)
        assert code == 0 and out.splitlines()[0].endswith("granularity: raw")

    def test_main_help_returns_zero(self, capsys):
        assert main(["group-info", "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: cw-moduli group-info")


class TestLevelRange:
    VEC2 = '{"g_quot": 0, "handles": [], "branches": [1, 1, 1, 1, 1, 1]}'

    def ks(self, **kw):
        _, out, _ = invoke("cw", group="cyclic:2", vector=self.VEC2,
                           json=True, **kw)
        return [rec["k"] for rec in json_lines(out)]

    def test_default_range_is_one_to_group_order(self):
        assert self.ks() == [1, 2]

    def test_single_level(self):
        assert self.ks(k="2") == [2]

    def test_explicit_range(self):
        assert self.ks(k="2..5") == [2, 3, 4, 5]

    def test_golden_multiplicities_for_z2_cover(self):
        _, out, _ = invoke("cw", group="cyclic:2", vector=self.VEC2,
                           k="1..2", json=True)
        assert [rec["mults"] for rec in json_lines(out)] == [[0, 2], [3, 0]]


class TestCwLabels:
    """cw columns follow the character order of group-info, whatever --k."""

    VEC = '{"g_quot": 0, "handles": [], "branches": [1, 1, 3]}'

    def rows(self, **kw):
        code, out, err = invoke("cw", group="cyclic:5", vector=self.VEC,
                                json=True, **kw)
        assert (code, err) == (0, "")
        return {rec["k"]: rec["mults"] for rec in json_lines(out)}

    def test_rows_do_not_depend_on_the_level_range(self):
        short, long = self.rows(k="1..3"), self.rows(k="1..97")
        assert all(long[k] == mults for k, mults in short.items())
        assert short[1] == [0, 1, 1, 0, 0]

    @pytest.mark.parametrize("k_hi", [None, 2, 97])
    def test_labels_follow_group_info(self, k_hi):
        code, out, _ = invoke("group-info", group="cyclic:5", json=True)
        assert code == 0
        info = json_lines(out)[0]
        T = character_table(group_from_spec("cyclic:5"))
        assert info["prime"]["p"] == T.prime.p
        assert [chi["values"] for chi in info["characters"]] == T.values.tolist()
        v = HurwitzVector(0, (), (1, 1, 3))
        assert self.rows(k=k_hi and f"1..{k_hi}") == {
            k: list(cw_character(v, T, k).mults) for k in range(1, (k_hi or 5) + 1)}


def cw_levels(out, as_json):
    """(k, mults) of every level a cw report prints, from JSON lines or the text table."""
    if as_json:
        return [(rec["k"], rec["mults"]) for rec in json_lines(out)]
    return [(int(k), [int(x) for x in mults])
            for k, *mults in map(str.split, out.splitlines()[2:])]


class _Sink:
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


class TestCwOneEvaluation:
    """cw evaluates a validated vector over its whole level range, one pass
    for JSON and two for text; cw_character, one level at a time, is the
    oracle."""

    @pytest.fixture()
    def tables(self, monkeypatch):
        """Every character table the cw command builds, in order."""
        made = []
        real = cli.character_table

        def recording(G):
            made.append(real(G))
            return made[-1]

        monkeypatch.setattr(cli, "character_table", recording)
        return made

    def test_matches_cw_character_on_the_catalog(self, catalog_le_12, monkeypatch,
                                                  tables):
        monkeypatch.setattr(cli, "group_from_spec", dict(catalog_le_12).__getitem__)
        runs = 0
        for label, G in catalog_le_12:
            T = character_table(G)
            for g in range(2, 6):
                for data in enumerate_branching_data(G, g):
                    for v in islice(enumerate_hurwitz_vectors(G, data), 2):
                        want = [(k, list(cw_character(v, T, k).mults))
                                for k in range(1, G.order + 1)]
                        text = json.dumps(cli._vector_record(*v))
                        for as_json in (False, True):
                            code, out, err = invoke("cw", group=label, vector=text,
                                                    json=as_json)
                            assert (code, err) == (0, ""), (label, v)
                            assert cw_levels(out, as_json) == want, (label, v, as_json)
                            runs += 1
        assert runs > 500
        # one table per run, and the command filed nothing on any of them
        assert len(tables) == runs
        assert all(T._validated == {} and T._levels == {} for T in tables)

    @pytest.mark.parametrize("lo, hi", [
        (5, 70),
        # near where int64 stops bounding the scaled entries at genus 4
        (2 ** 63 // 48 - 40, 2 ** 63 // 48 + 40),
        # past int64: Python ints in object arrays
        (2 ** 70 - 30, 2 ** 70 + 40),
    ])
    def test_level_range_matches_cw_character(self, lo, hi, tables):
        G = group_from_spec("metacyclic:3,2,2")
        T = character_table(G)
        v = next(enumerate_hurwitz_vectors(G, enumerate_branching_data(G, 4)[-1]))
        want = [(k, list(cw_character(v, T, k).mults)) for k in range(lo, hi + 1)]
        text = json.dumps(cli._vector_record(*v))
        for as_json in (False, True):
            code, out, err = invoke("cw", group="metacyclic:3,2,2", vector=text,
                                    k=f"{lo}..{hi}", json=as_json)
            assert (code, err) == (0, "")
            assert cw_levels(out, as_json) == want
        assert all(T._validated == {} and T._levels == {} for T in tables)

    def test_class_columns_once_per_distinct_class(self, monkeypatch):
        calls = Counter()
        real = chevalley_weil._class_columns

        def counting(T, cls):
            calls[cls] += 1
            return real(T, cls)

        monkeypatch.setattr(chevalley_weil, "_class_columns", counting)
        T = character_table(group_from_spec("cyclic:5"))
        classes = set(T.classes.class_of[[1, 1, 3]].tolist())
        for as_json in (False, True):
            calls.clear()
            code, out, _ = invoke("cw", group="cyclic:5", vector=TestCwLabels.VEC,
                                  k="1..97", json=as_json)
            assert code == 0 and len(cw_levels(out, as_json)) == 97
            # text sizes its columns in a pass of its own before it prints
            assert calls == Counter(dict.fromkeys(classes, 1 if as_json else 2))

    @pytest.mark.parametrize("text", [
        '{"g_quot": 0, "handles": [], "branches": [1, 1, 1, 1]}',  # relation
        '{"g_quot": 0, "handles": [], "branches": [0, 1, 2]}',  # identity entry
        '{"g_quot": 0, "handles": [], "branches": [1, 1, 1]}',  # genus 1
    ])
    def test_errors_are_those_of_cw_character(self, text, tables):
        G = group_from_spec("cyclic:3")
        data = json.loads(text)
        v = HurwitzVector(data["g_quot"], data["handles"], data["branches"])
        with pytest.raises((ValueError, CwModuliError)) as exc:
            cw_character(v, character_table(G), 1)
        assert invoke("cw", group="cyclic:3", vector=text) == (1, "", f"error: {exc.value}\n")
        assert all(T._validated == {} and T._levels == {} for T in tables)

    @staticmethod
    def peaks_and_sizes(flags):
        """Per level count, the traced peak and the output size of cw 1..n into a sink."""
        argv = ["cw", *flags, "--group", "cyclic:3", "--vector", V_GENUS6, "--k"]
        assert run(argv + ["1..2"], out=_Sink()) == 0  # imports and first-use caches
        peaks, sizes = {}, {}
        for n in (cli._WRITE_LINES, 20_000):  # one write chunk, then five
            sink = _Sink()
            tracemalloc.start()
            try:
                assert run(argv + [f"1..{n}"], out=sink) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            sizes[n] = sink.size
        return peaks, sizes

    def test_json_holds_a_chunk_not_the_range(self):
        peaks, sizes = self.peaks_and_sizes(["--json"])
        # about one chunk is held at a time; one record per level would grow
        # the peak fivefold, to several times the output
        assert peaks[20_000] < 2 * peaks[cli._WRITE_LINES]
        assert peaks[20_000] < sizes[20_000]

    def test_text_holds_a_chunk_not_the_range(self):
        # the column widths come from a first pass, so text rows stream as
        # JSON lines do; one row held per level would grow the peak fivefold
        peaks, _ = self.peaks_and_sizes([])
        assert peaks[20_000] < 2 * peaks[cli._WRITE_LINES]


class TestDecomposeFromRows:
    """decompose keys the search's integer rows, builds no HurwitzVector, and
    still checks every row; the library's vector path is the oracle."""

    @staticmethod
    def bad_row(kind, G, row):
        """A g' = 0 row that fails validate's check of that kind alone.

        row is a valid g' = 0 row. Its last entry swapped for another of the
        same order breaks the relation; the identity joined in front breaks
        only the order check; an involution twice spans a proper subgroup.
        """
        last = int(row[-1])
        if kind == "relation":
            other = next(x for x in G.elements()
                         if x != last and G.elem_order(x) == G.elem_order(last))
            return np.append(row[:-1], other)
        if kind == "identity branch":
            return np.insert(row, 0, G.identity)
        involution = next(x for x in G.elements() if G.elem_order(x) == 2)
        return np.array([involution, involution])

    @pytest.mark.parametrize("kind, error", [
        ("relation", RelationViolation),
        ("identity branch", OrderViolation),
        ("not generating", NotGenerating),
    ])
    def test_a_bad_search_row_is_a_domain_error(self, monkeypatch, kind, error):
        # the row source yields one bad row after the first datum's rows;
        # decompose must reject it and print nothing
        G = group_from_spec("metacyclic:3,2,2")
        real = cli.enumerate_hurwitz_rows
        injected = []

        def source(G, data, opts):
            blocks = list(real(G, data, opts))
            if not injected and data.g_quot == 0 and blocks:
                injected.append(self.bad_row(kind, G, blocks[0][0]))
                blocks.append(injected[0][None].astype(blocks[0].dtype))
            return iter(blocks)

        monkeypatch.setattr(cli, "enumerate_hurwitz_rows", source)
        for flags in ({}, {"up_to_conjugacy": True}):
            injected.clear()
            code, out, err = invoke("decompose", group="metacyclic:3,2,2", genus=4, **flags)
            v = HurwitzVector(0, (), injected[0].tolist())
            with pytest.raises(error) as exc:
                validate(v, G)
            assert (code, out, err) == (1, "", f"error: {exc.value}\n"), (kind, flags)

    @pytest.mark.parametrize("flags", [{}, {"up_to_conjugacy": True}], ids=["raw", "orbit"])
    def test_every_search_row_is_checked_once_in_bulk(self, monkeypatch, flags,
                                                      checked_rows, validate_calls):
        emitted = Counter()
        real = cli.enumerate_hurwitz_rows

        def recording(G, data, opts):
            for rows in real(G, data, opts):
                emitted.update((data.g_quot, tuple(row)) for row in rows.tolist())
                yield rows

        monkeypatch.setattr(cli, "enumerate_hurwitz_rows", recording)
        code, out, _ = invoke("decompose", group="metacyclic:3,2,2", genus=6, **flags)
        assert code == 0 and f"items: {sum(emitted.values())}\n" in out
        assert len(emitted) > 100 and set(emitted.values()) == {1}
        assert checked_rows == emitted
        assert validate_calls == Counter()  # validate runs only on a failing row

    @pytest.mark.parametrize("orbits", [False, True], ids=["raw", "orbit"])
    def test_row_report_matches_the_vector_report(self, catalog, monkeypatch, orbits):
        # the report decompose builds from the search rows, against
        # stabilization_report on the vectors of enumerate_hurwitz_vectors
        monkeypatch.setattr(cli, "group_from_spec", dict(catalog).__getitem__)
        reports = []
        real = cli._report

        def recording(items, T, k_max):
            reports.append((T, real(items, T, k_max)))
            return reports[-1][1]

        monkeypatch.setattr(cli, "_report", recording)
        opts = EnumerationOptions(up_to_conjugacy=orbits)
        compared = 0
        for label, G in catalog:
            for g in range(2, 6):
                reports.clear()
                code, _, err = invoke("decompose", group=label, genus=g, up_to_conjugacy=orbits)
                assert (code, err) == (0, ""), (label, g)
                (T, rep), = reports
                vectors = [v for d in enumerate_branching_data(G, g)
                           for v in enumerate_hurwitz_vectors(G, d, opts)]
                want = stabilization_report(vectors, T, G.order)
                case = (label, g)
                assert rep.final.items == vectors, case
                assert rep.final.ks == want.final.ks, case
                assert rep.final.blocks == want.final.blocks, case
                assert np.array_equal(rep.final.types, want.final.types), case
                assert rep == want, case
                compared += len(vectors)
        assert compared > 1000

    def test_json_streams_its_items_from_the_rows(self):
        # one record, as json.dumps writes it, whose items are the vectors
        code, out, _ = invoke("decompose", group="cyclic:3", genus=6, json=True)
        record = json.loads(out)
        assert code == 0 and out == json.dumps(record) + "\n"
        G = group_from_spec("cyclic:3")
        assert record["items"] == [cli._vector_record(*v) for d in enumerate_branching_data(G, 6)
                                   for v in enumerate_hurwitz_vectors(G, d)]
        # the items are written a chunk at a time, not held as a list of
        # records, which peaked at nine times the output
        argv = ["decompose", "--json", "--group", "metacyclic:4,2,3", "--genus", "9",
                "--up-to-conjugacy"]
        assert run(argv[:4] + ["--genus", "3"], out=_Sink()) == 0  # imports and first-use caches
        sink = _Sink()
        tracemalloc.start()
        try:
            assert run(argv, out=sink) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 10 ** 6 and peak < 3 * sink.size, (peak, sink.size)

    def test_peak_memory_at_504000_items(self):
        # 504,000 orbit representatives: the CI digest, within 120 MB; one
        # HurwitzVector per item took the command to 155 MB
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", "import resource, sys\n"
             "from cwmoduli.cli import main\n"
             "code = main()\n"
             "sys.stdout.flush()\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024, file=sys.stderr)\n"
             "sys.exit(code)",
             "decompose", "--group", "abelian:2,2,2,2", "--genus", "9", "--up-to-conjugacy"],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "e971b275e7cb9fdab3bf31cdf925801b7a870229bab3b70bbab84f6041937088")
        assert int(proc.stderr) <= 120, int(proc.stderr)
