"""Command layer: golden reports, JSON round-trips, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cwmoduli import (
    HurwitzVector,
    character_table,
    cw_character,
    genus,
    group_from_spec,
    run,
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
        original = cli.enumerate_hurwitz_vectors_parallel
        caps = []

        def recording(G, data, opts):
            caps.append(opts.max_vectors)
            return original(G, data, opts)

        monkeypatch.setattr(cli, "enumerate_hurwitz_vectors_parallel", recording)
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
