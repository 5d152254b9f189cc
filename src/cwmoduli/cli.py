"""Command-line interface: deterministic text and JSON reports.

Commands: group-info, hurwitz-enumerate, cw, decompose, metacyclic-h2,
metacyclic-rr-bound. `run(argv, out, err)` parses argv and writes the report,
or the --help text, to out; `main` is the entry point.
The argparse parser is the one description of the options: handlers read its
namespace, and every parse error (missing or malformed flag, unknown command)
becomes one `usage error: ...` line on err. Exit codes: 0 success, 1 domain
error, 2 usage error. Output is byte-identical for identical inputs; --seed
is accepted and changes nothing.
Every integer row printed, text or JSON, is rendered by _lines from tables
of value strings; padded tables (group-info, cw) go through _table_line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from itertools import groupby
from typing import IO, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .characters import (CharacterTable, character_table, rational_character_values)
from .chevalley_weil import _class_columns, _class_key, _evaluate_keys, _key_genus
from .decomposition import _report
from .errors import CwModuliError, EnumerationCapExceeded, GroupSpecError
from .groups import FiniteGroup, MetacyclicParams, group_from_spec
from .hurwitz import (BranchingData, EnumerationOptions, HurwitzVector, _VectorRows,
                      enumerate_branching_data, enumerate_hurwitz_rows)
from .metacyclic import rr_component_lower_bound, schur_multiplier_order

__all__ = ["run", "main", "SCHEMA"]

SCHEMA = "cw-moduli/1"

# Past this many irreducible characters, text tables degrade to JSON lines.
TEXT_TABLE_LIMIT = 20

# lines per write and per _lines call, at most: an in-memory stream such as
# io.StringIO keeps one object per write until it is read
_WRITE_LINES = 4096


class _UsageError(Exception):
    """Malformed input (flags, specs, JSON); maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors raise instead of printing usage and exiting."""

    def error(self, message: str):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _level_range(text: str) -> Tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        k_lo = int(lo)
        k_hi = int(hi) if sep else k_lo
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad level range {text!r}; expected 'k' or 'a..b'") from None
    if k_lo < 1 or k_hi < k_lo:
        raise argparse.ArgumentTypeError(f"bad level range {text!r}; need 1 <= a <= b")
    return k_lo, k_hi


def _parse_vector(text: str, G: FiniteGroup) -> HurwitzVector:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"vector is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError("vector JSON must be an object")
    missing = [key for key in ("g_quot", "handles", "branches") if key not in data]
    if missing:
        raise _UsageError(f"vector JSON lacks keys {missing}")
    g_quot, handles, branches = data["g_quot"], data["handles"], data["branches"]
    if not (isinstance(handles, list) and isinstance(branches, list)
            and all(type(x) is int for x in (g_quot, *handles, *branches))):
        raise _UsageError("vector g_quot, handles and branches must hold JSON integers")
    try:
        v = HurwitzVector(g_quot, handles, branches)
    except ValueError as exc:
        raise _UsageError(f"malformed vector: {exc}") from exc
    for x in v.entries:
        if not 0 <= x < G.order:
            raise _UsageError(
                f"entry {x} is outside the element ids 0..{G.order - 1}")
    return v


def _vector_record(g_quot: int, handles: Sequence[int], branches: Sequence[int]) -> dict:
    """The JSON record of a vector; a HurwitzVector v is _vector_record(*v)."""
    return {"schema": SCHEMA, "g_quot": g_quot,
            "handles": list(handles), "branches": list(branches)}


# stands in for each entry of a template record: entries, levels and g_quot are nonnegative
_ENTRY = -1


def _separators(template: str) -> List[str]:
    """The seps of _lines for records like template, whose entries are _ENTRY."""
    return template.split(str(_ENTRY))


def _vector_templates(g_quot: int, n_branches: int) -> Tuple[str, dict]:
    """The text "(a_1 b_1 ... ; c_1 ... c_r)" and the _vector_record of a template vector."""
    handles, branches = [_ENTRY] * (2 * g_quot), [_ENTRY] * n_branches
    return (f"({' '.join(map(str, handles))} ; {' '.join(map(str, branches))})",
            _vector_record(g_quot, handles, branches))


def _texts(values: Iterable[int]) -> Callable[[str], np.ndarray]:
    """Per separator, the object array of each value's text with it joined on, built once."""
    strings = np.array(list(map(str, values)), dtype=object)
    return functools.cache(lambda sep: strings + sep)


def _lines(rows: np.ndarray, seps: Sequence[str],
           texts: Optional[Callable[[str], np.ndarray]] = None) -> str:
    """The integer rows as text, one string: per row seps[0], then entry j and seps[j + 1].

    Entries are positions in texts, such as element ids, else in the _texts of
    min..max if they use its values twice on average, else %-formatted by row.
    Each run of columns that share a separator is one gather, and the rows
    one join.
    """
    if texts is None:  # an empty block, or an object array, takes the format
        lo, hi = ((int(rows.min()), int(rows.max())) if rows.size and rows.dtype != object
                  else (0, rows.size))
        if 2 * (hi - lo + 1) > rows.size:
            row_format = "%d".join(sep.replace("%", "%%") for sep in seps)
            return "".join([row_format % row for row in map(tuple, rows.tolist())])
        texts, rows = _texts(range(lo, hi + 1)), np.subtract(rows, lo, dtype=np.intp)
    tokens = np.empty((len(rows), len(seps)), dtype=object)
    tokens[:, 0] = seps[0]
    j = 0
    for sep, run in groupby(seps[1:]):
        n = len(list(run))
        tokens[:, j + 1:j + 1 + n] = texts(sep)[rows[:, j:j + n]]
        j += n
    return "".join(tokens.ravel().tolist())


def _data_line(data: BranchingData, count: int) -> str:
    orders = ",".join(str(m) for m in data.branch_orders)
    return f"branching data g_quot={data.g_quot} orders=[{orders}]: {count} vectors"


def _table_line(cells: Sequence, widths: Sequence[int]) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))


def _format_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    return [_table_line(row, widths) for row in [headers, *rows]]


def _character_cell(T: CharacterTable, rho: int, cls: int, val: Optional[int]) -> str:
    if val is not None:
        return str(val)
    residue = T.values[rho, cls]
    order = T.group.elem_order(T.classes.representatives[cls])
    return f"{residue}(ord{order})"


def _cmd_group_info(args: argparse.Namespace, out: IO[str]) -> None:
    G = group_from_spec(args.group)
    T = character_table(G)
    conj = T.classes
    s = conj.class_count
    rational = rational_character_values(T)
    if args.json:
        record = {
            "schema": SCHEMA,
            "group": G.label,
            "order": G.order,
            "exponent": G.exponent(),
            "abelian": G.is_abelian(),
            "prime": {"p": T.prime.p, "e": T.prime.e, "z": T.prime.z,
                      "bound": T.prime.bound},
            "class_sizes": list(conj.class_sizes),
            "class_representatives": list(conj.representatives),
            "representative_orders": [G.elem_order(r) for r in conj.representatives],
            "degrees": list(T.degrees),
            "characters": [{"degree": d, "values": row}
                           for d, row in zip(T.degrees, T.values.tolist())],
            "rational_values": rational,
        }
        print(json.dumps(record), file=out)
        return
    print(f"group: {G.label}", file=out)
    print(f"order: {G.order}", file=out)
    print(f"exponent: {G.exponent()}", file=out)
    print(f"abelian: {'yes' if G.is_abelian() else 'no'}", file=out)
    print(f"classes: {s}", file=out)
    print("class sizes: " + " ".join(str(c) for c in conj.class_sizes), file=out)
    print("class representatives: " + " ".join(str(r) for r in conj.representatives),
          file=out)
    print("representative orders: "
          + " ".join(str(G.elem_order(r)) for r in conj.representatives), file=out)
    print(f"working prime: p={T.prime.p} e={T.prime.e} z={T.prime.z} "
          f"bound={T.prime.bound}", file=out)
    print("degrees: " + " ".join(str(d) for d in T.degrees), file=out)
    if s > TEXT_TABLE_LIMIT:
        print(f"character table ({s} irreducibles; JSON lines):", file=out)
        for rho, row in enumerate(T.values.tolist()):
            print(json.dumps({"schema": SCHEMA, "index": rho, "degree": T.degrees[rho],
                              "values": row,
                              "rational_values": rational[rho]}), file=out)
        return
    print("character table:", file=out)
    headers = ["", *(f"C{c}" for c in range(s))]
    rows = [[f"chi_{rho}", *(_character_cell(T, rho, c, rational[rho][c]) for c in range(s))]
            for rho in range(s)]
    for line in _format_table(headers, rows):
        print(line, file=out)


def _cmd_hurwitz_enumerate(args: argparse.Namespace, out: IO[str]) -> None:
    """Render each datum as soon as it is enumerated; only its rows are held.

    The rows of a datum are its entry blocks from enumerate_hurwitz_rows.
    Its text lines or --json records are _lines of _WRITE_LINES rows at a
    time, gathered from one id table per command.
    """
    G = group_from_spec(args.group)
    opts = EnumerationOptions(up_to_conjugacy=args.up_to_conjugacy, max_vectors=args.cap)
    # the data are listed, and the genus checked, before anything is written
    branching = enumerate_branching_data(G, args.genus)
    total = 0
    if not args.json:
        print(f"group: {G.label}  genus: {args.genus}  "
              f"granularity: {'orbit' if args.up_to_conjugacy else 'raw'}", file=out)
    ids = _texts(range(G.order))
    for data in branching:
        blocks = list(enumerate_hurwitz_rows(G, data, opts))
        count = sum(map(len, blocks))
        total += count
        text, record = _vector_templates(data.g_quot, len(data.branch_orders))
        if args.json:
            print(json.dumps({"schema": SCHEMA, "kind": "branching-data",
                              "g_quot": data.g_quot, "branch_orders": list(data.branch_orders),
                              "count": count}), file=out)
            seps = _separators(json.dumps(dict(record, kind="hurwitz-vector")) + "\n")
        else:
            print(_data_line(data, count), file=out)
            seps = _separators(f"  {text}\n")
        for rows in blocks:
            for start in range(0, len(rows), _WRITE_LINES):
                out.write(_lines(rows[start:start + _WRITE_LINES], seps, ids))
    if args.json:
        print(json.dumps({"schema": SCHEMA, "kind": "total", "count": total}), file=out)
    else:
        print(f"total: {total}", file=out)


def _cmd_cw(args: argparse.Namespace, out: IO[str]) -> None:
    """One row per level of --k; each step of levels is one _evaluate_keys call and one write.

    JSON lines are _lines of rows [k, mults...]. The text table needs its
    column widths first: a first pass over the levels runs every check and
    keeps each column's largest entry, so an error writes nothing, and a
    second pass pads the rows with _table_line.
    """
    G = group_from_spec(args.group)
    k_lo, k_hi = args.k or (1, G.order)
    v = _parse_vector(args.vector, G)
    # the table group-info prints, so the column labels do not depend on --k
    # (multiplicities are exact on any table)
    T = character_table(G)
    key = (v.g_quot, _class_key(v, T))
    g = _key_genus(T, key)
    # the columns serve every step of both passes; a step is a quarter of the
    # most lines a write may hold, as rendering one holds several times its text
    columns = {cls: _class_columns(T, cls) for cls in set(key[1])}
    ks, step = range(k_lo, k_hi + 1), _WRITE_LINES // 4

    def steps():  # each step's levels and their multiplicities, levels x characters
        for a in range(0, len(ks), step):
            levels = ks[a:a + step]
            yield levels, _evaluate_keys(T, [key], g, levels, columns)[0]

    if args.json or T.class_count > TEXT_TABLE_LIMIT:
        seps = _separators(json.dumps({"schema": SCHEMA, "k": _ENTRY,
                                       "mults": [_ENTRY] * T.class_count}) + "\n")
        lines = (_lines(np.column_stack([np.array(levels), block]), seps)
                 for levels, block in steps())
    else:
        # multiplicities are nonnegative, so a column's widest entry is its largest
        top = functools.reduce(np.maximum, (block.max(axis=0) for _, block in steps()))
        headers = ["k", *(f"chi_{rho}" for rho in range(T.class_count))]
        widths = [max(len(h), len(str(x))) for h, x in zip(headers, [k_hi, *top.tolist()])]
        vector = _lines(np.array([v.entries], dtype=np.intp),
                        _separators(_vector_templates(v.g_quot, len(v.branches))[0]))
        print(f"group: {G.label}  vector: {vector}  genus: {g}", file=out)
        print(_table_line(headers, widths), file=out)
        lines = ("".join(_table_line([k, *mults], widths) + "\n"
                         for k, mults in zip(levels, block.tolist()))
                 for levels, block in steps())
    for text in lines:
        out.write(text)


def _enumerate_genus(G: FiniteGroup, args: argparse.Namespace
                     ) -> Tuple[List[Tuple[BranchingData, int]], _VectorRows]:
    """Each branching datum of the genus with its vector count, and all the vectors.

    The vectors stay the search's integer rows (enumerate_hurwitz_rows);
    no HurwitzVector is built. --cap counts the vectors of all data. Each
    datum's enumeration may emit only what remains of the cap, possibly
    nothing, so no vector past the cap is held before
    EnumerationCapExceeded is raised.
    """
    counts = []
    blocks = []
    remaining = args.cap
    for data in enumerate_branching_data(G, args.genus):
        opts = EnumerationOptions(up_to_conjugacy=args.up_to_conjugacy,
                                  max_vectors=remaining)
        try:
            rows = list(enumerate_hurwitz_rows(G, data, opts))
        except EnumerationCapExceeded:
            raise EnumerationCapExceeded(
                f"genus {args.genus} has more than {args.cap} vectors over all "
                "its branching data; raise --cap") from None
        count = sum(map(len, rows))
        remaining -= count
        counts.append((data, count))
        blocks.extend((data.g_quot, 2 * data.g_quot, r) for r in rows)
    return counts, _VectorRows(blocks)


def _cmd_decompose(args: argparse.Namespace, out: IO[str]) -> None:
    G = group_from_spec(args.group)
    g = args.genus
    counts, items = _enumerate_genus(G, args)
    k_hi = args.k_max or G.order
    T = character_table(G, k_max=k_hi, g_max=max(g, 2))
    granularity = "orbit" if args.up_to_conjugacy else "raw"
    result = _report(items, T, k_hi)
    D = result.final
    ids = _texts(range(G.order))
    if args.json:
        # one JSON object, as json.dumps writes it, its items streamed from the
        # rows between the fields before and after them, less the first ", "
        head = {"schema": SCHEMA, "group": G.label, "genus": g,
                "granularity": granularity, "k_values": list(D.ks)}
        tail = {"blocks": [{"key": D.types[b].tolist(), "members": list(block)}
                           for b, block in enumerate(D.blocks)],
                "stabilization_depth": result.stabilization_depth}
        records = (_lines(rows[start:start + _WRITE_LINES], _separators(", " + json.dumps(
                       _vector_templates(g_quot, rows.shape[1] - n_handles)[1])), ids)
                   for g_quot, n_handles, rows in D.items.blocks
                   for start in range(0, len(rows), _WRITE_LINES))
        out.write(json.dumps(head)[:-1] + ', "items": [' + next(records, ", ")[2:])
        for text in records:
            out.write(text)
        out.write("], " + json.dumps(tail)[1:] + "\n")
        return
    print(f"group: {G.label}  genus: {g}  granularity: {granularity}", file=out)
    for data, count in counts:
        print(_data_line(data, count), file=out)
    print(f"items: {len(items)}", file=out)
    print(f"levels refined: 1..{k_hi}", file=out)
    print(f"stabilization depth: {result.stabilization_depth}", file=out)
    print(f"blocks: {D.block_count}", file=out)
    k_seps = _separators(f"  k={_ENTRY}: ({', '.join([str(_ENTRY)] * T.class_count)})\n")
    for b, block in enumerate(D.blocks):
        print(f"block {b}: {len(block)} items", file=out)
        for start in range(0, len(D.ks), _WRITE_LINES):
            mults = D.types[b, start:start + _WRITE_LINES]
            out.write(_lines(np.column_stack([D.ks[start:start + len(mults)], mults]), k_seps))
        # the first four members, " (...)" each, one _lines per run of a shape
        members = groupby(map(D.items.row, block[:4]), key=lambda m: (m[0], len(m[2]) - m[1]))
        preview = "".join(_lines(np.array([row for _, _, row in run]),
                                 _separators(f" {_vector_templates(*shape)[0]}"), ids)
                          for shape, run in members)
        print(f"  members:{preview}{' ...' if len(block) > 4 else ''}", file=out)


def _cmd_metacyclic(args: argparse.Namespace, out: IO[str]) -> None:
    """metacyclic-h2: the Schur multiplier order d; metacyclic-rr-bound: the bound."""
    params = MetacyclicParams(args.m, args.n, args.r)
    if args.command == "metacyclic-h2":
        fields = {"d": schur_multiplier_order(params).d}
    else:
        fields = {"genus": args.genus, "bound": rr_component_lower_bound(params, args.genus)}
    record = {"schema": SCHEMA, "m": params.m, "n": params.n, "r": params.r, **fields}
    print(json.dumps(record) if args.json else list(fields.values())[-1], file=out)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="cw-moduli",
        description="Exact pluricanonical representation types of curves "
                    "with a finite group action.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str, *, group=True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if group:
            p.add_argument("--group", required=True,
                           help="cyclic:n | abelian:n1,n2,... | metacyclic:m,n,r "
                                "| perm:cycles;... | table:path")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--seed", type=int, default=0,
                       help="accepted for compatibility; changes nothing")
        return p

    command("group-info", _cmd_group_info, "order, classes, character table")

    p = command("hurwitz-enumerate", _cmd_hurwitz_enumerate,
                "branching data and vectors for a genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--up-to-conjugacy", action="store_true",
                   help="one representative per simultaneous-conjugation orbit")
    p.add_argument("--cap", type=_positive_int, default=10 ** 6,
                   help="cap on the vectors of each branching datum "
                        "(default 1000000)")

    p = command("cw", _cmd_cw, "multiplicity table of a vector over levels")
    p.add_argument("--vector", required=True,
                   help='JSON {"g_quot": int, "handles": [...], "branches": [...]}')
    p.add_argument("--k", type=_level_range, default=None,
                   help="level or range a..b (default 1..|G|)")

    p = command("decompose", _cmd_decompose,
                "representation-type decomposition for a genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--k-max", type=_positive_int, default=None,
                   help="refine levels 1..K (default |G|)")
    p.add_argument("--up-to-conjugacy", action="store_true")
    p.add_argument("--cap", type=_positive_int, default=10 ** 6,
                   help="cap on the vectors of the whole genus, over all "
                        "branching data (default 1000000)")

    for name, summary in (("metacyclic-h2", "Schur multiplier order"),
                          ("metacyclic-rr-bound", "component lower bound")):
        p = command(name, _cmd_metacyclic, summary, group=False)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        if name.endswith("rr-bound"):
            p.add_argument("--genus", type=int, required=True)

    return parser


def run(argv: Sequence[str], out: Optional[IO[str]] = None,
        err: Optional[IO[str]] = None) -> int:
    """Parse argv and execute its command; report goes to out, diagnostics to err.

    Returns 0 on success or `--help`, 1 on domain errors (invalid vector, no
    free action, non-integral genus, caps), 2 on usage errors (unknown command,
    missing or malformed flags, malformed specs or JSON, out-of-range ids).
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):  # argparse prints --help to sys.stdout
            args = _build_parser().parse_args(list(argv))
        args.handler(args, out)
    except SystemExit:  # only --help exits, once its text is printed
        return 0
    except (_UsageError, GroupSpecError) as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except (CwModuliError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; suppress the
        # interpreter's final flush complaint and leave quietly
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
