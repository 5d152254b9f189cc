"""Command-line interface: deterministic text and JSON reports.

Commands: group-info, hurwitz-enumerate, cw, decompose, metacyclic-h2,
metacyclic-rr-bound (the latter three also reachable as `group info`,
`metacyclic h2`, `metacyclic rr-bound`). Exit codes: 0 success, 1 domain
error, 2 usage error. Output is byte-identical for identical inputs; --seed
is accepted and changes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import IO, List, Optional, Sequence, Tuple

from .characters import (CharacterTable, character_table, rational_character_value)
from .chevalley_weil import cw_character
from .decomposition import CanonicalDecomposition, _refine_through, stabilization_report
from .errors import CwModuliError, GroupSpecError
from .groups import FiniteGroup, MetacyclicParams, group_from_spec
from .hurwitz import (BranchingData, EnumerationOptions, HurwitzVector,
                      enumerate_branching_data, enumerate_hurwitz_vectors_parallel,
                      genus, validate)
from .metacyclic import rr_component_lower_bound, schur_multiplier_order

__all__ = ["SessionConfig", "run", "main", "SCHEMA"]

SCHEMA = "cw-moduli/1"

# Past this many irreducible characters, text tables degrade to JSON lines.
TEXT_TABLE_LIMIT = 20


@dataclass
class SessionConfig:
    """Everything a command needs, normalized from flags or built directly."""

    group_spec: str = ""
    genus: Optional[int] = None
    k_max: Optional[int] = None  # defaults to the group order once known
    up_to_conjugacy: bool = False
    output: str = "text"
    enumeration_cap: int = 10 ** 6
    seed: int = 0  # accepted for compatibility; changes nothing
    vector_json: Optional[str] = None
    k_range: Optional[str] = None
    m: Optional[int] = None
    n: Optional[int] = None
    r: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k_max is not None and self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.enumeration_cap < 1:
            raise ValueError(f"enumeration cap must be >= 1, got {self.enumeration_cap}")
        if self.output not in ("text", "json"):
            raise ValueError(f"output must be 'text' or 'json', got {self.output!r}")


class _UsageError(Exception):
    """Malformed input (flags, specs, JSON); maps to exit code 2."""


def _require(cfg_value, flag: str):
    if cfg_value is None:
        raise _UsageError(f"missing required option {flag}")
    return cfg_value


def _build_group(cfg: SessionConfig) -> FiniteGroup:
    spec = _require(cfg.group_spec or None, "--group")
    return group_from_spec(spec)


def _parse_vector(cfg: SessionConfig, G: FiniteGroup) -> HurwitzVector:
    text = _require(cfg.vector_json, "--vector")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"vector is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError("vector JSON must be an object")
    missing = [key for key in ("g_quot", "handles", "branches") if key not in data]
    if missing:
        raise _UsageError(f"vector JSON lacks keys {missing}")
    try:
        v = HurwitzVector(int(data["g_quot"]),
                          tuple(int(x) for x in data["handles"]),
                          tuple(int(x) for x in data["branches"]))
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"malformed vector: {exc}") from exc
    for x in v.entries:
        if not 0 <= x < G.order:
            raise _UsageError(
                f"entry {x} is outside the element ids 0..{G.order - 1}")
    return v


def _parse_k_range(cfg: SessionConfig, default_hi: int) -> Tuple[int, int]:
    text = cfg.k_range
    if text is None:
        return 1, default_hi
    lo, sep, hi = text.partition("..")
    try:
        k_lo = int(lo)
        k_hi = int(hi) if sep else k_lo
    except ValueError as exc:
        raise _UsageError(f"bad level range {text!r}; expected 'k' or 'a..b'") from exc
    if k_lo < 1 or k_hi < k_lo:
        raise _UsageError(f"bad level range {text!r}; need 1 <= a <= b")
    return k_lo, k_hi


def _metacyclic_params(cfg: SessionConfig) -> MetacyclicParams:
    m = _require(cfg.m, "--m")
    n = _require(cfg.n, "--n")
    r = _require(cfg.r, "--r")
    return MetacyclicParams(m, n, r)


def _vector_record(v: HurwitzVector) -> dict:
    return {"schema": SCHEMA, "g_quot": v.g_quot,
            "handles": list(v.handles), "branches": list(v.branches)}


def _vector_text(v: HurwitzVector) -> str:
    handles = " ".join(str(x) for x in v.handles)
    branches = " ".join(str(x) for x in v.branches)
    return f"({handles} ; {branches})"


def _format_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return lines


def _character_cell(T: CharacterTable, rho: int, cls: int) -> str:
    val = rational_character_value(T, rho, cls)
    if val is not None:
        return str(val)
    residue = T.irreducibles[rho].values[cls]
    order = T.group.elem_order(T.classes.representatives[cls])
    return f"{residue}(ord{order})"


def _cmd_group_info(cfg: SessionConfig, out: IO[str]) -> None:
    G = _build_group(cfg)
    T = character_table(G, k_max=cfg.k_max or 1)
    conj = T.classes
    s = conj.class_count
    rational = [[rational_character_value(T, rho, c) for c in range(s)]
                for rho in range(s)]
    if cfg.output == "json":
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
            "characters": [{"degree": chi.degree, "values": list(chi.values)}
                           for chi in T.irreducibles],
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
        for rho, chi in enumerate(T.irreducibles):
            print(json.dumps({"schema": SCHEMA, "index": rho, "degree": chi.degree,
                              "values": list(chi.values),
                              "rational_values": rational[rho]}), file=out)
        return
    print("character table:", file=out)
    headers = ["", *(f"C{c}" for c in range(s))]
    rows = [[f"chi_{rho}", *(_character_cell(T, rho, c) for c in range(s))]
            for rho in range(s)]
    for line in _format_table(headers, rows):
        print(line, file=out)


def _enumerate_all(G: FiniteGroup, g: int, cfg: SessionConfig
                   ) -> List[Tuple[BranchingData, List[HurwitzVector]]]:
    opts = EnumerationOptions(up_to_conjugacy=cfg.up_to_conjugacy,
                              max_vectors=cfg.enumeration_cap)
    out = []
    for data in enumerate_branching_data(G, g):
        out.append((data, enumerate_hurwitz_vectors_parallel(G, data, opts)))
    return out


def _cmd_hurwitz_enumerate(cfg: SessionConfig, out: IO[str]) -> None:
    G = _build_group(cfg)
    g = _require(cfg.genus, "--genus")
    groups = _enumerate_all(G, g, cfg)
    total = sum(len(vs) for _, vs in groups)
    if cfg.output == "json":
        for data, vectors in groups:
            print(json.dumps({"schema": SCHEMA, "kind": "branching-data",
                              "g_quot": data.g_quot,
                              "branch_orders": list(data.branch_orders),
                              "count": len(vectors)}), file=out)
            for v in vectors:
                print(json.dumps(dict(_vector_record(v), kind="hurwitz-vector")),
                      file=out)
        print(json.dumps({"schema": SCHEMA, "kind": "total", "count": total}),
              file=out)
        return
    print(f"group: {G.label}  genus: {g}  "
          f"granularity: {'orbit' if cfg.up_to_conjugacy else 'raw'}", file=out)
    for data, vectors in groups:
        orders = ",".join(str(m) for m in data.branch_orders)
        print(f"branching data g_quot={data.g_quot} orders=[{orders}]: "
              f"{len(vectors)} vectors", file=out)
        for v in vectors:
            print(f"  {_vector_text(v)}", file=out)
    print(f"total: {total}", file=out)


def _cmd_cw(cfg: SessionConfig, out: IO[str]) -> None:
    G = _build_group(cfg)
    k_lo, k_hi = _parse_k_range(cfg, cfg.k_max or G.order)
    v = _parse_vector(cfg, G)
    validate(v, G)
    g = genus(v, G)
    T = character_table(G, k_max=max(k_hi, 1), g_max=max(g, 2))
    mvs = [cw_character(v, T, k) for k in range(k_lo, k_hi + 1)]
    if cfg.output == "json" or T.class_count > TEXT_TABLE_LIMIT:
        for mv in mvs:
            print(json.dumps({"schema": SCHEMA, "k": mv.k, "mults": list(mv.mults)}),
                  file=out)
        return
    print(f"group: {G.label}  vector: {_vector_text(v)}  genus: {g}", file=out)
    headers = ["k", *(f"chi_{rho}" for rho in range(T.class_count))]
    rows = [[str(mv.k), *(str(mult) for mult in mv.mults)] for mv in mvs]
    for line in _format_table(headers, rows):
        print(line, file=out)


def _cmd_decompose(cfg: SessionConfig, out: IO[str]) -> None:
    G = _build_group(cfg)
    g = _require(cfg.genus, "--genus")
    groups = _enumerate_all(G, g, cfg)
    items: List[HurwitzVector] = []
    for _, vectors in groups:
        items.extend(vectors)
    k_hi = cfg.k_max or G.order
    T = character_table(G, k_max=k_hi, g_max=max(g, 2))
    result: CanonicalDecomposition = _refine_through(tuple(items), T, k_hi)
    D = result.decomposition
    granularity = "orbit" if cfg.up_to_conjugacy else "raw"
    if cfg.output == "json":
        record = {
            "schema": SCHEMA,
            "group": G.label,
            "genus": g,
            "granularity": granularity,
            "k_values": list(D.ks),
            "items": [_vector_record(v) for v in D.items],
            "blocks": [{"key": [list(mults) for mults in key],
                        "members": list(block)}
                       for key, block in zip(D.keys, D.blocks)],
            "stabilization_depth": result.stabilization_depth,
        }
        print(json.dumps(record), file=out)
        return
    print(f"group: {G.label}  genus: {g}  granularity: {granularity}", file=out)
    for data, vectors in groups:
        orders = ",".join(str(m) for m in data.branch_orders)
        print(f"branching data g_quot={data.g_quot} orders=[{orders}]: "
              f"{len(vectors)} vectors", file=out)
    print(f"items: {len(items)}", file=out)
    print(f"levels refined: 1..{k_hi}", file=out)
    print(f"stabilization depth: {result.stabilization_depth}", file=out)
    print(f"blocks: {D.block_count}", file=out)
    for b, (key, block) in enumerate(zip(D.keys, D.blocks)):
        print(f"block {b}: {len(block)} items", file=out)
        for k, mults in zip(D.ks, key):
            print(f"  k={k}: ({', '.join(str(x) for x in mults)})", file=out)
        preview = " ".join(_vector_text(D.items[i]) for i in block[:4])
        suffix = " ..." if len(block) > 4 else ""
        print(f"  members: {preview}{suffix}", file=out)


def _cmd_metacyclic_h2(cfg: SessionConfig, out: IO[str]) -> None:
    params = _metacyclic_params(cfg)
    res = schur_multiplier_order(params)
    if cfg.output == "json":
        print(json.dumps({"schema": SCHEMA, "m": params.m, "n": params.n,
                          "r": params.r, "d": res.d}), file=out)
    else:
        print(res.d, file=out)


def _cmd_metacyclic_rr_bound(cfg: SessionConfig, out: IO[str]) -> None:
    params = _metacyclic_params(cfg)
    g = _require(cfg.genus, "--genus")
    bound = rr_component_lower_bound(params, g)
    if cfg.output == "json":
        print(json.dumps({"schema": SCHEMA, "m": params.m, "n": params.n,
                          "r": params.r, "genus": g, "bound": bound}), file=out)
    else:
        print(bound, file=out)


_HANDLERS = {
    "group-info": _cmd_group_info,
    "hurwitz-enumerate": _cmd_hurwitz_enumerate,
    "cw": _cmd_cw,
    "decompose": _cmd_decompose,
    "metacyclic-h2": _cmd_metacyclic_h2,
    "metacyclic-rr-bound": _cmd_metacyclic_rr_bound,
}


def run(command: str, cfg: SessionConfig, out: Optional[IO[str]] = None,
        err: Optional[IO[str]] = None) -> int:
    """Execute one command; report goes to out, diagnostics to err.

    Returns 0 on success, 1 on domain errors (invalid vector, no free action,
    non-integral genus, caps), 2 on usage errors (unknown command, malformed
    specs or JSON, out-of-range ids).
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    handler = _HANDLERS.get(command)
    if handler is None:
        print(f"usage error: unknown command {command!r}", file=err)
        return 2
    try:
        handler(cfg, out)
    except (_UsageError, GroupSpecError) as exc:
        print(f"usage error: {exc}", file=err)
        return 2
    except (CwModuliError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    return 0


def _normalize_argv(argv: List[str]) -> List[str]:
    """Fold the two-word command aliases into canonical hyphenated names."""
    if argv[:2] == ["group", "info"]:
        return ["group-info"] + argv[2:]
    if argv[:2] == ["metacyclic", "h2"]:
        return ["metacyclic-h2"] + argv[2:]
    if argv[:2] == ["metacyclic", "rr-bound"]:
        return ["metacyclic-rr-bound"] + argv[2:]
    return argv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cw-moduli",
        description="Exact pluricanonical representation types of curves "
                    "with a finite group action.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, group=True) -> None:
        if group:
            p.add_argument("--group", required=True,
                           help="cyclic:n | abelian:n1,n2,... | metacyclic:m,n,r "
                                "| perm:cycles;... | table:path")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--seed", type=int, default=0,
                       help="accepted for compatibility; changes nothing")

    p = sub.add_parser("group-info", help="order, classes, character table")
    common(p)
    p.add_argument("--k-max", type=int, default=None,
                   help="size the working prime for levels up to K")

    p = sub.add_parser("hurwitz-enumerate",
                       help="branching data and vectors for a genus")
    common(p)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--up-to-conjugacy", action="store_true",
                   help="one representative per simultaneous-conjugation orbit")
    p.add_argument("--cap", type=int, default=10 ** 6,
                   help="enumeration cap (default 1000000)")

    p = sub.add_parser("cw", help="multiplicity table of a vector over levels")
    common(p)
    p.add_argument("--vector", required=True,
                   help='JSON {"g_quot": int, "handles": [...], "branches": [...]}')
    p.add_argument("--k", default=None, help="level or range a..b (default 1..|G|)")
    p.add_argument("--k-max", type=int, default=None,
                   help="default upper level when --k is omitted")

    p = sub.add_parser("decompose",
                       help="representation-type decomposition for a genus")
    common(p)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--k-max", type=int, default=None,
                   help="refine levels 1..K (default |G|)")
    p.add_argument("--up-to-conjugacy", action="store_true")
    p.add_argument("--cap", type=int, default=10 ** 6)

    for name in ("metacyclic-h2", "metacyclic-rr-bound"):
        p = sub.add_parser(name, help="Schur multiplier order"
                           if name.endswith("h2") else "component lower bound")
        common(p, group=False)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        if name.endswith("rr-bound"):
            p.add_argument("--genus", type=int, required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(_normalize_argv(argv) if argv else argv)
    try:
        cfg = SessionConfig(
            group_spec=getattr(args, "group", ""),
            genus=getattr(args, "genus", None),
            k_max=getattr(args, "k_max", None),
            up_to_conjugacy=getattr(args, "up_to_conjugacy", False),
            output="json" if args.json else "text",
            enumeration_cap=getattr(args, "cap", 10 ** 6),
            seed=args.seed,
            vector_json=getattr(args, "vector", None),
            k_range=getattr(args, "k", None),
            m=getattr(args, "m", None),
            n=getattr(args, "n", None),
            r=getattr(args, "r", None),
        )
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(args.command, cfg)
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; suppress the
        # interpreter's final flush complaint and leave quietly
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
