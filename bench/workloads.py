"""The benchmark's workloads: each is a fixed list of units run in order.

A unit is one CLI command through `cwmoduli.cli.main` (argv without --seed;
the workload seed is appended) or, for free_law, one library call sequence on
one group. This module imports nothing from cwmoduli, so the runner can read
the unit lists without loading the package. README.md says why each workload
and unit was chosen.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


class Unit(NamedTuple):
    name: str
    kind: str               # "cli" or "free_law"
    argv: Tuple[str, ...]   # CLI arguments for "cli"; (group spec,) for "free_law"


def _cli(*argv: str) -> Unit:
    return Unit(" ".join(argv), "cli", argv)


def _free_law(spec: str) -> Unit:
    return Unit(f"free-law {spec}", "free_law", (spec,))


WORKLOADS: Dict[str, List[Unit]] = {
    "tables": [
        _cli("group-info", "--json", "--group", "abelian:2,2,2,2,2,2,2"),
        _cli("group-info", "--json", "--group", "cyclic:40"),
        _cli("group-info", "--json", "--group", "metacyclic:48,2,47"),
        _cli("group-info", "--json", "--group", "perm:(1,2,3);(2,3,4,5,6)"),
        _cli("group-info", "--json", "--group", "metacyclic:13,12,2"),
    ],
    "enumerate": [
        _cli("hurwitz-enumerate", "--group", "metacyclic:4,2,3", "--genus", "9"),
        _cli("hurwitz-enumerate", "--group", "metacyclic:5,2,4", "--genus", "11",
             "--up-to-conjugacy"),
    ],
    "decompose": [
        _cli("decompose", "--group", "metacyclic:3,2,2", "--genus", "10",
             "--up-to-conjugacy"),
        _cli("decompose", "--group", "cyclic:8", "--genus", "9"),
    ],
    "free_law": [
        _free_law("cyclic:9"),
        _free_law("metacyclic:6,2,5"),
        _free_law("perm:(1,2,3);(2,3,4)"),
        _free_law("abelian:2,2,2"),
    ],
}
