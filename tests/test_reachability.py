"""Every public module-level name in ``src/repro`` has a caller outside
``tests/``.

An AST reachability scan starts from the program's entry points (the
CLI, ``python -m repro``, the ``ALL_EXPERIMENTS`` registry, the example
scripts and the tick benchmark) and follows every identifier the
reached code mentions: names, attributes, imported aliases, keyword
arguments and short identifier-like string constants.  A module-level
function, class or constant is reached when its name is mentioned by
reached code; a reached class brings its whole body (methods,
decorators, bases, field defaults).  Resolution is by name only, so the
scan over-approximates: it can miss dead code that shares a name with
live code, never flag live code.

Run ``python tests/test_reachability.py`` to print the scan.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Modules executed as a whole: the command-line entry points.
ROOT_MODULES = ("cli.py", "__main__.py")

#: Module-level names in ``src`` that are entry points themselves.
ROOT_NAMES = ("ALL_EXPERIMENTS",)

#: Public names kept although only tests call them.
ALLOWLIST = {
    "linear_walk_trace": "pose-trace fixture for the prediction tests",
    "head_turn_trace": "pose-trace fixture for the prediction tests",
    "mcs_by_index": "MCS-table lookup the BER tests check the table with",
}

_IDENTIFIER_PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_SHORT_STRING = 60


def external_roots() -> List[Path]:
    """Scripts outside the package whose every reference is a root."""
    examples = sorted((ROOT / "examples").glob("*.py"))
    tickbench = sorted(
        p for p in (ROOT / "tickbench").glob("*.py") if not p.name.startswith("test_")
    )
    return examples + tickbench


def referenced(node: ast.AST) -> Iterator[str]:
    """Every identifier ``node`` mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
        elif isinstance(sub, ast.keyword) and sub.arg:
            yield sub.arg
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and len(sub.value) <= _SHORT_STRING
            and _IDENTIFIER_PATH.fullmatch(sub.value)
        ):
            yield from sub.value.split(".")


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(name, node)`` for each module-level definition; imports and
    ``__all__`` are re-exports, not definitions."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id != "__all__":
                        yield sub.id, stmt


def scan(allowlist=ALLOWLIST) -> Dict[str, List[str]]:
    """Unreached public module-level names not in ``allowlist``, by
    module path."""
    defined: Dict[str, List[ast.AST]] = {}
    public: List[Tuple[str, str]] = []
    frontier: List[str] = list(ROOT_NAMES)
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = str(path.relative_to(PACKAGE.parent))
        if path.parent == PACKAGE and path.name in ROOT_MODULES:
            frontier.extend(referenced(tree))
        for name, node in _definitions(tree):
            defined.setdefault(name, []).append(node)
            if not name.startswith("_"):
                public.append((module, name))
    for path in external_roots():
        frontier.extend(referenced(ast.parse(path.read_text(), filename=str(path))))

    reached: Set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in defined.get(name, ()):
            frontier.extend(referenced(node))

    unreached: Dict[str, List[str]] = {}
    for module, name in public:
        if name not in reached and name not in allowlist:
            unreached.setdefault(module, []).append(name)
    return unreached


def test_every_public_name_is_reached():
    unreached = scan()
    listing = "\n".join(f"{m}: {', '.join(names)}" for m, names in unreached.items())
    assert not unreached, (
        "public names no entry point reaches (delete them, or give them a "
        f"caller outside tests/):\n{listing}"
    )


def test_allowlist_entries_exist_and_are_otherwise_unreached():
    """An allowlisted name that gained a real caller leaves the list."""
    unreached = {name for names in scan(allowlist={}).values() for name in names}
    assert set(ALLOWLIST) <= unreached


if __name__ == "__main__":
    result = scan()
    for module, names in result.items():
        print(f"{module}: {', '.join(names)}")
    print(f"{sum(map(len, result.values()))} unreached public names")
    sys.exit(1 if result else 0)
