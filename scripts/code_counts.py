#!/usr/bin/env python3
"""Print the package's size and surface counts, one ``name value`` line each.

- ``src_lines``: lines of every ``.py`` file under ``src/rgbdfuse``;
- ``parameters``: every argument of every ``def`` and ``lambda`` there, ``self``,
  ``cls``, ``*args`` and ``**kwargs`` included;
- ``settable``: the arguments among those that have a default, plus the fields of
  each ``@dataclass`` that have one;
- ``config_fields``: the fields of ``ModelConfig``;
- ``cli_flags``: the optional arguments of every ``rgbdfuse`` subcommand, ``--help``
  excluded;
- ``env_reads``: references to ``environ`` or ``getenv``;
- ``public_names.<module>`` and ``public_names``: the top-level functions and
  classes whose names do not start with ``_``, per module and in total.

The first three and the last two are read from the source with ``ast``; the other
two from the package itself. The script imports the package from the ``src/``
beside it, so it needs no ``PYTHONPATH`` and always counts the checkout it sits in:

    python3 scripts/code_counts.py
"""

import argparse
import ast
import dataclasses
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rgbdfuse"
sys.path.insert(0, str(PACKAGE.parent))

from rgbdfuse.cli import make_parser  # noqa: E402
from rgbdfuse.model import ModelConfig  # noqa: E402


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _source_counts(tree: ast.Module) -> dict:
    counts = {"parameters": 0, "settable": 0, "env_reads": 0}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            counts["parameters"] += len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
            counts["parameters"] += (a.vararg is not None) + (a.kwarg is not None)
            counts["settable"] += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            counts["settable"] += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
        elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            counts["env_reads"] += 1
        elif isinstance(node, ast.Name) and node.id in ("environ", "getenv"):
            counts["env_reads"] += 1
    return counts


def _cli_flags() -> int:
    sub = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sum(
        1
        for parser in sub.choices.values()
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )


def counts() -> dict:
    """Every count, by the name it is printed under, in print order."""
    out = {"src_lines": 0, "parameters": 0, "settable": 0}
    out["config_fields"] = len(dataclasses.fields(ModelConfig))
    out["cli_flags"] = _cli_flags()
    out["env_reads"] = 0
    public = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        out["src_lines"] += len(text.splitlines())
        for name, value in _source_counts(tree).items():
            out[name] += value
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        public[module] = sum(
            isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not n.name.startswith("_")
            for n in tree.body
        )
    out.update({f"public_names.{m}": n for m, n in public.items()})
    out["public_names"] = sum(public.values())
    return out


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    for name, value in counts().items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
