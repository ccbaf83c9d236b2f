"""The top-level ``dpsqkd`` package exports what its readers import.

The README's code blocks and the demos import from ``dpsqkd`` itself; every
such name must be listed in ``dpsqkd.__all__``, and every listed name must
resolve. Everything else is imported from its submodule.
"""

import ast
import re
from pathlib import Path

import dpsqkd

ROOT = Path(__file__).resolve().parent.parent


def imported_from_dpsqkd(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "dpsqkd" and node.level == 0:
            names.update(alias.name for alias in node.names)
    return names


def reader_imports() -> dict[str, set[str]]:
    sources = {p.name: p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        sources[f"README.md block {i}"] = block
    return {where: imported_from_dpsqkd(src) for where, src in sources.items()}


def test_readers_import_only_listed_names():
    imports = reader_imports()
    assert any(imports.values())
    for where, names in imports.items():
        missing = names - set(dpsqkd.__all__)
        assert not missing, f"{where} imports unlisted names {sorted(missing)}"


def test_every_listed_name_resolves():
    assert len(set(dpsqkd.__all__)) == len(dpsqkd.__all__)
    for name in dpsqkd.__all__:
        assert getattr(dpsqkd, name, None) is not None, name
