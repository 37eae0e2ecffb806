"""The README's tolerance table lists every module-level tolerance."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def module_tolerances():
    """(module, name) of every module-level name ending in _TOL."""
    found = []
    for path in sorted((ROOT / "src" / "drotree").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            found += [(path.stem, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id.endswith("_TOL")]
    return found


def tolerance_table():
    """The table rows of the README's Tolerances section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def test_every_tolerance_is_in_the_readme_table():
    rows = tolerance_table()
    found = module_tolerances()
    assert ("tvrisk", "REMOVAL_FEAS_TOL") in found
    missing = [(mod, name) for mod, name in found
               if not any(row.startswith(f"| `{name}` | `{mod}` |")
                          for row in rows)]
    assert missing == []
