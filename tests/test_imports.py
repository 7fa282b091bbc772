"""Every imported name in the package and its tests is used, and the
package reads no environment variables.

No linter ships with the repository, so this walks the sources with
``ast``: a name bound by an import must be read somewhere in the same
module, or listed in its ``__all__``. Behaviour is set by arguments and
scenario files only, so no module under ``src/`` may read ``os.environ``
or ``os.getenv``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(item.value for item in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT_READERS
        ):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT_READERS:
                    found.append((node.lineno, f"from os import {alias.name}"))
    return sorted(found)


def test_unused_imports_are_found():
    source = "import os\nfrom a import b, c as d\nimport e.f\n__all__ = ['d']\nprint(e)\n"
    assert unused_imports(source) == [(1, "os"), (2, "b")]


def test_no_unused_imports():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")]):
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "\n".join(found)


def test_environment_reads_are_found():
    source = (
        "import os\nfrom os import getenv\n"
        "a = os.environ.get('A')\nb = os.getenv('B')\nc = os.path.join('x')\n"
    )
    assert environment_reads(source) == [
        (2, "from os import getenv"),
        (3, "os.environ"),
        (4, "os.getenv"),
    ]


def test_package_reads_no_environment_variables():
    found = []
    for path in sorted(ROOT.glob("src/**/*.py")):
        for line, expression in environment_reads(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {expression}")
    assert not found, "\n".join(found)
