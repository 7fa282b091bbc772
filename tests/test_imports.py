"""Every imported name in the package and its tests is used, every
attribute the package stores is read, and the package reads no
environment variables.

No linter ships with the repository, so this walks the sources with
``ast``: a name bound by an import must be read somewhere in the same
module, or listed in its ``__all__``. An attribute assigned under
``src/``, or a field annotated in a class body there, must be read
somewhere under ``src/``: state that only tests look at is not kept.
Behaviour
is set by arguments and scenario files only, so no module under
``src/`` may read ``os.environ`` or ``os.getenv``. Session state
changes belong to the protocol, so no module under ``src/`` but
``protocol.py`` may assign an attribute named ``state``. A public
function under ``src/`` must be called or named somewhere under
``src/``, and a public method reached there as an attribute, outside a
``def`` of the same name, so helpers that only tests call do not come
back. Every error class in ``errors.py`` but the
``AtcpipError`` base must be constructed somewhere under ``src/``, so an
error that nothing can raise any more goes with the code that raised it.
A ``ProtocolMessage`` is built under ``src/`` only where the protocol
numbers and queues one (``_send``) and where one is decoded
(``message_from_value``), so every message sent went through a
session's outbox. Bodies are type-checked once, by their action's
parser, so neither transition calls ``isinstance`` or compares
``type(...)`` by identity.
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


def write_only_attributes(sources):
    """(label, line, name) for each attribute that a module in ``sources``
    (label -> text) stores and that no module there loads. A string
    constant passed to ``getattr`` counts as a load. A field annotated in
    a class body counts as a store, and a string constant naming it as a
    load, which covers ``getattr`` over a tuple of field names; a string
    that is a call argument, or an item of a tuple or list that is one,
    does not count, since it names a key such as a loader's field name."""
    stored, loaded, fields, strings = {}, set(), set(), set()
    for label, source in sources.items():
        arguments = set()  # ids of string constants that are call arguments
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                for argument in (*node.args, *(keyword.value for keyword in node.keywords)):
                    items = argument.elts if isinstance(argument, (ast.Tuple, ast.List)) else ()
                    arguments.update(map(id, (argument, *items)))
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, (label, node.lineno))
                elif isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        stored.setdefault(item.target.id, (label, item.lineno))
                        fields.add(item.target.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in arguments:
                    strings.add(node.value)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                loaded.add(node.args[1].value)
    loaded |= fields & strings
    return sorted((*where, name) for name, where in stored.items() if name not in loaded)


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


def state_assignments(source):
    """Lines that assign an attribute named ``state``, by statement or
    through ``setattr``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if node.attr == "state":
                found.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "state"
        ):
            found.append(node.lineno)
    return sorted(found)


def unreferenced_functions(sources):
    """(label, line, name) for each public module-level function and
    public method of a module-level class in ``sources`` (label -> text)
    that no module there references. A function is referenced by its name
    or as an attribute; a method only as an attribute (``x.name``), so a
    local variable that shares its name does not count. The ``def``
    statement itself is not a reference, and neither is a name used in
    the body of a ``def`` of the same name, so a method that only calls
    the module function it shares a name with, or a function that only
    calls itself, references neither."""
    functions, methods, names, attributes = [], [], set(), set()
    for label, source in sources.items():
        tree = ast.parse(source)
        functions += [
            (label, node.lineno, node.name)
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
        ]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods += [
                    (label, item.lineno, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
        pending = [(tree, frozenset())]
        while pending:
            node, inside = pending.pop()
            if isinstance(node, ast.Name) and node.id not in inside:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr not in inside:
                attributes.add(node.attr)
            for child in ast.iter_child_nodes(node):
                if isinstance(node, ast.FunctionDef) and child in node.body:
                    pending.append((child, inside | {node.name}))
                else:
                    pending.append((child, inside))
    unreferenced = [item for item in functions if item[2] not in names | attributes]
    unreferenced += [item for item in methods if item[2] not in attributes]
    return sorted(item for item in unreferenced if not item[2].startswith("_"))


def unconstructed_errors(errors_source, sources):
    """(line, name) for each class in ``errors_source`` other than
    ``AtcpipError`` that no module in ``sources`` (texts) calls, by name
    or as an attribute. An import, an ``except`` clause or a subclass
    names a class without constructing it, so none of them counts."""
    classes = [
        (node.lineno, node.name)
        for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef) and node.name != "AtcpipError"
    ]
    called = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return [(line, name) for line, name in classes if name not in called]


def message_constructions(source):
    """(line, enclosing function) for each call of ``ProtocolMessage``,
    by name or as an attribute; a call outside any function is under
    ``None``."""
    found = []
    pending = [(ast.parse(source), None)]
    while pending:
        node, inside = pending.pop()
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ProtocolMessage":
                found.append((node.lineno, inside))
        if isinstance(node, ast.FunctionDef):
            inside = node.name
        pending.extend((child, inside) for child in ast.iter_child_nodes(node))
    return sorted(found)


MESSAGE_BUILDERS = {("protocol.py", "_send"), ("protocol.py", "message_from_value")}


UNREFERENCED_ON_PURPOSE = {
    # The wire codec, kept for the transport; tests call it.
    "encode_message",
    "decode_message",
    # The only reader of reputation: a fold over the chain.
    "replay_records",
    # ``Ledger.entry``: the tamper tests edit one stored entry through it.
    "entry",
    # ``Scenario.session_ids``, ``DisputeCourt.rebuild`` and
    # ``Ledger.export_entries`` (the CLI writes ``export_bytes``): the
    # benchmark under ``perfbench/`` calls all three.
    "session_ids",
    "rebuild",
    "export_entries",
}


def test_unused_imports_are_found():
    source = "import os\nfrom a import b, c as d\nimport e.f\n__all__ = ['d']\nprint(e)\n"
    assert unused_imports(source) == [(1, "os"), (2, "b")]


def test_no_unused_imports():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")]):
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "\n".join(found)


def test_write_only_attributes_are_found():
    source = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self.kept = self.lost = 0\n"
        "        self.named = self.tested = 1\n"
        "    def kept_value(self):\n"
        "        self.lost += 1\n"
        "        return self.kept + getattr(self, 'named')\n"
        "class B:\n"
        "    shown: int\n"
        "    listed: int\n"
        "    hidden: int = 0\n"
        "    plain = 'lost'\n"
        "    parsed: int\n"
        "    checked: int\n"
        "print(B().shown, [getattr(B(), name) for name in ('listed',)])\n"
        "B(parsed=load(body, 'parsed'), checked=check(body, ['checked'], key='x'))\n"
    )
    # Only the sources given are read, so ``tested`` counts as write-only
    # however many tests look at it; a loader's key strings read nothing.
    assert write_only_attributes({"a.py": source}) == [
        ("a.py", 3, "lost"),
        ("a.py", 4, "tested"),
        ("a.py", 11, "hidden"),
        ("a.py", 13, "parsed"),
        ("a.py", 14, "checked"),
    ]


def test_no_write_only_attributes():
    sources = {
        str(path.relative_to(ROOT)): path.read_text() for path in sorted(ROOT.glob("src/**/*.py"))
    }
    found = write_only_attributes(sources)
    assert not found, "\n".join(f"{label}:{line}: {name}" for label, line, name in found)


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


def test_state_assignments_are_found():
    source = (
        "session.state = 1\n"
        "a.b.state += 1\n"
        "setattr(session, 'state', 2)\n"
        "print(session.state)\n"
        "state = session.other = 3\n"
    )
    assert state_assignments(source) == [1, 2, 3]


def test_only_the_protocol_changes_session_state():
    found = []
    for path in sorted(ROOT.glob("src/**/*.py")):
        if path.name == "protocol.py":
            continue
        for line in state_assignments(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}")
    assert not found, "\n".join(found)


def test_unreferenced_functions_are_found():
    source = (
        "def used():\n"
        "    return 1\n"
        "def only_tests():\n"
        "    return used()\n"
        "def _private():\n"
        "    return 0\n"
        "class A:\n"
        "    def called(self):\n"
        "        return self.helper\n"
        "    def helper(self):\n"
        "        def nested():\n"
        "            return 2\n"
        "        return nested\n"
        "    def orphan(self):\n"
        "        return A().called()\n"
        "    def __repr__(self):\n"
        "        return 'A'\n"
        "def rank(record):\n"
        "    return record\n"
        "class B:\n"
        "    def rank(self, n):\n"
        "        return rank(n) + B().rank(n - 1)\n"
        "def countdown(n):\n"
        "    return countdown(n - 1) if n else used()\n"
        "class C:\n"
        "    def total(self):\n"
        "        return 0\n"
        "def tally(items):\n"
        "    total = sum(items)\n"
        "    return total\n"
        "print(tally([]))\n"
    )
    assert unreferenced_functions({"a.py": source}) == [
        ("a.py", 3, "only_tests"),
        ("a.py", 14, "orphan"),
        ("a.py", 18, "rank"),
        ("a.py", 21, "rank"),
        ("a.py", 23, "countdown"),
        ("a.py", 26, "total"),
    ]


def test_every_public_function_is_referenced_in_the_package():
    sources = {
        str(path.relative_to(ROOT)): path.read_text() for path in sorted(ROOT.glob("src/**/*.py"))
    }
    found = [
        f"{label}:{line}: {name}"
        for label, line, name in unreferenced_functions(sources)
        if name not in UNREFERENCED_ON_PURPOSE
    ]
    assert not found, "\n".join(found)


def test_unconstructed_errors_are_found():
    errors = (
        "class AtcpipError(Exception):\n"
        "    pass\n"
        "class Raised(AtcpipError):\n"
        "    pass\n"
        "class Qualified(AtcpipError):\n"
        "    pass\n"
        "class Caught(AtcpipError):\n"
        "    pass\n"
        "class Subclassed(AtcpipError):\n"
        "    pass\n"
        "class Never(Subclassed):\n"
        "    pass\n"
    )
    user = (
        "import errors\n"
        "from errors import Caught, Never, Raised\n"
        "def f(x):\n"
        "    try:\n"
        "        raise Raised(x)\n"
        "    except Caught:\n"
        "        raise errors.Qualified(x) from None\n"
    )
    assert unconstructed_errors(errors, [user]) == [
        (7, "Caught"),
        (9, "Subclassed"),
        (11, "Never"),
    ]


def test_every_error_class_is_constructed_in_the_package():
    errors = (ROOT / "src" / "atcpip" / "errors.py").read_text()
    sources = [path.read_text() for path in sorted(ROOT.glob("src/**/*.py"))]
    found = unconstructed_errors(errors, sources)
    assert not found, "\n".join(f"src/atcpip/errors.py:{line}: {name}" for line, name in found)


def test_message_constructions_are_found():
    source = (
        "from protocol import ProtocolMessage\n"
        "import protocol\n"
        "def _send(s):\n"
        "    s.outbox.append(ProtocolMessage(1))\n"
        "class Runtime:\n"
        "    def reply(self):\n"
        "        def build():\n"
        "            return protocol.ProtocolMessage(2)\n"
        "        return build()\n"
        "stray = ProtocolMessage(3)\n"
        "kind = ProtocolMessage\n"
    )
    assert message_constructions(source) == [(4, "_send"), (8, "build"), (10, None)]


def test_protocol_messages_are_built_only_where_they_are_numbered_or_decoded():
    found = [
        (path.name, function)
        for path in sorted(ROOT.glob("src/**/*.py"))
        for _, function in message_constructions(path.read_text())
    ]
    assert sorted(found) == sorted(MESSAGE_BUILDERS)


def _calls(node, name):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def type_checks(source, functions):
    """(function, line) for each ``isinstance(...)`` call and each
    ``type(...) is`` or ``is not`` comparison inside the named functions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name in functions):
            continue
        for inner in ast.walk(node):
            if _calls(inner, "isinstance") or (
                isinstance(inner, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in inner.ops)
                and any(_calls(side, "type") for side in (inner.left, *inner.comparators))
            ):
                found.append((node.name, inner.lineno))
    return sorted(found)


def test_type_checks_are_found():
    source = (
        "def step(session, body):\n"
        "    if isinstance(body['round'], int):\n"
        "        return type(body['amount']) is not int\n"
        "    return type(session.state).REJECTED is session.state\n"
        "def parse(value):\n"
        "    return isinstance(value, str)\n"
    )
    assert type_checks(source, {"step"}) == [("step", 2), ("step", 3)]


def test_transitions_check_no_types():
    source = (ROOT / "src" / "atcpip" / "protocol.py").read_text()
    assert type_checks(source, {"provider_transition", "requester_transition"}) == []
