"""Lints of the package's sources: error messages name no key path of
their own, the package exports exactly what it imports, the tests'
closed-form oracles and the package import nothing of each other's but the
error classes, and no private function of the package or of the tests keeps
a default that none of its callers overrides.

A check raises with the name of its field or parameter as the error's key,
and only the scenario reader (scenario.py) knows the section names: it puts
the section path in front of the key.  So no ValidationError or DomainError
message elsewhere may start with a section name or with a formatted key,
"{...}: ", or spell out a command-line option.  This parses the package's
sources; a message must be a literal or an f-string for it to be read.
"""

import ast
import re
from pathlib import Path

import cavityfall

SOURCES = Path(__file__).resolve().parent.parent / "src" / "cavityfall"
TESTS = Path(__file__).resolve().parent
ORACLES = TESTS / "oracles.py"
ERRORS = {"ValidationError", "DomainError"}
SECTION = re.compile(r"(cavity|gravity|propagation|experiment|output)\b")
OPTION = re.compile(r"--[a-z]")


def _text(message: ast.expr) -> str | None:
    """The literal text of a message, "{}" for each formatted value; None
    for a message that is neither a literal nor an f-string."""
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    if isinstance(message, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in message.values)
    return None


def _messages(path: Path):
    """(line, text) of the message of each error raised in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ERRORS:
            message = node.args[0] if node.args else next(kw.value for kw in node.keywords if kw.arg == "message")
            yield node.lineno, _text(message)


def test_messages_outside_the_scenario_reader_name_no_key_path():
    checked, faults = 0, []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "scenario.py":
            continue
        for line, text in _messages(path):
            checked += 1
            if text is None or SECTION.match(text) or text.startswith("{}:") or OPTION.search(text):
                faults.append(f"{path.name}:{line}: {text!r}")
    assert faults == []
    # the lint reads the raise sites it is meant to: a parse that found
    # none would pass on anything
    assert checked >= 40


def test_all_lists_exactly_the_public_names_the_package_imports():
    # a name left in __all__ after its definition is gone breaks
    # "from cavityfall import *"; one imported but not listed is not exported
    tree = ast.parse((SOURCES / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(public) >= 30
    assert sorted(cavityfall.__all__) == sorted(public | {"__version__"})
    assert [name for name in cavityfall.__all__ if not hasattr(cavityfall, name)] == []


def _imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) of each import in a source file; name None for a plain
    "import module"."""
    pairs = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            pairs += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            pairs += [("." * node.level + (node.module or ""), alias.name) for alias in node.names]
    return pairs


def test_oracles_and_the_package_share_no_code():
    # a judge that called the code it judges would agree with any fault in
    # it: the oracles take only the error classes from the package, and no
    # module of the package reaches for an oracle
    taken = [
        (module, name) for module, name in _imports(ORACLES) if module.split(".")[0] in ("cavityfall", "")
    ]
    assert sorted(taken) == [("cavityfall", "DomainError"), ("cavityfall", "ValidationError")]
    reaching = [
        f"{path.name}: {module} {name}"
        for path in sorted(SOURCES.glob("*.py"))
        for module, name in _imports(path)
        if "oracles" in (*module.split("."), name)
    ]
    assert reaching == []


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether call passes the parameter name, at position index (None for
    a keyword-only one); a *args or **kwargs may pass anything."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if index is None:
        return False
    return index < len(call.args) or any(isinstance(arg, ast.Starred) for arg in call.args)


def _private_calls(sources: Path) -> list[tuple[ast.FunctionDef, list[ast.Call]]]:
    """(definition, calls naming it) of each function named with one leading
    underscore that some call in sources names directly."""
    nodes = [node for path in sorted(sources.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))]
    calls: dict[str, list[ast.Call]] = {}
    for node in nodes:
        if isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            calls.setdefault(callee, []).append(node)
    return [
        (node, calls[node.name])
        for node in nodes
        if isinstance(node, ast.FunctionDef) and re.match(r"_[^_]", node.name) and node.name in calls
    ]


def _defaults(sources: Path) -> tuple[int, list[str]]:
    """(defaults checked, function.parameter of each that no call in sources
    passes), over the functions of _private_calls."""
    checked, unpassed = 0, []
    for node, calls in _private_calls(sources):
        positional = [*node.args.posonlyargs, *node.args.args]
        first_default = len(positional) - len(node.args.defaults)
        defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first_default]
        defaulted += [
            (None, arg.arg) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None
        ]
        checked += len(defaulted)
        for index, name in defaulted:
            if not any(_passes(call, index, name) for call in calls):
                unpassed.append(f"{node.name}.{name}")
    return checked, unpassed


def test_private_functions_have_no_default_that_no_call_passes():
    # a default every caller leaves alone is a knob nothing sets: its value
    # belongs in the body.  Runners, called through cli._COMMANDS and never
    # by name, are out of scope: their defaults are the command options'.
    # The tests' own helpers, oracles included, are read apart from src.
    for sources, at_least, reached in ((SOURCES, 30, "_block_moments"), (TESTS, 20, "_envelope_moments")):
        assert _defaults(sources)[1] == []
        # the lint reads the functions it is meant to, whether or not any of
        # them has a default: a parse that found none would pass on anything
        examined = {node.name for node, _ in _private_calls(sources)}
        assert len(examined) >= at_least and reached in examined


def test_unpassed_default_lint_flags_a_knob_nothing_sets(tmp_path):
    (tmp_path / "module.py").write_text(
        "def _bisect(f, a, b, level=1.0, *, tol=1e-9, steps=64):\n"
        "    return a\n"
        "def _scan(n, width=2):\n"
        "    return n\n"
        "def public(n=3):\n"
        "    return _bisect(abs, 0, n, tol=1e-3) + _scan(n, 4) + _scan(**{})\n"
    )
    assert _defaults(tmp_path) == (4, ["_bisect.level", "_bisect.steps"])
