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


def _argument(call: ast.Call, index: int | None, name: str) -> ast.expr | None:
    """What call passes for the parameter name, at position index (None for
    a keyword-only one): its expression, a *args or **kwargs that may pass
    it, or None for nothing."""
    for keyword in call.keywords:
        if keyword.arg in (name, None):
            return keyword.value
    if index is None:
        return None
    for arg in call.args[: index + 1]:
        if isinstance(arg, ast.Starred):
            return arg
    return call.args[index] if index < len(call.args) else None


def _module_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level by assignment or import."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _called_functions(sources: Path) -> list[tuple[ast.FunctionDef, list[tuple[ast.Call, set[str]]]]]:
    """(definition, calls naming it directly, each with the module-level
    names of its file) of each function in sources, dunders aside, that
    some call in sources names."""
    definitions, calls = [], {}
    for path in sorted(sources.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                definitions.append(node)
            elif isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append((node, constants))
    return [(node, calls[node.name]) for node in definitions if node.name in calls]


def _private(node: ast.FunctionDef) -> bool:
    return re.match(r"_[^_]", node.name) is not None


def _defaults(sources: Path) -> tuple[int, list[str]]:
    """(defaults checked, function.parameter of each knob that nothing
    varies) over the functions of _called_functions: a default of a private
    function that no call in sources passes, or a default of any function
    that every call in sources passes as one and the same literal or
    module-level name."""
    checked, knobs = 0, []
    for node, calls in _called_functions(sources):
        positional = [*node.args.posonlyargs, *node.args.args]
        # a method's calls pass its self or cls before the first argument
        shift = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first_default = len(positional) - len(node.args.defaults)
        defaulted = [(i - shift, arg.arg) for i, arg in enumerate(positional) if i >= first_default]
        defaulted += [
            (None, arg.arg) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None
        ]
        checked += len(defaulted)
        for index, name in defaulted:
            passed = [(_argument(call, index, name), constants) for call, constants in calls]
            if all(arg is None for arg, _ in passed):
                if _private(node):
                    knobs.append(f"{node.name}.{name}")
            elif all(
                isinstance(arg, ast.Constant) or (isinstance(arg, ast.Name) and arg.id in constants)
                for arg, constants in passed
            ) and len({ast.dump(arg) for arg, _ in passed}) == 1:
                knobs.append(f"{node.name}.{name}")
    return checked, knobs


def test_private_functions_have_no_default_that_no_call_passes():
    # a default every caller leaves alone, or that every caller sets to one
    # constant, is a knob nothing varies: its value belongs in the body.
    # Runners, called through cli._COMMANDS and never by name, are out of
    # scope: their defaults are the command options'.  The tests' own
    # helpers, oracles included, are read apart from src.
    for sources, at_least, reached in ((SOURCES, 30, "_block_moments"), (TESTS, 20, "_envelope_moments")):
        assert _defaults(sources)[1] == []
        # the lint reads the functions it is meant to, whether or not any of
        # them has a default: a parse that found none would pass on anything
        examined = {node.name for node, _ in _called_functions(sources) if _private(node)}
        assert len(examined) >= at_least and reached in examined


def test_unpassed_default_lint_flags_a_knob_nothing_sets(tmp_path):
    (tmp_path / "module.py").write_text(
        "def _bisect(f, a, b, level=1.0, *, tol=1e-9, steps=64):\n"
        "    return a\n"
        "def _scan(n, width=2):\n"
        "    return n\n"
        "SAMPLES = 2001\n"
        "def trace(cfg, n_samples=512, *, model='a'):\n"
        "    return cfg\n"
        "def peak(cfg, n_samples=512):\n"
        "    return cfg\n"
        "def public(n=3):\n"
        "    return _bisect(abs, 0, n, tol=1e-3) + _scan(n, 4) + _scan(**{})\n"
        "def other(n):\n"
        "    return trace(n, SAMPLES) + trace(n, n_samples=SAMPLES, model=n) + peak(n, SAMPLES) + peak(n, 2001)\n"
    )
    # flagged: a private default no call passes, and a default, public or
    # not, that every call sets to one literal or module constant.  Not:
    # _scan's width (**{} may pass anything), trace's model (n is no
    # constant), peak's n_samples (2001 is the constant's value, not it)
    assert _defaults(tmp_path) == (7, ["_bisect.level", "_bisect.tol", "_bisect.steps", "trace.n_samples"])
