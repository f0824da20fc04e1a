"""Lints of the package's sources: error messages name no key path of
their own, and the package exports exactly what it imports.

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
