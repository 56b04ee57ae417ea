"""Public interface: the package exports and the README's library import."""

import pathlib
import re

import tilegb

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in tilegb.__all__ if not hasattr(tilegb, name)]
    assert missing == []


def test_readme_library_import_line_imports():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    match = re.search(r"from tilegb import \([^)]*\)", library)
    assert match is not None
    namespace: dict = {}
    exec(match.group(0), namespace)
    names = re.findall(r"\w+", match.group(0).split("(", 1)[1])
    assert names and all(name in namespace for name in names)
