#!/usr/bin/env python3
"""Docs drift gate (run by the CI lint job).

Three checks keep ``docs/`` tethered to the code, with no dependencies
beyond the standard library (the lint job installs only ruff):

1. **Coverage** — every ``docs/*.md`` file is linked from the README.
2. **Links** — every relative markdown link in the README and the docs
   resolves to an existing file.
3. **CLI drift** — every ``repro-ft <subcommand>`` invocation shown in a
   code span or fenced block names a subcommand the argparse tree in
   ``src/repro/cli.py`` actually registers, and every ``--flag`` after
   ``repro-ft`` there, or opening an inline code span, names an option
   some ``add_argument`` call registers (parsed via ``ast``, never
   imported, so this runs without numpy installed).

Exit status 0 when clean; 1 with one line per problem otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^(```|~~~)")
_INLINE_CODE = re.compile(r"`([^`]+)`")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def doc_files() -> list[Path]:
    return sorted((ROOT / "docs").glob("*.md"))


def markdown_links(path: Path) -> list[str]:
    return _LINK.findall(path.read_text(encoding="utf-8"))


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:", "#"))


def check_readme_coverage(errors: list[str]) -> None:
    readme = ROOT / "README.md"
    linked = {
        (ROOT / t.split("#")[0]).resolve()
        for t in markdown_links(readme)
        if not _is_external(t)
    }
    for doc in doc_files():
        if doc.resolve() not in linked:
            errors.append(f"README.md does not link {doc.relative_to(ROOT)}")


def check_relative_links(errors: list[str]) -> None:
    for path in [ROOT / "README.md", *doc_files()]:
        for target in markdown_links(path):
            if _is_external(target):
                continue
            resolved = (path.parent / target.split("#")[0]).resolve()
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(ROOT)}: broken link -> {target}"
                )


def _cli_calls(method: str) -> list[ast.Call]:
    """Every ``<obj>.<method>(...)`` call in cli.py, via the AST — the
    lint environment has no numpy, so importing the module is off-limits."""
    tree = ast.parse((ROOT / "src/repro/cli.py").read_text(encoding="utf-8"))
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
    ]


def _str_args(call: ast.Call) -> list[str]:
    return [a.value for a in call.args
            if isinstance(a, ast.Constant) and isinstance(a.value, str)]


def cli_subcommands() -> set[str]:
    """Subcommand names registered in cli.py (``add_parser``)."""
    return {name for call in _cli_calls("add_parser") for name in _str_args(call)[:1]}


def cli_flags() -> set[str]:
    """``--options`` registered in cli.py (``add_argument``); a
    ``BooleanOptionalAction`` option also registers its ``--no-`` twin."""
    flags = set()
    for call in _cli_calls("add_argument"):
        negatable = any(
            kw.arg == "action"
            and isinstance(kw.value, ast.Attribute)
            and kw.value.attr == "BooleanOptionalAction"
            for kw in call.keywords
        )
        for name in _str_args(call):
            if name.startswith("--"):
                flags.add(name)
                if negatable:
                    flags.add("--no-" + name[2:])
    return flags


def _code_chunks(path: Path) -> list[tuple[bool, str]]:
    """``(fenced, text)`` for each fenced code line and each inline code
    span outside a fence, in document order."""
    chunks: list[tuple[bool, str]] = []
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            chunks.append((True, line))
        else:
            chunks.extend((False, span) for span in _INLINE_CODE.findall(line))
    return chunks


def code_text(path: Path) -> str:
    """Fenced code blocks plus inline code spans, newline-joined.

    CLI invocations only count inside code; prose like "the `repro-ft`
    console script" must not trip the subcommand check.
    """
    return "\n".join(text for _, text in _code_chunks(path))


def invoked_subcommands(text: str) -> set[str]:
    """First positional token after each ``repro-ft``, skipping global
    ``--option [value]`` pairs (e.g. ``repro-ft --log-level info serve``
    yields ``serve``; bare ``repro-ft --version`` yields nothing)."""
    found = set()
    for match in re.finditer(r"\brepro-ft\b", text):
        line = text[match.end():].split("\n", 1)[0].split("#", 1)[0]
        tokens = line.split()
        skip_value = False
        for tok in tokens:
            if skip_value:
                skip_value = False
                continue
            if tok.startswith("-"):
                skip_value = "=" not in tok and tok.startswith("--")
                continue
            if re.fullmatch(r"[a-z][a-z0-9-]*", tok):
                found.add(tok)
            break
    return found


def invoked_flags(text: str) -> set[str]:
    """Every ``--flag`` on the command line after each ``repro-ft``,
    following ``\\`` continuations and stopping at a comment or at a
    shell ``|``, ``;`` or ``&``."""
    text = text.replace("\\\n", " ")
    found = set()
    for match in re.finditer(r"\brepro-ft\b", text):
        line = text[match.end():].split("\n", 1)[0]
        found.update(_FLAG.findall(re.split(r"[#|;&]", line, maxsplit=1)[0]))
    return found


def documented_flags(path: Path) -> set[str]:
    """Flags a doc shows as CLI options: those after ``repro-ft`` in code,
    and the flag each inline code span opens with (``--resume``)."""
    found = invoked_flags(code_text(path))
    for fenced, text in _code_chunks(path):
        if not fenced and (leading := _FLAG.match(text)):
            found.add(leading.group())
    return found


def check_cli_drift(errors: list[str]) -> None:
    known = cli_subcommands()
    if not known:
        errors.append("src/repro/cli.py: found no add_parser() calls")
        return
    flags = cli_flags()
    for path in [ROOT / "README.md", *doc_files()]:
        for sub in sorted(invoked_subcommands(code_text(path))):
            if sub not in known:
                errors.append(
                    f"{path.relative_to(ROOT)}: `repro-ft {sub}` is not a "
                    f"CLI subcommand (known: {', '.join(sorted(known))})"
                )
        for flag in sorted(documented_flags(path) - flags):
            errors.append(
                f"{path.relative_to(ROOT)}: `{flag}` is not an option any "
                f"add_argument() in src/repro/cli.py registers"
            )


def main() -> int:
    errors: list[str] = []
    check_readme_coverage(errors)
    check_relative_links(errors)
    check_cli_drift(errors)
    for line in errors:
        print(f"check_docs: {line}", file=sys.stderr)
    if not errors:
        ndocs = len(doc_files())
        print(f"check_docs: ok ({ndocs} docs, README links + CLI verified)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
