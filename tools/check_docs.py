"""Consistency checks for the documentation set.

Five classes of drift this catches, each of which has actually
happened to projects this size:

1. **Dead cross-links** — every relative markdown link in the docs
   (and the top-level README) must resolve to a file in the repo.
2. **Phantom CLI flags** — every ``--flag`` written in a documented
   ``repro`` invocation must exist on that subcommand's argparse
   parser (the parser is the source of truth: `repro.cli.build_parser`).
3. **Phantom flag values** — a documented value of a flag whose
   argparse action has ``choices`` (``--engine batch``,
   ``--engine=bnb``, each member of ``--engine {batch,bnb}``) must be
   one of them.  Upper-case placeholders (``--engine ENGINE``) pass,
   and CHANGELOG.md is exempt: it records values that were removed.
4. **Phantom subcommands** — every ``repro <sub>`` / ``python -m repro
   <sub>`` in a fenced code block or inline code span must name a real
   subparser.
5. **Metric catalog drift** — every ``repro_*`` name in the first
   column of docs/observability.md's catalog tables must be a metric
   that ``GatewayInstrumentation`` registers on a tenanted gateway,
   and every metric it registers must have a row.  Names are written
   in full, one per backquoted span.

Invocations are recognised only where ``repro`` appears as a *command*
(the word followed by whitespace) — module paths like ``repro.core``
never match.  Inline code spans are extracted across line breaks with
whitespace collapsed, because prose wraps (``repro serve N --engine
vector`` split over two lines is one invocation).

Usage::

    PYTHONPATH=src python tools/check_docs.py [repo_root]

Exit 0 when clean, 1 with a problem list otherwise.  CI runs this on
every push; ``tests/test_docs_consistency.py`` runs the same functions
under pytest.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Dict, List, Optional, Set, Tuple

#: The documentation set under check: all of docs/ plus these roots.
TOP_LEVEL_DOCS = ("README.md", "CHANGELOG.md")
#: Documents whose flag values are not checked: the changelog names
#: values that later releases removed.
VALUE_EXEMPT_DOCS = ("CHANGELOG.md",)

_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_SPAN_RE = re.compile(r"`([^`]+)`", re.DOTALL)
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_COMMAND_RE = re.compile(r"(?:python -m )?\brepro\s+(.*)$")
#: Leading VAR=value environment assignments before the command proper
#: (``PYTHONPATH=src python -m repro ...``) — stripped before matching,
#: so env-prefixed invocations are validated, not skipped.
_ENV_RE = re.compile(r"^(?:[A-Za-z_][A-Za-z0-9_]*=\S+\s+)+")
#: The document whose tables are the metric catalog.
METRIC_CATALOG = pathlib.Path("docs") / "observability.md"
#: The first cell of a markdown table row.
_FIRST_CELL_RE = re.compile(r"^\|([^|]*)\|", re.M)
_METRIC_RE = re.compile(r"`(repro_\w+)`")


def doc_paths(repo_root: pathlib.Path) -> List[pathlib.Path]:
    paths = sorted((repo_root / "docs").glob("*.md"))
    paths += [
        repo_root / name
        for name in TOP_LEVEL_DOCS
        if (repo_root / name).is_file()
    ]
    return paths


# ----------------------------------------------------------------------
# 1. Cross-links
# ----------------------------------------------------------------------
def check_links(repo_root: pathlib.Path) -> List[str]:
    errors: List[str] = []
    for path in doc_paths(repo_root):
        for target in _LINK_RE.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:  # pure in-page anchor
                continue
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(repo_root)}: dead link -> {target}"
                )
    return errors


# ----------------------------------------------------------------------
# 2-4. CLI invocations vs the argparse source of truth
# ----------------------------------------------------------------------
def cli_surface() -> Dict[str, Dict[str, Optional[Set[str]]]]:
    """subcommand -> {option string: its choices as strings, or None
    when any value goes}, from the real parser."""
    from repro.cli import build_parser

    parser = build_parser()
    subactions = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface: Dict[str, Dict[str, Optional[Set[str]]]] = {}
    for subaction in subactions:
        for name, subparser in subaction.choices.items():
            flags: Dict[str, Optional[Set[str]]] = {}
            for action in subparser._actions:
                choices = (
                    None
                    if action.choices is None
                    else {str(choice) for choice in action.choices}
                )
                for flag in action.option_strings:
                    flags[flag] = choices
            surface[name] = flags
    return surface


def extract_invocations(text: str) -> List[Tuple[str, str]]:
    """All ``repro ...`` command lines in *text* as (context, argv-tail).

    Scans fenced code blocks line by line, then inline code spans
    (with the fences removed first so nothing is counted twice);
    spans are whitespace-collapsed so a wrapped invocation still
    parses.
    """
    invocations: List[Tuple[str, str]] = []
    fenced = _FENCE_RE.findall(text)
    for block in fenced:
        for line in block.splitlines():
            line = line.strip().lstrip("$ ").strip()
            line = _ENV_RE.sub("", line)
            # Anchored: `repro` must BE the command, so python module
            # paths (`repro.core`) and imports (`from repro import`)
            # in code blocks never parse as invocations.
            match = _COMMAND_RE.match(line)
            if match:
                invocations.append(("fenced", match.group(1)))
    remainder = _FENCE_RE.sub("", text)
    for span in _SPAN_RE.findall(remainder):
        collapsed = " ".join(span.split())
        collapsed = _ENV_RE.sub("", collapsed)
        match = _COMMAND_RE.match(collapsed)
        if match:
            invocations.append(("inline", match.group(1)))
    return invocations


def _clean_tokens(tail: str) -> List[str]:
    # An invocation ends at a pipe, comment, or chained command.
    for stop in ("|", "#", "&&"):
        tail = tail.split(stop, 1)[0]
    tokens = []
    for token in tail.split():
        token = token.strip("[](),&`")
        if token:
            tokens.append(token)
    return tokens


def _bad_values(value: str, choices: Set[str]) -> List[str]:
    """The members of a documented flag *value* (``a`` or ``{a,b}``)
    outside *choices*; upper-case placeholders and a following flag
    (no value written) are not values."""
    if value.startswith("-"):
        return []
    return [
        member
        for member in value.strip("{}").split(",")
        if member and not member.isupper() and member not in choices
    ]


def check_cli(repo_root: pathlib.Path) -> List[str]:
    surface = cli_surface()
    errors: List[str] = []
    for path in doc_paths(repo_root):
        rel = path.relative_to(repo_root)
        check_values = str(rel) not in VALUE_EXEMPT_DOCS
        for _context, tail in extract_invocations(path.read_text()):
            tokens = _clean_tokens(tail)
            if not tokens:
                continue
            head = tokens[0]
            if head in ("-h", "--help"):
                continue
            if head.startswith("-"):
                errors.append(f"{rel}: 'repro {head}' is not a subcommand")
                continue
            if head not in surface:
                errors.append(
                    f"{rel}: documented subcommand 'repro {head}' does not "
                    f"exist (have: {', '.join(sorted(surface))})"
                )
                continue
            flags = surface[head]
            for token, following in zip(tokens[1:], tokens[2:] + [""]):
                if not token.startswith("--"):
                    continue  # positional / placeholder
                flag, inline, value = token.partition("=")
                if flag not in flags:
                    errors.append(
                        f"{rel}: 'repro {head}' has no flag {flag}"
                    )
                    continue
                choices = flags[flag]
                if choices is None or not check_values:
                    continue
                if not inline:
                    value = following
                for member in _bad_values(value, choices):
                    errors.append(
                        f"{rel}: 'repro {head} {flag}' has no value "
                        f"{member!r} (choices: {', '.join(sorted(choices))})"
                    )
    return errors


# ----------------------------------------------------------------------
# 5. The metric catalog vs the registered metrics
# ----------------------------------------------------------------------
def catalog_metrics(text: str) -> Set[str]:
    """The ``repro_*`` names in the first column of *text*'s table
    rows."""
    return {
        name
        for cell in _FIRST_CELL_RE.findall(text)
        for name in _METRIC_RE.findall(cell)
    }


def registered_metrics() -> Set[str]:
    """Every metric ``GatewayInstrumentation`` registers on a tenanted
    gateway."""
    from repro.obs import GatewayInstrumentation, Registry
    from repro.server import AsyncGateway, GatewayConfig

    registry = Registry()
    gateway = AsyncGateway(GatewayConfig(m=2, tenants={"gold": 2, "bronze": 1}))
    GatewayInstrumentation(gateway, registry=registry)
    return set(registry.names())


def check_metrics(repo_root: pathlib.Path) -> List[str]:
    path = repo_root / METRIC_CATALOG
    documented = catalog_metrics(path.read_text()) if path.is_file() else set()
    registered = registered_metrics()
    return [
        f"{METRIC_CATALOG}: catalog row for {name}, which "
        f"GatewayInstrumentation does not register"
        for name in sorted(documented - registered)
    ] + [
        f"{METRIC_CATALOG}: registered metric {name} has no catalog row"
        for name in sorted(registered - documented)
    ]


def main(argv: List[str]) -> int:
    repo_root = pathlib.Path(
        argv[1] if len(argv) > 1 else pathlib.Path(__file__).parent.parent
    ).resolve()
    paths = doc_paths(repo_root)
    if not paths:
        print(f"error: no documentation found under {repo_root}")
        return 1
    errors = (
        check_links(repo_root) + check_cli(repo_root) + check_metrics(repo_root)
    )
    if errors:
        print(f"{len(errors)} documentation problem(s):")
        for problem in errors:
            print(f"  - {problem}")
        return 1
    print(
        f"{len(paths)} document(s) clean: links resolve, CLI surface "
        f"matches, metric catalog matches"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
