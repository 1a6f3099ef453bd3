"""Check that the ``service.*`` / ``net.*`` metrics the docs name and
the ones ``src/`` emits are the same set.

Docs rot in two ways: a counter gets renamed (or never lands) and the
operations guide keeps promising a series nobody emits, or a counter
lands and no doc says what it counts.  This tool closes both loops:

* **emissions** — every string literal in ``src/**/*.py`` that looks
  like a metric name (``service.`` / ``net.`` prefix, inside quotes).
  f-string placeholders become wildcards, so
  ``f"service.cache.{status}"`` emits the pattern ``service.cache.*``;
* **mentions** — every metric token in ``README.md`` and ``docs/*.md``.
  A ``<name>`` placeholder is a wildcard too, so ``net.shard.<i>.routed``
  documents ``f"net.shard.{s}.routed"``.  Family globs (``service.*``),
  attribute/method references (``service.solve(...)``), dotted module
  paths (``repro.net.binary``) and file names (``service.py``) are not
  metric mentions and are skipped, and so are the benchmark's per-layer
  names (``BENCHMARK.json``), which the benchmark derives and no
  registry emits.

Every mention must match an emission, and every emission a mention
(exactly, or via a wildcard on either side).  Exits non-zero listing
each unemitted and each undocumented metric.  Run standalone or as the
CI docs step:

    python tools/check_metrics.py

``--docs`` / ``--src`` override the scanned roots (the negative test in
``tests/test_net_unit.py`` points them at fixtures).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A quoted string whose content is a service./net. metric name; group 1
#: is an optional f-prefix, group 3 the name itself.
EMISSION = re.compile(
    r"""(f?)(['"])((?:service|net)\.[A-Za-z0-9_.{}\[\]]+)\2"""
)

#: A metric token in prose: not part of a dotted path
#: (``repro.net.binary``), not a call (``service.solve(...)``), not a
#: family glob (``service.*``) and not a file name (``service.py``).
#: Components after the first may be numbers (``net.shard.0.routed``)
#: and may hold ``<name>`` placeholders (``service.latency_<q>``).
MENTION = re.compile(
    r"(?<![\w.])((?:service|net)\.[a-z][a-z0-9_]*"
    r"(?:\.(?:[a-z0-9]|<[a-z_]+>)(?:[a-z0-9_]|<[a-z_]+>)*)*)(?![\w.(*<])"
)

#: Extensions that mark a token as a file name, not a metric.
FILE_SUFFIXES = (".py", ".json", ".jsonl", ".md", ".yml", ".yaml")


def emitted_patterns(src_root: Path) -> set[str]:
    """All metric-name literals in the tree, placeholders wildcarded."""
    patterns: set[str] = set()
    for path in sorted(src_root.rglob("*.py")):
        for match in EMISSION.finditer(path.read_text()):
            name = match.group(3)
            if match.group(1):  # f-string: {anything} matches anything
                name = re.sub(r"\{[^}]*\}", "*", name)
            patterns.add(name)
    return patterns


def doc_mentions(doc_paths: list[Path]) -> dict[str, list[str]]:
    """Metric tokens per doc, as ``{metric: ["file:line", ...]}``, with
    ``<name>`` placeholders wildcarded."""
    mentions: dict[str, list[str]] = {}
    for path in doc_paths:
        rel = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for match in MENTION.finditer(line):
                token = match.group(1)
                if token.endswith(FILE_SUFFIXES):
                    continue
                token = re.sub(r"<[^>]*>", "*", token)
                mentions.setdefault(token, []).append(f"{rel}:{lineno}")
    return mentions


def benchmark_layers(root: Path) -> set[str]:
    """The per-layer metric names ``BENCHMARK.json`` declares."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return set()
    return {layer["name"] for layer in json.loads(path.read_text()).get("per_layer", [])}


def _matches(name: str, others) -> bool:
    """``name`` equals one of ``others``, or a wildcard on either side
    covers the other."""
    return any(
        name == other
        or fnmatch.fnmatchcase(name, other)
        or fnmatch.fnmatchcase(other, name)
        for other in others
    )


def unemitted(mentions: dict[str, list[str]], patterns: set[str]) -> dict[str, list[str]]:
    return {m: sites for m, sites in mentions.items() if not _matches(m, patterns)}


def undocumented(patterns: set[str], mentions: dict[str, list[str]]) -> list[str]:
    return sorted(p for p in patterns if not _matches(p, mentions))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--docs", type=Path, default=None,
        help="directory of *.md files to scan (default: README.md + docs/)",
    )
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src",
        help="python source root whose emissions count (default: src/)",
    )
    args = parser.parse_args(argv)

    if args.docs is not None:
        docs = sorted(args.docs.glob("*.md"))
    else:
        docs = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
    docs = [d for d in docs if d.exists()]

    patterns = emitted_patterns(args.src)
    layers = benchmark_layers(ROOT)
    mentions = {m: s for m, s in doc_mentions(docs).items() if m not in layers}
    missing = unemitted(mentions, patterns)
    silent = undocumented(patterns, mentions)

    if missing:
        print(f"{len(missing)} documented metric(s) never emitted:")
        for metric in sorted(missing):
            sites = ", ".join(missing[metric][:3])
            print(f"  {metric} (mentioned at {sites})")
    if silent:
        print(f"{len(silent)} emitted metric(s) never documented "
              "(a `<name>` placeholder documents an f-string's `{...}`):")
        for metric in silent:
            print(f"  {metric}")
    if missing or silent:
        return 1
    print(
        f"metrics OK ({len(mentions)} documented metrics checked against "
        f"{len(patterns)} emission patterns in {args.src.name}/)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
