"""The docs contract: the observability surface stays documented.

``repro.obs.names.SPECS`` is the single source of truth for metric
names; ``docs/metrics.md`` is the human reference. These tests keep the
two in lockstep in both directions — run them alone via
``make docs-check``. They are plain-text checks on purpose: adding a
metric without a docs row (or documenting a name the code cannot emit)
must fail even if no engine test exercises the new metric.

The same goes for prose that points into the docs: every
``docs/<file>.md, "<Section>"`` citation must name a heading that
exists, so cutting or renaming a section fails here, not in a reader's
hands; and nothing outside the history documents may name a retired
benchmark file or make target.
"""

import os
import re
import subprocess
from pathlib import Path

from repro.obs import names
from repro.obs.tracer import PHASE_ATTRS

REPO = Path(__file__).parent.parent
DOCS = REPO / "docs" / "metrics.md"

#: metric names as they appear in the reference table rows (one or
#: more dotted segments after the family, e.g. exec.heartbeat.checks)
_ROW_NAME = re.compile(r"^\|\s*`([a-z]+(?:\.[a-z_0-9]+)+)`\s*\|")
#: span names documented in the trace-span table
_SPAN_ROW = re.compile(r"^\|\s*`([a-z_]+)`\s*\|")


def _doc_text() -> str:
    assert DOCS.exists(), "docs/metrics.md is missing"
    return DOCS.read_text()


def _documented_metric_names() -> set[str]:
    return {
        match.group(1)
        for line in _doc_text().splitlines()
        if (match := _ROW_NAME.match(line))
    }


def test_every_emitted_metric_is_documented():
    documented = _documented_metric_names()
    missing = set(names.SPECS) - documented
    assert not missing, (
        f"metrics declared in repro.obs.names but absent from "
        f"docs/metrics.md: {sorted(missing)}"
    )


def test_every_documented_metric_exists_in_code():
    documented = _documented_metric_names()
    assert documented, "docs/metrics.md has no metric table rows"
    stale = documented - set(names.SPECS)
    assert not stale, (
        f"docs/metrics.md documents metrics the registry would reject: "
        f"{sorted(stale)}"
    )


def test_docs_mention_kind_and_unit_of_every_metric():
    text = _doc_text()
    for name, spec in names.SPECS.items():
        row = next(
            (line for line in text.splitlines()
             if _ROW_NAME.match(line) and _ROW_NAME.match(line).group(1) == name),
            None,
        )
        assert row is not None, f"no table row for {name}"
        assert spec.kind in row, f"row for {name} does not state its kind"
        assert spec.unit in row, f"row for {name} does not state its unit"


def test_every_metric_constant_is_used_by_the_source_tree():
    """Every name in SPECS is referenced (via its constant) by at least
    one module outside repro.obs — no dead entries in the surface."""
    src = Path(__file__).parent.parent / "src" / "repro"
    constant_of = {
        value: const
        for const, value in vars(names).items()
        if isinstance(value, str) and value in names.SPECS
    }
    corpus = "\n".join(
        path.read_text()
        for path in src.rglob("*.py")
        if "obs" not in path.parts
    )
    unused = [
        name for name, const in constant_of.items()
        if f"names.{const}" not in corpus
    ]
    assert not unused, f"declared but never emitted: {sorted(unused)}"


def test_execution_doc_covers_every_backend():
    """docs/execution.md documents each name ``--backend`` accepts."""
    from repro.exec import BACKENDS

    doc = Path(__file__).parent.parent / "docs" / "execution.md"
    assert doc.exists(), "docs/execution.md is missing"
    text = doc.read_text()
    for backend in BACKENDS:
        assert f"`{backend}`" in text, (
            f"backend {backend!r} missing from docs/execution.md"
        )
    # the exec.* family is documented in metrics.md but lives here too:
    # the doc must explain its wall-clock (non-reproducible) nature
    assert "wall-clock" in text
    assert "bit-identical" in text, "determinism contract not stated"


def test_span_phases_documented():
    text = _doc_text()
    for attr in PHASE_ATTRS:
        assert f"`{attr}`" in text, f"phase attr {attr} undocumented"
    for span in ("startup", "roots", "chunk", "batch"):
        assert any(
            match.group(1) == span
            for line in text.splitlines()
            if (match := _SPAN_ROW.match(line))
        ), f"span {span!r} missing from the trace-span table"


# ----------------------------------------------------------------------
# section citations and retired names
# ----------------------------------------------------------------------
#: where a ``docs/<file>.md, "<Section>"`` citation must resolve
_CITING = ("src", "tests", "benchmarks", "docs", "Makefile", "README.md",
           ".github/workflows/ci.yml", ".claude/skills")
#: a citation: the doc (as ``docs/<file>.md`` or a Markdown link to
#: ``<file>.md``), a comma, one or more quoted sections joined by
#: commas or "and"
_CITATION = re.compile(
    r'(?:docs/|\]\()(\w+)\.md\)?,\s*("[^"\n]+"(?:\s*(?:,|and)\s*"[^"\n]+")*)'
)
#: a line break inside a citation, with the indentation and comment
#: marker (``#``, ``##``, ``#:``) that continue it
_BREAK = re.compile(r"[ \t]*\n[ \t]*(?:#+:?[ \t]*)?")
_HEADING = re.compile(r"^#+\s+(.+?)\s*$|^\*\*(.+?)\*\*", re.MULTILINE)
#: names of things that no longer exist: the old wall-clock JSON
#: files at the root and the make targets of the retired sweeps
_RETIRED = re.compile(
    r"BENCH_PR\d|\b(?:perf-bench(?:-motifs|-scale)?|service-bench)\b"
)


def _tracked(*paths: str) -> list[Path]:
    """The repository's files under ``paths`` (all of them when none
    are given): ``git ls-files`` where there is a checkout, else a walk
    that skips hidden directories other than ``.github`` / ``.claude``."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", *paths], cwd=REPO,
            capture_output=True, check=True,
        ).stdout.decode().split("\0")
    except (OSError, subprocess.CalledProcessError):
        listed = []
    if any(listed):
        return [REPO / name for name in listed
                if name and (REPO / name).is_file()]
    found = []
    for root in paths or (".",):
        base = REPO / root
        if base.is_file():
            found.append(base)
            continue
        for directory, subdirs, files in os.walk(base):
            subdirs[:] = [d for d in subdirs if d != "__pycache__" and (
                not d.startswith(".") or d in (".github", ".claude"))]
            found += [Path(directory) / name for name in files]
    return found


def _sections(doc: Path) -> set[str]:
    """The doc's ``#`` headings and bold run-in headings, without a
    trailing period or colon."""
    return {
        " ".join((match.group(1) or match.group(2)).rstrip(".:").split())
        for match in _HEADING.finditer(doc.read_text())
    }


def _resolves(section: str, headings: set[str]) -> bool:
    """A citation names a heading, or the part of one before its
    subtitle (``"Durability"`` for "Durability: checkpoint/resume …")."""
    return any(heading == section or heading.startswith(section + ":")
               or heading.startswith(section + " (")
               for heading in headings)


def test_every_section_citation_names_a_heading():
    citations, broken = 0, []
    for path in _tracked(*_CITING):
        text = _BREAK.sub(" ", path.read_text(errors="ignore"))
        for match in _CITATION.finditer(text):
            doc = REPO / "docs" / f"{match.group(1)}.md"
            headings = _sections(doc) if doc.exists() else set()
            for section in re.findall(r'"([^"]+)"', match.group(2)):
                citations += 1
                if not _resolves(" ".join(section.split()), headings):
                    broken.append(f"{path.relative_to(REPO)}: "
                                  f"docs/{doc.name}, {section!r}")
    assert citations, "no section citations found: the pattern is stale"
    assert not broken, "citations of missing sections:\n" + "\n".join(broken)


def _history(relative: str) -> bool:
    """Files allowed to name retired things: the Markdown notes at the
    repository root other than README.md (plans and history), and the
    benchmark package, which is maintained separately."""
    root_note = "/" not in relative and relative.endswith(".md")
    return (root_note and relative != "README.md") \
        or relative.startswith("perfbench/")


def test_no_file_names_a_retired_benchmark():
    here = Path(__file__).resolve()
    named = []
    for path in _tracked():
        relative = path.relative_to(REPO).as_posix()
        if path.resolve() == here or _history(relative):
            continue
        text = path.read_text(errors="ignore")
        named += [f"{relative}: {match.group(0)}"
                  for match in _RETIRED.finditer(text)]
    assert not named, "retired names still in use:\n" + "\n".join(named)
