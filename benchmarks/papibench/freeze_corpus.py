"""Regenerate papibench's frozen lint corpus from git.

The ``checkers`` workload lints a fixed snapshot of the repository's
own Python files -- ``examples/``, ``src/repro/`` and ``tests/`` at
:data:`CORPUS_COMMIT` -- so that later edits to those files do not
change the benchmark's input.  This script writes the snapshot as
``corpus.tar.gz`` (byte-reproducible: sorted members, zeroed mtimes and
owners) and records its SHA-256 and the ``(code, path, line, col)`` set
that ``papi-lint --flow`` reports on it in ``corpus.json``.

Run it from a git checkout, with the linter of that checkout::

    PYTHONPATH=src python benchmarks/papibench/freeze_corpus.py

The benchmark itself never needs git: it reads the two files.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CORPUS_COMMIT = "c05b6dcbd216dc977fe1b16afdc2d9acafe94168"
CORPUS_DIRS = ("examples", "src/repro", "tests")
CORPUS_TAR = HERE / "corpus.tar.gz"
CORPUS_META = HERE / "corpus.json"


def read_git_sources(commit: str) -> list:
    """Every ``*.py`` file under :data:`CORPUS_DIRS` at *commit*, sorted."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", commit, *CORPUS_DIRS],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    sources = []
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        for member in tar.getmembers():
            if member.isfile() and member.name.endswith(".py"):
                text = tar.extractfile(member).read().decode("utf-8")
                sources.append((member.name, text))
    return sorted(sources)


def pack(sources: list) -> bytes:
    buf = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as gz:
        with tarfile.open(fileobj=gz, mode="w", format=tarfile.USTAR_FORMAT) as tar:
            for path, text in sources:
                data = text.encode("utf-8")
                info = tarfile.TarInfo(path)
                info.size = len(data)
                info.mode = 0o644
                tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def lint_findings(sources: list) -> list:
    from repro.lint import lint_source

    found = set()
    for path, text in sources:
        for diag in lint_source(text, path, flow=True):
            found.add((diag.code, diag.path, diag.line, diag.col))
    return sorted(found)


def main() -> int:
    sources = read_git_sources(CORPUS_COMMIT)
    blob = pack(sources)
    CORPUS_TAR.write_bytes(blob)
    meta = {
        "commit": CORPUS_COMMIT,
        "dirs": list(CORPUS_DIRS),
        "sha256": hashlib.sha256(blob).hexdigest(),
        "files": len(sources),
        "findings": [list(f) for f in lint_findings(sources)],
    }
    CORPUS_META.write_text(json.dumps(meta, indent=1) + "\n")
    print(f"{meta['files']} files, {len(meta['findings'])} findings, "
          f"sha256 {meta['sha256'][:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
