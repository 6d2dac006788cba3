"""The frozen lint corpus: ``papi-lint --flow`` reproduces its record.

``benchmarks/papibench/corpus.tar.gz`` snapshots the repository's own
Python files at one commit; ``corpus.json`` records the archive's
SHA-256 and every ``(code, path, line, col)`` finding ``--flow``
reports on it.  The archive is only read: it is extracted into a
temporary directory and each file is linted from there.
"""

import hashlib
import json
import pathlib
import tarfile

import pytest

from repro.lint import lint_file
from repro.lint.rules import is_path_dependent

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "papibench"
RECORD = json.loads((CORPUS / "corpus.json").read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    blob = (CORPUS / "corpus.tar.gz").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == RECORD["sha256"]
    root = tmp_path_factory.mktemp("corpus")
    with tarfile.open(CORPUS / "corpus.tar.gz") as tar:
        members = tar.getmembers()
        for member in members:
            assert member.isfile() and not member.name.startswith(("/", ".."))
            (root / member.name).parent.mkdir(parents=True, exist_ok=True)
            (root / member.name).write_bytes(tar.extractfile(member).read())
    assert len(members) == RECORD["files"]
    return root, [m.name for m in members]


@pytest.mark.parametrize("flow", [True, False], ids=["flow", "default"])
def test_findings_equal_the_record(corpus, flow):
    root, names = corpus
    found = {
        (d.code, name, d.line, d.col)
        for name in names for d in lint_file(str(root / name), flow=flow)
    }
    recorded = {tuple(f) for f in RECORD["findings"]}
    assert len(recorded) == 31
    # the default mode drops exactly the path-dependent may-findings
    assert found == {
        f for f in recorded if flow or not is_path_dependent(f[0])
    }
