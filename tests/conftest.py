import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_acceptance_lines = []


@pytest.fixture(autouse=True)
def _repo_cwd(monkeypatch):
    # fixture configs use repo-relative paths
    monkeypatch.chdir(ROOT)


def write_corpus(directory, *problems):
    """Write the problems as a JSONL corpus under directory; its path.

    Lets a test run a synthetic problem through a config's corpus key.
    """
    path = pathlib.Path(directory) / "corpus.jsonl"
    path.write_text(
        "".join(
            json.dumps({**p._asdict(), "tests": [t._asdict() for t in p.tests]}) + "\n"
            for p in problems
        ),
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture(scope="session")
def corpus():
    from bridge.corpus import load_manifest

    return load_manifest(ROOT / "fixtures" / "corpus.jsonl")


@pytest.fixture(scope="session")
def by_id(corpus):
    return {p.id: p for p in corpus}


@pytest.fixture(scope="session")
def acceptance_log():
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface one verdict line per acceptance criterion, capture-proof
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
