"""Every report of the pinned corpus (tests/golden) is byte-identical to its
pin: the same exit code, stdout and stderr."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_repin():
    spec = importlib.util.spec_from_file_location("repin", GOLDEN / "repin.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_match_the_pinned_corpus():
    repin = load_repin()
    pinned = json.loads(repin.REPORTS.read_text())
    reports = repin.pin()
    assert sorted(reports) == sorted(pinned)
    changed = [line for line, digests in reports.items() if digests != pinned[line]]
    assert changed == []
