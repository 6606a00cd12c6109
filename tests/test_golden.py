"""The golden CLI corpus: every call of tests/golden/corpus.json prints and writes the same bytes.

The corpus is made by tests/golden/regenerate.py, which this test also takes
its inputs and its recording of a call from; run that script only to change
dug's output on purpose.
"""

from __future__ import annotations

import json
import runpy
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_cli_output_matches_the_golden_corpus(tmp_path, monkeypatch):
    corpus = json.loads((GOLDEN / "corpus.json").read_text())
    script = runpy.run_path(str(GOLDEN / "regenerate.py"))
    monkeypatch.chdir(tmp_path)
    script["write_inputs"]()
    assert [want["argv"] for want in corpus] == script["CASES"]
    for want in corpus:
        assert script["run"](want["argv"]) == want, " ".join(want["argv"])
