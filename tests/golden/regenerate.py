"""Write tests/golden/corpus.json: what each CLI call of CASES prints and writes.

    PYTHONPATH=src python tests/golden/regenerate.py

Run it only to change dug's output on purpose; tests/test_golden.py replays
the corpus and fails on any byte that differs.  The calls run in order, in a
fresh temporary working directory, so file names are relative and a call may
read the files that earlier calls wrote (or that INPUTS holds).  Each call
records its exit code, its stdout and stderr, and the SHA-256 of the file its
``--out`` names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from dug.cli import cli_dispatch

CORPUS = Path(__file__).resolve().parent / "corpus.json"

# Files each analyzed in turn.  The first three are bad: a malformed line, an
# edge count the body does not hold, and a vertex count past the 2^26 cap.
# The rest take the loader's other routes: a labeled head with comments, blank
# lines, CRLF and labels out of order before a canonical run; an edge line
# before the run; a run one edge longer than the header; and a count the line
# parser reads but the header's pre-read does not.
INPUTS = {
    "bad-line.dug": "dug 1 3 2\ne 0 1\ne 1 x\n",
    "bad-count.dug": "dug 1 3 2\ne 0 1\n",
    "bad-cap.dug": "dug 1 67108865 0\n",
    "labeled-head.dug": "# made by hand\r\n\r\ndug 1 3 2\r\n# labels\r\nl 2 c\r\nl 0 a\r\n\r\n"
                        "l 1 b\r\ne 0 1\ne 1 2\n",
    "edge-before-run.dug": "dug 1 3 2\n\te 0 2\ne 1 2\n",
    "run-too-long.dug": "dug 1 3 1\ne 0 1\ne 1 2\n",
    "plus-count.dug": "dug 1 3 +2\ne 0 1\ne 1 2\n",
}

VERIFY = [(1, 1), (2, 1), (3, 3), (4, 3), (4, 4), (5, 3), (8, 4)]
CASES = (
    [["verify", "--r", str(r), "--k", str(k), *json_flag]
     for r, k in VERIFY for json_flag in ([], ["--json"])]
    + [["verify", "--r", "4", "--k", "3", "--sample-pairs", "10"],
       ["verify", "--r", "8", "--k", "4", "--sample-pairs", "50"],
       ["verify", "--r", "6", "--k", "5"],
       ["verify", "--r", "2", "--k", "7"],
       ["verify", "--r", "8", "--k", "2", "--cap", "6"],
       ["verify", "--r", "8", "--k", "2", "--cap", "7"]]
    + [["plan", "--n", str(n), "--epsilon", eps, *json_flag]
       for n in (16, 5000, 65536) for eps in ("1/2", "1/16") for json_flag in ([], ["--json"])]
    + [["generate", "--r", "4", "--k", "2", "--proper", "--out", "p42.dug"],
       ["generate", "--r", "3", "--k", "3", "--out", "i33.dug", "--json"],
       ["generate", "--r", "12", "--k", "4", "--proper", "--out", "p124.dug"],
       ["generate", "--r", "2", "--k", "9", "--proper", "--out", "p29.dug"]]
    + [["analyze", "--in", "p42.dug", *flags]
       for flags in ([], ["--json"], ["--sources", "3"], ["--epsilon", "9/16", "--d", "3"])]
    + [["analyze", "--in", "p29.dug"]]
    + [["blowup", "--in", "p42.dug", "--n-target", "24", "--out", "p42-24.dug"],
       ["truncate", "--r", "3", "--k", "2", "--out", "t32.dug"],
       ["solve", "--r", "3", "--k", "4", "--from", "1,2,1,2", "--to", "3,0,3,0"],
       ["solve", "--r", "3", "--k", "4", "--proper", "--from", "1,2,1,2", "--to", "3,1,2,1",
        "--json"],
       ["solve", "--r", "3", "--k", "26", "--from", ",".join(["1", "2"] * 13),
        "--to", ",".join(["3", "0"] * 13)]]
    + [["analyze", "--in", name] for name in INPUTS]
)


def run(argv: list[str]) -> dict:
    """One call in the working directory: its argv, exit code, output and written file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    record = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--out" in argv:
        name = argv[argv.index("--out") + 1]
        record["sha256"] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
    return record


def write_inputs() -> None:
    for name, text in INPUTS.items():
        Path(name).write_bytes(text.encode())


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs()
            corpus = [run(argv) for argv in CASES]
        finally:
            os.chdir(cwd)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus)} calls to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
