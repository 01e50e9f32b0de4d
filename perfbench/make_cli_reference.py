#!/usr/bin/env python3
"""Record the stdout of every cli-cold invocation, per seed, as digests.

    python3 perfbench/make_cli_reference.py --seeds 0:100

Writes ``perfbench/cli_reference.json``: for each seed, the first 16 hex
digits of the SHA-256 of each invocation's report.  A traced cli-cold run
compares its reports with these and reports how many changed
(``cli.json_changed``) out of how many were compared (``cli.json_checked``),
which makes the byte-identical JSON contract visible without failing a run.
The reports are made in-process through ``cli.main``; a test checks that a
fresh interpreter prints the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def digests(seed: int, workdir: Path) -> dict:
    w = run.Workload("cli-cold", seed, workdir)
    out = {}
    for inv in w.jobs:
        code, stdout, err = run.run_in_process(w, inv.argv)
        if code != 0:
            raise RuntimeError(f"seed {seed} {inv.name} exited {code}: {err}")
        out[inv.name] = hashlib.sha256(stdout.encode()).hexdigest()[:16]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="0:100", help="first:stop range of seeds")
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split(":"))
    os.environ.update({var: "1" for var in run.PINNED_THREADS})
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        table = {str(seed): digests(seed, workdir) for seed in range(lo, hi)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = run.environment(argparse.Namespace(workload="cli-cold", seed=None, seconds=None, trace=None))
    doc = {"git_commit": env["git_commit"], "src_sha256": env["src_sha256"], "seeds": table}
    run.REFERENCE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
