"""perfbench's end-to-end throughput with its traced per-layer split.

Benches that claim a speed-up record a ``stage_split`` block beside their
own numbers: one perfbench workload's untraced ``ops_per_s`` and the
per-layer metrics of a traced run of the same workload, for this
checkout ("after") and optionally another one ("before", e.g. the parent
commit) — so a gain comes with where the time went.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

__all__ = ["measure_stage_split", "split_argv", "stage_split_block"]


def split_argv(workload: str, *, seed: int = 0, seconds: float = 20) -> tuple:
    """The perfbench run behind a split, from a checkout's root (run once
    with ``--trace 0`` for ``ops_per_s`` and once with ``--trace 1``)."""
    return ("perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}")


def measure_stage_split(root: Path, workload: str, metrics, **kw) -> dict:
    """perfbench ``workload`` on the checkout at ``root``: ``ops_per_s``
    of an untraced run and ``metrics`` of a traced one."""
    out = {}
    for trace, names in (("0", ("ops_per_s",)), ("1", tuple(metrics))):
        proc = subprocess.run(
            [sys.executable, *split_argv(workload, **kw), "--trace", trace],
            cwd=root, capture_output=True, text=True, check=True,
        )
        measured = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        out.update({name: round(measured[name]["value"], 4) for name in names})
    return out


def stage_split_block(root: Path, workload: str, metrics,
                      split_against: Path | None = None, **kw) -> dict:
    """The ``stage_split`` record: the command, then "before" (the
    checkout at ``split_against``, when given) and "after" (``root``)."""
    block = {"command": "python3 " + " ".join(split_argv(workload, **kw))
             + " --trace {0,1}"}
    if split_against is not None:
        block["before"] = measure_stage_split(split_against, workload, metrics, **kw)
    block["after"] = measure_stage_split(root, workload, metrics, **kw)
    return block
