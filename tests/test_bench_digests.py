"""The reference digests of ``gmbench/README.md``, rebuilt from one round.

Each digest is ``run.digest`` of the first round of a benchmark workload:
its cases built from the seed by the workload's ``prepare`` (path files go
to a temporary directory) and run, one after another, through the gmarr
modules this test session has already imported.  A change to gmarr that
alters any rendered output byte changes a digest and fails here.
"""

import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

GMBENCH = Path(__file__).resolve().parent.parent / "gmbench"
sys.path.insert(0, str(GMBENCH))

import bench_workloads  # noqa: E402
import gmarr  # noqa: E402
import gmarr.cli  # noqa: E402
import gmarr.exact  # noqa: E402
import run  # noqa: E402

MODS = SimpleNamespace(gmarr=gmarr, cli=gmarr.cli, exact=gmarr.exact)


def _reference_digests() -> dict:
    """(workload, seed) -> digest, read off the README's table."""
    text = (GMBENCH / "README.md").read_text(encoding="utf-8").split("## Reference digests", 1)[1]
    header, _, *rows = [line for line in text.splitlines() if line.startswith("|")]
    seeds = [int(cell.split()[-1]) for cell in header.strip("|").split("|")[1:]]
    out = {}
    for row in rows:
        workload, *digests = (cell.strip().strip("`") for cell in row.strip("|").split("|"))
        out.update(((workload, seed), d) for seed, d in zip(seeds, digests))
    return out


REFERENCE = _reference_digests()


def test_the_reference_table_is_read():
    assert len(REFERENCE) == 6
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in REFERENCE.values())


@pytest.mark.parametrize("workload, seed", [
    ("degen-generic", 1),
    ("degen-generic", 101),
    ("sweep-concrete", 1),
    ("sweep-concrete", 101),
    ("types-wide", 1),
    ("types-wide", 101),
])
def test_first_round_digest_is_the_reference(tmp_path, workload, seed):
    prepare, run_case, _ = bench_workloads.WORKLOADS[workload]
    cases = prepare(seed, tmp_path)
    outputs = [run_case(MODS, case) for case in cases]
    assert run.digest({"cases": cases, "outputs": outputs}) == REFERENCE[workload, seed]
