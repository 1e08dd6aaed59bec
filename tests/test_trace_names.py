"""The names the benchmark's tracer wraps still exist in gmarr.

``gmbench/bench_trace.py`` times each layer by rebinding module-level names
and class attributes of gmarr from outside.  A name it cannot find is
reported as absent and its metrics read 0, so a refactor that renames or
drops one would silently zero a per-layer metric.  This reads the tracer's
tables without installing it (installing rebinds gmarr for the whole
process).
"""

import importlib
import sys
from collections.abc import Mapping
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "gmbench"))
import bench_trace  # noqa: E402

# retired from gmarr; the benchmark drops its span in its next revision
RETIRED = {"linalg.solve_all"}


def _modules():
    return {m: importlib.import_module(f"gmarr.{m}") for _, m, _, _ in bench_trace.SPANS}


def test_every_traced_name_resolves():
    modules = _modules()
    absent = {f"{m}.{path}" for _, m, path, _ in bench_trace.SPANS
              if bench_trace._resolve(modules[m], path) is None}
    assert absent <= RETIRED
    assert all(callable(bench_trace._resolve(modules[m], path)[2])
               for _, m, path, _ in bench_trace.SPANS if f"{m}.{path}" not in absent)


def test_traced_caches_are_readable():
    from gmarr import arrangement, orlik_solomon

    assert isinstance(orlik_solomon._STRAIGHTENERS, Mapping)  # sized, too
    caches = [v for v in vars(arrangement).values() if callable(getattr(v, "cache_info", None))]
    assert caches
    assert all(hasattr(fn.cache_info(), "currsize") for fn in caches)


def test_traced_sizes_are_readable():
    """The echelon sizes come from ``EchelonResult.rows`` and each entry's
    ``terms`` and ``total_degree``; without them every size reads (1, 0)."""
    from gmarr.exact import MultiPoly
    from gmarr.linalg import fraction_free_echelon

    l1, l2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    ech = fraction_free_echelon([[l1, l2], [l2, l1 * l2 + 1]])
    assert max(bench_trace._entry_size(e) for row in ech.rows for e in row) == (3, 3)
