"""Per-layer tracing from outside gmarr.

``Tracer.install(modules)`` replaces, in every loaded ``gmarr`` module, the
module-level names (and class attributes) that each layer is called
through by wrappers that either time a span or only count calls.  A timed
span's self time is its duration minus the time of the spans it encloses,
so the self times of all spans, the time outside any span
(``trace.unattributed_s``) and the wrappers' size bookkeeping add up to the
traced wall time of the cases.

A wrapped name that gmarr no longer has is reported in ``absent`` and its
metrics read 0; nothing else changes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# (metric prefix, module, attribute path, kind); a prefix may collect several
# names, whose self times and calls are summed
TIMED = "timed"
COUNTED = "counted"
ECHELON = "echelon"

SPANS = (
    ("cli.main", "cli", "main", TIMED),
    ("cli.parse", "cli", "_build_parser", TIMED),
    ("cli.parse", "cli", "_read_file", TIMED),
    ("cli.parse", "cli", "parse_path_file", TIMED),
    ("cli.render", "cli", "_mult_payload", TIMED),
    ("cli.render", "cli", "_matrix_json", TIMED),
    ("cli.render", "cli", "_emit", TIMED),
    ("gauss_manin.path", "gauss_manin", "DegenerationPath.__init__", TIMED),
    ("gauss_manin.connection_for_path", "gauss_manin", "connection_for_path", TIMED),
    ("gauss_manin.multiplicities", "gauss_manin", "multiplicities", TIMED),
    ("gauss_manin.combined_omega", "gauss_manin", "combined_omega", TIMED),
    ("gauss_manin.solve_connection", "gauss_manin", "solve_connection", TIMED),
    ("orlik_solomon.projection", "orlik_solomon", "projection_matrix", TIMED),
    ("orlik_solomon.a_lambda", "orlik_solomon", "a_lambda_matrix", TIMED),
    ("orlik_solomon.straighten", "orlik_solomon", "_Straightener.rewrite", COUNTED),
    ("aomoto_kita.omega_general", "aomoto_kita", "omega_general", TIMED),
    ("linalg.echelon", "linalg", "fraction_free_echelon", ECHELON),
    ("linalg.solve_all", "linalg", "solve_all", TIMED),
    ("linalg.mat_mul", "linalg", "mat_mul", TIMED),
    ("exact.multipoly_mul", "exact", "MultiPoly.__mul__", COUNTED),
    ("exact.multipoly_mul", "exact", "MultiPoly.__rmul__", COUNTED),
    ("exact.poly_exact_div", "exact", "poly_exact_div", COUNTED),
    ("exact.poly_gcd", "exact", "poly_gcd", COUNTED),
    ("arrangement.realization", "arrangement", "Realization.__init__", TIMED),
    ("arrangement.minor", "arrangement", "Realization.minor", COUNTED),
    ("arrangement.compute_type", "arrangement", "compute_type", TIMED),
    ("arrangement.frames", "arrangement", "betanbc_frames", TIMED),
    ("arrangement.dense_edges", "arrangement", "dense_edges", TIMED),
    ("arrangement.betti", "arrangement", "betti_and_euler", TIMED),
    ("arrangement.stv_check", "arrangement", "stv_check", TIMED),
)

# per-layer metrics: name -> (source, key); sources are "self" (seconds),
# "calls", "size" and "cache"
METRICS = {
    "cli.parse_s": ("self", "cli.parse"),
    "cli.render_s": ("self", "cli.render"),
    "cli.main_s": ("self", "cli.main"),
    "gauss_manin.path_s": ("self", "gauss_manin.path"),
    "gauss_manin.connection_for_path_s": ("self", "gauss_manin.connection_for_path"),
    "gauss_manin.multiplicities_s": ("self", "gauss_manin.multiplicities"),
    "gauss_manin.combined_omega_s": ("self", "gauss_manin.combined_omega"),
    "gauss_manin.solve_connection_s": ("self", "gauss_manin.solve_connection"),
    "orlik_solomon.projection_s": ("self", "orlik_solomon.projection"),
    "orlik_solomon.a_lambda_s": ("self", "orlik_solomon.a_lambda"),
    "orlik_solomon.straighten_calls": ("calls", "orlik_solomon.straighten"),
    "orlik_solomon.straightener_entries": ("cache", "straighteners"),
    "aomoto_kita.omega_general_s": ("self", "aomoto_kita.omega_general"),
    "aomoto_kita.omega_general_calls": ("calls", "aomoto_kita.omega_general"),
    "linalg.echelon_s": ("self", "linalg.echelon"),
    "linalg.echelon_calls": ("calls", "linalg.echelon"),
    "linalg.echelon_cells": ("size", "echelon_cells"),
    "linalg.max_rows": ("size", "max_rows"),
    "linalg.max_cols": ("size", "max_cols"),
    "linalg.solve_all_s": ("self", "linalg.solve_all"),
    "linalg.mat_mul_s": ("self", "linalg.mat_mul"),
    "exact.multipoly_mul_calls": ("calls", "exact.multipoly_mul"),
    "exact.poly_exact_div_calls": ("calls", "exact.poly_exact_div"),
    "exact.poly_gcd_calls": ("calls", "exact.poly_gcd"),
    "exact.max_entry_terms": ("size", "max_entry_terms"),
    "exact.max_entry_degree": ("size", "max_entry_degree"),
    "arrangement.realization_s": ("self", "arrangement.realization"),
    "arrangement.minor_calls": ("calls", "arrangement.minor"),
    "arrangement.compute_type_s": ("self", "arrangement.compute_type"),
    "arrangement.frames_s": ("self", "arrangement.frames"),
    "arrangement.dense_edges_s": ("self", "arrangement.dense_edges"),
    "arrangement.betti_s": ("self", "arrangement.betti"),
    "arrangement.stv_check_s": ("self", "arrangement.stv_check"),
    "arrangement.cache_entries": ("cache", "entries"),
    "arrangement.cache_hits": ("cache", "hits"),
    "arrangement.cache_misses": ("cache", "misses"),
}


def _entry_size(e):
    """(terms, total degree) of a domain or field entry; rationals are (1, 0)."""
    terms = getattr(e, "terms", None)
    if terms is not None:
        return len(terms), e.total_degree()
    num = getattr(e, "num", None)
    if num is not None:
        (tn, dn), (td, dd) = _entry_size(num), _entry_size(e.den)
        return tn + td, max(dn, dd)
    return 1, 0


def _resolve(module, path):
    """(owner, attribute, value) for a dotted path, or None if absent."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.sizes = Counter()
        self.stack = [0.0]
        self.bookkeeping_s = 0.0
        self.unattributed_s = 0.0
        self.absent: list[str] = []
        self.caches = []
        self.orlik_solomon = None

    # -- wrappers -----------------------------------------------------------

    def _timed(self, key, fn, after=None):
        stack, self_s, calls, clock = self.stack, self.self_s, self.calls, perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[key] += dur - stack.pop()
                calls[key] += 1
                stack[-1] += dur
            if after is not None:
                b0 = clock()
                after(args, result)
                b = clock() - b0
                self.bookkeeping_s += b
                stack[-1] += b
            return result

        return span

    def _counted(self, key, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _echelon_sizes(self, args, result):
        matrix = args[0]
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        sizes = self.sizes
        sizes["echelon_cells"] += rows * cols
        sizes["max_rows"] = max(sizes["max_rows"], rows)
        sizes["max_cols"] = max(sizes["max_cols"], cols)
        terms, degree = sizes["max_entry_terms"], sizes["max_entry_degree"]
        for row in getattr(result, "rows", ()):
            for e in row:
                t, d = _entry_size(e)
                if t > terms:
                    terms = t
                if d > degree:
                    degree = d
        sizes["max_entry_terms"], sizes["max_entry_degree"] = terms, degree

    # -- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every traced name in the loaded gmarr modules (``modules``
        maps short names such as ``"linalg"`` to module objects)."""
        arrangement = modules.get("arrangement")
        if arrangement is not None:
            self.caches = [
                v for v in vars(arrangement).values() if callable(getattr(v, "cache_info", None))
            ]
        self.orlik_solomon = modules.get("orlik_solomon")
        for key, modname, path, kind in SPANS:
            found = _resolve(modules[modname], path) if modname in modules else None
            if found is None:
                self.absent.append(f"{modname}.{path}")
                continue
            owner, attr, fn = found
            if kind == COUNTED:
                wrapper = self._counted(key, fn)
            else:
                after = self._echelon_sizes if kind == ECHELON else None
                wrapper = self._timed(key, fn, after)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            # rebind every module-level alias of the same function object
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)

    def run_case(self, fn, *args):
        """Run one case as the root span and return its result."""
        self.stack[:] = [0.0]
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            wall = perf_counter() - t0
            self.unattributed_s += wall - self.stack[0]

    # -- reporting ----------------------------------------------------------

    def cache_counts(self) -> dict:
        out = Counter()
        for fn in self.caches:
            info = fn.cache_info()
            out["entries"] += info.currsize
            out["hits"] += info.hits
            out["misses"] += info.misses
        engines = getattr(self.orlik_solomon, "_STRAIGHTENERS", None)
        if engines is None:
            if "orlik_solomon._STRAIGHTENERS" not in self.absent:
                self.absent.append("orlik_solomon._STRAIGHTENERS")
        else:
            out["straighteners"] = len(engines)
        return out

    def metrics(self, caches: dict) -> dict:
        """Metric values of this tracer's spans (times in seconds)."""
        out = {}
        for name, (source, key) in METRICS.items():
            if source == "self":
                out[name] = self.self_s.get(key, 0.0)
            elif source == "calls":
                out[name] = self.calls.get(key, 0)
            elif source == "size":
                out[name] = self.sizes.get(key, 0)
            else:
                out[name] = caches.get(key, 0)
        return out

    def attributed_s(self) -> float:
        return sum(self.self_s.values()) + self.bookkeeping_s + self.unattributed_s
