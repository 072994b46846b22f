"""Per-layer spans for the traced benchmark run.

`install` replaces each listed public function of the `gaincover` modules
by a timing wrapper, in every module that holds a reference to it, so that
`search.classify_two_ev` and `cli.char_poly` are caught as well as the
original names. Spans nest: a span's self time is its duration minus the
durations of the spans it encloses. Counts and times are accumulated in
memory, keyed `<module>.<function>.<stat>`, and read once the pass is done.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# The layers are the package's modules; `families` only builds inputs.
TRACED = {
    "cli": ("gain_report", "graph_report"),
    "search": ("enumerate_gains",),
    "gains": ("lift", "components", "parse_gain_file"),
    "spectral": ("char_poly", "char_poly_int_matrix", "spectral_difference_poly",
                 "classify_two_ev", "hermitian_spectrum", "jacobi_eigenvalues",
                 "character_block_check"),
    "intpoly": ("squarefree_part", "integer_roots"),
    "regularity": ("regularity_certificate", "is_walk_regular", "is_distance_regular",
                   "is_antipodal", "drackn_parameters"),
    "graphs": ("connected_components", "girth", "distances"),
}


def _by_dimension(stats, name, self_s, args, result, parent):
    n = len(args[0])
    stats[f"{name}.rows"] += n
    stats[f"{name}.self_s.n{n}"] += self_s
    if name == "spectral.char_poly_int_matrix" and parent == "spectral.char_poly":
        stats["spectral.char_poly.misses"] += 1


def _two_ev_hits(stats, name, self_s, args, result, parent):
    stats[f"{name}.hits"] += bool(result.is_two_ev)


def _cover_vertices(stats, name, self_s, args, result, parent):
    stats[f"{name}.cover_vertices"] += result.graph.n


PROBES = {
    "spectral.char_poly_int_matrix": _by_dimension,
    "spectral.jacobi_eigenvalues": _by_dimension,
    "spectral.classify_two_ev": _two_ev_hits,
    "gains.lift": _cover_vertices,
}


class Tracer:
    """Accumulated span statistics of one process."""

    def __init__(self):
        self.stats = defaultdict(float)
        # one [child seconds, span name] frame per open span, plus the root
        self._stack = [[0.0, None]]

    def wrap(self, name, fn):
        stats, stack, probe = self.stats, self._stack, PROBES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append([0.0, name])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()[0]
                stack[-1][0] += dt
                stats[name + ".calls"] += 1
                stats[name + ".self_s"] += dt - child
            if probe is not None:
                probe(stats, name, dt - child, args, result, stack[-1][1])
            return result

        def traced_generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack.append([0.0, name])
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    child = stack.pop()[0]
                    stack[-1][0] += dt
                    stats[name + ".self_s"] += dt - child
                stats[name + ".yielded"] += 1
                yield item

        return traced_generator if inspect.isgeneratorfunction(fn) else traced

    def install(self):
        """Wrap every listed function wherever a gaincover module binds it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "gaincover" or k.startswith("gaincover."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"gaincover.{layer}"]
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)

    def metrics(self):
        """Accumulated statistics of the pass plus the derived ratios."""
        s = self.stats
        out = dict(s)
        calls = s["spectral.classify_two_ev.calls"]
        out["spectral.classify_two_ev.hit_ratio"] = (
            s["spectral.classify_two_ev.hits"] / calls if calls else 0.0)
        calls = s["spectral.char_poly.calls"]
        out["spectral.char_poly.cache_hit_ratio"] = (
            1.0 - s["spectral.char_poly.misses"] / calls if calls else 0.0)
        return out
