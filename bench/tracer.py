"""In-memory spans around the public entry points of the tpqr layers.

The wrappers live here, in the benchmark, not in the library: ``installed``
replaces each entry point on its defining module and on every other tpqr
module that re-bound the same function with ``from .x import y`` (for
example ``cuspdual.is_conjugate``), so calls between layers are seen too.

Per-sample numeric kernels of ``numcheck`` (``ft_grad``, ``bump``,
``project_to_level``, ...) are deliberately not wrapped: they run about
10^5 times per run, so a span there would cost more than the work it
times and the span list would dominate memory.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("sl2z", "quadlattice", "milnorfiber", "cuspdual", "k3glue", "numcheck")

ENTRY_POINTS = {
    "sl2z": (
        "monodromy_matrix", "classify", "rl_word", "is_conjugate",
        "is_conjugate_to_inverse", "dehn_twist", "evaluate_word",
    ),
    "quadlattice": (
        "a_block", "e_lattice", "hyperbolic_plane", "direct_sum", "t_lattice",
        "t_tilde_lattice", "k3_lattice", "discriminant", "signature", "parity",
        "smith_normal_form", "radical", "unimodular_indefinite_isomorphic",
    ),
    "milnorfiber": ("surface_system", "monodromy_action", "section_vector", "char_poly"),
    "cuspdual": (
        "triple_to_cycle", "cycle_to_triple", "dual_cycle", "dual_triple",
        "cf_value", "alpha_v", "module_action_matrix", "verify_duality",
    ),
    "k3glue": (
        "strange_duality_table", "pair_for_triple", "critical_count",
        "glued_lattice", "inose_monodromy", "classify_inose_boundary",
    ),
    "numcheck": (
        "critical_points", "critical_values", "verify_critical_points",
        "hessian_fd_check", "sample_on_level", "symplectic_inequality_audit",
        "lagrangian_defect", "domain_y_audit",
    ),
}

# Span record fields, kept as plain lists to keep the cost per span low.
ID, PARENT, REQUEST, NAME, LAYER, START, END = range(7)


class Tracer:
    """Spans of one process: [id, parent id, request id, name, layer,
    start, end], times in seconds of ``perf_counter``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, self._request, name, layer, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, request_id, name: str, layer: str = "bench"):
        """Root span of one request; spans opened inside share its id."""
        self._request = request_id
        rec = self._open(name, layer)
        try:
            yield
        finally:
            self._close(rec)
            self._request = None

    def wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def adopt(self, spans: list[list], request_id) -> None:
        """Append spans recorded by a child process, renumbered and
        re-labelled with this process's request id."""
        base = len(self.spans)
        for rec in spans:
            parent = None if rec[PARENT] is None else rec[PARENT] + base
            self.spans.append(
                [rec[ID] + base, parent, request_id, rec[NAME], rec[LAYER],
                 rec[START], rec[END]]
            )


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry point of ENTRY_POINTS on every loaded tpqr module
    that holds it, and restore the originals on exit."""
    wrappers = {}
    for layer, names in ENTRY_POINTS.items():
        mod = sys.modules.get(f"tpqr.{layer}")
        if mod is None:  # a layer the process has not imported does no work
            continue
        for name in names:
            fn = getattr(mod, name, None)
            if fn is not None:
                wrappers[id(fn)] = tracer.wrap(f"{layer}.{name}", layer, fn)
    patches = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tpqr" or mod_name.startswith("tpqr.")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                patches.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in patches:
            setattr(mod, attr, value)


def squarefree_counts() -> tuple[int, int]:
    """(hits, misses) of cuspdual's process-wide ``_squarefree`` cache, or
    (0, 0) when the library has no such cache."""
    cache_info = getattr(getattr(sys.modules.get("tpqr.cuspdual"), "_squarefree", None),
                         "cache_info", None)
    if cache_info is None:
        return 0, 0
    info = cache_info()
    return info.hits, info.misses


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the time its direct
    children cover (children never overlap in a single thread)."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] is not None:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out
