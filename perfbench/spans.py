"""Outside-in tracing of the library's layers.

The tracer replaces each traced function wherever a tilegb module binds it
(its home module, the package's re-exports and every `from x import f`), so
calls are seen whichever name the caller used.  Spans are kept in memory as
(name, parent, start, end) and written out when the run ends; self time is
a span's duration minus that of its direct children.  Counts read off
arguments and return values are taken inside a `trace.count` span, so their
cost is not charged to the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


def _cert_counts(cert):
    yield "tiling.cert.unit_placements", len(cert.placements)
    yield "tiling.cert.distinct_placements", len({(p.tile, p.shift) for p in cert.placements})


def _decide_counts(args, result):
    if result.certificate is not None:
        yield from _cert_counts(result.certificate)


def _reduce_counts(args, result):
    yield "groebner.reduce.terms_in", len(args[0].terms)
    yield "groebner.reduce.quotient_terms", sum(len(q.terms) for q in result.quotients)
    yield "groebner.reduce.remainder_terms", len(result.remainder.terms)


def _buchberger_counts(args, result):
    yield "groebner.buchberger.basis_size", len(result.elements)
    polys = list(result.elements)
    for row in result.cofactors or ():
        polys.extend(row)
    yield "groebner.buchberger.max_coeff_bits", max(
        (abs(c).bit_length() for p in polys for c in p.terms.values()), default=0)


# (home module, function, counter(args, result) -> (metric, value) pairs)
TRACED = [
    ("cli", "run", None),
    ("polyring", "parse_poly", lambda a, r: [("polyring.parse_poly.terms", len(r.terms))]),
    ("polyring", "format_poly", None),
    ("groebner", "reduce", _reduce_counts),
    ("groebner", "buchberger", _buchberger_counts),
    ("groebner", "verify_strong_gb", None),
    ("bones", "bone_system", None),
    ("tiling", "decide_signed_tiling", _decide_counts),
    ("tiling", "certificate_nbone", lambda a, r: _cert_counts(r)),
    ("tiling", "verify_certificate",
     lambda a, r: [("tiling.verify_certificate.placements", len(a[0].placements))]),
    ("homology", "stabilized_group", None),
    ("homology", "box_group", None),
    ("homology", "box_presentation", None),
    ("homology", "snf", lambda a, r: [("homology.snf.rows", len(a[0]))]),
    ("intlin", "echelon_insert", None),
    ("intlin", "lattice_express", None),
    ("oracle", "oracle_decide", None),
    ("oracle", "placement_system",
     lambda a, r: [("oracle.placement_system.cells", len(r.matrix)),
                   ("oracle.placement_system.placements", len(r.placements))]),
    ("oracle", "hnf_solve", None),
    ("brion", "rational_form_T", None),
    ("brion", "verify_brion", None),
]
MUL = "polyring.mul"  # Polynomial.__mul__ and __rmul__, wrapped on the class
LABELS = [f"{home}.{fn}" for home, fn, _ in TRACED] + [MUL]
COUNTS = [
    "polyring.parse_poly.terms",
    "groebner.reduce.terms_in", "groebner.reduce.quotient_terms",
    "groebner.reduce.remainder_terms",
    "groebner.buchberger.basis_size", "groebner.buchberger.max_coeff_bits",
    "tiling.verify_certificate.placements",
    "tiling.cert.unit_placements", "tiling.cert.distinct_placements",
    "homology.snf.rows",
    "oracle.placement_system.cells", "oracle.placement_system.placements",
]
COUNT_SPAN = "trace.count"


class Tracer:
    """Spans and counts of one traced run, grouped into named phases."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.phases: list[tuple[str, int]] = []  # (phase, index of its first span)
        self.counts: dict[str, dict[str, int]] = {}
        self.patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def phase(self, name: str) -> None:
        self.phases.append((name, len(self.span_name)))
        self.counts[name] = defaultdict(int)

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, label: str, fn, counter):
        name_id = self._name_id(label)
        count_id = self._name_id(COUNT_SPAN)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                cidx = self._open(count_id)
                counts = self.counts[self.phases[-1][0]]
                for metric, value in counter(args, result):
                    if metric.endswith("max_coeff_bits"):
                        counts[metric] = max(counts[metric], value)
                    else:
                        counts[metric] += value
                self._close(cidx)
            return result
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of each traced function in the loaded tilegb modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "tilegb" or name.startswith("tilegb.")]
        for home, fn_name, counter in TRACED:
            original = getattr(sys.modules[f"tilegb.{home}"], fn_name)
            wrapper = self._wrap(f"{home}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        poly = sys.modules["tilegb.polyring"].Polynomial
        original = poly.__dict__["__mul__"]
        wrapper = self._wrap(MUL, original, None)
        for attr in ("__mul__", "__rmul__"):
            if poly.__dict__.get(attr) is original:
                self._patch(poly, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- reporting ---------------------------------------------------------

    def _phase_range(self, name: str) -> range:
        bounds = [start for _, start in self.phases] + [len(self.span_name)]
        k = [p for p, _ in self.phases].index(name)
        return range(bounds[k], bounds[k + 1])

    def summary(self, phases: list[str]) -> dict[str, float]:
        """calls, inclusive and self time per label, and the counts, over the
        given phases."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        for phase in phases:
            for i in self._phase_range(phase):
                name = self.names[self.span_name[i]]
                dur = self.span_end[i] - self.span_start[i]
                calls[name] += 1
                incl[name] += dur
                own[name] += dur - child[i]
        out: dict[str, float] = {}
        for label in LABELS:
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.s"] = incl[label]
            out[f"{label}.self_s"] = own[label]
        for metric in COUNTS:
            values = [self.counts[p].get(metric, 0) for p in phases]
            out[metric] = max(values) if metric.endswith("max_coeff_bits") else sum(values)
        out["trace.count_s"] = incl[COUNT_SPAN]
        out["trace.spans"] = sum(len(self._phase_range(p)) for p in phases)
        return out

    def write(self, path) -> None:
        """All spans as tab-separated lines: id, parent, name, phase, start, end."""
        phase_of = []
        for name, _ in self.phases:
            phase_of.extend([name] * len(self._phase_range(name)))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tphase\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{phase_of[i]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")
