"""Spans and counters around the yokohecke layers, installed from outside
the package.

Modules bind names with ``from .x import y``, so a function is replaced
wherever a module of the package holds it (``links.rho``, ``traces.psi``,
``isomap.to_E_basis``, ``hecke.in_young``, ...), not only in its home
module.  Methods are replaced on their class.

A span records (name, start, end, parent, item) in memory; a layer's self
time is the length of its spans minus the time covered by their child
spans.  Counters are plain integers bumped by the same wrappers; the size
counters (``out_terms``, ``blocks_*``, ``terms_copied``) measure the
objects a call returns or copies, so they repeat exactly for the same
inputs.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

PACKAGE = "yokohecke"
MODULES = ("cli", "links", "yokonuma", "isomap", "traces", "hecke",
           "permcomp", "exactnum", "verify")

# Module-level public functions that get a span.  Cheap helpers that run
# millions of times (permcomp's permutation arithmetic, root_power) get
# none: the wrapper would cost more than they do.
SPANNED = {
    "cli": ("main",),
    "links": ("parse_word", "delta_H", "delta_gamma", "homflypt", "invariant_gamma",
              "invariant_contributions", "jl_invariant", "jl_numeric"),
    "yokonuma": ("y_mul", "to_E_basis", "from_E_basis", "idempotent_E",
                 "idempotent_Emu", "e_basis_mul_basis"),
    "isomap": ("psi", "psi_from_e_coeffs", "phi", "phi_to_e_coeffs", "iota"),
    "traces": ("rho", "rho_blocks", "symmetrizing_rho", "symmetrizing_tilde"),
    "hecke": ("h_mul", "markov_tau", "tau_parabolic"),
    "verify": ("run_suite",),
}

# (module, class, method, counter name): call counts only.
COUNTED = (
    ("permcomp", None, "in_young", "permcomp.in_young"),
    ("hecke", "HeckeElem", "mul_gen", "hecke.mul_gen"),
    ("hecke", "HeckeElem", "__add__", "hecke.add"),
    ("exactnum", "Cyclo", "__add__", "exactnum.cyclo_add"),
    ("exactnum", "Cyclo", "__mul__", "exactnum.cyclo_mul"),
    ("exactnum", "Cyclo", "__rmul__", "exactnum.cyclo_mul"),
    ("exactnum", "LPoly", "__add__", "exactnum.lpoly_add"),
    ("exactnum", "LPoly", "__mul__", "exactnum.lpoly_mul"),
)

# The per-layer metrics the benchmark reports, with their units.
PER_LAYER = (
    ("links.delta_gamma.s", "s"),
    ("links.delta_gamma.calls", "count"),
    ("links.delta_gamma.out_terms", "count"),
    ("links.delta_gamma.per_all_basic", "count"),
    ("links.invariant_gamma.calls", "count"),
    ("yokonuma.to_E_basis.s", "s"),
    ("yokonuma.to_E_basis.out_terms", "count"),
    ("isomap.psi_from_e_coeffs.s", "s"),
    ("isomap.blocks_built", "count"),
    ("traces.rho_blocks.s", "s"),
    ("traces.blocks_computed", "count"),
    ("traces.blocks_used", "count"),
    ("traces.block_use_ratio", "ratio"),
    ("links.delta_H.s", "s"),
    ("links.delta_H.out_terms", "count"),
    ("hecke.markov_tau.s", "s"),
    ("hecke.markov_tau.calls", "count"),
    ("hecke.markov_tau.distinct_ratio", "ratio"),
    ("hecke.h_mul.s", "s"),
    ("hecke.h_mul.calls", "count"),
    ("hecke.mul_gen.calls", "count"),
    ("hecke.tau_parabolic.s", "s"),
    ("hecke.add.terms_copied", "count"),
    ("yokonuma.y_mul.s", "s"),
    ("yokonuma.y_mul.calls", "count"),
    ("yokonuma.from_E_basis.s", "s"),
    ("isomap.phi_to_e_coeffs.s", "s"),
    ("isomap.iota.s", "s"),
    ("permcomp.in_young.calls", "count"),
    ("verify.run_suite.s", "s"),
    ("exactnum.cyclo_mul.calls", "count"),
    ("exactnum.cyclo_add.calls", "count"),
    ("exactnum.lpoly_mul.calls", "count"),
    ("exactnum.lpoly_add.calls", "count"),
    ("exactnum.lpoly_add.terms_copied", "count"),
    ("cli.main.s", "s"),
    ("links.parse_word.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _sizes(name: str, args: tuple, out, counts: Counter, seen: set, item: int) -> None:
    """Size counters measured on a call's arguments and result."""
    if name in ("links.delta_gamma", "links.delta_H"):
        counts[name + ".out_terms"] += len(out.terms)
    elif name == "yokonuma.to_E_basis":
        counts[name + ".out_terms"] += len(out)
    elif name == "isomap.psi_from_e_coeffs":
        counts["isomap.blocks_built"] += len(out.blocks)
    elif name == "traces.rho_blocks":
        spec = args[0]
        counts["traces.blocks_computed"] += len(out)
        counts["traces.blocks_used"] += sum(mu.base() in spec.alphas for mu in out)
    elif name == "hecke.markov_tau":
        # A memo of tau_n(T_w) would serve repeated basis terms within one
        # item (a CLI process); count the input terms and the distinct ones.
        x = args[0]
        counts[name + ".in_terms"] += len(x.terms)
        seen.update((item, x.order, w) for w in x.terms)


class Tracer:
    """Install with :meth:`install`, run the work, then :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.markov_inputs: set = set()
        self.item = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, counts, seen = self.spans, self.stack, self.counts, self.markov_inputs
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            _sizes(name, args, out, counts, seen, tracer.item)
            return out

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        copies = name in ("hecke.add", "exactnum.lpoly_add")

        def wrapper(*args):
            counts[name + ".calls"] += 1
            if copies:
                counts[name + ".terms_copied"] += len(args[0].terms)
            return fn(*args)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        # _golden holds no layer but calls psi through its own binding
        namespaces = [importlib.import_module(PACKAGE), *modules.values(),
                      importlib.import_module(f"{PACKAGE}._golden")]
        for mod, names in SPANNED.items():
            for attr in names:
                fn = getattr(modules[mod], attr)
                self._replace(namespaces, fn, self._span(f"{mod}.{attr}", fn))
        for mod, cls, attr, name in COUNTED:
            if cls is None:
                fn = getattr(modules[mod], attr)
                self._replace(namespaces, fn, self._counter(name, fn))
            else:
                owner = getattr(modules[mod], cls)
                self._set(owner, attr, self._counter(name, vars(owner)[attr]))

    def _replace(self, namespaces, fn, wrapper) -> None:
        """Rebind ``fn`` to ``wrapper`` in every module namespace holding it."""
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is fn:
                    self._set(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- requests -----------------------------------------------------------

    def begin_item(self, index: int, label: str) -> list:
        self.item = index
        rec = [f"item:{label}", perf_counter(), 0.0, -1, index]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end_item(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()
        self.item = -1

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            if not name.startswith("item:"):
                out[name] = out.get(name, 0.0) + (end - start - child)
        return out

    def counters(self) -> dict[str, int]:
        out = dict(self.counts)
        out["hecke.markov_tau.distinct_inputs"] = len(self.markov_inputs)
        return out

    def dump(self, path: str) -> None:
        """Write every span and counter as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "item"],
            "names": names,
            "spans": [[index[n], round(s, 7), round(e, 7), p, i]
                      for n, s, e, p, i in self.spans],
            "counters": self.counters(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(self_s: dict[str, float], counts: dict[str, int],
                  all_basic_items: int, overhead_frac: float) -> dict[str, float]:
    """The PER_LAYER values from one traced pass."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name, _ in PER_LAYER:
        if name.endswith(".s"):
            out[name] = self_s.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    out["links.delta_gamma.per_all_basic"] = ratio(
        counts.get("links.delta_gamma.calls.all_basic", 0), all_basic_items)
    out["traces.block_use_ratio"] = ratio(
        counts.get("traces.blocks_used", 0), counts.get("traces.blocks_computed", 0))
    out["hecke.markov_tau.distinct_ratio"] = ratio(
        counts.get("hecke.markov_tau.distinct_inputs", 0),
        counts.get("hecke.markov_tau.in_terms", 0))
    out["trace.overhead_frac"] = overhead_frac
    return out


def deterministic(counts: dict[str, int]) -> dict[str, int]:
    """The counters that must repeat exactly for the same code and seed."""
    return {k: v for k, v in counts.items()
            if k.endswith((".calls", "_terms", ".terms_copied", ".distinct_inputs"))
            or ".blocks_" in k or k.endswith(".all_basic")}
