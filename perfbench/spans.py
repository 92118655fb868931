"""Spans and counters around the engine's layers, installed from outside.

Each traced function is replaced by a wrapper everywhere the engine
holds a reference to it: the defining module, every module that did
`from .x import f`, and every class attribute that aliases it (such as
`Ideal.__mul__ = product`).  Calls that only go through such a copy
would otherwise escape the trace.

A span is (name, start, end, parent); spans are kept in memory and
written out once the run ends.  Self time of a span is its duration
minus the durations of its direct children, which nest strictly in a
single thread.
"""

import gzip
import json
import sys
import time
from array import array
from fractions import Fraction

# (module, attribute path) of every wrapped function
TARGETS = (
    ("dsl", "parse_script"),
    ("dsl", "render_complex"),
    ("generation", "strong_generation_obstruction"),
    ("generation", "koszul_power_obstruction"),
    ("generation", "level_lower_bound"),
    ("generation", "thick_member"),
    ("generation", "principal_power_witness"),
    ("generation", "validate_witness"),
    ("spectrum", "is_connected_spec"),
    ("spectrum", "nilpotence_lemma_check"),
    ("ideals", "Ideal.__init__"),
    ("ideals", "Ideal.product"),
    ("ideals", "Ideal.power"),
    ("ideals", "Ideal.member"),
    ("ideals", "Ideal.contains"),
    ("ideals", "Ideal.powers_stabilize"),
    ("ideals", "Ideal.radical_member"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "reduce_basis"),
    ("homology", "homology"),
    ("homology", "ann_total_homology"),
    ("homology", "supph"),
    ("homology", "fp_direct_sum"),
    ("homology", "resolve_primes"),
    ("snf", "smith_normal_form"),
    ("snf", "hermite_basis"),
    ("snf", "kernel_basis"),
    ("snf", "solve_exact"),
    ("complexes", "koszul"),
    ("complexes", "cone"),
    ("complexes", "is_quasi_iso"),
    ("complexes", "ChainMap.__init__"),
    ("matrices", "Matrix.__matmul__"),
    ("factor", "factor_integer"),
    ("factor", "factor_unipoly"),
)

TICK_LABELS = ("buchberger", "smith_normal_form", "radical_member", "factor_unipoly")


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, attr in TARGETS:
        out.append((f"{module}.{attr}.calls", "count"))
        out.append((f"{module}.{attr}.self_s", "s"))
    out += [(f"budget.ticks.{label}", "count") for label in TICK_LABELS]
    out += [
        ("snf.transform_bits.max", "bits"),
        ("ideals.normal_gens.max", "count"),
        ("groebner.basis_len.max", "count"),
        ("check.s", "s"),
    ]
    return out


def _bits(x):
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return abs(x.numerator).bit_length() + x.denominator.bit_length()
    if isinstance(x, tuple):
        return max((_bits(c) for c in x), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{a}" for m, a in TARGETS]
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.ticks = dict.fromkeys(TICK_LABELS, 0)
        self.transform_bits = 0
        self.normal_gens = 0
        self.basis_len = 0

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every target in the already imported thickgen package."""
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("thickgen.") and mod is not None
        }
        for idx, (module, attr) in enumerate(TARGETS):
            owner = mods[module]
            cls_name, _, fn_name = attr.rpartition(".")
            holder = getattr(owner, cls_name) if cls_name else owner
            orig = holder.__dict__[fn_name]
            wrapper = self._wrap(idx, orig, fn_name)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
            if cls_name:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
        counter_cls = mods["budget"].StepCounter
        tick = counter_cls.tick
        ticks = self.ticks

        def counted_tick(counter, n=1):
            ticks[counter.label] = ticks.get(counter.label, 0) + n
            return tick(counter, n)

        counter_cls.tick = counted_tick

    def _wrap(self, idx, fn, fn_name):
        name_of, start, end, parent, stack = (
            self.name_of, self.start, self.end, self.parent, self.stack
        )
        clock = time.perf_counter
        observe = {
            "smith_normal_form": self._observe_snf,
            "product": self._observe_ideal,
            "power": self._observe_ideal,
            "buchberger": self._observe_basis,
        }.get(fn_name)

        def wrapper(*args, **kwargs):
            slot = len(start)
            name_of.append(idx)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(slot)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[slot] = clock()
                start[slot] = t0
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", fn_name)
        return wrapper

    def _observe_snf(self, res):
        for M in (res.U, res.V):
            for row in M.rows:
                for x in row:
                    b = _bits(x)
                    if b > self.transform_bits:
                        self.transform_bits = b

    def _observe_ideal(self, ideal):
        self.normal_gens = max(self.normal_gens, len(ideal.normal_payloads))

    def _observe_basis(self, basis):
        self.basis_len = max(self.basis_len, len(basis))

    # ------------------------------------------------------------ results

    def summary(self):
        """{metric: value} for everything but check.s, summed over the
        whole traced run."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        for label in TICK_LABELS:
            out[f"budget.ticks.{label}"] = self.ticks.get(label, 0)
        out["snf.transform_bits.max"] = self.transform_bits
        out["ideals.normal_gens.max"] = self.normal_gens
        out["groebner.basis_len.max"] = self.basis_len
        return out

    def write(self, path, limit):
        """Write the first `limit` spans as gzipped JSON."""
        n = min(limit, len(self.start))
        spans = [
            [self.name_of[i], round(self.start[i], 7), round(self.end[i], 7), self.parent[i]]
            for i in range(n)
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "total": len(self.start), "spans": spans}, fh)
