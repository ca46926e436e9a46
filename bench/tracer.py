"""Outside-in tracer: times calls into the package from the benchmark side.

Nothing inside ``src/ffzeta`` is changed.  ``Tracer.install`` replaces
every module-level binding of each traced public function across the
loaded ``ffzeta.*`` modules (``det`` is bound in ``polymat``, ``dynamics``,
``cli`` and ``corpus``, and each binding is looked up at call time), plus
the bulk kernel methods of ``gf.Field``.  Spans are not stored one by one:
kernels are called millions of times, so each span closes into an
aggregate keyed by (name, parent name, field class) holding the call
count, inclusive time and self time.  Self time is inclusive time minus
the inclusive time of the child spans, tracked on an explicit stack.
"""

from __future__ import annotations

import functools
import sys
import time

# Public functions traced, by defining module.
TRACED = {
    "gf": ("make_field", "order_of_root", "factorint", "elem_order"),
    "polycore": ("factor", "is_irreducible", "modpow", "poly_gcd", "resultant"),
    "polymat": ("mat_mul", "det", "charpoly", "matpow_minus_I"),
    "newton": ("polygon", "unit_residual"),
    "spectral": ("spectral_data", "rou_split", "weights_from_residual"),
    "dynamics": ("system_data", "entropy", "nk_table", "nk_direct", "nk_spectral"),
    "zeta": (
        "classify",
        "closed_form",
        "series_from_nk",
        "series_from_closed_form",
        "nk_from_series",
    ),
    "cli": ("load_problem", "build_system", "build_report", "main"),
}

# Field kernel methods and the span family each belongs to.
KERNELS = {
    "poly_mul": "gf.poly_mul",
    "poly_divmod": "gf.poly_divmod",
    "poly_add": "gf.poly_addsub",
    "poly_sub": "gf.poly_addsub",
}
LONG_INPUT = 24  # kernel inputs at least this long count as "long"
FIELD_CLASSES = ("e1", "ext", "bigp")


def field_class(p: int, e: int) -> str:
    """e1: prime field below 2**31; ext: e >= 2; bigp: prime >= 2**31."""
    if e >= 2:
        return "ext"
    return "bigp" if p >= 2**31 else "e1"


class Tracer:
    """Span aggregates per (name, parent, field class), plus counters."""

    def __init__(self):
        self.enabled = False
        self.field_class = "-"
        self.spans = {}  # (name, parent, fclass) -> [calls, total_s, self_s]
        self.counts = {}  # (name, fclass) -> number
        self._stack = []  # [name, start, child_s]
        self._restore = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        key = (name, parent[0] if parent else "", self.field_class)
        agg = self.spans.get(key)
        if agg is None:
            self.spans[key] = [1, dur, dur - child]
        else:
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child

    def count(self, name, n=1):
        key = (name, self.field_class)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, on_call=None):
        """fn wrapped in a span; on_call(args, kwargs) may add counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Rebind traced functions in every loaded ffzeta module."""
        import ffzeta.cli  # noqa: F401  (load every module that binds names)
        import ffzeta.corpus  # noqa: F401
        from ffzeta import gf, polycore

        hooks = self._hooks()
        originals = {}
        for mod, names in TRACED.items():
            module = sys.modules[f"ffzeta.{mod}"]
            for fname in names:
                name = f"{mod}.{fname}"
                fn = getattr(module, fname)
                originals[id(fn)] = self.wrap(name, fn, hooks.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "ffzeta" and not modname.startswith("ffzeta."):
                continue
            for attr, val in list(vars(module).items()):
                wrapped = originals.get(id(val))
                if wrapped is not None:
                    self._restore.append((module, attr, val))
                    setattr(module, attr, wrapped)

        for meth, family in KERNELS.items():
            orig = getattr(gf.Field, meth)
            self._restore.append((gf.Field, meth, orig))
            setattr(gf.Field, meth, self._kernel(family, orig))
        # generic (scalar-loop) kernels reached from a Field: a count only
        for meth in KERNELS:
            orig = getattr(polycore.Domain, meth)
            self._restore.append((polycore.Domain, meth, orig))
            setattr(polycore.Domain, meth, self._scalar_counter(orig, gf.Field))

    def uninstall(self):
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def _kernel(self, family, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(field, xs, ys):
            if not tracer.enabled:
                return fn(field, xs, ys)
            cls = field_class(field.p, field.e)
            tracer.count("gf.kernel.calls")
            if max(len(xs), len(ys)) >= LONG_INPUT:
                tracer.count("gf.kernel.long")
            tracer._enter(f"{family}.{cls}")
            try:
                return fn(field, xs, ys)
            finally:
                tracer._exit()

        return traced

    def _scalar_counter(self, fn, field_type):
        tracer = self

        @functools.wraps(fn)
        def counted(dom, xs, ys):
            if tracer.enabled and isinstance(dom, field_type):
                tracer.count("gf.scalar.calls")
            return fn(dom, xs, ys)

        return counted

    def _hooks(self):
        """Counters attached to particular spans."""

        def det_entries(args, kwargs):
            dom, A = args[0], args[1]
            if getattr(dom, "base", None) is not None and getattr(dom.base, "p", None):
                degs = [max(x.degree, 0) for row in A for x in row]
                if degs:
                    self.count("polymat.det.tmat_calls")
                    self.count("polymat.det.entry_deg_mean_sum", sum(degs) / len(degs))
            self.count("cmd.det_calls")

        def nk_k(args, kwargs):
            kmax = args[2] if len(args) > 2 else kwargs["kmax"]
            self.count("dynamics.nk_table.k_total", kmax)

        return {"polymat.det": det_entries, "dynamics.nk_table": nk_k}

    # -- results ---------------------------------------------------------------

    def totals(self):
        """{name: [calls, total_s, self_s]} summed over parents and classes."""
        out = {}
        for (name, _parent, _cls), (calls, total, self_s) in self.spans.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def counter(self, name):
        return sum(v for (n, _cls), v in self.counts.items() if n == name)

    def dump(self):
        """Aggregates as JSON-ready rows, for writing out at the end."""
        return {
            "spans": [
                {"name": n, "parent": p, "field_class": c, "calls": a[0],
                 "total_s": a[1], "self_s": a[2]}
                for (n, p, c), a in sorted(self.spans.items())
            ],
            "counts": [
                {"name": n, "field_class": c, "value": v}
                for (n, c), v in sorted(self.counts.items())
            ],
        }
