"""Outside-in span recorder for the benchmark's traced passes.

Each name in ``WRAPPED`` is a public function (or a method, written
``module.Class.method``) of a ``toricbundle`` module.  ``Recorder.install``
replaces it by a timing wrapper everywhere the package can reach it: in every
``toricbundle.*`` module namespace that holds the same function object
(``bundle`` imports ``sd_quotient``, ``rref`` and others by name, so patching
only the defining module would miss those calls), and on the class for a
method.  Nothing under ``src/`` changes.  A name that a later refactor removed
or moved is reported as absent instead of failing the run.  A hook that can
no longer summarise a call's arguments is counted in ``Recorder.unsummarised``
and the metrics computed from its summaries are left out, not reported as 0.

Spans stay in memory, tagged with a job id and the id of the span that was
open when they started, and are written out by ``Recorder.dump`` at the end
of a pass.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
from time import perf_counter

# qpoly is not wrapped: its calls are too fine-grained, so its cost shows in
# the self time of its callers.
WRAPPED = (
    "bundle.ring_via_sr",
    "bundle.ring_via_sd",
    "bundle.ring_via_diff",
    "bundle.cross_validate",
    "bundle.intersection_functional",
    "bundle.self_intersection_polynomial",
    "bundle.verify_bkk",
    "galg.build_quotient",
    "galg.sd_quotient",
    "galg.SdQuotient.project",
    "galg.frobenius_matrix",
    "galg.ann_quotient",
    "galg.graded_isomorphic",
    "galg.GradedAlgebra.multiply",
    "integrate.i_f_polynomial",
    "integrate.i_f_value",
    "integrate.mixed_integral",
    "integrate.convex_anchor",
    "integrate.integrate_over_polytope",
    "integrate.triangulate",
    "polyhedral.is_convex_on",
    "polyhedral.is_projective",
    "polyhedral.polytope_from_support",
    "exactlin.rref",
    "exactlin.solve",
    "exactlin.row_space_rref",
    "_kernels.gauss_jordan_int",
    "catalog.brion_kazarnovskii_check",
    "catalog.gz_volume_check",
    "serialize.report_to_dict",
    "cli.main",
)

RING_BUILDERS = ("bundle.ring_via_sr", "bundle.ring_via_sd", "bundle.ring_via_diff")
WITH_TOTAL = RING_BUILDERS + (
    "galg.sd_quotient",
    "integrate.i_f_polynomial",
    "integrate.mixed_integral",
    "cli.main",
)
WITH_ERRORS = RING_BUILDERS + ("cli.main",)

IF_POLY = "integrate.i_f_polynomial"
CONVEX = "polyhedral.is_convex_on"
ANCHOR = "integrate.convex_anchor"
RREF = "exactlin.rref"

# (metric, numerator span, required ancestor, denominator span, ancestor
# for the denominator or None for all calls)
RATIOS = (
    ("integrate.i_f_polynomial.useful_ratio",
     "integrate.i_f_value", IF_POLY, CONVEX, IF_POLY),
    ("polyhedral.is_convex_on.solves_per_call",
     "exactlin.solve", CONVEX, CONVEX, None),
    ("integrate.convex_anchor.checks_per_call",
     CONVEX, ANCHOR, ANCHOR, None),
)


def _if_key(fan, f):
    text = repr((fan.rays, fan.max_cones, f.vars, sorted(f.terms.items())))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rref_shape(m):
    return (m.rows, m.cols)


# Argument summaries kept on the span; each hook takes the wrapped
# function's parameters.
HOOKS = {IF_POLY: _if_key, RREF: _rref_shape}
# The metrics computed from each hook's summaries.
SUMMARY_METRICS = {
    RREF: (f"{RREF}.cells", f"{RREF}.ops"),
    IF_POLY: (f"{IF_POLY}.repeat_ratio",),
}


def metric_prefix(name):
    """Metric names must start with a letter or digit: `_kernels` -> `kernels`."""
    return name.lstrip("_")


def layer_metric_names():
    """(name, unit) of every per-layer metric the traced pass reports."""
    out = []
    for name in WRAPPED:
        prefix = metric_prefix(name)
        out.append((f"{prefix}.calls", "count"))
        out.append((f"{prefix}.self_s", "s"))
        if name in WITH_TOTAL:
            out.append((f"{prefix}.total_s", "s"))
        if name in WITH_ERRORS:
            out.append((f"{prefix}.errors", "count"))
    out.append((f"{RREF}.cells", "count"))
    # computed as rows * cols * min(rows, cols), not counted in the kernel
    out.append((f"{RREF}.ops", "count"))
    out += [(metric, "ratio") for metric, *_ in RATIOS]
    out.append((f"{IF_POLY}.repeat_ratio", "ratio"))
    return out


def _package_modules():
    import toricbundle  # noqa: F401  (imports the core modules)

    for extra in ("catalog", "serialize", "cli"):
        importlib.import_module(f"toricbundle.{extra}")
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None
        and (name == "toricbundle" or name.startswith("toricbundle."))
    ]


def resolve(name):
    """(owner, attribute, function) for a wrap-table name, or None."""
    mod_name, _, attr_path = name.partition(".")
    try:
        mod = importlib.import_module(f"toricbundle.{mod_name}")
    except ImportError:
        return None
    owner, _, attr = attr_path.rpartition(".")
    if owner:
        cls = getattr(mod, owner, None)
        fn = vars(cls).get(attr) if isinstance(cls, type) else None
        return (cls, attr, fn) if callable(fn) else None
    fn = getattr(mod, attr, None)
    return (mod, attr, fn) if callable(fn) else None


class Recorder:
    """Spans and per-name totals for one pass."""

    def __init__(self):
        self.spans = []  # (id, parent id, job, name, start, end, self_s, attr)
        self.stack = []  # open frames: [span id, time covered by children]
        self.job = None
        self.errors = dict.fromkeys(WRAPPED, 0)
        self.absent = []
        # hooked name -> calls whose arguments the hook could not summarise
        self.unsummarised = {}
        self._patched = []  # (owner, attribute, original)
        self._next_id = 0

    def _wrap(self, name, fn):
        rec = self
        hook = HOOKS.get(name)

        def summary(args, kwargs):
            try:
                return hook(*args, **kwargs)
            except Exception:  # the signature moved on: no summary
                rec.unsummarised[name] = rec.unsummarised.get(name, 0) + 1
                return None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attr = summary(args, kwargs) if hook else None
            sid = rec._next_id
            rec._next_id += 1
            parent = rec.stack[-1] if rec.stack else None
            frame = [sid, 0.0]
            rec.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                rec.stack.pop()
                if parent is not None:
                    parent[1] += end - start
                rec.spans.append((
                    sid, parent[0] if parent else None, rec.job, name,
                    start, end, end - start - frame[1], attr,
                ))

        return traced

    def install(self):
        modules = _package_modules()
        for name in WRAPPED:
            found = resolve(name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def metrics(self):
        """Per-layer metric values computed from the recorded spans.

        A metric computed from a hook's summaries is left out when the hook
        failed on any call, so that it never reads as a drop to 0.
        """
        calls = dict.fromkeys(WRAPPED, 0)
        self_s = dict.fromkeys(WRAPPED, 0.0)
        total_s = dict.fromkeys(WRAPPED, 0.0)
        name_of, parent_of = {}, {}
        cells = ops = 0
        seen, repeats = set(), 0
        for sid, parent, _job, name, start, end, own, attr in self.spans:
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
            name_of[sid], parent_of[sid] = name, parent
            if attr is None:
                continue
            if name == RREF:
                rows, cols = attr
                cells += rows * cols
                ops += rows * cols * min(rows, cols)
            elif name == IF_POLY:
                repeats += attr in seen
                seen.add(attr)

        def ancestors(sid):
            out = set()
            sid = parent_of[sid]
            while sid is not None:
                out.add(name_of[sid])
                sid = parent_of[sid]
            return out

        under = {}
        wanted = {(num, anc) for _, num, anc, _, _ in RATIOS}
        wanted |= {(den, anc) for _, _, _, den, anc in RATIOS if anc}
        names = {n for n, _ in wanted}
        for sid, name in name_of.items():
            if name in names:
                above = ancestors(sid)
                for n, anc in wanted:
                    if n == name and anc in above:
                        under[(n, anc)] = under.get((n, anc), 0) + 1

        values = {}
        for name in WRAPPED:
            prefix = metric_prefix(name)
            values[f"{prefix}.calls"] = calls[name]
            values[f"{prefix}.self_s"] = self_s[name]
            if name in WITH_TOTAL:
                values[f"{prefix}.total_s"] = total_s[name]
            if name in WITH_ERRORS:
                values[f"{prefix}.errors"] = self.errors[name]
        values[f"{RREF}.cells"] = cells
        values[f"{RREF}.ops"] = ops
        bases = {}
        for metric, num, anc, den, den_anc in RATIOS:
            top = under.get((num, anc), 0)
            bottom = under.get((den, den_anc), 0) if den_anc else calls[den]
            bases[metric] = (top, bottom)
        bases[f"{IF_POLY}.repeat_ratio"] = (repeats, calls[IF_POLY])
        for metric, (top, bottom) in bases.items():
            values[metric] = top / bottom if bottom else 0.0
        for name in self.unsummarised:
            for metric in SUMMARY_METRICS[name]:
                values.pop(metric)
                bases.pop(metric, None)
        return values, bases

    def dump(self, path):
        """Write every span as one JSON line."""
        keys = ("id", "parent", "job", "name", "start", "end", "self_s", "attr")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
