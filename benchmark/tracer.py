"""Outside-in tracer for nlfront.

Wraps public functions and methods of each nlfront module from the outside,
without touching the package's code.  Every call of a wrapped function opens
a span (name, start, end, parent); spans stay in memory until ``write``.
A span's self time is its duration minus the time covered by its child
spans.  Work counts (points, iterations, steps, sweeps) are read from
arguments and return values at the same boundaries.  ``uninstall`` restores
every wrapped attribute and checks that the originals are back.

Each scenario runs in its own process; ``summary`` gives that process's
per-layer totals as plain JSON, and ``metrics`` combines the summaries of
the scenarios of one pass.

The layer of a span is the first part of its name: model, grids, eigen,
steady, freeboundary, semiwave, criteria, cli.
"""
from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import defaultdict


def _bound(target, args, kwargs) -> dict:
    bound = target.signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _cdf_points(tr, tg, args, kwargs, result):
    tr.counts["model.kernel_cdf.points"] += getattr(args[1], "size", 1)


def _conv_cells(tr, tg, args, kwargs, result):
    conv, u = args[0], args[1]
    rows, m = u.size // conv.n, conv._m
    tr.counts["grids.conv_apply.cells"] += u.size
    # computed, not measured: input, zero-padded buffer, forward spectrum,
    # kernel spectrum and inverse output, 8 bytes per real, 16 per complex
    tr.counts["grids.conv_apply.bytes_computed"] += rows * (
        8 * conv.n + 16 * m + 32 * (m // 2 + 1))


def _eigen_iterations(tr, tg, args, kwargs, result):
    tr.counts["eigen.eigenpair.iterations"] += result.iterations


def _critical_length(tr, tg, args, kwargs, result):
    tr.counts["eigen.critical_length.evaluations"] += result.evaluations
    a = _bound(tg, args, kwargs)
    p = a["params"]
    # the inputs lambda1 depends on, plus the search settings and target;
    # mu1, mu2, h0 and the initial profiles play no part
    key = (p.d1, p.d2, p.a, p.b, p.nonlinearity.hp0, p.nonlinearity.gp0,
           p.kernel1, p.kernel2, a["lo"], a["hi_start"], a["lam_tol"],
           a["num_cells"], a["target"])
    tr.crit_keys.append(repr(key))


def _steady_iterations(tr, tg, args, kwargs, result):
    tr.counts["steady.solve_steady.iterations"] += result.iterations


def _evolve_steps(tr, tg, args, kwargs, result):
    horizon = _bound(tg, args, kwargs)["horizon"]
    tr.counts["steady.evolve_fixed.steps"] += round(horizon / result[0].dt)


def _simulate_steps(tr, tg, args, kwargs, result):
    horizon = _bound(tg, args, kwargs)["horizon"]
    tr.counts["freeboundary.simulate.steps"] += math.ceil(horizon / result.dt - 1e-12)


def _classify_steps(tr, tg, args, kwargs, result):
    from nlfront.steady import stability_timestep
    a = _bound(tg, args, kwargs)
    dt = a["dt"] or stability_timestep(a["params"])
    tr.counts["freeboundary.classify.steps"] += round(result.t_decided / dt)
    tr.counts["freeboundary.classify.undecided"] += result.verdict == "undecided"


def _semiwave_work(tr, tg, args, kwargs, result):
    tr.counts["semiwave.solve.sweeps"] += result.sweeps
    tr.counts["semiwave.solve.outer_iterations"] += result.outer_iterations


class _Target:
    """One wrapped attribute: module, dotted attribute path, span name."""

    def __init__(self, module, path, name, hook=None, span=True):
        self.module, self.path, self.name = module, path, name
        self.hook, self.span = hook, span
        self.signature = None


MODULES = ["nlfront", "nlfront.model", "nlfront.grids", "nlfront.eigen", "nlfront.steady",
           "nlfront.freeboundary", "nlfront.semiwave", "nlfront.criteria", "nlfront.cli"]

TARGETS = [
    _Target("nlfront.model", "Kernel.cdf", "model.kernel_cdf", _cdf_points),
    _Target("nlfront.model", "Kernel.partial_first_moment", "model.kernel_pfm"),
    _Target("nlfront.grids", "KernelConvolver.__init__", "grids.conv_build"),
    _Target("nlfront.grids", "KernelConvolver.apply", "grids.conv_apply", _conv_cells),
    _Target("nlfront.grids", "CdfInterpolant.__call__", "grids.cdf_interp"),
    _Target("nlfront.eigen", "principal_eigenpair", "eigen.eigenpair", _eigen_iterations),
    _Target("nlfront.eigen", "DiscreteOperator.matvec", "eigen.matvecs", span=False),
    _Target("nlfront.eigen", "critical_length", "eigen.critical_length", _critical_length),
    _Target("nlfront.eigen", "sweep", "eigen.sweep"),
    _Target("nlfront.steady", "solve_steady", "steady.solve_steady", _steady_iterations),
    _Target("nlfront.steady", "evolve_fixed", "steady.evolve_fixed", _evolve_steps),
    _Target("nlfront.freeboundary", "simulate", "freeboundary.simulate", _simulate_steps),
    _Target("nlfront.freeboundary", "classify", "freeboundary.classify", _classify_steps),
    _Target("nlfront.freeboundary", "symmetrization_mismatch", "freeboundary.mismatch"),
    _Target("nlfront.semiwave", "solve_semiwave", "semiwave.solve", _semiwave_work),
    _Target("nlfront.semiwave", "speed_limits", "semiwave.speed_limits"),
    _Target("nlfront.criteria", "find_ell_star", "criteria.find_ell_star"),
    _Target("nlfront.criteria", "find_mu_star", "criteria.find_mu_star"),
    _Target("nlfront.criteria", "find_d_thresholds", "criteria.find_d_thresholds"),
    _Target("nlfront.criteria", "decision_tree", "criteria.decision_tree"),
    _Target("nlfront.cli", "run", "cli.run"),
]

# span name -> per-layer metrics reported for it
_CALLS = ("model.kernel_cdf", "model.kernel_pfm", "grids.conv_build", "grids.conv_apply",
          "grids.cdf_interp", "eigen.eigenpair", "eigen.critical_length",
          "steady.solve_steady", "steady.evolve_fixed", "freeboundary.simulate",
          "freeboundary.classify", "semiwave.solve")
_SELF = ("model.kernel_cdf", "model.kernel_pfm", "grids.conv_build", "grids.conv_apply",
         "grids.cdf_interp", "eigen.eigenpair", "steady.solve_steady",
         "steady.evolve_fixed", "freeboundary.simulate", "freeboundary.classify",
         "semiwave.solve")
_TOTAL = ("eigen.eigenpair", "eigen.critical_length", "eigen.sweep",
          "semiwave.speed_limits", "criteria.find_ell_star",
          "criteria.find_d_thresholds", "criteria.decision_tree")


class Tracer:
    """Wraps nlfront from ``install`` to ``uninstall`` and keeps the spans."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, child_time]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.crit_keys: list[str] = []   # lambda-relevant inputs of each critical_length call
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, target, orig):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        name, hook = target.name, target.hook

        if not target.span:
            def counted(*args, **kwargs):
                counts[name] += 1
                return orig(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]
            if hook is not None:
                hook(self, target, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for target in TARGETS:
            owner = importlib.import_module(target.module)
            *outer, attr = target.path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            target.signature = inspect.signature(orig)
            wrapper = self._wrap(target, orig)
            self._patch(owner, attr, orig, wrapper)
            if not outer:
                # the same function bound under its name in other nlfront modules
                for mod_name in MODULES:
                    mod = importlib.import_module(mod_name)
                    if mod is not owner and mod.__dict__.get(attr) is orig:
                        self._patch(mod, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
            if owner.__dict__[attr] is not orig:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self and total seconds per span name, counts and solved keys."""
        calls, self_s, total = defaultdict(int), defaultdict(float), defaultdict(float)
        for name, start, end, _parent, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child
        return {"calls": calls, "self_s": self_s, "total_s": total,
                "counts": dict(self.counts), "crit_keys": self.crit_keys}

    def write(self, path) -> None:
        """Spans as CSV: index, name, start and end (s, from the first span), parent, self."""
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["index,name,start_s,end_s,parent,self_s"]
        for i, (name, start, end, parent, child) in enumerate(self.spans):
            lines.append(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},"
                         f"{end - start - child:.9f}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def metrics(summaries: list[dict], traced_wall: float, artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced pass from its scenarios' summaries.

    trace.overhead_frac is left to the caller.
    """
    calls, self_s, total, c = (defaultdict(float) for _ in range(4))
    keys: list[str] = []
    for summary in summaries:
        for acc, part in ((calls, "calls"), (self_s, "self_s"), (total, "total_s"), (c, "counts")):
            for name, value in summary[part].items():
                acc[name] += value
        keys += summary["crit_keys"]
    out: dict[str, float] = {}
    for name in _CALLS:
        out[f"{name}.calls"] = int(calls[name])
    for name in _SELF:
        out[f"{name}.self_s"] = self_s[name]
    for name in _TOTAL:
        out[f"{name}.total_s"] = total[name]
    for key in ("model.kernel_cdf.points", "grids.conv_apply.cells",
                "grids.conv_apply.bytes_computed", "eigen.eigenpair.iterations",
                "eigen.matvecs", "eigen.critical_length.evaluations",
                "steady.solve_steady.iterations", "steady.evolve_fixed.steps",
                "freeboundary.simulate.steps", "freeboundary.classify.steps",
                "semiwave.solve.sweeps", "semiwave.solve.outer_iterations"):
        out[key] = c[key]
    # a call repeats when an earlier call of the pass, in this scenario or an
    # earlier one, had the same lambda-relevant inputs and target
    repeats = len(keys) - len(set(keys))
    n_cls = calls["freeboundary.classify"]
    out["eigen.critical_length.repeat_frac"] = repeats / len(keys) if keys else 0.0
    out["freeboundary.classify.undecided_frac"] = (
        c["freeboundary.classify.undecided"] / n_cls if n_cls else 0.0)
    steps = c["freeboundary.simulate.steps"] + c["freeboundary.classify.steps"]
    fb_self = self_s["freeboundary.simulate"] + self_s["freeboundary.classify"]
    out["freeboundary.self_per_step_us"] = 1e6 * fb_self / steps if steps else 0.0
    layer_self = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".")[0]] += value
    out["criteria.self_s"] = layer_self["criteria"]
    out["cli.self_s"] = layer_self["cli"]
    out["cli.artifact_bytes"] = artifact_bytes
    # share of the traced wall spent inside the layers below cli.run
    out["trace.coverage"] = sum(v for k, v in layer_self.items() if k != "cli") / traced_wall
    return out


def snapshot() -> dict[tuple[str, str], object]:
    """Every attribute of the nlfront modules and of the wrapped classes.

    Comparing two snapshots by identity proves that a traced run left no
    wrapper behind.
    """
    owners = [importlib.import_module(m) for m in MODULES]
    for target in TARGETS:
        if "." in target.path:
            mod = importlib.import_module(target.module)
            owners.append(getattr(mod, target.path.split(".")[0]))
    return {(repr(o), k): v for o in owners for k, v in vars(o).items()}
