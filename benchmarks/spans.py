"""Per-layer tracing by rebinding the package's module attributes.

The tracer wraps public functions of each ``wavegplm`` module, and the
methods of the exponential families, from outside the package: every
module attribute that refers to a wrapped function is rebound to the
wrapper, so calls made between modules (``simulate`` calling
``backfit``, ``backfit`` calling ``dwt``) pass through it. Each call
records a span ``[name, start, end, parent]``; spans stay in memory and
self time is derived from them after the run. Nothing in ``src/`` knows
about the tracer.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("wavegplm", "wavegplm.wavelet", "wavegplm.estimator",
           "wavegplm.families", "wavegplm.simulate", "wavegplm.cli")

# span name -> (module, function); the layer is the part before the dot
FUNCTIONS = {
    "wavelet.dwt": ("wavegplm.wavelet", "dwt"),
    "wavelet.idwt": ("wavegplm.wavelet", "idwt"),
    "estimator.backfit": ("wavegplm.estimator", "backfit"),
    "estimator.functional_step": ("wavegplm.estimator", "functional_step"),
    "estimator.per_coefficient_thresholds": ("wavegplm.estimator", "per_coefficient_thresholds"),
    "estimator.linear_step": ("wavegplm.estimator", "linear_step"),
    "estimator.criterion_value": ("wavegplm.estimator", "criterion_value"),
    "simulate.run_monte_carlo": ("wavegplm.simulate", "run_monte_carlo"),
    "simulate.calibrate_threshold": ("wavegplm.simulate", "calibrate_threshold"),
    "cli.main": ("wavegplm.cli", "main"),
    "cli.read_dataset": ("wavegplm.cli", "read_dataset"),
}

# Family methods; counted together as ``families.calls``
FAMILY_METHODS = ("mean", "b_ddot", "cumulant", "loglik")
# Family.sample draws the responses of a replication: ``simulate.y_draws``
SAMPLE_SPAN = "simulate.y_draw"


def _transform_flops(coeffs, filt) -> int:
    """Multiply-adds x 2 of the pyramid transform behind ``coeffs``: a
    stage on m samples runs both filters over m/2 outputs, 2 m L flops,
    for m = n, n/2, ..., 2^(j0+1); times the number of signals."""
    layout = coeffs.layout
    signals = np.size(coeffs.values) // layout.n
    return 2 * len(filt) * signals * (2 * layout.n - (2 << layout.coarse_level))


def _dwt_flops(args, result):
    return _transform_flops(result, args[1])


def _idwt_flops(args, result):
    return _transform_flops(args[0], args[1])


class Tracer:
    """Installs span-recording wrappers and derives per-layer figures."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []          # indices of open spans
        self.flops = defaultdict(int)
        self.fit_outcome = {}    # backfit span index -> converged / cap / diverged
        self._restore = []

    def reset(self):
        """Forget what was recorded so far (the set-up's calls)."""
        self.spans.clear()
        self.flops.clear()
        self.fit_outcome.clear()

    # -- installation ---------------------------------------------------
    def install(self):
        modules = {name: importlib.import_module(name) for name in MODULES}
        families = modules["wavegplm.families"]
        fit_error = importlib.import_module("wavegplm.errors").FitError
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(modules[module], attr, None)
            if original is None:    # gone from the package: its figures read 0
                continue
            hooks = {}
            if name == "wavelet.dwt":
                hooks["work"] = _dwt_flops
            elif name == "wavelet.idwt":
                hooks["work"] = _idwt_flops
            elif name == "estimator.backfit":
                hooks["outcome"] = lambda fit: "converged" if fit.converged else "cap"
                hooks["error"] = fit_error
            wrapper = self._wrap(original, name, **hooks)
            for module in modules.values():
                for attr_name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr_name, original))
                        setattr(module, attr_name, wrapper)
        for cls in (families.Family, families.Gaussian, families.Binomial,
                    families.Poisson):
            for attr in FAMILY_METHODS + ("sample",):
                if attr in vars(cls):
                    name = SAMPLE_SPAN if attr == "sample" else f"families.{attr}"
                    original = vars(cls)[attr]
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, original, name, work=None, outcome=None, error=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if error is not None and isinstance(exc, error):
                    self.fit_outcome[index] = "diverged"
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if work is not None:
                self.flops[name] += work(args, result)
            if outcome is not None:
                self.fit_outcome[index] = outcome(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- derived figures ------------------------------------------------
    def write(self, path):
        """Write the spans as tab-separated ``index parent name start end``."""
        with open(path, "w") as handle:
            handle.write("index\tparent\tname\tstart\tend\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures, each per round of the workload."""
        spans = self.spans
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(spans)
        iterations = defaultdict(int)    # backfit span -> outer iterations
        in_fit = [False] * len(spans)    # span has a backfit ancestor
        fit_transforms = 0
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
                in_fit[i] = in_fit[parent] or spans[parent][0] == "estimator.backfit"
                if name == "estimator.linear_step" and spans[parent][0] == "estimator.backfit":
                    iterations[parent] += 1
            if in_fit[i] and name in ("wavelet.dwt", "wavelet.idwt"):
                fit_transforms += 1
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            self_time[name] += end - start - child[i]

        def layer_self(layer):
            return sum(t for name, t in self_time.items() if name.startswith(layer + "."))

        fits = calls["estimator.backfit"]
        outcomes = list(self.fit_outcome.values())
        per_fit = [iterations[i] for i, s in enumerate(spans) if s[0] == "estimator.backfit"]
        total_iterations = sum(per_fit)
        kernel_s = total["wavelet.dwt"] + total["wavelet.idwt"]
        flops = self.flops["wavelet.dwt"] + self.flops["wavelet.idwt"]
        r = float(rounds)
        return {
            "wavelet.dwt.calls": (calls["wavelet.dwt"] / r, "count"),
            "wavelet.idwt.calls": (calls["wavelet.idwt"] / r, "count"),
            "wavelet.transforms_per_iteration": (
                fit_transforms / total_iterations if total_iterations else 0.0, "count"),
            "wavelet.dwt.us_per_call": (
                1e6 * total["wavelet.dwt"] / max(calls["wavelet.dwt"], 1), "us"),
            "wavelet.idwt.us_per_call": (
                1e6 * total["wavelet.idwt"] / max(calls["wavelet.idwt"], 1), "us"),
            "wavelet.self_s": (layer_self("wavelet") / r, "s"),
            "wavelet.gflops_computed": (flops / kernel_s / 1e9 if kernel_s else 0.0, "GFLOP/s"),
            "estimator.fits": (fits / r, "count"),
            "estimator.converged": (outcomes.count("converged") / r, "count"),
            "estimator.cap": (outcomes.count("cap") / r, "count"),
            "estimator.diverged": (outcomes.count("diverged") / r, "count"),
            "estimator.converged_ratio": (
                outcomes.count("converged") / fits if fits else 0.0, "ratio"),
            "estimator.iterations": (total_iterations / r, "count"),
            "estimator.iterations_per_fit": (
                float(statistics.median(per_fit)) if per_fit else 0.0, "count"),
            "estimator.ms_per_iteration": (
                1e3 * total["estimator.backfit"] / total_iterations if total_iterations else 0.0,
                "ms"),
            **{f"{name}.self_s": (self_time[name] / r, "s") for name in (
                "estimator.functional_step", "estimator.per_coefficient_thresholds",
                "estimator.linear_step", "estimator.criterion_value", "estimator.backfit")},
            "families.calls": (
                sum(calls[f"families.{m}"] for m in FAMILY_METHODS) / r, "count"),
            "families.self_s": (layer_self("families") / r, "s"),
            "simulate.y_draws": (calls[SAMPLE_SPAN] / r, "count"),
            "simulate.self_s": (layer_self("simulate") / r, "s"),
            "cli.read_dataset_s": (total["cli.read_dataset"] / r, "s"),
            "cli.self_s": (self_time["cli.main"] / r, "s"),
        }
