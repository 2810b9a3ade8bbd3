"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps every public function of each dampgp module and
rebinds every by-name reference to it across the package, so calls made
through ``from .models import predict_torque_batch`` are timed as well.
Kernel ``pairwise`` methods are wrapped on the classes of the objects that
``output_kernel(m)`` returns.  Spans are aggregated as they close: per
function the call count, total time, self time (total minus the time of
wrapped children) and the work counters below.  ``uninstall`` restores
every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("bench", "kernels", "gp_core", "models", "passivity", "modelio", "charts", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counters taken from a finished call: span name -> (args, kwargs, result) -> dict.
COUNTERS = {
    "bench.generate_dataset": lambda a, k, r: {"rows": r.n_samples},
    "bench.read_dataset": lambda a, k, r: {"rows": r.n_samples},
    "bench.write_dataset": lambda a, k, r: {"rows": _arg(a, k, 1, "data").n_samples},
    # a[0] is the kernel object: pairwise is wrapped as a method.
    "kernels.pairwise": lambda a, k, r: {"entries": len(a[1]) * len(a[2])},
    "gp_core.factorize": lambda a, k, r: {
        "flops": len(_arg(a, k, 0, "gram")) ** 3 / 3.0,
        "jittered": int(r.jitter_used > 0),
    },
    "models.optimize_hypervariances": lambda a, k, r: {"evals": r.n_evaluations},
    "models.predict_torque_batch": lambda a, k, r: {"points": len(r)},
    "passivity.enforce_bound": lambda a, k, r: {"projected": int(r.alpha < 1.0)},
    "passivity.passivity_sweep": lambda a, k, r: {
        "points": len(r.points),
        "violations": r.violation_count,
    },
}


class Tracer:
    """Wraps the package's public functions while installed and aggregates spans."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, s, self_s]
        self.counts = defaultdict(lambda: defaultdict(float))  # name -> counter -> total
        self.outer_s = defaultdict(float)  # layer -> time in spans whose parent is another layer
        self._stack = []  # open spans: [child seconds, layer]
        self._patches = []  # (owner, attribute, original, owner had its own attribute)
        self._pairwise_classes = set()

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        rec = self.stats[name]
        counter = COUNTERS.get(name)
        counts = self.counts[name]
        stack = self._stack
        outer_s = self.outer_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if not stack or stack[-1][1] != layer:
                    outer_s[layer] += dur
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def _hook_pairwise(self, cls) -> None:
        if cls not in self._pairwise_classes:
            self._pairwise_classes.add(cls)
            self._patch(cls, "pairwise", self._wrap("kernels.pairwise", cls.pairwise))

    def install(self) -> None:
        originals = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"dampgp.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dampgp" or n.startswith("dampgp."))]
        for mod in package:
            for name, value in list(vars(mod).items()):
                hit = originals.get(id(value)) if inspect.isfunction(value) else None
                if hit is not None and hit[0] is value:
                    self._patch(mod, name, hit[1])
        kernels = sys.modules["dampgp.kernels"]
        for cls in vars(kernels).values():
            if inspect.isclass(cls) and "output_kernel" in vars(cls):
                self._patch(cls, "output_kernel", self._output_kernel_hook(cls.output_kernel))

    def _output_kernel_hook(self, original):
        @functools.wraps(original)
        def output_kernel(kernel, m):
            km = original(kernel, m)
            self._hook_pairwise(type(km))
            return km

        return output_kernel

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._pairwise_classes.clear()

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}, summed over every traced call."""
        stats, counts = self.stats, self.counts
        out = {}

        def calls(name):
            out[f"{name}.calls"] = (stats[name][0], "count")

        def secs(name, key=None):
            out[f"{key or name}.s"] = (stats[name][1], "s")

        def self_secs(name):
            out[f"{name}.self_s"] = (stats[name][2], "s")

        def ratio(num, den):
            return num / den if den else 0.0

        calls("bench.get_system"); secs("bench.get_system")
        calls("bench.generate_dataset"); secs("bench.generate_dataset")
        out["bench.generate_dataset.rows"] = (counts["bench.generate_dataset"]["rows"], "count")
        io = ("bench.read_dataset", "bench.write_dataset")
        out["bench.dataset_io.s"] = (sum(stats[n][1] for n in io), "s")
        out["bench.dataset_io.rows"] = (sum(counts[n]["rows"] for n in io), "count")

        pw = "kernels.pairwise"
        entries = counts[pw]["entries"]
        calls(pw); secs(pw)
        out[f"{pw}.entries"] = (entries, "count")
        out[f"{pw}.entries_per_s"] = (ratio(entries, stats[pw][1]), "1/s")

        calls("gp_core.assemble_gram"); secs("gp_core.assemble_gram"); self_secs("gp_core.assemble_gram")
        fz = "gp_core.factorize"
        calls(fz); secs(fz)
        out[f"{fz}.gflops"] = (ratio(counts[fz]["flops"], stats[fz][1]) / 1e9, "GFLOP/s")
        out[f"{fz}.jitter_frac"] = (ratio(counts[fz]["jittered"], stats[fz][0]), "ratio")

        opt = "models.optimize_hypervariances"
        calls(opt); secs(opt); self_secs(opt)
        out[f"{opt}.evals"] = (counts[opt]["evals"], "count")
        calls("models.fit"); secs("models.fit"); self_secs("models.fit")
        pb = "models.predict_torque_batch"
        calls(pb); secs(pb)
        out[f"{pb}.points"] = (counts[pb]["points"], "count")

        calls("passivity.compute_bound"); secs("passivity.compute_bound")
        eb = "passivity.enforce_bound"
        calls(eb); secs(eb)
        out[f"{eb}.projected_frac"] = (ratio(counts[eb]["projected"], stats[eb][0]), "ratio")
        sw = "passivity.passivity_sweep"
        calls(sw); secs(sw)
        out[f"{sw}.points"] = (counts[sw]["points"], "count")
        out[f"{sw}.violations"] = (counts[sw]["violations"], "count")

        secs("modelio.save_model")
        secs("modelio.load_model"); self_secs("modelio.load_model")
        out["charts.s"] = (self.outer_s["charts"], "s")
        for cmd in ("cmd_generate", "cmd_fit", "cmd_evaluate", "cmd_power"):
            secs(f"cli.{cmd}")
        out["cli.self_s"] = (sum(v[2] for n, v in stats.items() if n.startswith("cli.")), "s")
        return out
