"""Timing wrappers around graftcert's public functions, for traced runs only.

``Tracer.install`` rebinds, in every graftcert module namespace, the names
listed in ``TRACED`` to wrappers that record one span per call: name, start,
end, parent span and example id.  Calls made inside a module go through its
globals, so they are caught too (``bab_verify`` -> ``verifier.forward_batch``).
``Tracer.uninstall`` puts every original back.  Spans and counters stay in
memory; ``write`` saves them and ``layer_metrics`` aggregates them.
"""

from __future__ import annotations

import array
import gzip
import importlib
import sys
import time
import types
from collections import defaultdict

# layer -> public functions timed at its boundary
TRACED = {
    "data": ("load_dataset",),
    "network": (
        "forward_batch", "backward_batch",
        "network_to_dict", "network_from_dict", "save_checkpoint", "load_checkpoint",
    ),
    "bounds": (
        "ibp", "compute_bounds", "crown_lower_bound",
        "intersect_bounds", "classify_neurons", "tally_stability",
    ),
    "verifier": ("pgd_attack", "bab_verify"),
    "training": ("train", "finetune_grafted"),
    "grafting": ("score_neurons", "select_neurons", "baseline_select"),
    "pipeline": ("run_pipeline", "evaluate_network", "report", "_verify_example"),
    "cli": ("default_config",),
}

_SERIALIZE = {
    "network.network_to_dict", "network.network_from_dict",
    "network.save_checkpoint", "network.load_checkpoint",
}
_NETWORK = {"network.forward_batch", "network.backward_batch"}
_BOUNDS = {f"bounds.{f}" for f in TRACED["bounds"]}
# spans whose nested network / bounds time is reported separately
_ANCHORS = ("verifier.bab_verify", "training.train", "training.finetune_grafted")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rows(c, name, args, kwargs, result):
    c[f"{name}.rows"] += _arg(args, kwargs, 1, "x").shape[0]


def _count_attack(c, name, args, kwargs, result):
    c[f"{name}.found"] += result is not None


def _count_bab(c, name, args, kwargs, result):
    status = getattr(result.status, "value", result.status)
    c[f"{name}.domains"] += result.domains_explored
    c[f"{name}.root_decided"] += result.domains_explored == 1
    c[f"{name}.timeouts"] += status == "timeout"
    if status == "verified":
        c[f"{name}.verified"] += 1
        c[f"{name}.verified_domains"] += result.domains_explored


def _count_training(c, name, args, kwargs, result):
    dataset = _arg(args, kwargs, 1, "dataset")
    n = len(dataset.features) if hasattr(dataset, "features") else len(dataset[0])
    c["training.examples"] += _arg(args, kwargs, 2, "cfg").epochs * n


_COUNTERS = {
    "network.forward_batch": _count_rows,
    "network.backward_batch": _count_rows,
    "verifier.pgd_attack": _count_attack,
    "verifier.bab_verify": _count_bab,
    "training.train": _count_training,
    "training.finetune_grafted": _count_training,
}


class Tracer:
    """Spans are kept column-wise in typed arrays; a span's index is its id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.example = array.array("l")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._example = -1
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._saved = rebind(self._wrap, TRACED)

    def uninstall(self) -> None:
        restore(self._saved)

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        count = _COUNTERS.get(name)
        sets_example = name == "pipeline._verify_example"
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_col.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            outer_example = self._example
            if sets_example:
                self._example = int(_arg(args, kwargs, 0, "payload")["index"])
            self.example.append(self._example)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._example = outer_example
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                count(self.counters, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """One CSV row per span: id,name,start,end,parent,example."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,example\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_col[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.example[i]}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate spans and counters into the per-layer metric values."""
        n = len(self.start)
        names = [self.names[k] for k in self.name_col]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        anchor = [-1] * n
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        nested: dict[str, float] = defaultdict(float)
        serialize = 0.0
        for i in range(n):
            p = self.parent[i]
            name = names[i]
            if p >= 0:
                child[p] += dur[i]
            anchor[i] = i if name in _ANCHORS else (anchor[p] if p >= 0 else -1)
            calls[name] += 1
            total[name] += dur[i]
            outer = p < 0 or names[p].split(".")[0] != name.split(".")[0]
            if name in _SERIALIZE and (p < 0 or names[p] not in _SERIALIZE):
                serialize += dur[i]
            a = anchor[p] if p >= 0 else -1
            if outer and a >= 0:
                if name in _NETWORK:
                    nested[f"{names[a]}.network_s"] += dur[i]
                elif name in _BOUNDS:
                    nested[f"{names[a]}.bounds_s"] += dur[i]
        for i in range(n):
            self_s[names[i]] += dur[i] - child[i]
        # _verify_example is only wrapped to tag spans with the example id;
        # its own time belongs to evaluate_network, which runs it in-process
        self_s["pipeline.evaluate_network"] += self_s.pop("pipeline._verify_example", 0.0)

        c = self.counters
        out: dict[str, float] = {}
        for f in ("forward_batch", "backward_batch"):
            key = f"network.{f}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.rows"] = c[f"{key}.rows"]
            out[f"{key}.self_s"] = self_s[key]
        out["network.serialize_s"] = serialize
        for f in TRACED["bounds"]:
            out[f"bounds.{f}.calls"] = calls[f"bounds.{f}"]
            out[f"bounds.{f}.self_s"] = self_s[f"bounds.{f}"]
        key = "verifier.pgd_attack"
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_s"] = self_s[key]
        out[f"{key}.found"] = c[f"{key}.found"]
        key = "verifier.bab_verify"
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.total_s"] = total[key]
        out[f"{key}.self_s"] = self_s[key]
        out[f"{key}.network_s"] = nested[f"{key}.network_s"]
        out[f"{key}.bounds_s"] = nested[f"{key}.bounds_s"]
        out[f"{key}.domains"] = c[f"{key}.domains"]
        out[f"{key}.domains_per_s"] = c[f"{key}.domains"] / total[key] if total[key] else 0.0
        out[f"{key}.root_decided"] = c[f"{key}.root_decided"]
        out[f"{key}.timeouts"] = c[f"{key}.timeouts"]
        verified = c[f"{key}.verified"]
        out[f"{key}.domains_per_verified"] = (
            c[f"{key}.verified_domains"] / verified if verified else 0.0
        )
        for f in TRACED["training"]:
            key = f"training.{f}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.total_s"] = total[key]
            out[f"{key}.self_s"] = self_s[key]
            out[f"{key}.network_s"] = nested[f"{key}.network_s"]
        train_s = total["training.train"] + total["training.finetune_grafted"]
        out["training.examples_per_s"] = c["training.examples"] / train_s if train_s else 0.0
        for f in TRACED["grafting"]:
            out[f"grafting.{f}.total_s"] = total[f"grafting.{f}"]
        out["data.load_dataset.calls"] = calls["data.load_dataset"]
        out["data.load_dataset.total_s"] = total["data.load_dataset"]
        for f in ("run_pipeline", "evaluate_network", "report"):
            out[f"pipeline.{f}.total_s"] = total[f"pipeline.{f}"]
            out[f"pipeline.{f}.self_s"] = self_s[f"pipeline.{f}"]
        return out


def _graftcert_modules() -> list[types.ModuleType]:
    return [
        mod for name, mod in list(sys.modules.items())
        if name == "graftcert" or name.startswith("graftcert.")
    ]


def rebind(wrap, names: dict[str, tuple[str, ...]]) -> list:
    """Rebind, in every graftcert module namespace, each function that
    ``names`` lists (layer -> function names) to ``wrap(span_name, fn)``.
    Returns what ``restore`` needs to put the originals back."""
    wrappers = {}
    for layer, funcs in names.items():
        mod = importlib.import_module(f"graftcert.{layer}")
        for f in funcs:
            fn = getattr(mod, f, None)
            if isinstance(fn, types.FunctionType):
                wrappers[fn] = wrap(f"{layer}.{f}", fn)
    saved = []
    for mod in _graftcert_modules():
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(value) if isinstance(value, types.FunctionType) else None
            if wrapper is not None:
                saved.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    return saved


def restore(saved: list) -> None:
    while saved:
        mod, attr, value = saved.pop()
        setattr(mod, attr, value)


def bound_wrappers() -> list[str]:
    """Names in graftcert modules that are still bound to a perfbench wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _graftcert_modules()
        for attr, value in vars(mod).items()
        if hasattr(value, "perfbench_span")
    ]
