"""Outside-in tracer for fhalloc: spans around calls into public functions.

The program is not edited.  Each traced function is wrapped and the wrapper
is bound in place of the original in every ``fhalloc.*`` module namespace
that holds it (matched by identity), so calls that one module makes into
another through a ``from .x import f`` binding are seen too.  Two methods,
``RngStream.generator`` and ``SystemConfig.from_snr``, are wrapped on their
classes.

Spans live in memory as parallel arrays (name, start, end, parent, run id)
and are written out by ``save``.  A span's run id is the index of its root
span, so all spans of one top-level call share it.  Self time is a span's
duration minus the time its direct child spans cover.

Tracing overhead is the span count times ``span_cost``, the cost of one
wrapper measured on a no-op in the same interpreter.  (Traced minus
untraced wall time of a whole study is smaller than the run-to-run noise
on fig4-serial, and has no same-worker reference on fig2-pool.)

Forked pool workers inherit the wrappers but keep their spans, so a traced
study runs its cells inline.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

# (layer, name) pairs traced in a full trace; the layer is the fhalloc module
# that defines the function.
TRACED = (
    ("sysmodel", "generator"),
    ("sysmodel", "from_snr"),
    ("sysmodel", "draw_complex_gaussian"),
    ("channel", "estimate_channel"),
    ("channel", "gamma_coefficient"),
    ("quantization", "aqnm_quantize"),
    ("quantization", "eta_of_bits"),
    ("precoding", "estimate_moments_mc"),
    ("precoding", "mrt_moments"),
    ("precoding", "build_precoder"),
    ("precoding", "rank_deficient_mask"),
    ("precoding", "transmit_rescale"),
    ("se", "mc_hardening_sinr"),
    ("se", "closed_form_mrt_sinr"),
    ("allocation", "line_search"),
    ("experiments", "optimize_split"),
    ("experiments", "run_cells"),
    ("experiments", "write_outputs"),
    ("cli", "main"),
)


def _batch_count(H_d) -> int:
    count = 1
    for n in H_d.shape[:-2]:
        count *= int(n)
    return count


class Tracer:
    """Records one span per call into the traced functions of fhalloc."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.stream_ids: set = set()
        self._stack = [-1]
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def install(self, only=TRACED) -> "Tracer":
        """Wrap every (layer, name) in `only`; fhalloc must be imported."""
        from fhalloc import sysmodel

        for layer, name in only:
            label = f"{layer}.{name}"
            if (layer, name) == ("sysmodel", "generator"):
                orig = sysmodel.RngStream.__dict__["generator"]
                self._set(sysmodel.RngStream, "generator", orig, self._wrap(label, orig, self._see_stream))
            elif (layer, name) == ("sysmodel", "from_snr"):
                orig = sysmodel.SystemConfig.__dict__["from_snr"]
                wrapped = classmethod(self._wrap(label, orig.__func__))
                self._set(sysmodel.SystemConfig, "from_snr", orig, wrapped)
            else:
                module = sys.modules[f"fhalloc.{layer}"]
                orig = getattr(module, name)
                wrapped = self._wrap(label, orig, self._observer(label, orig))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "fhalloc" and not mod_name.startswith("fhalloc."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, orig, wrapped)
        return self

    def uninstall(self) -> None:
        """Restore every binding install replaced."""
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _set(self, owner, attr, orig, wrapped) -> None:
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def _wrap(self, label: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(label)
        name_id, parent, run, start, end = self.name_id, self.parent, self.run, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            p = stack[-1]
            name_id.append(nid)
            parent.append(p)
            run.append(i if p < 0 else run[p])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- counters measured where the work happens -------------------------

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _see_stream(self, args, kwargs, result) -> None:
        stream = args[0]
        sid = stream.stream_id if isinstance(stream.stream_id, tuple) else (stream.stream_id,)
        self.stream_ids.add((stream.master_seed, sid))

    def _observer(self, label: str, fn):
        if label in ("precoding.build_precoder", "precoding.rank_deficient_mask"):
            return lambda a, k, r: self._add(f"{label}.matrices", _batch_count(a[0] if a else k["H_d"]))
        if label == "allocation.line_search":
            return lambda a, k, r: self._add(f"{label}.candidates", len(r.profile))
        if label == "se.mc_hardening_sinr":

            def see_report(a, k, r):
                self._add("se.trials", r.trials)
                self._add("se.redraws", r.redraws)

            return see_report
        if label == "experiments.write_outputs":
            sig = inspect.signature(fn)

            def see_files(a, k, r):
                bound = sig.bind(*a, **k).arguments
                out = Path(bound["out_dir"])
                files = list(r["outputs"]) + [f"{bound['stem']}_meta.json"]
                self._add(f"{label}.bytes", sum((out / f).stat().st_size for f in files))

            return see_files
        return None

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """Span arrays as numpy arrays, plus per-span duration and self time."""
        import numpy as np

        parent = np.asarray(self.parent)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {
            "name_id": np.asarray(self.name_id),
            "parent": parent,
            "run": np.asarray(self.run),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def summary(self) -> dict:
        """Per-function calls, busy seconds and self seconds, keyed by label."""
        import numpy as np

        s = self.spans()
        n = len(self.names)
        calls = np.bincount(s["name_id"], minlength=n)
        busy = np.bincount(s["name_id"], weights=s["dur"], minlength=n)
        self_s = np.bincount(s["name_id"], weights=s["self"], minlength=n)
        out = {}
        for i, label in enumerate(self.names):
            out[label] = {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_s[i])}
        return out

    def save(self, path) -> None:
        """Write the spans to an .npz file: names, name_id, parent, run, start, end."""
        import numpy as np

        s = self.spans()
        np.savez(
            path,
            names=np.array(self.names),
            **{key: s[key] for key in ("name_id", "parent", "run", "start", "end")},
        )


def span_cost(calls: int = 200_000) -> float:
    """Seconds a wrapper adds to one call, timed on a no-op in this interpreter."""

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
