"""Span recorder that times voxloc's public functions from outside.

``install(tracer)`` replaces each traced function wherever the package
looks it up: a class attribute for methods, and every ``voxloc.*``
module attribute bound to the same function object for plain functions
(so ``voxloc.uncertainty.rigid_apply`` and ``voxloc.pipeline.downsample_to``
are both covered). Nothing in ``src/`` changes.

Each call records one span ``[name, start, end, parent]``, with
``parent`` the index of the enclosing traced call or -1. Derived
quantities (bytes moved, input digests, heatmap support, FLOPs) are
computed by hooks that run after the call returns, inside a
``trace.hook`` span of their own, so they count as a child of the
enclosing call and never as its self time. Spans stay in memory and are
written once, by ``Tracer.dump``.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import importlib
import json
import math
import sys
import time

MIB = float(1 << 20)

# "<module under voxloc>.<qualified name>"; each is also the prefix of its metrics
TRACED = (
    "phantom.generate_phantom",
    "volume.write_volume",
    "volume.read_volume",
    "volume.downsample_to",
    "pipeline.run_pipeline",
    "pipeline.largest_connected_component",
    "predictors.TruthMaskSegmenter.predict",
    "predictors.MarkerLocalizer.predict",
    "predictors.MarkerLocalizer.detect",
    "predictors.oracle_localize",
    "predictors.ConvNetLocalizer.predict",
    "heatmap.gaussian_heatmap",
    "heatmap.argmax_position",
    "transforms.sample_transform",
    "transforms.rigid_apply",
    "transforms.intensity_apply_inverse",
    "uncertainty.run_mode",
)

# traced functions whose spans contain other traced spans
WITH_CHILDREN = ("pipeline.run_pipeline", "uncertainty.run_mode", "predictors.MarkerLocalizer.predict")

HOOK = "trace.hook"
RUN_MODE = "uncertainty.run_mode"


class Tracer:
    """In-memory spans plus named counters, for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: collections.Counter = collections.Counter()
        self.counters: collections.Counter = collections.Counter()
        self.digests: set = set()
        self.missing: list[str] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.active[name] += 1
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        self.active[span[0]] -= 1

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                h = self._open(HOOK)
                try:
                    hook(self, args, out)
                finally:
                    self._close(h)
            return out

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "counters": dict(self.counters), "missing": self.missing},
                fh,
            )


# ---------------------------------------------------------------------------
# hooks: derived per-layer quantities, computed outside the traced call
# ---------------------------------------------------------------------------


def _volume_mib(v) -> float:
    return math.prod(v.dims) * 4 / MIB  # payloads are float32 on disk


def _hook_write(tr: Tracer, args, out) -> None:
    tr.counters["volume.write_volume.mb"] += _volume_mib(args[0])


def _hook_read(tr: Tracer, args, out) -> None:
    tr.counters["volume.read_volume.mb"] += _volume_mib(out)


def _hook_rigid(tr: Tracer, args, out) -> None:
    v = args[1]
    n = math.prod(v.dims)
    # input, output and the (3, N) float64 coordinate array the call builds
    tr.counters["transforms.rigid_apply.mb_computed"] += (v.data.nbytes + out.data.nbytes + 3 * n * 8) / MIB


def _hook_detect(tr: Tracer, args, out) -> None:
    data = args[1].data
    data = data if data.flags.c_contiguous else data.copy(order="C")
    tr.digests.add((data.shape, data.dtype.str, hashlib.sha1(data).digest()))
    tr.counters["predictors.MarkerLocalizer.detect.distinct_inputs"] = len(tr.digests)


def _hook_sample_heatmap(tr: Tracer, args, out) -> None:
    if tr.active[RUN_MODE]:
        tr.counters["heatmap.sample_voxels"] += out.data.size
        tr.counters["heatmap.sample_nonzero"] += int((out.data != 0).sum())


def _hook_convnet(tr: Tracer, args, out) -> None:
    _hook_sample_heatmap(tr, args, out)
    net, v = args[0], args[1]
    n = math.prod(v.dims)
    k3 = net.spec.kernel_size**3
    in_ch = (1,) + net.spec.channels[:-1]
    macs = sum(c_in * c_out * k3 for c_in, c_out in zip(in_ch, net.spec.channels)) * n
    tr.counters["predictors.ConvNetLocalizer.gflop"] += 2.0 * macs / 1e9


HOOKS = {
    "volume.write_volume": _hook_write,
    "volume.read_volume": _hook_read,
    "transforms.rigid_apply": _hook_rigid,
    "predictors.MarkerLocalizer.detect": _hook_detect,
    "predictors.MarkerLocalizer.predict": _hook_sample_heatmap,
    "predictors.ConvNetLocalizer.predict": _hook_convnet,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each place voxloc looks it up."""
    importlib.import_module("voxloc.experiment")  # pulls in every module
    modules = [m for name, m in sys.modules.items() if name == "voxloc" or name.startswith("voxloc.")]
    for name in TRACED:
        mod_name, qualname = name.split(".", 1)
        owner = importlib.import_module(f"voxloc.{mod_name}")
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.missing.append(name)
            continue
        wrapped = tracer.wrap(name, original, HOOKS.get(name))
        if outer:  # a method: the class attribute is the only lookup site
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
