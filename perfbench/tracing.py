"""Spans around pebblekit's layer boundaries, recorded from outside the package.

`install` rebinds every pebblekit module attribute that refers to a traced
function, because the package imports its functions by name: `is_solvable`
is bound in `engine`, `numbers` and `harness`, so wrapping one module alone
would miss the calls made from the others. The prescreen is traced on the
`_FastFilter` class, which all callers share.

A span is one call into a layer: its layer, start, end, the span open when
it began (its parent) and two counts. Spans live in flat typed arrays (about
40 bytes each) because one repetition can make a million of them. A layer's
self time is its spans' duration minus the time covered by their children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("harness.claim", "numbers.scan", "numbers.enum",
          "numbers.prescreen.stack", "numbers.prescreen.pair",
          "numbers.sample", "engine.solve", "engine.mincost")
CLAIM, SCAN, ENUM, STACK, PAIR, SAMPLE, SOLVE, MINCOST = range(len(LAYERS))


class Tracer:
    """In-memory span store. Per layer, `n` and `k` hold:
    enum: rows yielded; prescreen: rows screened, rows accepted;
    scan: rows checked; solve: states explored, 1 if solvable.
    `tag` is the demand size for prescreen spans."""

    def __init__(self):
        self.layer = array("B")
        self.tag = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n = array("q")
        self.k = array("q")
        self._open = [-1]

    def begin(self, layer: int, tag: int = 0) -> int:
        i = len(self.layer)
        self.layer.append(layer)
        self.tag.append(tag)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self.n.append(0)
        self.k.append(0)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = perf_counter()
        self._open.pop()

    def arrays(self) -> dict:
        return {name: np.frombuffer(getattr(self, name), dtype=dtype)
                for name, dtype in (("layer", np.uint8), ("tag", np.uint8),
                                    ("parent", np.int32), ("start", np.float64),
                                    ("end", np.float64), ("n", np.int64),
                                    ("k", np.int64))}


def install(tr: Tracer):
    """Trace every call into the enumerator, the prescreen, the sampler, the
    scan loop, the exact engine and min-cost search."""
    from pebblekit import engine, numbers

    solve = engine.is_solvable
    mincost = engine.min_cost_solution
    blocks = numbers._ascending_blocks
    scan_chunk = numbers._scan_chunk
    unrank = numbers.unrank_config
    accept = numbers._FastFilter.accept

    def traced_solve(*args, **kwargs):
        i = tr.begin(SOLVE)
        try:
            out = solve(*args, **kwargs)
        finally:
            tr.close(i)
        tr.n[i] = out.states_explored
        tr.k[i] = out.solvable
        return out

    def traced_mincost(*args, **kwargs):
        i = tr.begin(MINCOST)
        try:
            return mincost(*args, **kwargs)
        finally:
            tr.close(i)

    def traced_blocks(*args, **kwargs):
        # a generator does its work in next(), so each next() is a span
        it = blocks(*args, **kwargs)
        while True:
            i = tr.begin(ENUM)
            try:
                rows = next(it, None)
            finally:
                tr.close(i)
            if rows is None:
                return
            tr.n[i] = rows.shape[0]
            yield rows

    def traced_scan_chunk(*args, **kwargs):
        i = tr.begin(SCAN)
        try:
            out = scan_chunk(*args, **kwargs)
        finally:
            tr.close(i)
        tr.n[i] = out[2]
        return out

    def traced_unrank(*args, **kwargs):
        i = tr.begin(SAMPLE)
        try:
            return unrank(*args, **kwargs)
        finally:
            tr.close(i)

    def traced_accept(self, rows, cache=None):
        shape = {1: STACK, 2: PAIR}.get(len(self.targets))
        if shape is None:
            raise ValueError(f"untraced demand shape {self.demands}")
        i = tr.begin(shape, self.d.size)
        try:
            out = accept(self, rows, cache)
        finally:
            tr.close(i)
        tr.n[i] = rows.shape[0]
        tr.k[i] = np.count_nonzero(out)
        return out

    wrappers = {solve: traced_solve, mincost: traced_mincost,
                blocks: traced_blocks, scan_chunk: traced_scan_chunk,
                unrank: traced_unrank}
    for name, mod in list(sys.modules.items()):
        if name != "pebblekit" and not name.startswith("pebblekit."):
            continue
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
    numbers._FastFilter.accept = traced_accept


def layer_metrics(sp: dict, memo_entries: int) -> dict:
    """Per-layer counts, busy times, ratios and self times from the spans of
    one repetition. Ratios over an empty layer read 0."""
    layer, n, k = sp["layer"], sp["n"], sp["k"]
    dur = sp["end"] - sp["start"]
    nested = sp["parent"] >= 0
    covered = np.bincount(sp["parent"][nested], weights=dur[nested],
                          minlength=dur.size)
    own = dur - covered

    def ratio(a, b):
        return float(a / b) if b else 0.0

    m = {}
    sel = layer == ENUM
    rows, busy = int(n[sel].sum()), float(dur[sel].sum())
    m["numbers.enum.rows"] = rows
    m["numbers.enum.busy_s"] = busy
    m["numbers.enum.rows_per_s"] = ratio(rows, busy)
    for shape, lid in (("stack", STACK), ("pair", PAIR)):
        sel = layer == lid
        rows = int(n[sel].sum())
        m[f"numbers.prescreen.{shape}.rows"] = rows
        m[f"numbers.prescreen.{shape}.busy_s"] = float(dur[sel].sum())
        m[f"numbers.prescreen.{shape}.accept_ratio"] = ratio(k[sel].sum(), rows)
    sel = layer == SAMPLE
    m["numbers.sample.calls"] = int(sel.sum())
    m["numbers.sample.busy_s"] = float(dur[sel].sum())
    m["numbers.scan.self_s"] = float(own[layer == SCAN].sum())
    for outcome, flag in (("solvable", 1), ("unsolvable", 0)):
        sel = (layer == SOLVE) & (k == flag)
        calls = int(sel.sum())
        m[f"engine.solve.{outcome}.calls"] = calls
        m[f"engine.solve.{outcome}.busy_s"] = float(dur[sel].sum())
        m[f"engine.solve.{outcome}.states_per_call"] = ratio(n[sel].sum(), calls)
    sel = layer == MINCOST
    m["engine.mincost.calls"] = int(sel.sum())
    m["engine.mincost.self_s"] = float(own[sel].sum())
    m["engine.memo.entries"] = memo_entries
    m["harness.claim.self_s"] = float(own[layer == CLAIM].sum())
    return m
