"""Outside-in per-layer trace of wcoset.

The tracer replaces public functions of the wcoset modules with timing
wrappers while it is installed, and puts the originals back afterwards.
Nothing under ``src/`` knows about it.  A function imported by name into
another module (``from .linalg import rank``) is a separate binding, so every
module that holds the original object is patched, not only the defining one.

Each wrapped call opens a span: layer name, parent span, start, end, the
tracer's own time spent around the call, and counters read from the
arguments and result.  A call made while a span of the same layer is already
open (the recursion of ``mode_apply``, a verify suite calling another, one
catalog builder calling another) opens no span, so each layer is counted at
its outermost call only.  Spans stay in memory; ``summarize`` derives
per-layer totals from them when the pass is over.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

# span record fields
LAYER, PARENT, START, END, OVERHEAD, COUNTS = range(6)


class Tracer:
    """Collects spans from the functions it patches; one per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._open = Counter()
        self._patches = []

    def wrap(self, fn, layer, counts, home):
        """A wrapper of fn that records spans of `layer`.

        `layer` is a name, or a function of the call's arguments returning
        one (used to split rank by entry field).  `counts(result, *args,
        **kwargs)` returns a dict of counters; its time is charged to the
        tracer, not to the span or its parents.  For a recursive function,
        `home` is (module, name) of the binding its body calls: that binding
        holds the original while the outermost call runs, so the recursion
        runs unwrapped, at full speed, and opens no spans.
        """
        clock = self.clock
        spans, stack, is_open = self.spans, self._stack, self._open
        fixed = isinstance(layer, str)

        def traced(*args, **kwargs):
            if fixed and is_open[layer]:
                return fn(*args, **kwargs)
            t_enter = clock()
            name = layer if fixed else layer(*args, **kwargs)
            if is_open[name]:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else None, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            is_open[name] += 1
            if home is not None:
                setattr(*home, fn)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                if home is not None:
                    setattr(*home, traced)
                stack.pop()
                is_open[name] -= 1
                rec[OVERHEAD] = rec[START] - t_enter
            if counts is not None:
                rec[COUNTS] = counts(out, *args, **kwargs)
            rec[OVERHEAD] += clock() - rec[END]
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, name, layer, counts, sites, recursive):
        """Replace module.name by a traced wrapper at every site bound to it."""
        original = getattr(module, name)
        wrapper = self.wrap(original, layer, counts, (module, name) if recursive else None)
        for site in sites:
            for attr, value in list(vars(site).items()):
                if value is original:
                    setattr(site, attr, wrapper)
                    self._patches.append((site, attr, original))

    def restore(self):
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)

    @contextmanager
    def installed(self, plan, sites):
        """Apply `plan`, a list of (module, name, layer, counts, recursive)."""
        try:
            for module, name, layer, counts, recursive in plan:
                self.patch(module, name, layer, counts, sites, recursive)
            yield self
        finally:
            self.restore()


def summarize(spans):
    """Per-layer totals of a span list.

    For each layer: `s`, busy seconds of its spans less the tracer time spent
    inside them; `self_s`, the same less the time of child spans; `calls`,
    the span count; and each counter, summed, except `max_*` counters, which
    take the maximum.  A child's tracer time lies inside its parent's
    interval, so it is taken off the parent's `s` and `self_s` too.
    """
    inner_overhead = [0.0] * len(spans)
    child_time = [0.0] * len(spans)
    # spans are stored in start order, so every child follows its parent
    for i in range(len(spans) - 1, -1, -1):
        rec = spans[i]
        parent = rec[PARENT]
        if parent is not None:
            inner_overhead[parent] += inner_overhead[i] + rec[OVERHEAD]
            child_time[parent] += rec[END] - rec[START] + rec[OVERHEAD]
    out = {}
    for i, rec in enumerate(spans):
        tot = out.setdefault(rec[LAYER], {"s": 0.0, "self_s": 0.0, "calls": 0})
        dur = rec[END] - rec[START]
        tot["s"] += dur - inner_overhead[i]
        tot["self_s"] += dur - child_time[i]
        tot["calls"] += 1
        for key, value in (rec[COUNTS] or {}).items():
            if key.startswith("max_"):
                tot[key] = max(tot.get(key, value), value)
            else:
                tot[key] = tot.get(key, 0) + value
    return out


# ---------------------------------------------------------------------------
# the wcoset plan
# ---------------------------------------------------------------------------

def _nnz(M, is_zero):
    return sum(1 for row in M for x in row if not is_zero(x))


def wcoset_plan():
    """The functions traced in wcoset, with their layer names and counters."""
    from wcoset import catalog, fields, fock, linalg, report, screening, verify
    from wcoset.scalars import sc_is_zero

    def basis_counts(out, *args, **kwargs):
        return {"states": len(out)}

    def residue_counts(gm, *args, **kwargs):
        cells = sum(len(M) * len(M[0]) for M in gm.blocks.values() if M and M[0])
        nnz = sum(_nnz(M, sc_is_zero) for M in gm.blocks.values())
        return {"cells": cells, "nnz": nnz}

    def mat_mul_counts(out, A, B):
        ops = len(A) * len(B) * len(B[0]) if A and B else 0
        return {"dense_ops": ops, "nnz_a": _nnz(A, sc_is_zero)}

    def rank_layer(M):
        return "linalg.rank.sym" if linalg.is_symbolic(M) else "linalg.rank.q"

    def rank_counts(out, M):
        cells = len(M) * len(M[0]) if M else 0
        counts = {"cells": cells, "nnz": _nnz(M, sc_is_zero)}
        if cells and not linalg.is_symbolic(M):
            counts["max_in_bits"] = max(
                max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for row in M for x in row)
        return counts

    def report_counts(out, *args, **kwargs):
        return {"bytes": len(out)}

    plan = [
        (fock, "enumerate_basis", "fock.enumerate_basis", basis_counts),
        (fields, "mode_apply", "fields.mode_apply", None),
        (fields, "ope_singular", "fields.ope_singular", None),
        (fields, "current_gram", "fields.current_gram", None),
        (screening, "residue_map", "screening.residue_map", residue_counts),
        (screening, "compose_check", "screening.compose_check", None),
        (screening, "joint_kernel", "screening.joint_kernel", None),
        (linalg, "mat_mul", "linalg.mat_mul", mat_mul_counts),
        (linalg, "rank", rank_layer, rank_counts),
        (linalg, "kernel_basis", "linalg.kernel_basis", None),
        (report, "emit_report", "report.emit_report", report_counts),
    ]
    for name in ("gl11_wakimoto", "subregular_realization",
                 "principal_super_realization", "ks_fields", "rank1_ff"):
        plan.append((catalog, name, "catalog.build", None))
    for name, fn in vars(verify).items():
        if (inspect.isfunction(fn) and fn.__module__ == verify.__name__
                and not name.startswith("_")):
            plan.append((verify, name, "verify", None))
    # mode_apply is the one deeply recursive function
    return [entry + (entry[1] == "mode_apply",) for entry in plan]


def wcoset_sites():
    """Every loaded wcoset module: each may hold a by-name import."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "wcoset" or name.startswith("wcoset.")]
