"""Span tracing of parahn's public functions, installed from outside the package.

`Tracer.install()` wraps every public function of the traced modules and
patches each name both in its defining module and in every parahn module that
imported it (``hn`` binds ``enumerate_subbundles`` at import, for example).
Each call records one span: name, start, end and the index of the enclosing
span.  Spans stay in compact arrays in memory until `Tracer.dump` writes them.

Two layers are left out because their calls would swamp the trace: ``gf`` (the
field arithmetic, tens of millions of calls per rung) and the element kernels
of ``poly`` (pnorm, pmul, padd, ... at millions of calls per rung).  Their
cost shows up as self time of the callers, and only ``poly``'s gcd functions
are wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

TRACED_MODULES = ("poly", "linalg", "sheaves", "parabolic", "hn", "theta", "specio", "cli")
ALL_MODULES = TRACED_MODULES + ("gf", "rat", "errors")
POLY_WRAPPED = ("pgcd", "pxgcd", "poly_gcd")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.originals: dict[str, object] = {}
        self._patched: list[tuple] = []  # (module, attribute, original)
        # counters observed at the enumeration boundary
        self.windows: list[tuple] = []  # (E, r, d, min_col_twist, subbundles)
        self.validate_accepted = 0

    # -- recording ----------------------------------------------------------

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def _observed(self, qualname: str, fn):
        """Wrap with a counter hook for the two functions whose results we count."""
        inner = self.wrap(qualname, fn)
        if qualname == "sheaves.enumerate_subbundles":
            sig = inspect.signature(fn)

            def enumerate_hook(*args, **kwargs):
                result = inner(*args, **kwargs)
                b = sig.bind(*args, **kwargs)
                a = b.arguments
                self.windows.append((a["E"], a["r"], a["d"], a["min_col_twist"], len(result)))
                return result

            return functools.wraps(fn)(enumerate_hook)
        if qualname == "sheaves.subbundle_validate":

            def validate_hook(*args, **kwargs):
                ok = inner(*args, **kwargs)
                if ok:
                    self.validate_accepted += 1
                return ok

            return functools.wraps(fn)(validate_hook)
        return inner

    def install(self):
        """Wrap the public functions of the traced modules; returns self."""
        mods = {m: importlib.import_module(f"parahn.{m}") for m in ALL_MODULES}
        replace = {}
        for m in TRACED_MODULES:
            mod = mods[m]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn):
                    continue
                if m == "poly" and attr not in POLY_WRAPPED:
                    continue
                qualname = f"{m}.{attr}"
                self.originals[qualname] = fn
                replace[id(fn)] = (fn, self._observed(qualname, fn))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def dump(self, path_prefix: str):
        """Write the spans: a JSON header plus one binary array per field."""
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start)}, fh)
        for field in ("name", "parent", "start", "end"):
            with open(f"{path_prefix}.{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)

    def summary(self) -> dict:
        """Per-process aggregates the harness sums into layer metrics."""
        agg = aggregate(self.names, self.name, self.parent, self.start, self.end)
        count = self.originals["sheaves.enumerate_candidate_count"]
        candidates = sum(count(E, r, d, mct) for E, r, d, mct, _ in self.windows)
        agg["counters"] = {
            "sheaves.candidates": candidates,
            "sheaves.subbundles": sum(w[-1] for w in self.windows),
            "sheaves.subbundle_validate.accepted": self.validate_accepted,
        }
        return agg


def self_times(parent, start, end):
    """Span duration minus the union of its children's intervals.

    Children are recorded in start order, so each parent's covered time is
    built up incrementally; child intervals are clipped to the parent's.
    """
    n = len(start)
    self_t = [end[i] - start[i] for i in range(n)]
    covered_to = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        s = max(start[i], start[p], covered_to[p])
        e = min(end[i], end[p])
        if e > s:
            self_t[p] -= e - s
        if e > covered_to[p]:
            covered_to[p] = e
    return self_t


def aggregate(names, name, parent, start, end) -> dict:
    """Per-name calls, self and total time, plus the context sums the layer
    metrics need.  `total` counts only spans with no same-named ancestor."""
    n = len(start)
    self_t = self_times(parent, start, end)
    k = len(names)
    calls = [0] * k
    self_sum = [0.0] * k
    total = [0.0] * k
    open_until = [float("-inf")] * k
    idx = {nm: i for i, nm in enumerate(names)}

    def flag_for(pred):
        return bytes(1 if pred(nm) else 0 for nm in names)

    is_ck = flag_for(lambda s: s == "sheaves.canonical_key")
    is_iqd = flag_for(lambda s: s == "parabolic.induced_quot_datum")
    is_hn = flag_for(lambda s: s.startswith("hn."))
    is_emit = flag_for(lambda s: s.startswith("specio.emit_"))
    in_ck = bytearray(n)
    in_iqd = bytearray(n)
    in_hn = bytearray(n)
    in_emit = bytearray(n)
    rref = idx.get("linalg.rref", -1)
    enum = idx.get("sheaves.enumerate_subbundles", -1)
    filt = idx.get("hn.hn_filtration", -1)
    certify_targets = {
        idx.get("sheaves.enumerate_subbundles", -1),
        idx.get("parabolic.induced_quot_datum", -1),
    }
    ctx = {
        "linalg.rref.in_canonical_key.self_s": 0.0,
        "linalg.rref.in_induced_quot_datum.self_s": 0.0,
        "hn.windows": 0,
        "hn.certify_s": 0.0,
        "specio.emit.total_s": 0.0,
    }
    for i in range(n):
        nid = name[i]
        dur = end[i] - start[i]
        calls[nid] += 1
        self_sum[nid] += self_t[i]
        if start[i] >= open_until[nid]:
            total[nid] += dur
            open_until[nid] = end[i]
        p = parent[i]
        if p >= 0:
            pn = name[p]
            in_ck[i] = is_ck[pn] or in_ck[p]
            in_iqd[i] = is_iqd[pn] or in_iqd[p]
            in_hn[i] = is_hn[pn] or in_hn[p]
            in_emit[i] = is_emit[pn] or in_emit[p]
            if pn == filt and nid in certify_targets:
                ctx["hn.certify_s"] += dur
        if nid == rref:
            if in_ck[i]:
                ctx["linalg.rref.in_canonical_key.self_s"] += self_t[i]
            if in_iqd[i]:
                ctx["linalg.rref.in_induced_quot_datum.self_s"] += self_t[i]
        elif nid == enum and in_hn[i]:
            ctx["hn.windows"] += 1
        if is_emit[nid] and not in_emit[i]:
            ctx["specio.emit.total_s"] += dur
    per_name = {
        names[j]: {"calls": calls[j], "self_s": self_sum[j], "total_s": total[j]}
        for j in range(k)
        if calls[j]
    }
    return {"functions": per_name, "contexts": ctx, "spans": n}
