"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the library's layers from outside: it
replaces every reference to a traced function that an ``xi_ineq`` module
holds (its own definition and every ``from .x import f`` binding), so nothing
under ``src/`` changes.  Each call records one span: name, start, end, parent
span and thread.  Spans live in per-thread in-memory arrays and are written
out once, when the run ends.

Threads: the CLI runs ``verify-modulus`` and ``autocorr`` cells on a thread
pool, so every thread keeps its own span stack.  A span opened on an empty
stack in a pool thread takes the active ``cli.*`` span as its parent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

# Layer -> traced attributes.  "Class.method" names a method; the first entry
# of a tuple is the attribute, the second the span name when they differ.
TRACED = {
    "theta": ("J_tau", "theta_H", "theta_R"),
    "quadrature": ("integrate_finite", "integrate_semi_infinite",
                   "integrate_eta_weighted", "integrate_oscillatory_cos"),
    "xi": ("xi", "U_sigma", "xi_mod_sq_via_U"),
    "modulus": ("calG", "W_sigma", "w_cos_transform", "constants",
                "S_T_constants", "modulus_rhs_via_J", "a_coeff"),
    "inequality": ("scan_inequality", "autocorrelation_A", "K_fourier",
                   "check_poly_min_criterion",
                   ("XSigmaSampler.__init__", "sampler_build"),
                   ("XSigmaSampler.sample_indexed", "sample_indexed")),
}
CLI_COMMANDS = ("scan", "autocorr", "verify-modulus", "constants", "coeffs",
                "selftest", "montecarlo")
QUAD_ENGINE = "quadrature.integrate_finite"   # the only engine that evaluates integrands


class _Buffer:
    """Spans of one thread, in the order they were opened."""

    def __init__(self, tid: int):
        self.tid = tid
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        # parent index in this buffer; -1 for a root; -2 - i for a root in a
        # pool thread whose parent is span i of the main thread (a cli.* span)
        self.parent = array("i")
        self.evals: dict = {}
        self.stack: list = []


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._buffers: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = self._buffer()
        self._cli_span = -1
        self.cw_keys: list = []          # (sigma, t) of each w_cos_transform call
        self.proposals = 0
        self.draws = 0
        self.convergence_errors = 0
        self.absent: list = []
        self.cache_info: dict = {}
        self._cached_fns: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _Buffer:
        with self._lock:
            buf = _Buffer(len(self._buffers))
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, span_name: str, fn, on_result=None, cli=False):
        nid = self._name_id(span_name)
        local = self._local
        main = self._main
        clock = time.perf_counter_ns
        count_errors = span_name.startswith("quadrature.")
        from xi_ineq.errors import ConvergenceError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = self._buffer()
            stack = buf.stack
            idx = len(buf.name)
            if stack:
                buf.parent.append(stack[-1])
            elif buf is main or self._cli_span < 0:
                buf.parent.append(-1)
            else:
                buf.parent.append(-2 - self._cli_span)
            buf.name.append(nid)
            buf.end.append(0)
            stack.append(idx)
            if cli:
                outer, self._cli_span = self._cli_span, idx
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except ConvergenceError as exc:
                # counted once, where it first leaves a quadrature engine
                if count_errors and not getattr(exc, "_traced", False):
                    exc._traced = True
                    with self._lock:
                        self.convergence_errors += 1
                raise
            finally:
                buf.end[idx] = clock()
                stack.pop()
                if cli:
                    self._cli_span = outer
            if on_result is not None:
                on_result(buf, idx, args, result)
            return result

        return traced

    def _on_quad(self, buf, idx, args, result):
        buf.evals[idx] = result.evals

    def _on_cos_transform(self, buf, idx, args, result):
        with self._lock:
            self.cw_keys.append((args[0], args[1]))

    def _on_sample(self, buf, idx, args, result):
        _, prop_idx = result
        with self._lock:
            self.draws += int(prop_idx.size)
            self.proposals += int(prop_idx[-1]) + 1 if prop_idx.size else 0

    def install(self) -> None:
        """Wrap every traced name; call after ``xi_ineq.cli`` is imported."""
        modules = {k: v for k, v in sys.modules.items()
                   if (k == "xi_ineq" or k.startswith("xi_ineq.")) and v is not None}
        hooks = {"quadrature.integrate_finite": self._on_quad,
                 "quadrature.integrate_oscillatory_cos": self._on_quad,
                 "quadrature.integrate_eta_weighted": self._on_quad,
                 "quadrature.integrate_semi_infinite": self._on_quad,
                 "modulus.w_cos_transform": self._on_cos_transform,
                 "inequality.sample_indexed": self._on_sample}
        for layer, attrs in TRACED.items():
            module = modules.get(f"xi_ineq.{layer}")
            for entry in attrs:
                attr, short = entry if isinstance(entry, tuple) else (entry, entry)
                span_name = f"{layer}.{short}"
                self._name_id(span_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = module
                if owner is not None and owner_name:
                    owner = getattr(module, owner_name, None)
                original = getattr(owner, leaf, None) if owner is not None else None
                if original is None:
                    self.absent.append(span_name)
                    continue
                if hasattr(original, "cache_info"):
                    self._cached_fns[span_name] = original
                wrapper = self._wrap(span_name, original, hooks.get(span_name))
                if owner_name:
                    setattr(owner, leaf, wrapper)
                    continue
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        cli = modules.get("xi_ineq.cli")
        commands = getattr(cli, "_COMMANDS", {})
        for command in CLI_COMMANDS:
            span_name = f"cli.{command}"
            self._name_id(span_name)
            if command not in commands:
                self.absent.append(span_name)
                continue
            commands[command] = self._wrap(span_name, commands[command], cli=True)

    def finish(self) -> None:
        for span_name, fn in self._cached_fns.items():
            info = fn.cache_info()
            self.cache_info[span_name] = {"hits": info.hits, "misses": info.misses}

    # -- output -------------------------------------------------------------

    def spans(self) -> dict:
        """All spans as flat arrays with global indices (main thread first)."""
        offsets, total = [], 0
        for buf in self._buffers:
            offsets.append(total)
            total += len(buf.name)
        main_off = offsets[self._main.tid]
        parts = {k: [] for k in ("start", "end", "name", "parent", "thread", "evals")}
        for buf, off in zip(self._buffers, offsets):
            parent = np.array(buf.parent, np.int64)
            parent = np.where(parent >= 0, parent + off,
                              np.where(parent == -1, -1, main_off - 2 - parent))
            evals = np.zeros(len(buf.name), np.int64)
            evals[list(buf.evals)] = list(buf.evals.values())
            parts["start"].append(np.array(buf.start, np.int64))
            parts["end"].append(np.array(buf.end, np.int64))
            parts["name"].append(np.array(buf.name, np.int32))
            parts["parent"].append(parent)
            parts["thread"].append(np.full(len(buf.name), buf.tid, np.int32))
            parts["evals"].append(evals)
        return {k: np.concatenate(v) for k, v in parts.items()}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def summary(self) -> dict:
        """Per-span-name totals plus the tracer's counters, as plain data."""
        spans = self.spans()
        start, end, name = spans["start"], spans["end"], spans["name"]
        parent, thread, evals = spans["parent"], spans["thread"], spans["evals"]
        n = start.size
        open_spans = int(np.count_nonzero(end < start))
        dur = (end - start).astype(np.int64)
        has_parent = parent >= 0
        same_thread = has_parent & (thread == thread[np.where(has_parent, parent, 0)])

        # Children on the parent's thread run one after another, so their
        # durations add up; children on other threads may overlap, so spans
        # that have any are covered by the union of all their children.
        covered = np.bincount(parent[same_thread], weights=dur[same_thread], minlength=n)
        covered = covered.astype(np.int64)
        for p in np.unique(parent[has_parent & ~same_thread]):
            kids = np.nonzero(parent == p)[0]
            order = np.argsort(start[kids])
            union, cur_lo, cur_hi = 0, None, None
            for lo, hi in zip(start[kids][order], end[kids][order]):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        union += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                union += cur_hi - cur_lo
            covered[p] = union
        self_ns = dur - covered

        # A recursive call (theta_R at y < 1) nests in its own name: its time
        # is already inside the outer span's duration.
        parent_name = np.where(has_parent, name[np.where(has_parent, parent, 0)], -1)
        outermost = parent_name != name

        # integrand evaluations under each calG span (any depth)
        engine = self._name_ids[QUAD_ENGINE]
        calg = self._name_ids["modulus.calG"]
        calg_evals = 0
        under_calg: dict = {}
        for i in np.nonzero(name == engine)[0]:
            p, chain = int(parent[i]), []
            found = False
            while p >= 0:
                if p in under_calg:
                    found = under_calg[p]
                    break
                chain.append(p)
                if name[p] == calg:
                    found = True
                    break
                p = int(parent[p])
            for q in chain:
                under_calg[q] = found
            if found:
                calg_evals += int(evals[i])

        per_name = {}
        for nid, span_name in enumerate(self.names):
            mask = name == nid
            per_name[span_name] = {
                "calls": int(np.count_nonzero(mask)),
                "total_s": float(dur[mask & outermost].sum()) * 1e-9,
                "self_s": float(self_ns[mask].sum()) * 1e-9,
                "evals": int(evals[mask].sum()),
            }
        return {
            "spans": int(n),
            "open_spans": open_spans,
            "negative_self_spans": int(np.count_nonzero(self_ns < 0)),
            "per_name": per_name,
            "calG_evals": calg_evals,
            "w_cos_distinct": len(set(self.cw_keys)),
            "proposals": self.proposals,
            "draws": self.draws,
            "convergence_errors": self.convergence_errors,
            "cache_info": self.cache_info,
            "absent": self.absent,
        }
