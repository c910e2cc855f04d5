"""Pass-through tracer for the benchmark's traced runs.

``Tracer.install()`` replaces each traced library function, at every module
that imports it, with a wrapper that calls the original with the same
arguments and returns its result untouched.  Around the call the wrapper
records a span (name, start, end, parent, unit id) and updates counts.
Spans and counts stay in memory; ``write_spans`` writes them out once the
run ends, and ``layer_metrics`` turns them into the per-layer metrics.
Nothing in the library is edited: ``uninstall()`` restores every attribute.
A target the library no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import csv
import inspect
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from besselhardy import cli, conditions, grid, hardy, kernel, section, semigroup

NAME, START, END, PARENT, UNIT, CHILD_S = range(6)


def _get(owner, key):
    return owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, unit, child_s]
        self.counts: dict[str, float] = defaultdict(float)
        self.missed: set[int] = set()  # kernel_matrix spans whose cache lookup missed
        self.unit = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, owner, key, name: str, hook=None, pre=None):
        """Wrap ``owner.key`` (or ``owner[key]`` for a dict) in a span.

        ``pre(args)`` runs before the call and ``hook(index, args, result,
        pre_state)`` after it, with ``args`` the bound arguments by name.
        """
        original = _get(owner, key)
        if original is None:
            return
        tracer = self
        signature = inspect.signature(original) if hook is not None else None

        def wrapper(*args, **kwargs):
            bound = None
            state = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
                state = pre(bound) if pre is not None else None
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            record = [name, 0.0, 0.0, parent, tracer.unit, 0.0]
            tracer.spans.append(record)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                record[START], record[END] = start, end
                if parent >= 0:
                    tracer.spans[parent][CHILD_S] += end - start
            if hook is not None:
                hook(index, bound, result, state)
            return result

        self._undo.append((owner, key, original))
        _set(owner, key, wrapper)

    def install(self) -> "Tracer":
        w = self._wrap
        w(kernel, "bessel_i_scaled_ratio", "bessel", self._on_bessel)
        for mod in (kernel, semigroup):
            w(mod, "kernel_matrix", "kernel_matrix", self._on_matrix)
        for mod in (kernel, semigroup, conditions):
            w(mod, "heat_kernel", "heat_kernel", self._on_heat_kernel)
        for mod in (semigroup, hardy, conditions):
            w(mod, "schrodinger_apply", "apply", self._on_apply)
        w(semigroup, "heat_evolve", "apply", self._on_apply)
        w(semigroup, "feynman_kac", "fk", self._on_fk)
        w(semigroup, "perturbation_residual", "perturbation")
        for mod in (kernel, conditions):
            w(mod, "quad", f"{mod.__name__.rsplit('.', 1)[-1]}.quad", self._on_quad)
        w(grid.Grid, "cache_get", "grid.cache_get", self._on_cache_get)
        w(grid.Grid, "cache_put", "grid.cache_put", self._on_cache_put, self._cache_state)
        w(hardy, "hardy_norm", "hardy_norm")
        w(conditions, "check_superharmonic", "superharmonic")
        w(conditions, "check_condition_D", "D")
        w(conditions, "check_condition_K", "K")
        w(section, "build_section", "section")
        w(cli, "write_csv", "cli.write", self._on_write_csv)
        w(cli, "write_summary", "cli.write")
        # run_suite dispatches through this table, not through the module attributes
        runners = getattr(cli, "_RUNNERS", {})
        for suite in list(runners):
            w(runners, suite, f"cli.{suite}")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            _set(owner, key, original)

    # -- counting hooks -----------------------------------------------------

    def _on_bessel(self, index, a, result, state):
        self.counts["bessel.evals"] += np.size(a["z"])

    def _on_matrix(self, index, a, result, state):
        if index in self.missed:
            self.counts["kernel.build_entries"] += len(a["grid"]) ** 2

    def _on_heat_kernel(self, index, a, result, state):
        self.counts["kernel.heat_kernel_evals"] += np.broadcast(np.asarray(a["x"]), np.asarray(a["y"])).size

    def _on_apply(self, index, a, result, state):
        scheme = a["scheme"]
        steps = a["n_steps"] if a["n_steps"] is not None else scheme.steps_for(a["t"])
        matvecs = steps * getattr(scheme, "kinetic_substeps", 1)
        n = len(a["f"].grid)
        self.counts["semigroup.matvecs"] += matvecs
        self.counts["semigroup.matvec_bytes"] += matvecs * n * n * 8

    def _on_fk(self, index, a, result, state):
        self.counts["semigroup.fk_path_steps"] += a["n_paths"] * a["n_steps"]

    def _on_quad(self, index, a, result, state):
        # quad reports its error estimate; it is unconverged when that
        # estimate exceeds the tolerance the caller asked for
        layer = self.spans[index][NAME].split(".")[0]
        value, abserr = result[0], result[1]
        if abserr > max(a["epsabs"], a["epsrel"] * abs(value)):
            self.counts[f"{layer}.quad_unconverged"] += 1

    def _on_cache_get(self, index, a, result, state):
        parent = self.spans[index][PARENT]
        if result is None and parent >= 0 and self.spans[parent][NAME] == "kernel_matrix":
            self.missed.add(parent)

    @staticmethod
    def _cache_state(a):
        cache = getattr(a["self"], "_matrix_cache", None)
        return None if cache is None else (len(cache), a["key"] in cache)

    def _on_cache_put(self, index, a, result, state):
        cache = getattr(a["self"], "_matrix_cache", None)
        if cache is None or state is None:
            return
        size_before, replaced = state
        self.counts["grid.cache_evictions"] += size_before + (not replaced) - len(cache)
        held = sum(getattr(v, "nbytes", 0) for v in cache.values())
        self.counts["grid.cache_bytes_peak"] = max(self.counts["grid.cache_bytes_peak"], held)

    def _on_write_csv(self, index, a, result, state):
        self.counts["cli.csv_files"] += 1
        self.counts["cli.csv_bytes"] += os.path.getsize(a["path"])

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["name", "start", "end", "parent", "unit"])
            for span in self.spans:
                out.writerow([span[NAME], f"{span[START]:.9f}", f"{span[END]:.9f}", span[PARENT], span[UNIT]])

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer metrics: counts and times per unit, rates over the phase."""
        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        build_ms = []
        for index, span in enumerate(self.spans):
            name = span[NAME]
            duration = span[END] - span[START]
            calls[name] += 1
            busy[name] += duration
            self_s[name] += duration - span[CHILD_S]
            if name == "kernel_matrix" and index in self.missed:
                build_ms.append(1e3 * duration)
                busy["kernel.build"] += duration
                self_s["kernel.build"] += duration - span[CHILD_S]
        c = self.counts
        builds = len(build_ms)
        matvec_self = self_s["apply"]

        def rate(num, den):
            return num / den if den > 0 else 0.0

        per_unit = {
            "bessel.calls": calls["bessel"],
            "bessel.evals": c["bessel.evals"],
            "bessel.busy_s": busy["bessel"],
            "kernel.matrix_calls": calls["kernel_matrix"],
            "kernel.matrix_builds": builds,
            "kernel.build_s": busy["kernel.build"],
            "kernel.build_self_s": self_s["kernel.build"],
            "kernel.build_entries": c["kernel.build_entries"],
            "kernel.heat_kernel_evals": c["kernel.heat_kernel_evals"],
            "kernel.heat_kernel_s": busy["heat_kernel"],
            "kernel.quad_calls": calls["kernel.quad"],
            "kernel.quad_unconverged": c["kernel.quad_unconverged"],
            "kernel.quad_s": busy["kernel.quad"],
            "conditions.quad_calls": calls["conditions.quad"],
            "conditions.quad_unconverged": c["conditions.quad_unconverged"],
            "conditions.quad_s": busy["conditions.quad"],
            "grid.cache_evictions": c["grid.cache_evictions"],
            "semigroup.apply_calls": calls["apply"],
            "semigroup.apply_s": busy["apply"],
            "semigroup.apply_self_s": matvec_self,
            "semigroup.matvecs": c["semigroup.matvecs"],
            "semigroup.matvec_gb": c["semigroup.matvec_bytes"] / 1e9,
            "semigroup.fk_path_steps": c["semigroup.fk_path_steps"],
            "semigroup.fk_s": busy["fk"],
            "semigroup.perturbation_s": busy["perturbation"],
            "hardy.norm_s": busy["hardy_norm"],
            "hardy.norm_self_s": self_s["hardy_norm"],
            "conditions.superharmonic_s": busy["superharmonic"],
            "conditions.superharmonic_self_s": self_s["superharmonic"],
            "conditions.D_s": busy["D"],
            "conditions.K_s": busy["K"],
            "conditions.K_self_s": self_s["K"],
            "section.build_s": busy["section"],
            "cli.csv_files": c["cli.csv_files"],
            "cli.csv_bytes": c["cli.csv_bytes"],
            "cli.write_s": busy["cli.write"],
        }
        out = {k: rate(v, units) for k, v in per_unit.items()}
        out.update(
            {
                "bessel.evals_per_s": rate(c["bessel.evals"], busy["bessel"]),
                "kernel.matrix_hit_ratio": rate(calls["kernel_matrix"] - builds, calls["kernel_matrix"]),
                "kernel.build_ms_p50": statistics.median(build_ms) if build_ms else 0.0,
                "grid.cache_bytes_peak": c["grid.cache_bytes_peak"] / 1e6,
                "semigroup.matvec_us": 1e6 * rate(matvec_self, c["semigroup.matvecs"]),
                "semigroup.matvec_gb_per_s": rate(c["semigroup.matvec_bytes"] / 1e9, matvec_self),
                "semigroup.fk_path_steps_per_s": rate(c["semigroup.fk_path_steps"], busy["fk"]),
            }
        )
        return out
