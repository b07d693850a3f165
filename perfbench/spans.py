"""Span tracing of fluxsim from outside the program.

`Tracer` keeps spans (name, start, end, parent) and counters in memory.
`instrument` swaps each layer's public functions for timing wrappers at
every module attribute through which the program looks them up (a function
imported by name lives on in the importing module too), and `restore` puts
the originals back, so traced and untraced rounds can alternate in one
process. A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("qubit", "coupled", "cache", "output", "cli", "readout", "special",
          "gates", "noise")

# Per-call spans are kept up to this many; later ones still count towards
# the self times and call counts but are not listed individually.
MAX_SPANS = 200_000


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._next_id = 0

    def enter(self, name):
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame, keep=True):
        end = time.perf_counter()
        span_id, name, start, child = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if not keep:
            return
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None))
        else:
            self.dropped += 1

    def inside(self, name):
        return any(frame[1] == name for frame in self.stack)

    def count(self, name, n=1):
        self.counts[name] += n

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def snapshot(self):
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def _wrap(tracer, name, fn, keep, on_enter, on_result):
    def traced(*args, **kwargs):
        if on_enter is not None:
            on_enter(tracer, args, kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, keep)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result
    traced.__wrapped__ = fn
    return traced


class Instrumentation:
    """The wrappers installed for one tracer; `restore` removes them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def wrap(self, name, fn, places, keep=True, on_enter=None, on_result=None):
        """Replace fn with a traced version at each (namespace, attribute)
        place; a namespace is a module or a dict."""
        traced = _wrap(self.tracer, name, fn, keep, on_enter, on_result)
        for owner, attr in places:
            if _get(owner, attr) is not fn:
                raise RuntimeError(f"{name}: {attr} is not the expected "
                                   f"function at {owner!r}")
            self._saved.append((owner, attr, fn))
            _set(owner, attr, traced)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            _set(owner, attr, original)
        self._saved.clear()


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def instrument(tracer):
    """Wrap the public functions of every fluxsim layer; returns the
    Instrumentation whose `restore` undoes it."""
    from fluxsim import (cache, cli, coupled, gates, noise, output, qubit,
                         readout, special)

    ins = Instrumentation(tracer)

    def w(name, module, attr, places, **hooks):
        fn = getattr(module, attr)
        ins.wrap(name, fn, [(module, attr)] + [(m, attr) for m in places],
                 **hooks)

    w("cli.main", cli, "main", [])
    w("qubit.spectrum", qubit, "fluxonium_spectrum", [coupled, gates, cli])

    w("coupled.hamiltonian", coupled, "build_coupled_hamiltonian", [gates])
    w("coupled.diagonalize", coupled, "diagonalize", [gates])
    w("coupled.assign", coupled, "assign_dressed_levels", [gates])
    w("coupled.dispersive_shift", coupled, "dispersive_shift", [cli])
    w("coupled.cell", coupled, "_cell_values", [cli])

    def cache_outcome(t, args, kwargs, result):
        t.count("cache.hits" if result is not None else "cache.misses")

    w("cache.get", cache, "cache_get", [cli], on_result=cache_outcome)
    w("cache.put", cache, "cache_put", [cli])

    def csv_size(t, args, kwargs, result):
        t.count("output.csv_bytes", os.path.getsize(result))

    w("output.write_csv", output, "write_csv", [cli], on_result=csv_size)
    w("output.write_manifest", output, "write_manifest", [cli])

    for sub, fn in list(cli.SUBCOMMANDS.items()):
        ins.wrap("cli." + sub.replace("-", "_"), fn, [(cli.SUBCOMMANDS, sub)])

    def langevin_steps(t, args, kwargs, result):
        t.count("readout.langevin_steps", len(result) - 1)

    w("readout.run", readout, "run_readout", [])
    w("readout.langevin", readout, "integrate_langevin", [],
      on_result=langevin_steps)
    w("readout.error", readout, "readout_error", [])
    w("readout.demod", readout, "optimal_demod_phase", [])
    w("readout.signal", readout, "measurement_signal", [])
    w("readout.snr", readout, "snr_curve", [])
    # one call per error-curve sample: counted and timed, not listed
    w("special.erfc", special, "erfc", [], keep=False)

    def rk4_steps(t, args, kwargs, result):
        pulse = args[1]
        dt = args[2] if len(args) > 2 else kwargs.get("dt",
                                                      gates.DEFAULT_GATE_DT)
        t.count("gates.rk4_steps", max(1, int(round(pulse.tau_g / dt))))

    def eval_kind(t, args, kwargs):
        if t.inside("gates.nelder_mead"):
            t.count("gates.nm_evals")
        elif t.inside("gates.optimize_pulse"):
            t.count("gates.grid_evals")

    w("gates.build_space", gates, "build_gate_space", [noise, cli])
    w("gates.propagate", gates, "propagate_gate", [], on_result=rk4_steps)
    w("gates.fidelity", gates, "gate_fidelity", [])
    w("gates.evaluate", gates, "evaluate_gate", [noise], on_enter=eval_kind)
    w("gates.optimize_pulse", gates, "optimize_pulse", [cli])
    w("gates.nelder_mead", gates, "minimize", [])

    def draw_outcome(t, args, kwargs, result):
        if not result[2]:
            t.count("noise.excluded_draws")

    w("noise.sample", noise, "sample_flux_offsets", [])
    w("noise.readout_draw", noise, "readout_draw", [], on_result=draw_outcome)
    w("noise.gate_draw", noise, "gate_draw", [])
    w("noise.aggregate", noise, "aggregate_curves", [])
    w("noise.readout_mc", noise, "noisy_readout_snr", [cli])
    w("noise.gate_mc", noise, "noisy_gate_error", [cli])
    return ins


def environment():
    """What the timings depend on besides the code."""
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    threads = {var: os.environ.get(var, "unset")
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                           "MKL_NUM_THREADS", "FLUXSIM_WORKERS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def write_trace(path, tracers, meta):
    """Write `meta` and, per traced round, the spans (start and end in
    seconds from the round's earliest span), self times, calls and
    counters."""
    rounds = []
    for tracer in tracers:
        origin = min((span[2] for span in tracer.spans), default=0.0)
        rounds.append({
            "spans": [{"id": i, "name": n, "start": s - origin,
                       "end": e - origin, "parent": p}
                      for i, n, s, e, p in tracer.spans],
            "dropped_spans": tracer.dropped,
            **tracer.snapshot(),
        })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**meta, "argv": sys.argv, "rounds": rounds}, handle)


def _self(*names):
    return lambda r: sum(r.tracer.self_s.get(n, 0.0) for n in names)


def _total(name):
    return lambda r: r.tracer.total_s.get(name, 0.0)


def _calls(name):
    return lambda r: r.tracer.calls.get(name, 0)


def _count(name):
    return lambda r: r.tracer.counts.get(name, 0)


def _layer(layer):
    return lambda r: r.tracer.layer_self_s(layer)


# (name, unit, value of one traced round); None marks a value measured
# once per run. Times ending in _s are self times unless noted.
PER_LAYER = [
    ("qubit.spectrum_calls", "count", _calls("qubit.spectrum")),
    ("qubit.spectrum_s", "s", _self("qubit.spectrum")),
    ("coupled.diagonalize_calls", "count", _calls("coupled.diagonalize")),
    ("coupled.diagonalize_s", "s", _self("coupled.diagonalize")),
    ("coupled.assign_s", "s", _self("coupled.assign")),
    ("coupled.hamiltonian_s", "s", _self("coupled.hamiltonian")),
    ("coupled.dispersive_shift_calls", "count",
     _calls("coupled.dispersive_shift")),
    ("coupled.eigensolves", "count", lambda r: r.eigensolves),
    ("cache.get_calls", "count", _calls("cache.get")),
    ("cache.hits", "count", _count("cache.hits")),
    ("cache.misses", "count", _count("cache.misses")),
    ("cache.get_s", "s", _self("cache.get")),
    ("cache.put_calls", "count", _calls("cache.put")),
    ("cache.put_s", "s", _self("cache.put")),
    ("cache.files", "count", lambda r: r.cache[0]),
    ("cache.bytes", "bytes", lambda r: r.cache[1]),
    ("output.write_csv_s", "s", _self("output.write_csv")),
    ("output.manifest_s", "s", _self("output.write_manifest")),
    ("output.csv_bytes", "bytes", _count("output.csv_bytes")),
    # whole subcommands, children included
    ("cli.chi_curve_s", "s", _total("cli.chi_curve")),
    ("cli.landscape_s", "s", _total("cli.landscape")),
    ("cli.readout_s", "s", _total("cli.readout")),
    ("cli.noise_readout_s", "s", _total("cli.noise_readout")),
    ("cli.pool1_chi_curve_s", "s", None),
    ("cli.pool2_chi_curve_s", "s", None),
    ("readout.langevin_calls", "count", _calls("readout.langevin")),
    ("readout.langevin_steps", "count", _count("readout.langevin_steps")),
    ("readout.langevin_s", "s", _self("readout.langevin")),
    ("readout.error_s", "s", _self("readout.error")),
    ("readout.demod_s", "s", _self("readout.demod")),
    ("readout.signal_s", "s", _self("readout.signal", "readout.snr")),
    ("special.erfc_calls", "count", _calls("special.erfc")),
    ("special.erfc_s", "s", _self("special.erfc")),
    ("noise.readout_draws", "count", _calls("noise.readout_draw")),
    ("noise.gate_draws", "count", _calls("noise.gate_draw")),
    ("noise.excluded_draws", "count", _count("noise.excluded_draws")),
    ("noise.draw_s", "s", _self("noise.readout_draw", "noise.gate_draw")),
    ("noise.aggregate_s", "s", _self("noise.aggregate")),
    ("gates.space_builds", "count", _calls("gates.build_space")),
    ("gates.build_space_s", "s", _self("gates.build_space")),
    ("gates.propagate_calls", "count", _calls("gates.propagate")),
    ("gates.rk4_steps", "count", _count("gates.rk4_steps")),
    ("gates.propagate_s", "s", _self("gates.propagate")),
    ("gates.fidelity_s", "s", _self("gates.fidelity")),
    ("gates.grid_evals", "count", _count("gates.grid_evals")),
    ("gates.nm_evals", "count", _count("gates.nm_evals")),
    *((f"{layer}.self_s", "s", _layer(layer)) for layer in LAYERS),
    ("trace.spans", "count", lambda r: len(r.tracer.spans)),
    ("trace.untraced_wall_s", "s", None),
    ("trace.traced_wall_s", "s", None),
    ("trace.overhead_s", "s", None),
]


def layer_metrics(traced, per_run):
    """Median over the traced rounds of each per-round value, plus the
    values measured once per run."""
    out = {}
    for name, unit, value in PER_LAYER:
        if value is None:
            out[name] = per_run[name]
        else:
            out[name] = statistics.median(value(r) for r in traced)
    return out
