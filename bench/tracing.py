"""Spans around the calls into each spinoracle layer, for the traced run.

A span is one call of a wrapped public function: its name, its duration, and
the wrapped call that caused it (its parent).  Spans are aggregated in memory
as they close, keyed by (parent, name), into total time, self time (duration
minus the time of child spans) and call count; the worker prints the
aggregate once, when the command has finished.

Wrappers replace the function wherever a loaded spinoracle module holds it,
so names that one module imported from another (cli.q_function,
oracle_circuit.fourier_codeword, squeezing.spin_operators, ...) are traced
too.  The cli's cmd_* functions are reached through cli._COMMANDS, so that
table is patched as well.
"""

import sys
import time

# (module, function) pairs whose calls become spans.
LAYER_FUNCTIONS = (
    ("spin_core", "spin_operators"),
    ("spin_core", "expi_hermitian"),
    ("squeezing", "twist_generator"),
    ("squeezing", "optimize_mu"),
    ("qfunction", "q_function"),
    ("codewords", "hadamard_codeword"),
    ("codewords", "fourier_codeword"),
    ("codewords", "sample_instance"),
    ("codewords", "instance_from_parts"),
    ("oracle_circuit", "run_pipeline"),
    ("oracle_circuit", "merge_two_to_one"),
    ("oracle_circuit", "measure_designated"),
    ("oracle_circuit", "decide_restricted"),
    ("oracle_circuit", "decide_unrestricted"),
    ("oracle_circuit", "decide_fourier"),
    ("oracle_circuit", "fourier_probability_table"),
    ("classical_baseline", "classical_identify"),
    ("classical_baseline", "min_decision_tree_depth"),
)

ROOT = "-"


class Tracer:
    def __init__(self):
        self._stack = []  # [name, child seconds] of the open spans
        self._agg = {}  # (parent, name) -> [total s, self s, calls]

    def _wrap(self, name, fn):
        stack, agg, clock = self._stack, self._agg, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ROOT
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                row = agg.get((parent, name))
                if row is None:
                    row = agg[(parent, name)] = [0.0, 0.0, 0]
                row[0] += dur
                row[1] += dur - frame[1]
                row[2] += 1

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "spinoracle" or key.startswith("spinoracle.")
        ]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"spinoracle.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
        commands = sys.modules["spinoracle.cli"]._COMMANDS
        for key, fn in list(commands.items()):
            commands[key] = self._wrap(f"cli.{fn.__name__}", fn)

    def summary(self):
        """[[parent, name, total s, self s, calls], ...] for every edge seen."""
        return [[p, n, *row] for (p, n), row in sorted(self._agg.items())]
