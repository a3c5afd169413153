"""Child process of a traced run: one milnortc CLI command with spans.

Usage: python3 tracer.py MARK_FILE TRACE_FILE CLI_ARG...

After importing ``milnortc.cli`` it wraps, from outside, every public
function of each layer module in a span and rebinds the wrapper in every
``milnortc`` module namespace that holds the function (``cuplength`` keeps
its own ``t_multiply`` binding, ``bounds`` its own ``verify_certificate``).
``Presentation.mono_mul`` and ``Presentation.reduce`` get call counters
only: they run millions of times and a span there would swamp the run.
On exit the per-function calls, total and self times, the layer counters
and the kernel-shape census go to TRACE_FILE as JSON.

A span's self time is its duration minus the time its child spans cover.
The tracer's own bookkeeping after a call returns is charged to neither,
so the self times of all spans sum to less than the command's wall time.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("gf2", "f2algebra", "tensorpower", "spaces", "exprs", "cuplength",
          "certgen", "bounds", "cli")

# Bit-level and packing helpers called per element; their time stays in the
# caller's self time.  ``rref`` is left in row_space/nullspace/rank so their
# self time is the elimination itself.
UNSPANNED = {
    "gf2": {"n_words", "zeros", "pack_rows", "unpack_rows", "get_bit", "set_bit",
            "is_zero_rows", "rref", "warmup"},
}


def _density(packed, nrows, ncols):
    cells = nrows * ncols
    return float(np.bitwise_count(packed).sum()) / cells if cells else 0.0


def _census_add(table, key, *densities):
    row = table.setdefault(key, [0] + [0.0] * len(densities))
    row[0] += 1
    for i, d in enumerate(densities, start=1):
        row[i] += d


class Tracer:
    def __init__(self):
        self.stack = []  # frames [name, seconds covered by child spans]
        self.functions = {}  # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.max_slice_dim = 0
        self.census = {"gf2.matmul": {}, "gf2.row_space": {}}

    def span(self, name, fn, before=None, after=None):
        stats = self.functions.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            token = before(args, kwargs) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += t1 - t0
                stats[2] += t1 - t0 - frame[1]
                if done and after is not None:
                    after(parent[0] if parent else None, args, kwargs, result, token)
                if parent is not None:
                    parent[1] += clock() - t0

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- per-layer hooks ------------------------------------------------

    def after_matmul(self, parent, args, kwargs, result, token):
        a, a_cols, b = args
        m = a.shape[0]
        cols = 64 * (b.shape[1] if b.ndim == 2 else 1)
        if m and b.shape[0]:
            self.counts["gf2.matmul.bit_ops"] += m * a_cols * cols
        self.counts["gf2.matmul.bytes"] += a.nbytes + b.nbytes + result.nbytes
        _census_add(
            self.census["gf2.matmul"],
            f"{m}x{a_cols}x{cols}",
            _density(a, m, a_cols),
            _density(b, b.shape[0], cols),
        )

    def after_row_space(self, parent, args, kwargs, result, token):
        mat, ncols = args
        rows = mat.shape[0] if mat.ndim == 2 else 0
        self.counts["gf2.row_space.cells"] += rows * ncols
        _census_add(
            self.census["gf2.row_space"], f"{rows}x{ncols}", _density(mat, rows, ncols)
        )

    def after_tensor_slice(self, parent, args, kwargs, result, token):
        self.max_slice_dim = max(self.max_slice_dim, len(result))

    def before_cup_exact(self, args, kwargs):
        from milnortc import cuplength

        P, n = args[0], args[1]
        key = (P.cache_key, n, kwargs.get("generators", "ideal"))
        return key in cuplength._CUP_CACHE and not kwargs.get("collect_chain")

    def after_cup_exact(self, parent, args, kwargs, result, was_cached):
        if was_cached:
            self.counts["cuplength.cup_exact.cache_hits"] += 1
        else:
            value = result[0] if isinstance(result, tuple) else result
            # the loop computes K^(m+1) for m = 1..value before K^(value+1) = 0
            self.counts["cuplength.ideal_power_steps"] += value

    def after_verify(self, parent, args, kwargs, result, token):
        verified = result.verdict == "Verified"
        if parent == "certgen.cert_case2":
            self.counts["certgen.search_attempts"] += 1
            self.counts["certgen.search_hits"] += verified
        elif parent is not None and parent.startswith("bounds."):
            self.counts["bounds.cert_verifications"] += 1
            self.counts["bounds.cert_verified"] += verified

    def hooks(self):
        return {
            "gf2.matmul": (None, self.after_matmul),
            "gf2.row_space": (None, self.after_row_space),
            "tensorpower.tensor_slice": (None, self.after_tensor_slice),
            "cuplength.cup_exact": (self.before_cup_exact, self.after_cup_exact),
            "cuplength.verify_certificate": (None, self.after_verify),
        }

    def install(self):
        hooks = self.hooks()
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["milnortc." + layer]
            skip = UNSPANNED.get(layer, ())
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or attr in skip
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self.span(name, obj, *hooks.get(name, (None, None)))
        for modname, mod in list(sys.modules.items()):
            if modname != "milnortc" and not modname.startswith("milnortc."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        P = sys.modules["milnortc.f2algebra"].Presentation
        P.mono_mul = self.counter("f2algebra.mono_mul.calls", P.mono_mul)
        P.reduce = self.counter("f2algebra.reduce.calls", P.reduce)

    def dump(self, path):
        from milnortc import f2algebra, gf2

        # each miss of mono_mul stores one entry in its presentation's cache
        misses = sum(len(P._mul_cache) for P in f2algebra._PRESENTATION_CACHE.values())
        doc = {
            "backend": gf2.BACKEND,
            "functions": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.functions.items())
                if v[0]
            },
            "counts": dict(self.counts, **{"f2algebra.mono_mul.misses": misses}),
            "max_slice_dim": self.max_slice_dim,
            "census": self.census,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main():
    mark, trace_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import milnortc.cli

    with open(mark, "w", encoding="ascii") as fh:
        fh.write(str(time.monotonic_ns()))
    tracer = Tracer()
    tracer.install()
    try:
        code = milnortc.cli.main(argv)
    finally:
        tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
