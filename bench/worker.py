"""One benchmark process: import pfrac, generate a workload's inputs, check
that every cache is cold, run the ops back to back and print one JSON line.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Started by bench/run.py in a fresh interpreter for every repetition, because
every pfrac command pays for cold caches.  `ready` is a CLOCK_MONOTONIC
reading, which the parent process shares; `setup_scale` and the scale of
`wall_s` turn measured seconds into reference seconds (see speed.py).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: the calls the benchmark makes into each pfrac module; each is a traced layer
KERNELS = {
    "residues": ("a1_sum", "family_sum", "c01l_exact", "residue_sum",
                 "reconstruct_product", "p_restricted"),
    "asymptotics": ("b_coeffs", "c_coeffs", "family_leading", "evaluate_expansion",
                    "a3_quadrature", "path_positivity_check"),
    "dilog": ("find_zero", "find_saddle"),
    "sine_products": ("psi_table", "em_remainder_scan"),
    "acceptance": ("criterion_1_zeros", "criterion_2_constants", "criterion_7_table_c121"),
}
CACHE_MODULES = ("residues", "asymptotics", "sine_products", "sequences")
CRITERIA = (1, 2, 7)


def kernel_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in KERNELS.items() for fn in fns]


def kernels(tracer=None) -> SimpleNamespace:
    """Namespace of the pfrac kernels, each wrapped in a span when tracing."""
    spaces = {}
    for module, fns in KERNELS.items():
        mod = importlib.import_module(f"pfrac.{module}")
        calls = {fn: getattr(mod, fn) for fn in fns}
        if tracer is not None:
            calls = {fn: tracer.wrap(f"{module}.{fn}", f) for fn, f in calls.items()}
        spaces[module] = SimpleNamespace(**calls)
    return SimpleNamespace(**spaces)


def lru_caches() -> dict:
    """{module: [cache, ...]} for every module-level lru_cache of the loaded
    pfrac modules, attributed to the module that defines it, so a cache that
    another module re-exports is counted once."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "pfrac" or name.startswith("pfrac."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_info", None)):
                    found[id(obj)] = obj
    by_module = defaultdict(list)
    for obj in sorted(found.values(), key=lambda c: (c.__module__, c.__qualname__)):
        by_module[obj.__module__.removeprefix("pfrac.")].append(obj)
    return dict(by_module)


def require_cold(caches: dict) -> None:
    warm = [f"{c.__module__}.{c.__qualname__}" for cs in caches.values() for c in cs
            if c.cache_info().currsize or c.cache_info().hits or c.cache_info().misses]
    if warm:
        raise RuntimeError(f"caches are not cold before the first op: {', '.join(warm)}")


def cache_hit_ratios(caches: dict) -> dict:
    out = {}
    for module in CACHE_MODULES:
        infos = [c.cache_info() for c in caches.get(module, [])]
        hits = sum(i.hits for i in infos)
        lookups = hits + sum(i.misses for i in infos)
        out[f"{module}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    return out


def environment() -> dict:
    import mpmath
    import numpy
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(BENCH)]
    import mpmath
    import pfrac
    if Path(pfrac.__file__).resolve().parent != SRC / "pfrac":
        raise RuntimeError(f"imported pfrac from {pfrac.__file__}, not from {SRC}")
    import workloads
    from spans import Tracer
    from speed import SpeedProbe, probe_once

    tracer = Tracer() if args.trace else None
    observed: dict = {}
    ops = workloads.build_ops(args.workload, workloads.draw(args.workload, args.seed),
                              kernels(tracer), observed)
    caches = lru_caches()
    require_cold(caches)
    ready = time.monotonic()
    probe_once()  # unmeasured: the first call also computes mpmath's constants
    setup_probe = SpeedProbe()
    setup_probe.take(3)
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_probe.scale()}))
        return 0

    probe = SpeedProbe()
    with tracer.counting_mpmath(mpmath) if tracer else nullcontext():
        start = time.perf_counter()
        outcome = workloads.run_ops(ops, tracer, between=probe.maybe)
        wall = time.perf_counter() - start - sum(probe.samples)
    result = {
        "ready": ready,
        "setup_scale": setup_probe.scale(),
        "measured_wall_s": wall,
        "wall_s": wall * probe.scale(),
        "probes": len(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "env": environment(),
    }
    if tracer is not None:
        layers = {}
        for name, row in tracer.summary(kernel_names()).items():
            layers.update({f"{name}.{key}": value for key, value in row.items()})
        layers.update(cache_hit_ratios(caches))
        for n in CRITERIA:
            key = f"acceptance.criterion_{n}.headroom_s"
            layers[key] = observed.get(key, 0.0)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
