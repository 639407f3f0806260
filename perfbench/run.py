"""Benchmark of the HB reproduction: traffic engine, BFS substrate, disjoint paths.

Run from the repository root::

    python3 perfbench/run.py --workload traffic_uniform --seed 0 --seconds 25 --trace 0

One workload per process, single-threaded (``jobs=1``, no pools).  The run
times its set-up (imports in fresh interpreters, then topology construction
and first-use tables with an empty CSR disk cache) several times, runs one
checked warm-up job, then repeats the workload's timed job for ``--seconds``
and reports the median of each.  Every set-up step and every job is timed
right after the host-speed reference kernel (``perfbench/hostspeed.py``)
and reported at the nominal host speed, so that the phases in which a
shared host runs slower do not read as slower code.  Every layer call and
every output check counts as an attempted operation.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs,
prints the per-layer metrics and writes the spans and counts to
``.perfbench/traces/<workload>-seed<seed>.json``.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
GOLDEN = BENCH_DIR / "golden.json"

#: the seed whose simulated outputs are pinned in golden.json
DEFAULT_SEED = 0
#: set-up repetitions per run: fresh-interpreter imports and state builds;
#: setup_s is the median import plus the median build
SETUP_REPS = 5
#: native thread pools are pinned to one thread, like the library's jobs=1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    modules: tuple[str, ...]
    setup: Callable[[Any], Any]
    job: Callable[[Any, int, Any], tuple[int, dict]]
    rate: str  # the per-layer rate metric the job's work count feeds


def _workloads() -> dict[str, Workload]:
    from perfbench import graphs, traffic

    return {
        "traffic_uniform": Workload(
            traffic.MODULES, traffic.setup_uniform, traffic.job_uniform, "flow_hops_per_s"
        ),
        "traffic_hotspot_faults": Workload(
            traffic.MODULES, traffic.setup_hotspot, traffic.job_hotspot, "flow_hops_per_s"
        ),
        "graph_sweep": Workload(
            graphs.SWEEP_MODULES, graphs.setup_sweep, graphs.job_sweep, "bfs_arcs_per_s"
        ),
        "fault_paths": Workload(
            graphs.PATHS_MODULES, graphs.setup_paths, graphs.job_paths, "certified_pairs_per_s"
        ),
    }


@dataclass
class Rep:
    traced: bool
    seconds: float  # host time of the job
    reference: float  # host time of the reference kernel run just before it
    tracer: Any
    work: int

    @property
    def normalised(self) -> float:
        from perfbench.hostspeed import normalise

        return normalise(self.seconds, self.reference)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _isolate_environment() -> list[str]:
    """Drop every ``REPRO_*`` override so the library runs on its defaults,
    and keep native thread pools single-threaded."""
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    for key in THREAD_VARS:
        os.environ[key] = "1"
    return scrubbed


def _time_imports(
    modules: tuple[str, ...],
) -> tuple[float, list[float], list[float]]:
    """Median of SETUP_REPS imports of ``modules``, each timed inside a
    fresh interpreter (interpreter start-up excluded) right after a
    reference run in that interpreter, and normalised by it.  Returns the
    median, the host times and the references."""
    from perfbench.hostspeed import normalise

    code = (
        "import sys, time\n"
        f"sys.path[:0] = {[str(ROOT / 'src'), str(ROOT)]!r}\n"
        "from perfbench.hostspeed import reference_seconds\n"
        "reference_seconds()\n"  # the first run pays the kernel's first touch
        "reference = reference_seconds()\n"
        "started = time.perf_counter()\n"
        + "".join(f"import {module}\n" for module in modules)
        + "print(time.perf_counter() - started, reference)\n"
    )
    times = []
    references = []
    normalised = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, reference = map(float, done.stdout.split())
        times.append(seconds)
        references.append(reference)
        normalised.append(normalise(seconds, reference))
    return _median(normalised), times, references


@dataclass
class Setup:
    imports_s: float  # median normalised import time
    build_s: float  # median normalised build time
    host_s: list[float]  # host times: the imports, then the builds
    reference_s: list[float]  # the reference run before each of them
    state: Any  # the last build's state
    tracers: list  # one per build

    @property
    def build_references(self) -> list[float]:
        return self.reference_s[-len(self.tracers) :]


def _time_setup(wl: Workload, tmp: Path, trace: bool) -> Setup:
    """Time the imports in fresh interpreters, import here, then build the
    workload's state SETUP_REPS times, each time against a fresh, empty CSR
    disk cache and after a reference run."""
    from perfbench.hostspeed import normalise, timed
    from perfbench.tracing import Tracer

    imports, raw, references = _time_imports(wl.modules)
    for module in wl.modules:
        importlib.import_module(module)
    tracers = []
    normalised = []
    state = None
    for rep in range(SETUP_REPS):
        os.environ["REPRO_CACHE_DIR"] = str(tmp / f"cache-{rep}")
        tracer = Tracer(trace)
        state = None  # release the previous state before building the next
        state, seconds, reference = timed(lambda: wl.setup(tracer))
        raw.append(seconds)
        normalised.append(normalise(raw[-1], reference))
        tracers.append(tracer)
        references.append(reference)
    return Setup(imports, _median(normalised), raw, references, state, tracers)


def _measure(
    wl: Workload, state: Any, seed: int, seconds: float, trace: bool, golden: Any
) -> tuple[list[Rep], Any, Any]:
    """One checked warm-up job, then repeat the job until the next one
    would overrun ``seconds``.

    The warm-up job pays for first-touch costs (page faults, lazy caches)
    and is left out of the timings.  With tracing, timed jobs alternate
    untraced/traced (untraced first) and the loop ends on a traced job, so
    both halves have the same count.  Returns the timed jobs, the operation
    counter and the job's outputs.
    """
    from perfbench.hostspeed import timed
    from perfbench.tracing import Ops, Tracer

    ops = Ops(Tracer(False))
    first_outputs = None

    def checked_job(tracer: Any) -> int | None:
        """One checked job; its work count, ``None`` when it raised."""
        nonlocal first_outputs
        failed_before = ops.failed
        with tracer.span("job"):
            try:
                work, outputs = wl.job(state, seed, ops)
            except Exception as exc:
                if ops.failed == failed_before:  # raised outside a layer call
                    ops.attempted += 1
                    ops.failed += 1
                    ops.failures.append(f"job: {type(exc).__name__}: {exc}")
                return None
            outputs = json.loads(json.dumps(outputs))
            with tracer.span("checks"):
                if first_outputs is None:
                    first_outputs = outputs
                else:
                    ops.check("repeatable", lambda: outputs == first_outputs)
                if golden is not None:
                    ops.check("golden", lambda: outputs == golden)
        return work

    def run_job(tracer: Any) -> Rep | None:
        ops.tracer = tracer
        work, seconds, reference = timed(lambda: checked_job(tracer))
        if work is None:
            return None
        return Rep(tracer.enabled, seconds, reference, tracer, work)

    reps: list[Rep] = []
    if run_job(Tracer(False)) is None:
        return reps, ops, first_outputs
    began = time.perf_counter()
    while True:
        rep = run_job(Tracer(trace and len(reps) % 2 == 1))
        if rep is None:
            break
        reps.append(rep)
        typical = _median([r.seconds + r.reference for r in reps])
        enough = len(reps) >= (2 if trace else 1) and (not trace or rep.traced)
        if enough and time.perf_counter() - began + typical > seconds:
            break
    return reps, ops, first_outputs


def _median_self_seconds(tracers: list, references: list[float]) -> dict[str, float]:
    """Median over ``tracers`` of each span name's self time (absent = 0),
    each normalised by the reference of its tracer's job or build."""
    from perfbench.hostspeed import normalise

    per_tracer = [
        {name: normalise(s, reference) for name, s in t.self_seconds().items()}
        for t, reference in zip(tracers, references, strict=True)
    ]
    names = {name for seconds in per_tracer for name in seconds}
    return {
        name: _median([seconds.get(name, 0.0) for seconds in per_tracer])
        for name in names
    }


def _layer_metrics(wl: Workload, setup: Setup, reps: list[Rep]) -> dict[str, float]:
    """Per-layer self times (``<span>.s``), counts, ratios, rates and the
    tracing overhead, all times at the nominal host speed.  Metrics of
    layers the workload does not run are absent; the caller reports them
    as 0."""
    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    spans = _median_self_seconds(setup.tracers, setup.build_references)
    spans.update(
        _median_self_seconds([r.tracer for r in traced], [r.reference for r in traced])
    )
    unattributed = spans.pop("job", 0.0)
    out: dict[str, float] = {f"{name}.s": seconds for name, seconds in spans.items()}
    out["setup.imports.s"] = setup.imports_s
    counts = traced[-1].tracer.counts if traced else {}
    out.update(counts)
    run_s = out.get("flow.run.s", 0.0)
    if counts.get("flow.ticks"):
        out["flow.run.us_per_tick"] = run_s / counts["flow.ticks"] * 1e6
        out["flow.run.ns_per_hop"] = run_s / counts["flow.hops"] * 1e9
        out["flow.delivered_ratio"] = counts["flow.delivered"] / counts["workloads.flows"]
    if counts.get("disjoint.pairs"):
        out["disjoint.constructive_ratio"] = (
            counts["disjoint.constructive"] / counts["disjoint.pairs"]
        )
    untraced_wall = _median([r.normalised for r in untraced])
    if untraced_wall:
        out[wl.rate] = untraced[-1].work / untraced_wall
    out["wall.samples"] = len(untraced)
    out["wall.host_s"] = _median([r.seconds for r in untraced])
    out["host.reference_s"] = _median([r.reference for r in reps])
    out["trace.overhead_s"] = _median([r.normalised for r in traced]) - untraced_wall
    out["trace.unattributed_s"] = unattributed
    out["trace.coverage"] = _median(
        [1.0 - r.tracer.self_seconds()["job"] / r.seconds for r in traced]
    )
    return out


def _git_commit() -> str | None:
    """The checked-out commit, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _meta(args: argparse.Namespace, scrubbed: list[str]) -> dict:
    from importlib import metadata
    from importlib.util import find_spec

    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "numba": find_spec("numba") is not None,
        "repro_env": {
            k: os.path.relpath(v, ROOT) if k == "REPRO_CACHE_DIR" else v
            for k, v in os.environ.items()
            if k.startswith("REPRO_")
        },
        "repro_env_dropped": scrubbed,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "argv": sys.argv,
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": args.workload,
    }


def _read_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help=f"store this run's outputs as the pinned outputs (seed {DEFAULT_SEED} only)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != DEFAULT_SEED:
        print(f"error: golden outputs are pinned for seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = _read_spec()
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    scrubbed = _isolate_environment()
    golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = None
    if args.seed == DEFAULT_SEED and not args.write_golden:
        golden = golden_all.get(args.workload)

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        trace = bool(args.trace)
        setup = _time_setup(wl, tmp, trace)
        meta = _meta(args, scrubbed)
        reps, ops, outputs = _measure(
            wl, setup.state, args.seed, args.seconds, trace, golden
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    import resource

    if args.write_golden and ops.failed == 0:
        golden_all[args.workload] = outputs
        GOLDEN.write_text(json.dumps(golden_all, indent=2, sort_keys=True) + "\n")
    wall = _median([r.normalised for r in reps if not r.traced])
    if trace:
        values = _layer_metrics(wl, setup, reps)
        units = spec["per_layer"]
        trace_dir = OUT_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        sidecar = trace_dir / f"{args.workload}-seed{args.seed}.json"
        sidecar.write_text(
            json.dumps(
                {
                    "meta": meta,
                    "per_layer": values,
                    "untraced_wall_s": [r.seconds for r in reps if not r.traced],
                    "traced_wall_s": [r.seconds for r in reps if r.traced],
                    "reference_s": [r.reference for r in reps],
                    "setup_host_s": setup.host_s,
                    "setup_reference_s": setup.reference_s,
                    "setup": [t.to_jsonable() for t in setup.tracers],
                    "jobs": [r.tracer.to_jsonable() for r in reps if r.traced],
                },
                indent=1,
            )
            + "\n"
        )
    else:
        values = {
            "setup_s": setup.imports_s + setup.build_s,
            "wall_s": wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1.0 - ops.failed / ops.attempted,
            "work_per_s": reps[-1].work / wall if reps and wall else 0.0,
        }
        units = spec["end_to_end"]
        missing = sorted(set(units) - set(values))
        if missing:
            raise RuntimeError(f"BENCHMARK.json names metrics this run lacks: {missing}")

    metrics = {
        name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()
    }
    print(json.dumps({"meta": meta}))
    print(
        f"{args.workload} seed={args.seed}: job/reference host seconds "
        + ", ".join(
            f"{r.seconds:.3f}/{r.reference:.3f}{'t' if r.traced else ''}" for r in reps
        )
    )
    print(
        "setup (imports, then builds) host/reference seconds "
        + ", ".join(
            f"{host:.3f}/{reference:.3f}"
            for host, reference in zip(setup.host_s, setup.reference_s, strict=True)
        )
    )
    for failure in ops.failures:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": ops.failed == 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
