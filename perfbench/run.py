"""Benchmark of the sternbrocot library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) in a closed loop with a
single client: the next operation starts when the previous one has
returned.  The seeded input pool is replayed in whole passes until S
seconds have gone by and at least 100 operations have run, so that the
90th percentile has ten samples beyond it.  Whole passes keep the input
mix exact, and the pool sizes (5 mod 10) put the p50 and p90 sample
positions inside one input's samples instead of between two inputs.  Every output is checked;
operations that raise or fail their check count as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every input
untraced and then traced, one right after the other, in whole passes until
S seconds have gone by, and reports the per-layer metrics per traced
operation plus the tracing overhead (untraced over traced time of the same
operations); its spans are written to .perfbench-out/.  Set-up is
measured after the loop, so that the loop's peak RSS never includes a
set-up probe.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

The package is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MIN_OPS = 100
SETUP_PROBES = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import sternbrocot from this checkout's src/, or return None."""
    if not (SRC / "sternbrocot" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import sternbrocot

    if Path(sternbrocot.__file__).resolve().parent != SRC / "sternbrocot":
        return None
    return sternbrocot


def setup_probe(args) -> int:
    """Child side of the set-up measurement: import, build inputs, report."""
    t0 = time.perf_counter()
    if import_package() is None:
        return 2
    t1 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"import_ms": (t1 - t0) * 1e3}), flush=True)
    return 0


def measure_setup(args) -> tuple[float, float]:
    """Median seconds from a fresh process's start until the package is
    imported and the inputs are built, and median package import in ms."""
    walls, imports = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not line:
                raise RuntimeError("set-up probe failed")
        imports.append(json.loads(line)["import_ms"])
    return statistics.median(walls), statistics.median(imports)


class Loop:
    """Closed-loop replay of a workload's pool, in whole passes."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED {self.wl.name}: {message}", file=sys.stderr)

    def _op(self, index: int, inp, tracer=None) -> int:
        """Run and check one operation; returns its latency in ns."""
        self.attempted += 1
        if tracer is not None:
            tracer.enter("op")
        t0 = time.perf_counter_ns()
        try:
            out = self.wl.run(inp)
            ok = True
        except Exception:  # counted and reported; the loop goes on
            ok = False
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.exit()
        if not ok:
            self._fail(error)
            return t1 - t0
        with tracer.pause() if tracer is not None else contextlib.nullcontext():
            problem = self.wl.check(index, inp, out)
        if problem:
            self._fail(problem)
        return t1 - t0

    def run(self, seconds: float, min_ops: int) -> list[int]:
        """Operation latencies in ns; stops at the first pass boundary after
        `seconds` once `min_ops` operations have run."""
        lat: list[int] = []
        start = time.perf_counter()
        while True:
            for index, inp in enumerate(self.wl.inputs):
                # Each output is freed before the next operation, so peak RSS
                # does not depend on which inputs happen to be neighbours.
                lat.append(self._op(index, inp))
            if time.perf_counter() - start >= seconds and len(lat) >= min_ops:
                return lat

    def run_paired(self, seconds: float, tracer) -> tuple[list[int], list[int]]:
        """Untraced and traced latencies in ns of the same operations: each
        input runs untraced, then at once traced, in whole passes until
        `seconds` have gone by."""
        from tracing import install

        plain: list[int] = []
        traced: list[int] = []
        start = time.perf_counter()
        while True:
            for index, inp in enumerate(self.wl.inputs):
                plain.append(self._op(index, inp))
                uninstall = install(tracer)
                self.wl.tracer = tracer
                try:
                    traced.append(self._op(index, inp, tracer))
                finally:
                    self.wl.tracer = None
                    uninstall()
            if time.perf_counter() - start >= seconds:
                return plain, traced


def peak_rss_mb(workload_name: str) -> float:
    # cli-readme does its work in child processes; report the largest one.
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-readme" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(lat: list[int], peak_mb: float, setup_s: float) -> dict:
    return {
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "op_ms_p50": (statistics.median(lat) / 1e6, "ms"),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[8] / 1e6, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, ops: int, import_ms: float, overhead: float) -> dict:
    stats, counts = tracer.stats, tracer.counts

    def span(name):
        calls, busy, self_ns = stats.get(name, (0, 0, 0))
        return {f"{name}.calls": (calls / ops, "count/op"),
                f"{name}.busy_ms": (busy / ops / 1e6, "ms/op"),
                f"{name}.self_ms": (self_ns / ops / 1e6, "ms/op")}

    def count(name, unit="count/op"):
        return {name: (counts[name] / ops, unit)}

    m = {
        "rationals.objects": (tracer.objects[0] / ops, "count/op"),
        "rationals.compares": (tracer.compares[0] / ops, "count/op"),
        "rationals.max_bits": (tracer.max_bits[0], "bits"),
    }
    m |= span("contfrac") | count("contfrac.terms")
    m |= span("diagram.build") | count("diagram.vertices") | count("diagram.edges") | count("diagram.triangles")
    m |= span("diagram.funnel") | count("diagram.funnel.triangles")
    m |= {k: v for k, v in span("diagram.verify").items() if not k.endswith(".calls")}
    m |= span("lines") | count("lines.members")
    m |= span("links") | count("links.classified")
    m |= span("figures.render") | count("figures.svg_bytes", "B/op") | count("figures.elements")
    m |= count("cli.commands") | {"cli.import_ms": (import_ms, "ms")} | count("cli.exit_nonzero")
    m["trace.op_ms"] = (stats["op"][1] / ops / 1e6, "ms/op")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_info(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sternbrocot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "loop": "closed, 1 client",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if import_package() is None:
        print(f"error: no sternbrocot package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    loop = Loop(wl)
    info = run_info(args)
    try:
        if args.trace == 0:
            lat = loop.run(args.seconds, MIN_OPS)
            # Read before the set-up probes run: for cli-readme this is the
            # largest CLI child, and a probe must not set it.
            peak_mb = peak_rss_mb(wl.name)
            setup_s, _ = measure_setup(args)
            metrics = end_to_end(lat, peak_mb, setup_s)
        else:
            from tracing import Tracer

            tracer = Tracer()
            plain, lat = loop.run_paired(args.seconds, tracer)
            _, import_ms = measure_setup(args)
            metrics = per_layer(tracer, len(lat), import_ms, sum(plain) / sum(lat))
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
            tracer.write(trace_path, {"run": info, "ops": len(lat)})
            info["trace_file"] = str(trace_path.relative_to(ROOT))
    finally:
        wl.close()

    info |= {"ops": len(lat), "pool": len(wl.inputs), "attempted": loop.attempted,
             "failed": loop.failed, "fail_ratio": loop.failed / loop.attempted}
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':28s} {info['fail_ratio']:14.6g} (failed/attempted)")
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
