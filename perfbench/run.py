"""Benchmark of the riskcbf command line on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload field_maps --seed 1 --seconds 55 --trace 0

It imports the package from ``src/``, writes each workload's config
files from the seed (``workloads.py``) and drives ``riskcbf.cli.main``
in this one process, sequentially. An iteration is one input config put
through the workload's commands; a pass is the shipped config plus its
seeded variants. The inputs run round-robin while another iteration fits
in ``--seconds``. Every command's outputs are checked (``checks.py``); a
repeat must reproduce the checked outputs byte for byte. A nonzero exit
or a failed check counts the invocation as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s`` (fastest of the run's fresh interpreters importing riskcbf
and loading an input), ``wall_s`` (CLI seconds per iteration: each
command's median repeat, summed per input and averaged over the
inputs) and ``peak_rss_mb`` (the first variant repeated in a fresh
process, whose output digest must equal the in-process one). ``wall_s``
is scaled to the reference host speed by a fixed kernel timed between
iterations (``hostspeed.py``); the unscaled figure is in the run record.

With ``--trace 1`` each input of the first pass also runs with every
layer function wrapped (``layers.py``, ``tracer.py``); it reports that
pass's per-layer counts and times, the tracing-off throughputs,
correctness shares and wall-time distribution over all untraced
iterations, and ``trace.overhead_s``. A traced iteration must give the
same output digest as its untraced twin.

The run record (machine, versions, seed, input and output SHA-256s,
per-invocation results) goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PER_PASS = 5
MIN_PASSES = 3

sys.path.insert(1, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from checks import Checked, check, digest  # noqa: E402

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import riskcbf, riskcbf.cli; "
    "from riskcbf.config import load_config; load_config(sys.argv[2])"
)


@dataclass
class Op:
    command: str
    input: str
    seconds: float
    exit_code: int
    checked: Checked

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.checked.problems)


@dataclass
class Iteration:
    input: str
    ops: list[Op]
    digest: str

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


@dataclass
class Tally:
    """Everything the run measured, over all of its iterations."""

    walls: list[tuple[str, float]] = field(default_factory=list)
    traced_walls: list[tuple[str, float]] = field(default_factory=list)
    timed: list[list[Op]] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    kernel: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    known: dict[str, dict[str, tuple[Checked, str]]] = field(default_factory=dict)
    cmd_s: dict[str, float] = field(default_factory=dict)
    shipped_s: dict[str, float] = field(default_factory=dict)
    shipped_n: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    grid_cells: int = 0
    sim_steps: int = 0
    iterations: int = 0


def run_iteration(main, workload: str, name: str, cfg: Path, text: str, out_dir: Path,
                  tracer=None, counters=None, known: dict | None = None) -> Iteration:
    """Run one input through the workload's commands and check the outputs.

    ``known`` maps a command to the checked outputs of an earlier run of
    the same input and their digest. A repeat whose outputs have that
    digest is that checked output again, so it is not parsed a second
    time; one that differs is checked in full and counted as failed.
    """
    ops = []
    files = []
    for command in workloads.COMMANDS[workload]:
        out = out_dir / command
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--config", str(cfg), "--out", str(out)]
        sink = io.StringIO()
        span = tracer.enter(f"cli.{command}") if tracer else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - start
        if tracer:
            tracer.exit(span)
            counters.end_command()
        if code != 0:
            checked = Checked(problems=[f"{command}: exit code {code}: {sink.getvalue()[-300:]}"])
        elif known and command in known and _same_output(known[command], out_dir):
            checked = replace(known[command][0])
        else:
            checked = check(command, out, text)
            if known and command in known:
                checked.problems.append(f"{command}: outputs differ from the first run of this input")
        files += checked.files
        ops.append(Op(command, name, seconds, code, checked))
    return Iteration(name, ops, digest(files, out_dir))


def _same_output(first: tuple[Checked, str], out_dir: Path) -> bool:
    checked, first_digest = first
    try:
        return digest(checked.files, out_dir) == first_digest
    except OSError:
        return False


def write_inputs(workload: str, seed: int, run_dir: Path) -> list[tuple[str, Path, str]]:
    inputs = []
    in_dir = run_dir / "inputs"
    in_dir.mkdir(parents=True, exist_ok=True)
    for name, text in workloads.generate(workload, seed, ROOT):
        if text is None:
            path = ROOT / workloads.SHIPPED[workload]
            text = path.read_text(encoding="utf-8")
        else:
            path = in_dir / f"{name}.cfg"
            path.write_text(text, encoding="utf-8")
        inputs.append((name, path, text))
    return inputs


def measure_setup(cfg: Path) -> float:
    """Seconds from a fresh interpreter through ``import riskcbf`` and
    ``load_config`` of one input."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src"), str(cfg)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    return time.perf_counter() - start


def fresh_iteration(args, name: str, cfg: Path, run_dir: Path) -> dict:
    """One iteration in a fresh interpreter; returns its ops, digest and peak RSS."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--trace", "0", "--child-input", name, str(cfg), str(run_dir / "fresh")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"fresh-process iteration failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_main(args) -> int:
    import riskcbf.cli

    name, cfg, out_dir = args.child_input
    cfg = Path(cfg)
    it = run_iteration(riskcbf.cli.main, args.workload, name, cfg, cfg.read_text(encoding="utf-8"), Path(out_dir))
    print(json.dumps({
        "digest": it.digest,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": [{"command": op.command, "exit_code": op.exit_code, "problems": op.checked.problems}
                for op in it.ops],
    }))
    return 0


def record_iteration(tally: Tally, it: Iteration, out_dir: Path, shipped: bool, traced: bool) -> None:
    tally.ops += it.ops
    if tally.digests.setdefault(it.input, it.digest) != it.digest:
        tally.problems.append(f"{it.input}: output digest differs between runs of the same input")
    known = tally.known.setdefault(it.input, {})
    for op in it.ops:
        if not op.failed and op.command not in known:
            known[op.command] = (op.checked, digest(op.checked.files, out_dir))
    if traced:
        tally.traced_walls.append((it.input, it.seconds))
        return
    tally.walls.append((it.input, it.seconds))
    tally.timed.append(it.ops)
    tally.shipped_n += shipped
    for op in it.ops:
        tally.grid_cells += op.checked.grid_cells
        tally.sim_steps += op.checked.sim_steps
        tally.cmd_s[op.command] = tally.cmd_s.get(op.command, 0.0) + op.seconds
        if shipped:
            tally.shipped_s[op.command] = tally.shipped_s.get(op.command, 0.0) + op.seconds


def measure(args, main, inputs, run_dir: Path, tracing=None) -> Tally:
    """Run the inputs round-robin, at least ``MIN_PASSES`` times each so
    the wall-time tail has ten or more samples above it, then on while the
    next iteration fits in ``--seconds`` by its input's last duration.

    Untraced, a sample of the host-speed kernel is taken before every
    iteration and after the last, and a set-up sample ``SETUP_PER_PASS``
    times a pass at most, spreading those samples over the run. With
    ``tracing`` (a tracer and its counters) every input of the first pass
    also runs traced, alternating which of the pair goes first; the layer
    functions are wrapped only for the traced one.
    """
    tally = Tally()
    out_dir = run_dir / "out"
    setup_every = -(-len(inputs) // SETUP_PER_PASS)
    last: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        idx = tally.iterations % len(inputs)
        name, cfg, text = inputs[idx]
        elapsed = time.perf_counter() - start
        if tally.iterations >= MIN_PASSES * len(inputs) and elapsed + last[name] > args.seconds:
            if not tracing:
                tally.kernel.append(hostspeed.sample())
            return tally
        it_start = time.perf_counter()
        if not tracing:
            tally.kernel.append(hostspeed.sample())
            if idx % setup_every == 0:
                tally.setup.append(measure_setup(cfg))
        twins = tracing is not None and tally.iterations < len(inputs)
        order = (False, True) if idx % 2 == 0 else (True, False)
        for traced in order if twins else (False,):
            if traced:
                tracer, counters, trace = tracing
                tracer.begin(idx)
                tracer.install()
                try:
                    it = run_iteration(main, args.workload, name, cfg, text, out_dir, tracer, counters)
                finally:
                    tracer.restore()
                trace.add(tracer.spans)
            else:
                it = run_iteration(main, args.workload, name, cfg, text, out_dir, known=tally.known.get(name))
            record_iteration(tally, it, out_dir, shipped=idx == 0, traced=traced)
        tally.iterations += 1
        last[name] = time.perf_counter() - it_start


def per_iteration(tally: Tally, speed: list[float]) -> float:
    """CLI seconds of one iteration: each command's seconds times its
    iteration's entry of ``speed``, the median over the repeats of each
    command on each input, summed per input and averaged over the inputs.

    Repeats of one command on one input differ only by the machine's
    speed at the time, which swings by a third or more on a shared host;
    the speed factors (``hostspeed.factors``) take most of that out and
    the median the rest. Inputs differ in real work (a seeded variant may
    have fewer level crossings or a shorter run), so they are averaged,
    which varies less from seed to seed than their median does. The plain
    median of all iterations is ``wall_s.p50_s``.
    """
    repeats: dict[tuple[str, str], list[float]] = {}
    for factor, ops in zip(speed, tally.timed, strict=True):
        for op in ops:
            repeats.setdefault((op.input, op.command), []).append(op.seconds * factor)
    per_input: dict[str, float] = {}
    for (name, _), seconds in repeats.items():
        per_input[name] = per_input.get(name, 0.0) + statistics.median(seconds)
    return statistics.fmean(per_input.values())


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its value."""
    n = len(values)
    if n < 11:
        raise ValueError(f"{n} wall-time samples leave no percentile with ten above it")
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def outcome_metrics(tally: Tally) -> dict[str, float]:
    """Tracing-off throughputs, the correctness shares and the wall-time
    sample count and tail."""
    failed = sum(op.failed for op in tally.ops)
    runs = sum(op.checked.sim_runs for op in tally.ops)
    unsafe = sum(op.checked.unsafe_runs for op in tally.ops)
    field_s = tally.cmd_s.get("field", 0.0)
    sim_s = tally.cmd_s.get("simulate", 0.0)
    walls = [seconds for _, seconds in tally.walls]
    tail_pct, tail_s = tail(walls)
    return {
        "grid_cells_per_s": tally.grid_cells / field_s if field_s else 0.0,
        "sim_steps_per_s": tally.sim_steps / sim_s if sim_s else 0.0,
        "failed_ops": failed / len(tally.ops),
        "unsafe_run_share": unsafe / runs if runs else 0.0,
        "wall_s.samples": len(walls),
        "wall_s.p50_s": statistics.median(walls),
        "wall_s.tail_pct": tail_pct,
        "wall_s.tail_s": tail_s,
    }


def run_record(args, inputs, tally: Tally, extra: dict) -> dict:
    import numpy
    import riskcbf

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "riskcbf_numba_enabled": getattr(riskcbf, "NUMBA_ENABLED", "absent"),
        "git_commit": commit,
        "inputs_sha256": {name: hashlib.sha256(text.encode()).hexdigest() for name, _, text in inputs},
        "outputs_sha256": tally.digests,
        "iterations": tally.iterations,
        "problems": tally.problems,
        "ops": [{"command": op.command, "input": op.input, "seconds": op.seconds, "exit_code": op.exit_code,
                 "problems": op.checked.problems} for op in tally.ops],
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHIPPED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-input", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/riskcbf/cli.py", workloads.SHIPPED[args.workload], "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a riskcbf checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.child_input:
        return child_main(args)
    try:
        return bench(args)
    except Exception:  # noqa: BLE001 - report and exit without a result line
        traceback.print_exc()
        return 1


def bench(args) -> int:
    import riskcbf.cli
    from layers import TARGETS, Counters, TraceTotals, per_layer
    from tracer import Tracer

    if (ROOT / "src").resolve() not in Path(riskcbf.cli.__file__).resolve().parents:
        raise RuntimeError(f"imported riskcbf from {riskcbf.cli.__file__}, not from this checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = write_inputs(args.workload, args.seed, run_dir)
    extra: dict = {}

    if args.trace == 0:
        measure_setup(inputs[0][1])  # fills the bytecode cache
        hostspeed.sample()
        tally = measure(args, riskcbf.cli.main, inputs, run_dir)
        # the first seeded variant again, in a fresh interpreter
        name, cfg, _ = inputs[1]
        fresh = fresh_iteration(args, name, cfg, run_dir)
        for op in fresh["ops"]:
            # counted as invocations, not as further closed-loop runs
            checked = Checked(problems=op["problems"])
            tally.ops.append(Op(op["command"], f"{name} (fresh process)", 0.0, op["exit_code"], checked))
        if fresh["digest"] != tally.digests[name]:
            tally.problems.append(f"{name}: fresh-process output digest differs from the in-process one")
        metrics = {
            # the fastest sample: the one the host slowed least
            "setup_s": min(tally.setup),
            "wall_s": per_iteration(tally, hostspeed.factors(tally.kernel)),
            "peak_rss_mb": fresh["peak_rss_kb"] / 1024.0,
        }
        wanted = spec["end_to_end"]
        extra = {
            "unscaled_wall_s": per_iteration(tally, [1.0] * len(tally.timed)),
            "kernel_samples": tally.kernel,
            "setup_samples": tally.setup,
            "wall_samples": tally.walls,
            **outcome_metrics(tally),
        }
    else:
        counters, trace = Counters(), TraceTotals()
        tracer = Tracer(TARGETS, "riskcbf", counters.hooks())
        tally = measure(args, riskcbf.cli.main, inputs, run_dir, (tracer, counters, trace))
        metrics = per_layer(trace, counters)
        metrics.update(outcome_metrics(tally))
        for command in ("field", "audit", "simulate", "feasibility"):
            # per pass of all inputs, and per run of the shipped config
            metrics[f"cli.{command}.s"] = tally.cmd_s.get(command, 0.0) * len(inputs) / len(tally.walls)
            metrics[f"cli.{command}.shipped_s"] = tally.shipped_s.get(command, 0.0) / tally.shipped_n
        # the first pass's untraced twins, which ran next to the traced ones
        untraced = statistics.fmean(seconds for _, seconds in tally.walls[: len(inputs)])
        traced = statistics.fmean(seconds for _, seconds in tally.traced_walls)
        metrics["wall_s.untraced_s"] = untraced
        metrics["wall_s.traced_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        wanted = spec["per_layer"]
        extra = {
            "absent": tracer.absent,
            "wall_samples": tally.walls,
            "traced_wall_samples": tally.traced_walls,
            "spans": {name: vars(st) for name, st in sorted(trace.stats.items())},
        }

    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"unlisted {sorted(set(metrics) - set(units))}"
        )
    failed = sum(op.failed for op in tally.ops)
    record = run_record(args, inputs, tally, {"metrics": metrics, **extra})
    results = OUT / "results" / f"{run_dir.name}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for sub in ("out", "fresh"):
        shutil.rmtree(run_dir / sub, ignore_errors=True)

    for problem in tally.problems + [p for op in tally.ops for p in op.checked.problems]:
        print(f"perfbench: {problem}")
    if args.trace:
        print(f"perfbench: absent traced names: {', '.join(tracer.absent) or 'none'}")
    print(f"perfbench: {len(tally.ops)} CLI invocations in {tally.iterations} iterations; record in {results.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not tally.problems,
        "attempted": len(tally.ops),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
