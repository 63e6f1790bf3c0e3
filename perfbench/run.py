"""Run one benchmark workload of funcdiss and print its metrics.

    python3 perfbench/run.py --workload evidence --seed 1 --seconds 25 --trace 0

The workload is a closed loop: one caller runs the workload's CLI runs one
after another, in this process, through ``funcdiss.cli.main`` with YAML
documents made from the seed (the path ``funcdiss run.yaml`` takes).  It
repeats whole rounds of the operation list until the rounds have taken
``--seconds``, then checks every output against computations made apart
from the program.

With ``--trace 0`` it reports the end-to-end metrics: set-up time (median
of five fresh interpreters importing funcdiss and building the inputs,
spread between the rounds), the time of one pass over the operation list
(the sum of each operation's median across rounds), and the peak resident
set of this process.  With ``--trace 1`` a warm-up round is followed by
alternating rounds with and without spans around every public funcdiss
function, and one last round records allocation peaks; it reports the
per-layer metrics and writes the spans to
.perfbench/trace-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

# The OpenBLAS behind numpy and scipy would start a thread pool of its own
# on every core; the program is measured single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from functools import lru_cache  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _probe(args: list[str], **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, check=True, timeout=120, **kw)


def setup_sample(workload: str, seed: int) -> float:
    """Time from a fresh interpreter to funcdiss imported and the inputs
    built."""
    start = time.monotonic_ns()
    proc = _probe([str(HERE / "setup_probe.py"), workload, str(seed)])
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def import_seconds(workload: str, seed: int,
                   packages: tuple[str, ...]) -> dict[str, float]:
    """Median self time of each package's modules, from -X importtime."""
    per = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        proc = _probe(["-X", "importtime", str(HERE / "setup_probe.py"),
                       workload, str(seed)])
        totals = dict.fromkeys(packages, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            root = name.strip().split(".")[0]
            if root in totals:
                totals[root] += int(self_us) / 1e6
        for pkg in packages:
            per[pkg].append(totals[pkg])
    return {f"setup.import_{pkg}_s": statistics.median(per[pkg])
            for pkg in packages}


def _digest(workdir: Path, name: str) -> str:
    h = hashlib.sha256()
    for path in [workdir / f"{name}.jsonl",
                 *sorted(workdir.glob(f"{name}_*.csv"))]:
        if path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_round(cli, ops, configs, workdir, tracer, round_):
    """Run every operation once.  Returns, per operation, the exit status
    or the escaped exception, the wall time of the CLI call and a digest of
    the files it wrote."""
    results = []
    for op, config in zip(ops, configs):
        if tracer is not None:
            tracer.begin_op(round_, op.name, op.doc["command"])
        start = time.perf_counter()
        try:
            result = cli.main([str(config)])
        except Exception as exc:  # an escape from the CLI is a failed run
            result = exc
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        results.append((result, seconds, _digest(workdir, op.name)))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "funcdiss" / "__init__.py").is_file():
        print(f"perfbench: no funcdiss sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import yaml

    import funcdiss
    from funcdiss import cli

    import checks
    import tracing
    import workloads

    ops = workloads.build(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    configs = []
    for op in ops:
        path = workdir / f"{op.name}.yaml"
        path.write_text(yaml.safe_dump(dict(op.doc, out=str(workdir / op.name))))
        configs.append(path)

    metrics: dict[str, float] = {}
    per_round = []
    setup: list[float] = []

    def rounds_for(seconds, tracer=None):
        """Whole rounds until their wall time reaches the given seconds, at
        least one.  Untraced runs take a set-up sample between rounds, so
        the samples spread over the run."""
        first = len(per_round)
        spent = 0.0
        while True:
            results = run_round(cli, ops, configs, workdir, tracer,
                                len(per_round))
            per_round.append(results)
            spent += sum(t for _, t, _ in results)
            if spent >= seconds:
                return list(range(first, len(per_round)))
            if not args.trace and len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(args.workload, args.seed))

    def round_wall(rounds):
        """One pass over the operation list: the sum over operations of
        each operation's median time across the rounds."""
        return sum(statistics.median(per_round[r][i][1] for r in rounds)
                   for i in range(len(ops)))

    if not args.trace:
        setup.append(setup_sample(args.workload, args.seed))
        timed = rounds_for(args.seconds)
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(args.workload, args.seed))
        metrics["setup_s"] = statistics.median(setup)
        metrics["wall_s"] = round_wall(timed)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        metrics.update(import_seconds(args.workload, args.seed,
                                      tracing.PACKAGES))
        tracer = tracing.Tracer()

        def one_round(traced: bool) -> int:
            if traced:
                tracer.install(funcdiss)
            [index] = rounds_for(0.0, tracer if traced else None)
            if traced:
                tracer.uninstall()
            return index

        # A first round pays the first-call costs and stays out of the
        # comparison; then traced and untraced rounds alternate, so that
        # a drift in machine speed does not read as tracing overhead.
        one_round(traced=False)
        plain_rounds: list[int] = []
        traced_rounds: list[int] = []
        spent = 0.0
        while spent < args.seconds or not plain_rounds:
            trace_next = len(traced_rounds) <= len(plain_rounds)
            index = one_round(traced=trace_next)
            (traced_rounds if trace_next else plain_rounds).append(index)
            spent += sum(t for _, t, _ in per_round[index])
        tracer.install(funcdiss)
        tracer.track_memory()
        memory = rounds_for(0.0, tracer)
        tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics.update(tracing.median_metrics(
            [tracer.round_metrics(r) for r in traced_rounds]))
        peaks = tracer.round_metrics(memory[0])
        for layer in tracing.MEMORY_LAYERS:
            key = f"{layer}.peak_alloc_mb"
            metrics[key] = peaks[key]
        metrics["trace.overhead_s"] = (round_wall(traced_rounds)
                                       - round_wall(plain_rounds))

    checked = time.perf_counter()
    print("perfbench: round walls " + " ".join(
        f"{sum(t for _, t, _ in results):.3f}" for results in per_round),
        file=sys.stderr)
    for i, op in enumerate(ops):
        print(f"perfbench: {op.name} " + " ".join(
            f"{results[i][1]:.3f}" for results in per_round), file=sys.stderr)

    attempted = failed = 0
    errors: list[str] = []
    cache = checks.GridCache()
    ensemble = lru_cache(maxsize=None)(funcdiss.standard_ensemble)
    for i, op in enumerate(ops):
        outcomes = [results[i] for results in per_round]
        attempted += len(outcomes)
        bad = [r for r, _, _ in outcomes if isinstance(r, Exception) or (
            r == cli.EXIT_ERROR and op.expect.get("exit") != cli.EXIT_ERROR)]
        if bad:
            failed += len(bad)
            print(f"perfbench: {op.name} failed: {bad[0]!r}", file=sys.stderr)
            continue
        if len({digest for _, _, digest in outcomes}) != 1:
            errors.append(f"{op.name}: reruns wrote different reports")
        if op.expect.get("exit") == cli.EXIT_ERROR:
            continue
        out = checks.read_report(workdir / op.name)
        errors += checks.check_op(op, outcomes[-1][0], out, cache, ensemble)
    for err in errors:
        print(f"perfbench: {err}", file=sys.stderr)
    print(f"perfbench: checks took {time.perf_counter() - checked:.1f} s",
          file=sys.stderr)

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": {**UNITS, **tracing.UNITS}[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
