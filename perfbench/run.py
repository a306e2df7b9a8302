"""Subscription-pipeline benchmark: seeded workloads, a correctness gate
and a traced per-layer breakdown.

One run measures one workload (see ``workloads.py``) in a closed loop
with one caller, through the public ``SubscriptionSystem`` API and the
default executor::

    python3 perfbench/run.py --workload crawl-update --seed 1 --seconds 15 --trace 0

Inputs are generated once, then each pass sets up and measures a fresh
system in a child process.  ``--trace 0`` prints every end-to-end metric
(the median over the passes), ``--trace 1`` every per-layer metric; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--all`` runs every
workload untraced and prints each metric by name with its unit.  Run it
from the root of a checkout: the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seed whose notification digests are pinned in ``golden.json``.
DEFAULT_SEED = 1
#: Passes per untraced run, each a fresh process with a set-up and the
#: steady steps; every end-to-end metric is the median over the passes.
PASSES = 3
#: File of the pickled inputs in a run's work directory: a header, then
#: one pickle per step, so a pass holds one step of input at a time.
INPUTS = "inputs.pickle"
OWNER = "bench@example.org"
#: Checkpoint cadence of the recovery workload, in ingested batches.
CHECKPOINT_EVERY = 4
#: ``golden.json`` pins the steady steps of ``GOLDEN_SECONDS`` x rate
#: documents: one pass of any run with ``--seconds`` up to 90.
GOLDEN_SECONDS = 30

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("docs_per_s", "docs/s"),
    ("notify_p50_ms", "ms"),
    ("notify_p99_ms", "ms"),
    ("cpu_ms_per_doc", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    for variable in ("REPRO_EXECUTOR", "REPRO_BENCH_SCALE"):
        os.environ.pop(variable, None)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program at {source}/repro; run from a checkout root")
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(source.resolve()):
        sys.exit(f"error: imported repro from {repro.__file__}, not {source}")


# -- one system under test ---------------------------------------------------------


class Probe:
    """The benchmark's notification sink: records every notification and,
    per document, the time from the generator yielding its fetch to the
    sink receiving its notification batch."""

    def __init__(self) -> None:
        self.stamps: Dict[str, float] = {}
        self.latencies: List[float] = []
        self.notified: List[tuple] = []

    def stream(self, fetches):
        for fetch in fetches:
            self.stamps[fetch.url] = perf_counter()
            yield fetch

    def on_notify(self, batch) -> None:
        stamp = self.stamps.pop(batch[0].document_url, None)
        if stamp is not None:
            self.latencies.append(perf_counter() - stamp)
        self.notified.extend(
            (n.complex_code, n.document_url, n.timestamp) for n in batch
        )


class Harness:
    """One system built from a workload's inputs, and the replay of its steps.

    ``reference=True`` builds the correctness reference: the naive
    matcher, and one ``feed`` call per document instead of ``run_stream``.
    """

    def __init__(self, sources: List[str], workdir: Path, recovery: bool,
                 reference: bool = False):
        from repro.clock import SimulatedClock
        from repro.core.naive import NaiveMatcher
        from repro.minisql import Database
        from repro.pipeline import SubscriptionSystem
        from repro.repository import SemanticClassifier
        from workloads import START

        self.reference = reference
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        classifier = SemanticClassifier()
        classifier.add_rule("culture", ["museum", "painting"])
        options = {"matcher_factory": NaiveMatcher} if reference else {}
        self.database = (
            Database(str(workdir / "subscriptions.db")) if recovery else None
        )
        self.system = SubscriptionSystem(
            clock=SimulatedClock(START), classifier=classifier,
            database=self.database, **options,
        )
        self.probe = Probe()
        self.system.processor.add_sink(self.probe.on_notify)
        #: Subscriptions the cost controller refused; their slots stay empty.
        self.refused = 0
        self.slots = [self.subscribe(source) for source in sources]
        self.recovery = None
        self.journal = str(workdir / "runtime.journal")
        if recovery:
            self.recovery = self.system.enable_recovery(
                self.journal, checkpoint_every=CHECKPOINT_EVERY
            )
        self.docs = 0
        #: (notifications, reports, emails) after 0, 1, 2 ... steps.
        self.marks: List[Tuple[int, int, int]] = [self.mark()]

    def subscribe(self, source: str) -> Optional[int]:
        """Subscribe as a default user, so every subscription passes the
        cost controller's checks.  A refusal is deterministic, so the
        reference refuses the same ones."""
        from repro.errors import ResourceLimitError

        try:
            return self.system.subscribe(source, owner_email=OWNER)
        except ResourceLimitError:
            self.refused += 1
            return None

    def mark(self) -> Tuple[int, int, int]:
        return (
            len(self.probe.notified),
            self.system.reporter.stats.reports_generated,
            self.system.email_sink.total_sent,
        )

    def apply(self, step) -> None:
        kind, payload = step
        system = self.system
        if kind == "feed":
            if self.reference:
                for fetch in payload:
                    system.feed(fetch)
            else:
                system.run_stream(self.probe.stream(payload))
            self.docs += len(payload)
        elif kind == "churn":
            for slot, source in payload:
                if self.slots[slot] is not None:
                    system.unsubscribe(self.slots[slot])
                self.slots[slot] = self.subscribe(source)
        else:
            system.advance_time(payload)

    def close(self) -> None:
        if self.recovery is not None:
            self.recovery.close()
        if self.database is not None:
            self.database.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- correctness gate ----------------------------------------------------------


def digests(notified: List[tuple], marks) -> List[str]:
    """Order-insensitive digest of the notifications plus the report and
    email counts, after every step: a sum of per-notification hashes, so
    prefixes are cheap and hash-seed order cannot matter."""
    total = 0
    position = 0
    out = []
    for count, reports, emails in marks:
        for code, url, timestamp in notified[position:count]:
            line = f"{code} {url} {timestamp!r}".encode()
            total += int.from_bytes(
                hashlib.blake2b(line, digest_size=16).digest(), "big"
            )
        position = count
        out.append(f"{total % (1 << 128):032x}:{reports}:{emails}")
    return out


def load_golden() -> Dict[str, List[str]]:
    path = HERE / "golden.json"
    return json.loads(path.read_text()) if path.exists() else {}


def gate(name: str, seed: int, scale: float, measured: List[str],
         reference: str) -> List[str]:
    """Failures of one run: its final digest against the reference, and
    (default seed, full scale) its digests against the golden record."""
    failures = []
    if measured[-1] != reference:
        failures.append(f"digest {measured[-1]} != reference {reference}")
    golden = load_golden().get(name) if seed == DEFAULT_SEED else None
    if golden is not None and scale == 1.0:
        step = min(len(measured), len(golden)) - 1
        if measured[step] != golden[step]:
            failures.append(
                f"digest after step {step} {measured[step]} != golden"
                f" {golden[step]}"
            )
    return failures


# -- one pass, in a fresh process ----------------------------------------------------


def replay(harness: Harness, steps) -> None:
    for step in steps:
        harness.apply(step)
        harness.marks.append(harness.mark())


def steady(harness: Harness, steps) -> Tuple[List[float], List[float]]:
    """Apply the steady steps; returns the wall and the CPU seconds of
    each step, CPU time including children."""
    walls, cpus = [], []
    children = resource.RUSAGE_CHILDREN
    for step in steps:
        child0 = resource.getrusage(children)
        cpu0 = process_time()
        start = perf_counter()
        harness.apply(step)
        walls.append(perf_counter() - start)
        child1 = resource.getrusage(children)
        cpus.append(
            process_time() - cpu0
            + (child1.ru_utime + child1.ru_stime)
            - (child0.ru_utime + child0.ru_stime)
        )
        harness.marks.append(harness.mark())
    return walls, cpus


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def max_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def fed(steps) -> int:
    return sum(len(payload) for kind, payload in steps if kind == "feed")


def write_inputs(path: Path, header: dict, day0, steps) -> None:
    with path.open("wb") as handle:
        pickle.dump(header, handle, protocol=pickle.HIGHEST_PROTOCOL)
        for step in day0 + steps:
            pickle.dump(step, handle, protocol=pickle.HIGHEST_PROTOCOL)


def read_steps(handle, count: int):
    for _ in range(count):
        yield pickle.load(handle)


def measure_pass(workdir: Path, traced: bool) -> dict:
    """Set up one system from the pickled inputs next to ``workdir`` and
    replay the steady steps; runs in a process of its own, so RSS, heap
    and caches start fresh and the generator is not in memory."""
    gc.collect()
    # RSS counts what the system adds to the interpreter and the imports,
    # plus the inputs of day 0 or of one steady step.
    baseline = max_rss_mb()
    with (workdir.parent / INPUTS).open("rb") as handle:
        inputs = pickle.load(handle)
        day0 = list(read_steps(handle, inputs["day0"]))
        steps = read_steps(handle, inputs["steps"])
        if traced:
            return traced_pass(inputs, day0, list(steps), workdir)
        start = perf_counter()
        harness = Harness(inputs["sources"], workdir, inputs["recovery"])
        replay(harness, day0)
        setup = perf_counter() - start
        del day0
        harness.probe.latencies.clear()
        rejected = harness.system.documents_rejected
        gc.collect()
        # Each step is read from the file between the timed steps.
        walls, cpus = steady(harness, steps)
    rss = max_rss_mb() - baseline
    result = {
        "setup_s": setup,
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "step_wall_s": walls,
        "step_cpu_s": cpus,
        "latencies_s": harness.probe.latencies,
        "rss_mb": rss,
        "baseline_mb": baseline,
        "rejected": harness.system.documents_rejected - rejected,
        "refused": harness.refused,
        "executor": harness.system.executor_spec.render(),
        "digests": digests(harness.probe.notified, harness.marks),
    }
    harness.close()
    return result


def traced_pass(inputs: dict, day0, steps, workdir: Path) -> dict:
    """Replay set-up and the steady steps with every layer wrapped."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install(tracer)
    tracer.wrap_method(Probe, "on_notify", "bench.sink")
    try:
        gc.collect()
        start = perf_counter()
        harness = Harness(inputs["sources"], workdir, inputs["recovery"])
        replay(harness, day0)
        setup_done = perf_counter()
        rejected = harness.system.documents_rejected
        replay(harness, steps)
        end = perf_counter()
    finally:
        tracer.uninstall()
    metrics = layers.per_layer(tracer, harness, end - start)
    result = {
        "metrics": metrics,
        "wall_s": end - setup_done,
        "rejected": harness.system.documents_rejected - rejected,
        "refused": harness.refused,
        "digests": digests(harness.probe.notified, harness.marks),
    }
    harness.close()
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{inputs['name']}-{inputs['seed']}.json").write_text(
        json.dumps({"spans": tracer.spans, "metrics": metrics})
    )
    return result


def spawn(*args) -> dict:
    """Run this script with ``args`` in a child process, wait for it and
    return the JSON object on its last output line.

    A child inherits the peak RSS of its parent across ``exec``, so the
    runner keeps the generator out of its own process: a pass's RSS
    baseline is then the interpreter and the program's imports.
    """
    child = subprocess.run(
        [sys.executable, __file__, *map(str, args)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(child.stdout.strip().splitlines()[-1])


def generate_inputs(name: str, seed: int, seconds: float, scale: float,
                    workdir: Path) -> dict:
    """Generate a run's inputs from the seed into ``workdir``."""
    from workloads import WORKLOADS

    start = perf_counter()
    workload = WORKLOADS[name](seed, scale)
    sources = workload.subscriptions()
    day0, steps = workload.generate(
        math.ceil(seconds * workload.rate / PASSES)
    )
    generate = perf_counter() - start
    write_inputs(
        workdir / INPUTS,
        {"name": name, "seed": seed, "recovery": workload.recovery,
         "sources": sources, "day0": len(day0), "steps": len(steps)},
        day0, steps,
    )
    return {"generate_s": generate, "docs": fed(steps)}


# -- one run ------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, workdir: Optional[Path] = None) -> dict:
    """One benchmark run; returns the result object (see module doc).

    Each pass feeds ``seconds * rate / PASSES`` documents of the
    workload, rounded up to a whole step, so every commit measures the
    same work for a given seed.  Untraced, the run makes ``PASSES``
    passes: set-up time and RSS are medians over them, throughput and CPU
    time sum each step's median over them, and the latency percentiles
    pool the passes' samples.  Traced, it makes
    one untraced pass and one traced pass of the same steps.
    """
    workdir = workdir or HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(name, seed, seconds, trace, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float, workdir: Path) -> dict:
    generated = spawn(
        "--generate", workdir, "--workload", name, "--seed", seed,
        "--seconds", seconds, "--scale", scale,
    )
    generate, docs = generated["generate_s"], generated["docs"]

    if trace:
        passes = [spawn("--pass", workdir / "pass-0", "--trace", 0)]
        passes.append(spawn("--pass", workdir / "pass-1", "--trace", 1))
    else:
        passes = [
            spawn("--pass", workdir / f"pass-{index}", "--trace", 0)
            for index in range(PASSES)
        ]
    # Latency percentiles pool the samples of every untraced pass.
    latencies = [
        latency for one in passes for latency in one.get("latencies_s", ())
    ]

    if trace:
        import layers

        metrics = dict(passes[1]["metrics"])
        metrics["webworld.generate_s"] = generate
        metrics["trace.overhead"] = passes[1]["wall_s"] / passes[0]["wall_s"] - 1
        units = dict(layers.PER_LAYER)
        metrics = {key: metrics[key] for key in units}
    else:

        def median(key: str) -> float:
            return statistics.median(one[key] for one in passes)

        def per_step_median(key: str) -> float:
            """Sum over the steps of each step's median over the passes:
            a burst of host load that slows a few steps of one pass does
            not count."""
            return sum(
                statistics.median(times)
                for times in zip(*(one[key] for one in passes))
            )

        metrics = {
            "setup_s": median("setup_s"),
            "docs_per_s": docs / per_step_median("step_wall_s"),
            "notify_p50_ms": 1000.0 * percentile(latencies, 0.50),
            "notify_p99_ms": 1000.0 * percentile(latencies, 0.99),
            "cpu_ms_per_doc": 1000.0 * per_step_median("step_cpu_s") / docs,
            "peak_rss_mb": median("rss_mb"),
        }
        units = dict(END_TO_END)

    with (workdir / INPUTS).open("rb") as handle:
        inputs = pickle.load(handle)
        reference = Harness(
            inputs["sources"], workdir / "reference", inputs["recovery"],
            reference=True,
        )
        replay(reference, read_steps(handle, inputs["day0"] + inputs["steps"]))
    expected = digests(reference.probe.notified, reference.marks)[-1]
    reference.close()

    failures = [
        f"pass {index}: {failure}"
        for index, one in enumerate(passes)
        for failure in gate(name, seed, scale, one["digests"], expected)
    ]
    failing_passes = len({failure.split(":")[0] for failure in failures})
    failed = sum(one["rejected"] for one in passes) + failing_passes
    attempted = docs * len(passes)
    first = passes[0]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
        "info": {
            "workload": name,
            "seed": seed,
            "passes": len(passes),
            "docs_per_pass": docs,
            "steady_steps": inputs["steps"],
            "notify_samples": len(latencies),
            "offcpu_s": first["wall_s"] - first["cpu_s"],
            "baseline_mb": first["baseline_mb"],
            "refused_subscriptions": sum(one["refused"] for one in passes),
            "failed_frac": failed / attempted,
            "failures": failures,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "executor": first["executor"],
        },
    }


# -- command line -------------------------------------------------------------------


def print_result(result: dict) -> None:
    info = result["info"]
    print(
        f"# {info['workload']} seed={info['seed']} nproc={info['nproc']}"
        f" python={info['python']} executor={info['executor']}"
    )
    for key, metric in result["metrics"].items():
        print(f"{key:36s} {metric['value']:14.4f} {metric['unit']}")
    print(f"{'failed_frac':36s} {info['failed_frac']:14.4f} ratio")
    print(
        f"# passes={info['passes']} docs_per_pass={info['docs_per_pass']}"
        f" steady_steps={info['steady_steps']}"
        f" notify_samples={info['notify_samples']}"
        f" off_cpu_s={info['offcpu_s']:.3f} (first pass)"
        f" baseline_mb={info['baseline_mb']:.1f}"
        f" refused_subscriptions={info['refused_subscriptions']}"
        f" correct={result['correct']}"
    )
    for failure in info["failures"]:
        print(f"# gate failure: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="steady-phase size: seconds x the workload's rate,"
                        " split over the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, one process each")
    parser.add_argument("--record-golden", action="store_true",
                        help="write golden.json for the default seed")
    parser.add_argument("--pass", dest="pass_dir", type=Path,
                        help=argparse.SUPPRESS)
    parser.add_argument("--generate", dest="generate_dir", type=Path,
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.pass_dir is not None:
        print(json.dumps(measure_pass(args.pass_dir, bool(args.trace))))
        return 0
    if args.generate_dir is not None:
        print(json.dumps(generate_inputs(
            args.workload, args.seed, args.seconds, args.scale,
            args.generate_dir,
        )))
        return 0
    if args.record_golden:
        record_golden()
        return 0
    if args.all:
        # One fresh process per workload.
        for name in WORKLOADS:
            sys.stdout.flush()
            subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds)],
                check=True,
            )
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    result.pop("info")
    print(json.dumps(result))
    return 0


def record_golden() -> None:
    """Reference digests after every step of the default seed, over
    ``GOLDEN_SECONDS`` x rate steady documents of each workload."""
    from workloads import WORKLOADS

    golden = {}
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(DEFAULT_SEED)
        sources = workload.subscriptions()
        day0, steps = workload.generate(GOLDEN_SECONDS * workload.rate)
        harness = Harness(
            sources, HERE / "_work" / "golden", workload.recovery,
            reference=True,
        )
        replay(harness, day0 + steps)
        golden[name] = digests(harness.probe.notified, harness.marks)
        harness.close()
        print(f"{name}: {len(golden[name])} digests", flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0) + "\n")


if __name__ == "__main__":
    sys.exit(main())
