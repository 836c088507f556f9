"""frobsplit benchmark: seeded end-to-end workloads with per-layer tracing.

Run from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

One process, one client, a closed loop: each job starts when the previous one
has finished.  Workloads (see ``workloads.py`` and ``NOTES.md``):

* ``certify``: ``fsplit``, ``charp-cert``, ``symb-cert`` and ``fibers``
  through ``cli.main`` on generated problem files;
* ``verify``: ``verify-cert`` through ``cli.main`` on certificates produced
  during set-up;
* ``sweep``: tiny ``compatible_check`` / ``fedder_membership`` instances
  through the library.

With ``--trace 0`` the run measures whole rotations, at least
``MIN_ROTATIONS`` of them, until the job time reaches ``--seconds``, and
reports the end-to-end metrics.  Their times are wall seconds scaled to a
reference machine speed: a fixed pure-Python probe runs between jobs, and
each job's time is multiplied by ``PROBE_REFERENCE_S`` over the median of
the last ``PROBE_WINDOW`` probe times (raw figures are printed too).  With ``--trace 1`` the run takes a fixed
job set (the first ``TRACE_ROTATIONS`` rotations), runs it once untraced and
twice traced, and reports the per-layer metrics of the first traced pass in
raw seconds; the counts must repeat exactly in the second.  Every job's output
is checked, and the first rotation is run again at the end: its stdout and
certificate digests must not change.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--write-spec`` writes
``BENCHMARK.json`` from the metric tables below instead of running.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import workloads as wl
from spans import LAYERS, PRODUCERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

RUN_SECONDS = 15
SETUP_REPEATS = 3
MIN_ROTATIONS = 3
TRACE_ROTATIONS = {"certify": 1, "verify": 1, "sweep": 50}
TAIL_PERCENTILES = (50, 90, 99, 99.9)
PROBE_EVERY_S = 0.5
PROBE_WINDOW = 5
PROBE_REFERENCE_S = 0.0095

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

REPLAY_OPS = (
    "bracket_colon", "initial_generators", "membership", "leading_monomial", "divides",
    "squarefree_monomial", "squarefree_initial", "monomial_dimension", "symbolic_power",
    "intersection", "weight_gb", "initial_forms", "homogenize", "fiber_zero", "dehomogenize",
    "w_homogeneous", "outside_variable_bracket", "contained_in_variable_bracket", "note",
)
COUNT_METRICS = (
    "groebner.reduced_gb.calls",
    "groebner.reduced_gb.cache_hits",
    "groebner.reduced_gb.out_elements",
    "groebner.normal_form.calls",
    "groebner.member.calls",
    "ideal_ops.intersect.calls",
    "ideal_ops.colon.calls",
    "ideal_ops.saturate.iterations",
    "frobenius.fedder_colon.calls",
    "frobenius.fedder_colon.buchberger_runs",
    "frobenius.compatible_check.calls",
    "frobenius.compatible_check.memberships",
    "frobenius.trace.calls",
    "field_poly.Polynomial.new.calls",
    "field_poly.Polynomial.mul.calls",
    "criteria.replay.steps",
)
SELF_TIME_SPANS = (
    "groebner.reduced_gb",
    "groebner.normal_form",
    "groebner.presentation_from_gb",
    "ideal_ops.intersect",
    "frobenius.compatible_check",
    "frobenius.trace",
    "field_poly.Polynomial.new",
    "field_poly.Polynomial.mul",
    "field_poly.RingContext.parse",
    "cli.main",
    "cli.parse_problem",
)
TIME_METRICS = (
    tuple(f"{name}.self_s" for name in SELF_TIME_SPANS)
    + ("criteria.produce.self_s",)
    + tuple(f"criteria.replay.{op}.s" for op in REPLAY_OPS)
    + tuple(f"layer.{layer}.self_s" for layer in LAYERS + ("unattributed",))
    + ("trace.job_s", "trace.untraced_job_s", "trace.overhead_s")
)
# Times of layers that some workload never reaches read 0 on every run of that
# workload; they are printed in the report but kept out of BENCHMARK.json,
# where a time that never changes is refused.
REPORT_ONLY_TIMES = frozenset(
    (
        "frobenius.compatible_check.self_s",
        "frobenius.trace.self_s",
        "field_poly.RingContext.parse.self_s",
        "cli.main.self_s",
        "cli.parse_problem.self_s",
        "criteria.produce.self_s",
        "layer.cli.self_s",
        "layer.criteria.self_s",
    )
    + tuple(f"criteria.replay.{op}.s" for op in REPLAY_OPS)
)
PER_LAYER = [
    (name, "count", "higher" if name.endswith("cache_hits") else "lower") for name in COUNT_METRICS
] + [(name, "s", "lower") for name in TIME_METRICS if name not in REPORT_ONLY_TIMES]


# -- library ----------------------------------------------------------------------


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources to import)."""


def import_library() -> SimpleNamespace:
    """Import frobsplit afresh from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "frobsplit" / "__init__.py").is_file():
        raise SetupError(f"no frobsplit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "frobsplit" or m.startswith("frobsplit.")]:
        del sys.modules[name]
    package = importlib.import_module("frobsplit")
    if Path(package.__file__).resolve().parent != (src / "frobsplit").resolve():
        raise SetupError(f"imported frobsplit from {package.__file__}, not from {src}")
    mods = {layer: importlib.import_module(f"frobsplit.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **mods)


# -- machine-speed probe ----------------------------------------------------------

class Probe:
    """The machine-speed probe (``probe.py``) in a child process.

    ``seconds()`` asks the child for one probe time and waits for it; the
    child's memory stays out of this process's peak resident set size.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- running jobs ----------------------------------------------------------------------


@dataclass
class Outcome:
    job: wl.Job
    seconds: float
    code: int | None = None
    stdout: str = ""
    cert: str | None = None
    digest: str = ""
    problems: list = field(default_factory=list)
    scaled: float = 0.0  # seconds at the reference machine speed


class Runner:
    """Runs one job at a time; only the call into frobsplit is timed and traced."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.lib: SimpleNamespace | None = None
        self.tracer: Tracer | None = None

    def run(self, job: wl.Job) -> Outcome:
        if job.payload:
            return self._run_instance(job)
        return self._run_cli(job)

    def _start(self) -> float:
        if self.tracer is not None:
            self.tracer.start_job()
        return time.perf_counter()

    def _stop(self, t0: float, problems: list) -> float:
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            problems += self.tracer.end_job(seconds)
        return seconds

    def _run_cli(self, job: wl.Job) -> Outcome:
        paths = {}
        for name, text in job.files.items():
            paths[name] = self.workdir / f"{name}.txt"
            paths[name].write_text(text, encoding="utf-8")
        cert_path = self.workdir / "out_cert.json"
        if job.cert_out:
            paths["cert"] = cert_path
            cert_path.unlink(missing_ok=True)
        argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in job.argv]
        out, err = io.StringIO(), io.StringIO()
        problems = []
        code = None
        t0 = self._start()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a failed run
            problems.append(f"exception {type(exc).__name__}: {exc}")
        seconds = self._stop(t0, problems)
        cert = cert_path.read_text(encoding="utf-8") if job.cert_out and cert_path.exists() else None
        stdout = out.getvalue()
        digest = hashlib.sha256((stdout + "\0" + (cert or "")).encode()).hexdigest()
        if code is not None and code not in job.expect:
            problems.append(f"exit code {code}, expected one of {sorted(job.expect)}")
        return Outcome(job, seconds, code, stdout, cert, digest, problems)

    def _run_instance(self, job: wl.Job) -> Outcome:
        problems = []
        t0 = self._start()
        try:
            verdicts, J, order = wl.run_sweep_instance(self.lib, job.payload)
        except Exception as exc:  # a crash is a failed job, not a failed run
            problems.append(f"exception {type(exc).__name__}: {exc}")
            return Outcome(job, self._stop(t0, problems), None, problems=problems)
        seconds = self._stop(t0, problems)
        if not wl.sweep_verdicts_ok(job.payload, verdicts):
            problems.append(f"verdicts {verdicts} contradict the theorem")
        text = wl.sweep_digest_text(self.lib, verdicts, J, order)
        digest = hashlib.sha256(text.encode()).hexdigest()
        return Outcome(job, seconds, 0, "", None, digest, problems)


# -- checks -----------------------------------------------------------------------------


def check_cli_outcome(lib, out: Outcome) -> None:
    """Independent checks of one CLI job's output (not timed)."""
    if out.code is None:
        return
    try:
        envelope = json.loads(out.stdout)
    except json.JSONDecodeError:
        out.problems.append("stdout is not a JSON envelope")
        return
    if envelope.get("exit_code") != out.code:
        out.problems.append("envelope exit code differs from the process exit code")
    cmd = out.job.argv[0]
    if cmd == "verify-cert":
        steps = json.loads(out.job.files["cert"])["steps"]
        result = envelope.get("result", {})
        if result.get("verified") is not True or len(result.get("steps", [])) != len(steps):
            out.problems.append("verify-cert did not replay every step successfully")
        return
    if out.cert is None:
        if out.code == 0 or cmd in ("fsplit", "fibers"):
            out.problems.append("no certificate written")
        return
    cert = lib.criteria.Certificate.from_json(out.cert)
    if not lib.criteria.verify_certificate(cert):
        out.problems.append(f"emitted {cert.kind} certificate does not verify")
    if cmd == "charp-cert":
        pf = lib.cli.parse_problem(out.job.files["problem"])
        _, ideal = pf.ideal(None)
        initial = lib.groebner.initial_ideal(ideal, pf.order)
        claimed = sorted(cert.conclusion["initial_generators"])
        if not initial.is_squarefree() or claimed != sorted(m.text() for m in initial.generators):
            out.problems.append("charp-cert success without the squarefree initial ideal it claims")


# -- statistics ------------------------------------------------------------------------


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, _rank(len(sorted_values), q)) - 1]


def _rank(n: int, q: float) -> int:
    return int(-(-n * q // 100))


def tail_percentile(n: int) -> float:
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    return max([q for q in TAIL_PERCENTILES if n - _rank(n, q) >= 10], default=TAIL_PERCENTILES[0])


def digest_of(outcomes) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        h.update(out.digest.encode())
    return h.hexdigest()


# -- the benchmark ----------------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, workdir: Path, probe: Probe):
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.runner = Runner(workdir)
        self.kept: list[Outcome] = []  # outcomes still to be checked or reported
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.run_problems: list[str] = []
        self.report: list[str] = []
        self.probe = probe
        self.probes: list[float] = []
        self.scale = 1.0
        self.since_probe = PROBE_EVERY_S

    # -- jobs -----------------------------------------------------------------

    def prepare(self, rotation: int) -> list[wl.Job]:
        """Rotation ``rotation``'s jobs; for ``verify`` this runs their producers."""
        if self.name == "certify":
            return wl.certify_rotation(self.seed, rotation)
        if self.name == "sweep":
            return wl.sweep_rotation(self.seed, rotation)
        producers = self.run_jobs(wl.verify_producers(self.seed, rotation))
        jobs = []
        for out in producers:
            if out.cert is not None:
                jobs.append(wl.verify_job(out.job, out.cert))
            elif not out.problems:
                out.problems.append("producer wrote no certificate")
        return jobs

    def run_jobs(self, jobs) -> list[Outcome]:
        """Run jobs in order, probing machine speed every PROBE_EVERY_S of job time.

        CLI outcomes are kept for the checks; sweep outcomes are checked as
        they run, so only their failures are kept.
        """
        outs = []
        for job in jobs:
            if self.since_probe >= PROBE_EVERY_S:
                self.probes = self.probes[1 - PROBE_WINDOW:] + [self.probe.seconds()]
                self.scale = PROBE_REFERENCE_S / statistics.median(self.probes)
                self.since_probe = 0.0
            out = self.runner.run(job)
            out.scaled = out.seconds * self.scale
            self.since_probe += out.seconds
            self.attempted += 1
            if job.payload:
                self._account(out)
            else:
                self.kept.append(out)
            outs.append(out)
        return outs

    def _account(self, out: Outcome) -> None:
        self.failures += [f"{out.job.slot}: {p}" for p in out.problems]
        self.failed += bool(out.problems)

    def check_kept(self, check: bool = True) -> None:
        """Check the kept CLI outcomes and count their failures.

        ``check=False`` only counts: for repeats whose digests are compared
        with outcomes already checked.  A producer's certificate is checked
        by the verify-cert job that replays it.
        """
        lib = self.runner.lib
        for out in self.kept:
            if check and (self.name != "verify" or out.job.argv[0] == "verify-cert"):
                check_cli_outcome(lib, out)
            self._account(out)
        self.kept.clear()

    def setup(self) -> tuple[float, list[list[wl.Job]]]:
        """Import and generate SETUP_REPEATS times; returns the median scaled time."""
        times, raw, rotations = [], [], []
        for r in range(SETUP_REPEATS):
            scale = PROBE_REFERENCE_S / self.probe.seconds()
            t0 = time.perf_counter()
            self.runner.lib = import_library()
            rotations.append(self.prepare(r))
            raw.append(time.perf_counter() - t0)
            times.append(raw[-1] * scale)
        self.report.append("setup_s raw samples: " + ", ".join(f"{t:.4f}" for t in raw))
        return statistics.median(times), rotations

    def rerun(self, first: list[Outcome]) -> None:
        """Determinism: running rotation 0 again must reproduce every digest."""
        again = self.run_jobs([o.job for o in first])
        self.report.append(f"rotation-0 digest: {digest_of(first)}")
        bad = sum(a.digest != b.digest for a, b in zip(again, first))
        if bad:
            self.run_problems.append(f"rotation 0 repeated with {bad} different digests")

    # -- modes ----------------------------------------------------------------

    def measure(self) -> dict:
        setup_s, rotations = self.setup()
        scaled, raw = array("d"), array("d")
        first = None
        r = 0
        job_s = 0.0
        while r < MIN_ROTATIONS or job_s < self.seconds:
            outs = self.run_jobs(rotations[r] if r < len(rotations) else self.prepare(r))
            first = first or outs
            scaled.extend(o.scaled for o in outs)
            raw.extend(o.seconds for o in outs)
            job_s += sum(o.seconds for o in outs)
            r += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.check_kept()
        self.rerun(first)
        self.check_kept(check=False)
        scaled, raw = sorted(scaled), sorted(raw)
        n = len(scaled)
        q = tail_percentile(n)
        self.report += [
            f"{r} rotations, {n} jobs in {job_s:.3f} s of job time; "
            f"latency_tail_s is p{q:g} with {n - _rank(n, q)} jobs beyond it",
            f"speed scale (reference / probe): {sum(scaled) / sum(raw):.4f}; raw p50 "
            f"{statistics.median(raw):.6g} s, raw p{q:g} {percentile(raw, q):.6g} s, "
            f"raw throughput {n / sum(raw):.6g} 1/s",
        ]
        return {
            "setup_s": setup_s,
            "latency_p50_s": statistics.median(scaled),
            "latency_tail_s": percentile(scaled, q),
            "throughput_per_s": n / sum(scaled),
            "peak_rss_mb": peak_rss_mb,
        }

    def trace(self) -> dict:
        _, rotations = self.setup()
        jobs = []
        for r in range(TRACE_ROTATIONS[self.name]):
            jobs += rotations[r] if r < len(rotations) else self.prepare(r)
        untraced = self.run_jobs(jobs)
        self.check_kept()
        tracer = Tracer(self.runner.lib)
        tracer.install()
        self.runner.tracer = tracer
        passes = []
        try:
            for _ in range(2):
                tracer.reset()
                outs = self.run_jobs(jobs)
                passes.append((outs, tracer.count_metrics(), per_layer_metrics(tracer)))
        finally:
            self.runner.tracer = None
            tracer.remove()
        self.check_kept(check=False)
        (outs_a, counts_a, metrics), (outs_b, counts_b, _) = passes
        for label, outs in (("first", outs_a), ("second", outs_b)):
            if [o.digest for o in outs] != [o.digest for o in untraced]:
                self.run_problems.append(f"{label} traced pass changed job outputs")
        if counts_a != counts_b:
            diff = sorted(k for k in set(counts_a) | set(counts_b) if counts_a.get(k) != counts_b.get(k))
            self.run_problems.append(f"counts differ between the traced passes: {diff[:8]}")
        untraced_s = sum(o.seconds for o in untraced)
        traced_s = metrics["trace.job_s"]
        metrics["trace.untraced_job_s"] = untraced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        layer_sum = sum(metrics[f"layer.{layer}.self_s"] for layer in LAYERS + ("unattributed",))
        self.report.append(
            f"traced {len(jobs)} jobs: {traced_s:.3f} s traced vs {untraced_s:.3f} s untraced; "
            f"layer self times + unattributed = {layer_sum:.6f} s"
        )
        if abs(layer_sum - traced_s) > 1e-6 * max(traced_s, 1.0):
            self.run_problems.append("layer self times do not sum to the traced job time")
        return metrics


def per_layer_metrics(tracer: Tracer) -> dict:
    """The named per-layer metrics of one traced pass."""
    counts = tracer.count_metrics()
    metrics = {name: counts.get(name, 0) for name in COUNT_METRICS}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = tracer.self_s[name]
    metrics["criteria.produce.self_s"] = sum(tracer.self_s[f"criteria.{p}"] for p in PRODUCERS)
    for op in REPLAY_OPS:
        metrics[f"criteria.replay.{op}.s"] = tracer.total_s[f"criteria.replay.{op}"]
    for layer in LAYERS + ("unattributed",):
        metrics[f"layer.{layer}.self_s"] = tracer.self_s[f"layer:{layer}"]
    metrics["trace.job_s"] = tracer.job_s
    return metrics


# -- output ------------------------------------------------------------------------------


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": "certify", "why": "fsplit/charp-cert/symb-cert/fibers through the CLI: the user path, "
             "dominated by Buchberger runs under Fedder-colon eliminations"},
            {"name": "verify", "why": "verify-cert replays of set-up certificates from cold canonical text: "
             "the same kernel from the replay side, many ideals_equal comparisons"},
            {"name": "sweep", "why": "thousands of tiny compatible_check/fedder_membership instances: "
             "polynomial construction and trace dominate, bases too small for pair criteria"},
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")


def emit(bench: Bench, metrics: dict, units: dict, spec) -> bool:
    """Print the report and the result line; ``spec`` names the metrics of the result."""
    failed = bench.failed
    for line in bench.failures:
        print(f"FAILED {line}")
    for problem in bench.run_problems:
        print(f"FAILED run: {problem}")
    for line in bench.report:
        print(line)
    counts = [n for n in metrics if units[n] == "count"]
    for group in (counts, [n for n in metrics if n not in counts]):
        for name in group:
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_frac = {failed / max(bench.attempted, 1):.6g} ({failed} of {bench.attempted} jobs)")
    correct = failed == 0 and not bench.run_problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in metrics if n in spec},
    }
    print(json.dumps(result))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    os.environ.pop("FROBSPLIT_BUDGET_PAIRS", None)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    probe = Probe()
    try:
        bench = Bench(args.workload, args.seed, args.seconds, workdir, probe)
        if args.trace:
            metrics = bench.trace()
            units = {n: ("count" if n in COUNT_METRICS else "s") for n in metrics}
            spec = {n for n, _, _ in PER_LAYER}
        else:
            metrics = bench.measure()
            units = {n: u for n, u, _, _ in END_TO_END}
            spec = set(units)
        return 0 if emit(bench, metrics, units, spec) else 1
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
