"""The segtta benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload cohort --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The seed makes the phantom dataset and the run config's seed.
Each measured step is one ``segtta`` CLI command (``run`` or ``ablate``
with ``--out``) in a fresh interpreter, in a closed loop: one client, the
next command starts after the last one ends, always the same command on
the same data. Commands repeat until the next one would overrun
``--seconds`` (at least one runs). After each command, outside the timed
region, ``check.py`` verifies its outputs and the report and masks must be
byte-identical to the first command's.

With ``--trace 0`` the result holds the end-to-end metrics, each the
median over commands; their quartiles and sample counts are printed on
the lines before it. With ``--trace 1`` one untraced and one traced
command run, and the result holds the per-layer metrics of the traced one.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
import json
import os
from pathlib import Path
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 8
# A run must end within 180 s; children are stopped at this many seconds.
RUN_LIMIT_S = 170
# Thread pools of the numeric libraries are pinned to one thread so that
# a run never has more busy threads than the workload's jobs setting.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    command: str
    dims: tuple[int, int, int]
    cases: int
    jobs: int
    process_jobs: int = 1
    labelled: bool = True
    external_thresholds: tuple[float, ...] = ()

    @property
    def variant(self) -> str:
        """The result row that the written masks belong to."""
        return "full" if self.command == "ablate" else "fused"


WORKLOADS = {
    "cohort": Workload("run", (24, 24, 20), 20, jobs=1),
    "volume": Workload("run", (96, 96, 64), 2, jobs=2),
    "ablate": Workload("ablate", (24, 24, 20), 10, jobs=1),
    "deploy": Workload("run", (64, 64, 48), 6, jobs=2, process_jobs=2,
                       labelled=False, external_thresholds=(0.35, 0.45)),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def tiny(workload: Workload) -> Workload:
    """The same workload at smoke-test size."""
    return replace(workload, dims=(12, 12, 10), cases=2)


def _backends(workload: Workload) -> list[dict]:
    if workload.external_thresholds:
        model = shlex.quote(sys.executable) + " " + shlex.quote(
            str((BENCH / "model.py").relative_to(ROOT)))
        return [
            {"kind": "external", "name": f"model{i}",
             "command": f"{model} {{input}} {{output}} {t} {{classes}}"}
            for i, t in enumerate(workload.external_thresholds)
        ]
    return [
        {"kind": "noisy_oracle", "name": f"nb{i}", "confidence": 0.9,
         "jitter": 1, "flip_prob": 0.1}
        for i in range(5)
    ]


def make_inputs(workload: Workload, seed: int, work: Path) -> dict:
    """Write the phantom dataset, manifest and config for one seed."""
    sys.path.insert(0, str(SRC))
    from segtta.phantoms import write_phantom_dataset

    data = work / "data"
    manifest = write_phantom_dataset(
        data, n_cases=workload.cases, dims=workload.dims, seed=seed * 1000,
        with_labels=True,
    )
    entries = json.loads(manifest.read_text())
    cases = [{"id": e["id"], "label_path": data / e["label"]} for e in entries]
    if not workload.labelled:
        for e in entries:
            del e["label"]
        manifest.write_text(json.dumps(entries, indent=2) + "\n")
    config = work / "config.json"
    config.write_text(json.dumps({
        "backends": _backends(workload), "seed": seed,
        "jobs": workload.jobs, "process_jobs": workload.process_jobs,
    }, indent=2) + "\n")
    return {"manifest": manifest, "config": config, "cases": cases}


def _child(args: list[str], env: dict, deadline: float) -> dict:
    """Run child.py in its own process group and return its JSON line.

    The whole group is killed when the child ends or overruns ``deadline``
    (a ``time.monotonic`` value), so no model process outlives it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"child {args[0]} overran the run's time limit") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group has already ended
        proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Session:
    """The commands of one benchmark invocation and their checks."""

    def __init__(self, workload: Workload, inputs: dict, work: Path, env: dict,
                 deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.inputs = inputs
        self.work = work
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests = None
        self.count = 0

    def setup_times(self, repeats: int) -> list[float]:
        args = ["setup", str(self.inputs["config"]), str(self.inputs["manifest"])]
        return [_child(args, self.env, self.deadline)["setup_s"]
                for _ in range(repeats)]

    def command(self, trace_path: str = "-") -> dict:
        out = self.work / f"out{self.count}"
        self.count += 1
        argv = [self.workload.command, "--config", str(self.inputs["config"]),
                "--manifest", str(self.inputs["manifest"]), "--out", str(out),
                "--format", "csv"]
        sample = _child(["command", trace_path, "--", *argv], self.env, self.deadline)
        verdict = check.check_output(out, self.inputs["cases"],
                                     self.workload.variant, self.workload.labelled)
        shutil.rmtree(out, ignore_errors=True)
        bad = dict(verdict["problems"])
        if self.digests is None:
            self.digests = verdict["digests"]
        elif verdict["digests"] != self.digests:
            report_changed = (verdict["digests"].get("report.csv")
                              != self.digests.get("report.csv"))
            for case in self.inputs["cases"]:
                name = f"{case['id']}.nii.gz"
                if report_changed or verdict["digests"].get(name) != self.digests.get(name):
                    bad.setdefault(case["id"], "output bytes differ from the first run")
        self.attempted += len(self.inputs["cases"])
        self.failed += len(bad)
        self.problems += [f"{case}: {reason}" for case, reason in sorted(bad.items())]
        return sample

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def measure(session: Session, seconds: float) -> dict:
    """End-to-end metrics: closed loop of commands for about ``seconds``."""
    session.setup_times(1)  # warm the bytecode and file caches
    # Set-up is sampled before and after the commands, so that one burst of
    # load on the machine does not decide its median.
    setup = session.setup_times(SETUP_REPEATS)
    samples = []
    started = time.monotonic()
    while True:
        samples.append(session.command())
        elapsed = time.monotonic() - started
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    setup += session.setup_times(SETUP_REPEATS)
    series = {"setup_s": setup}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        series[key] = [s[key] for s in samples]
    metrics = {}
    for key, values in series.items():
        q1, median, q3 = _quartiles(values)
        print(f"{key}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"n {len(values)} {END_TO_END_UNITS[key]}")
        metrics[key] = {"value": median, "unit": END_TO_END_UNITS[key]}
    return metrics


def traced(session: Session) -> dict:
    """Per-layer metrics of one traced command, with the tracing overhead."""
    import tracer

    plain = session.command()
    trace_file = session.work / "trace.json"
    with_trace = session.command(str(trace_file))
    trace = json.loads(trace_file.read_text())
    for dotted, name in trace["missing"]:
        print(f"trace target missing: {dotted} (span {name})")
    metrics = tracer.layer_metrics(trace)
    metrics["trace.overhead_frac"] = {
        "value": with_trace["wall_s"] / plain["wall_s"] - 1.0, "unit": "ratio"}
    layers = tracer.aggregate(trace)["layers"]
    total = sum(layers.values()) or 1.0
    print("self time by layer:")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {seconds:9.3f} s  {100 * seconds / total:5.1f} %")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark's")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "segtta" / "__init__.py").is_file():
        print(f"error: no segtta sources under {SRC}", file=sys.stderr)
        return 2

    # Turn a termination request into an exit that runs the clean-up below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env["SEGTTA_TMPDIR"] = os.path.relpath(work / "tmp", ROOT)
    try:
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        inputs = make_inputs(workload, args.seed, work)
        session = Session(workload, inputs, work, env, deadline)
        if args.trace:
            metrics = traced(session)
        else:
            metrics = measure(session, args.seconds)
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another invocation is still using it
    for problem in session.problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps(session.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
