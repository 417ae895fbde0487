"""The fhalloc benchmark: three workloads, timed end to end, with a layer trace.

    python3 perfbench/run.py --workload fig4-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                # every workload in turn, untraced
    python3 perfbench/run.py --trace 1      # every workload in turn, traced

Run from anywhere; the program is imported from the ``src/`` directory next
to this one.  Every study and every set-up probe runs in a fresh interpreter
(``study.py``) with BLAS pinned to one thread.

``--trace 0`` runs whole studies until ``--seconds`` have passed (at least
one), with set-up probes before, between and after them, checks every
study's outputs and prints the end-to-end metrics.  ``--trace 1`` runs one
untraced study with the workload's own worker count and one traced study
inline, and prints the per-layer metrics.  The last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics.  Outputs, traces and the
per-seed output digests go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from study import ROOT, SIZES, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = OUT / "digests.json"

# Set-up probes of an untraced run: one warm-up probe that is discarded,
# PROBES_EDGE before the first study and after the last, PROBES_BETWEEN
# between studies.  Spreading them over the run lets setup_s average over
# the machine's drift as wall_s does.
PROBES_EDGE = 8
PROBES_BETWEEN = 4
# a run must end within 180 s; stop starting studies this close to it
RUN_LIMIT_S = 170.0

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class StudyFailed(RuntimeError):
    """A study interpreter exited nonzero or overran the run's time limit."""


def run_child(workload: str, seed: int, size: str, deadline: float, **opts) -> tuple[dict, float]:
    """Run study.py once; return its result and the monotonic time it was spawned."""
    out_dir = OUT / size / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    result_path = OUT / "study-result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "study.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--size", size, "--out", str(out_dir), "--result", str(result_path)]
    for key, value in opts.items():
        argv += [f"--{key}", str(value)]
    env = dict(os.environ, TMPDIR=str(tmp), **CHILD_ENV)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        err = b"timed out"
    finally:
        # the study's pool workers share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise StudyFailed(f"{workload} study exited with {proc.returncode}: " + " | ".join(tail))
    return json.loads(result_path.read_text()), spawned


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def program_identity() -> dict:
    """Commit hash when the checkout is a git work tree, and a digest of src/."""
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=10
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


class Digests:
    """Output digests per (program, size, workload, seed), kept across runs in one checkout.

    Every study of one program's workload at one seed must write the same
    bytes, whatever its worker count or tracing; a study that does not counts
    as failed.  The key names the program by the digest of its sources and
    the numpy version, so a change that alters outputs starts afresh.
    """

    def __init__(self):
        self.known = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    def agrees(self, key: str, digest: str | None) -> bool:
        if digest is None:
            return True  # the study already failed every cell
        if self.known.setdefault(key, digest) != digest:
            return False
        DIGESTS.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        return True


def tally(results: list[dict], key: str, digests: Digests) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for r in results:
        attempted += r["attempted"]
        if digests.agrees(key, r["digest"]):
            failed += r["failed"]
            problems += r["problems"]
        else:
            failed += r["attempted"]
            problems.append("outputs differ from an earlier study at this seed")
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: float, size: str, deadline: float) -> tuple[dict, list, dict]:
    """Untraced run: set-up probes, then whole studies for `seconds`."""
    warm, _ = run_child(workload, seed, size, deadline, mode="probe")
    setups = []

    def probe(count: int) -> None:
        for _ in range(count):
            r, spawned = run_child(workload, seed, size, deadline, mode="probe")
            setups.append(r["ready"] - spawned)

    probe(PROBES_EDGE)
    studies = []
    begin = time.monotonic()
    while True:
        r, spawned = run_child(workload, seed, size, deadline, **{"brute-force": int(not studies)})
        setups.append(r["ready"] - spawned)
        studies.append(r)
        now = time.monotonic()
        per_study = (now - begin) / len(studies)
        if now - begin + per_study > seconds or now + per_study > deadline:
            break
        probe(PROBES_BETWEEN)
    probe(PROBES_EDGE)
    walls = [r["wall_s"] for r in studies]
    if WORKLOADS[workload]["figure"] is None:
        latencies = [x for r in studies for x in r["latencies_us"]]
    else:
        latencies = [w * 1e6 for w in walls]  # one study is one search over its figure's splits
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in studies) / 1024.0, "MB"),
        "search_p50_us": (quantile(latencies, 0.5), "us"),
        "search_p90_us": (quantile(latencies, 0.9), "us"),
    }
    info = {"studies": len(studies), "setup_samples": len(setups), "search_samples": len(latencies)}
    return metrics, studies, dict(info, facts=warm["facts"])


def trace(workload: str, seed: int, size: str, deadline: float) -> tuple[dict, list, dict]:
    """Traced run: one untraced study, then one traced study with --workers 1."""
    workers = WORKLOADS[workload]["workers"]
    plain, _ = run_child(workload, seed, size, deadline)
    traced, _ = run_child(workload, seed, size, deadline, trace=1, workers=1, **{"brute-force": 0})
    metrics = {name: (m["value"], m["unit"]) for name, m in traced["layers"].items()}
    # both terms from the untraced pool study: the workers' CPU time over
    # the CPU time that workers x the run_cells wall time offers
    pooled = workers > 1 and plain["run_cells_s"] > 0
    metrics["experiments.pool_efficiency"] = (
        plain["worker_cpu_s"] / (workers * plain["run_cells_s"]) if pooled else 0.0,
        "ratio",
    )
    metrics["trace.overhead_s"] = (traced["overhead_s"], "s")
    info = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"], "facts": traced["facts"]}
    return metrics, [plain, traced], info


def run_one(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, studies, info = trace(args.workload, args.seed, args.size, deadline)
        else:
            metrics, studies, info = measure(args.workload, args.seed, args.seconds, args.size, deadline)
    except StudyFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    facts = dict(info.pop("facts"), **program_identity())
    program = f"{facts['src_sha256']}/numpy-{facts['numpy']}"
    attempted, failed, problems = tally(studies, f"{program}/{args.size}/{args.workload}/{args.seed}", Digests())
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  " + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value!r} {unit}")
    print(f"  {'failed_frac':42s} {failed / attempted!r} ({failed} of {attempted})")
    for line in problems[:10]:
        print(f"  problem: {line}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fhalloc benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="how long an untraced run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full", help="tiny is for the self-test")
    args = p.parse_args(argv)
    if not (SRC / "fhalloc" / "__init__.py").is_file():
        print(f"benchmark: no fhalloc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        status |= subprocess.run(cmd).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
