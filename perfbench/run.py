"""End-to-end and per-layer benchmark of `triform validate` and `triform fuzz`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload media-bulk --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  media-bulk  media fixture graph x1000, seeded mutated copies
  hub         media x100 plus 12/14/16-accessor hubs; 32/128/512-accessor
              hubs that exceed the ShEx neighbourhood cap
  fuzz-small  three-way fuzz trials on 12-node graphs

Each workload runs the six validate schemas on its graphs and a fuzz
campaign (on media-bulk and hub a fixed 1000-trial control sample of
the default 8-node family, on fuzz-small the seeded main campaign), so
every metric has a value on every workload.

A run generates its inputs from --seed under .perfbench_work/, times
set-up in fresh interpreters, runs the operations in one workload
process with PYTHONHASHSEED pinned and the pure matcher kernel, repeats
one untimed pass under a second hash seed to check the report hashes,
times set-up again after each process, prints a summary and, as its
last line, one JSON object.  Every reported time is scaled to a
reference host speed by a fixed probe timed next to it (speed.py); the
summary also gives the unscaled medians.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a separate traced run.  Exit codes:
0 when the verdict gate passed, 1 when it failed, 2 when the run could
not be made (no triform sources, a crashed or hung process).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("media-bulk", "hub", "fuzz-small")
SETUP_REPEATS = 3  # before the workload process, after it, and after the check process
PINNED_HASH_SEED = 0  # the workload process
CHECK_HASH_SEED = 1  # the check process, which compares report hashes only
KERNEL = "pure"  # the matcher kernel of the baseline; runs on other kernels do not compare
WORKER_MARGIN_S = 120  # a worker's time beyond --seconds before it counts as hung

# A fresh interpreter imports the CLI and translates the PG schema to
# SHACL and ShEx, as every `triform translate` invocation does, and
# prints the scaled and unscaled seconds that took.
SETUP_CODE = """
import json, sys
import speed

def setup():
    from triform import cli
    for dialect, out in (("shacl", sys.argv[2]), ("shex", sys.argv[3])):
        with open(out, "w", encoding="utf-8") as fh:
            sys.stdout = fh
            code = cli.main(["translate", sys.argv[1], "--to", dialect])
            sys.stdout = sys.__stdout__
        if code != 0:
            sys.exit(code)

scaler = speed.Scaler()
try:
    _, i = scaler.time(setup)
finally:
    scaled = scaler.finish()
print(json.dumps([scaled[i], scaler.raw[i]]))
"""


class RunError(Exception):
    """The run could not be made; no result is printed."""


def child_env(root: str, hash_seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("TRIFORM_CAP", "PYTHONSTARTUP", "PYTHONOPTIMIZE"):
        env.pop(var, None)
    env["TRIFORM_KERNEL"] = KERNEL
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), BENCH_DIR])
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(argv: List[str], env: Dict[str, str], timeout: float) -> str:
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"timed out after {timeout:.0f} s: {' '.join(argv[:3])}") from None
    if proc.returncode != 0:
        raise RunError(f"exit {proc.returncode} from {' '.join(argv[:3])}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(root: str, manifest: Dict, workdir: str) -> List[List[float]]:
    """Scaled and unscaled seconds of SETUP_REPEATS fresh-interpreter
    set-ups, each timed inside its own interpreter from the import of
    triform.cli to the end of the translation.  The first set-up of a
    run writes the compiled schemas the *_compiled ops use; every later
    one must translate to the same bytes."""
    env = child_env(root, PINNED_HASH_SEED)
    outs = [os.path.join(workdir, f"setup_{d}.json") for d in ("shacl", "shex")]
    argv = [sys.executable, "-c", SETUP_CODE, manifest["pg_schema"], *outs]
    times = []
    for _ in range(SETUP_REPEATS):
        times.append(json.loads(run_child(argv, env, 60).strip().splitlines()[-1]))
        check_compiled(manifest, outs)
    return times


def check_compiled(manifest: Dict, outs: List[str]) -> None:
    """Keep the first set-up's schemas for the *_compiled ops; every
    later set-up must give the same bytes."""
    for out, dialect in zip(outs, ("shacl", "shex")):
        with open(out, "rb") as fh:
            data = fh.read()
        compiled = manifest["compiled"][dialect]
        if not os.path.exists(compiled):
            with open(compiled, "wb") as fh:
                fh.write(data)
        with open(compiled, "rb") as fh:
            if fh.read() != data:
                raise RunError("translate gave different schemas in repeated set-ups")


def run_worker(root: str, manifest_path: str, hash_seed: int, args: List[str], timeout: float) -> Dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), manifest_path, *args]
    out = run_child(argv, child_env(root, hash_seed), timeout)
    return json.loads(out.strip().splitlines()[-1])


def commit_of(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_lines(root: str) -> Dict[str, int]:
    """Lines under src/, with the generated _bagmatch.cpp counted apart."""
    total = cpp = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if not name.endswith((".py", ".pyx", ".cpp")):
                continue
            with open(os.path.join(dirpath, name), "rb") as fh:
                n = sum(1 for _ in fh)
            if name == "_bagmatch.cpp":
                cpp += n
            else:
                total += n
    return {"src_lines": total, "bagmatch_cpp_lines": cpp}


def environment(root: str, kernel: str) -> Dict:
    """Baseline record: machine, interpreter, the matcher kernel the
    workload process ran, commit, size."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "cpus": os.cpu_count(),
        "kernel": kernel,
        "commit": commit_of(root),
        **source_lines(root),
    }


def gate(main: Dict, check: Dict) -> List[str]:
    """Verdict gate: no failed op, and every op the check pass repeated
    under the second hash seed gave the same exit code and report hash."""
    problems = list(main["problems"]) + list(check["problems"])
    if check["failed"] or main["failed"]:
        problems.append(f"{main['failed'] + check['failed']} failed ops")
    for op_id, digest in check["hashes"].items():
        if op_id in main["hashes"] and main["hashes"][op_id] != digest:
            problems.append(f"{op_id}: report differs under another PYTHONHASHSEED")
    layers = main.get("metrics", {})
    if layers.get("harness.shrink_calls", 0):
        problems.append("the fuzz campaign shrank a divergence")
    if layers.get("shex.foci", 0) and not layers.get("kernel.calls", 0):
        problems.append(f"ShEx validated foci but no call into the {main['kernel']} kernel was traced")
    return problems


def end_to_end(main: Dict, setup: List[List[float]]):
    """End-to-end metrics and their sample counts, all from the workload
    process except set-up.  Every time is scaled to the reference speed
    (speed.py); fuzz_decided_per_s counts per scaled second of trials."""
    metrics: Dict[str, float] = {"setup_s": statistics.median(scaled for scaled, _ in setup)}
    counts = {"setup_s": len(setup)}
    for name, values in main["samples"].items():
        if name.startswith("validate_s."):
            metrics[name] = statistics.median(values)
            counts[name] = len(values)
    trial_s = main["samples"]["trial_s"]
    metrics["fuzz_decided_per_s"] = len(main["samples"].get("decided_s", [])) / sum(trial_s)
    metrics["fuzz_trial_p99_s"] = statistics.quantiles(trial_s, n=100)[98]
    counts["fuzz_decided_per_s"] = counts["fuzz_trial_p99_s"] = len(trial_s)
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    return metrics, counts


def summary_lines(args, env: Dict, main: Dict, metrics: Dict, counts: Dict, units: Dict) -> List[str]:
    lines = [
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        "# env " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"# ops attempted={main['attempted']} failed={main['failed']} capped={main['capped']} "
        f"capped_share={main['capped'] / main['attempted']:.4f} capped_ops={json.dumps(main['capped_ops'], sort_keys=True)} "
        f"passes={main['passes']} trials={main['trials']} wall_s={main['wall_s']:.2f}",
    ]
    if "probe_median_s" in main:
        lines.append(f"# times scaled to a probe of {speed.PROBE_REF_S * 1e3:.3f} ms; "
                     f"the probe's median in the workload process was {main['probe_median_s'] * 1e3:.3f} ms")
    raw = main.get("raw", {})
    for name, value in metrics.items():
        n = counts.get(name)
        line = f"{name:32s} {value:14.6f} {units[name]:6s}" + (f" n={n}" if n else "")
        if name in raw:
            line += f" unscaled={statistics.median(raw[name]):.6f}"
        lines.append(line)
    for root, layers in sorted(main.get("by_root", {}).items()):
        parts = [f"{name}={v[2]:.4f}" for name, v in sorted(layers.items(), key=lambda kv: -kv[1][2]) if v[2] >= 0.0005]
        lines.append(f"# self_s under {root}: " + " ".join(parts))
        if "shex.validate" in layers:
            shex_s, kernel_s = layers["shex.validate"], layers.get("kernel.bag_match", [0, 0.0, 0.0])
            lines.append(
                f"# under {root}: kernel {kernel_s[1]:.4f} s = {kernel_s[1] / shex_s[1]:.2f} of shex.validate "
                f"{shex_s[1]:.4f} s; shex self {shex_s[2]:.4f} s"
            )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="triform end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "triform", "cli.py")):
        print(f"error: no triform sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [os.path.join(root, "src"), BENCH_DIR]
    import corpus

    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(root, ".perfbench_work"))
    try:
        manifest = corpus.build(args.workload, args.seed, root, workdir)
        manifest_path = os.path.join(workdir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        setup = measure_setup(root, manifest, workdir)
        if args.trace:
            os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
            mode = ["--trace", os.path.join(root, ".perfbench_out", f"{args.workload}.spans.tsv.gz")]
        else:
            mode = ["--seconds", str(args.seconds)]
        main_run = run_worker(root, manifest_path, PINNED_HASH_SEED, mode, args.seconds + WORKER_MARGIN_S)
        setup += measure_setup(root, manifest, workdir)
        check_run = run_worker(root, manifest_path, CHECK_HASH_SEED, ["--check"], WORKER_MARGIN_S)
        setup += measure_setup(root, manifest, workdir)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = gate(main_run, check_run)
    if args.trace:
        wanted = spec["per_layer"]
        metrics = main_run["metrics"]
        counts: Dict[str, int] = {}
    else:
        wanted = spec["end_to_end"]
        metrics, counts = end_to_end(main_run, setup)
        main_run["raw"]["setup_s"] = [raw for _, raw in setup]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = [name for name in units if name not in metrics]
    if missing:
        problems.append(f"no value for {missing}")
    ordered = {name: metrics[name] for name in units if name in metrics}
    for line in summary_lines(args, environment(root, main_run["kernel"]), main_run, ordered, counts, units):
        print(line)
    for p in problems:
        print(f"# gate: {p}")
    print("# gate: " + ("passed" if not problems else "FAILED"))
    print(json.dumps({
        "correct": not problems,
        "attempted": main_run["attempted"] + check_run["attempted"],
        "failed": main_run["failed"] + check_run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in ordered.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
