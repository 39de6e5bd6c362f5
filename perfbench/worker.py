"""Workload process of the benchmark.

Runs the operations listed in a manifest in-process through
``triform.cli.main``, the way ``triform validate`` and ``triform fuzz``
run them: one closed-loop client, one operation at a time, no threads.
An operation is one validate call (JSON files -> report bytes) or one
fuzz trial.  Every operation's exit code and report are checked against
the expected outcome and hashed.  Prints one JSON document on stdout.

Modes:
  --seconds S    timed: validate passes with slices of fuzz trials
                 between the ops, for about S seconds; returns every
                 timing sample, scaled to the reference host speed
                 (speed.py) and unscaled
  --check        one validate pass and CHECK_TRIALS trials, for the
                 outcomes and report hashes only
  --trace SPANS  fixed work run untraced and then traced; per-layer
                 totals, spans written to SPANS
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from triform import _kernel, cli

from corpus import MIN_PASSES, MIN_TRIALS
from speed import Scaler
from tracer import Tracer

CHECK_TRIALS = 200

VALIDATE_METRICS = {kind: f"validate_s.{kind}" for kind in
                    ("shacl", "shex", "pg", "shacl_compiled", "shex_compiled", "graph_type")}


def run_cli(argv: List[str]) -> Tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8")


def trial_argv(fuzz: Dict, i: int) -> List[str]:
    return ["fuzz", "--trials", "1", "--seed", str(fuzz["first_seed"] + i),
            "--nodes", str(fuzz["nodes"]), "--budget", str(fuzz["budget"])]


def check_validate(op: Dict, code: int, out: bytes) -> Tuple[str, Optional[str]]:
    """Outcome of a validate op: ("ok" | "capped" | "failed", problem)."""
    if code == cli.EXIT_CAPABILITY and op.get("may_cap"):
        return ("capped", None) if not out else ("failed", "report printed on exit 3")
    if code not in (cli.EXIT_VALID, cli.EXIT_INVALID):
        return "failed", f"exit {code}"
    doc = json.loads(out)
    if op["kind"] == "graph_type":
        rules = sorted({v["rule_index"] for v in doc["constraints"]["violations"]})
        if doc["node_violations"] != op["node_violations"]:
            return "failed", "graph-type node violations differ from the expected ones"
        if [[e["s"], e["p"], e["o"]] for e in doc["edge_violations"]] != op["edge_violations"]:
            return "failed", "graph-type edge violations differ from the expected ones"
    else:
        rules = sorted({v["rule_index"] for v in doc["violations"]})
    if rules != op["rules"]:
        return "failed", f"violated rules {rules}, expected {op['rules']}"
    if (code == cli.EXIT_VALID) != doc["valid"]:
        return "failed", "exit code disagrees with the report"
    return "ok", None


def check_trial(code: int, out: bytes) -> Tuple[str, Optional[str]]:
    doc = json.loads(out)
    if doc["trials"] != 1 or doc["divergences"] or code != cli.EXIT_VALID:
        return "failed", f"divergence {doc['divergences']}"
    return ("capped" if doc["capped"] else "ok"), None


class Run:
    """Outcomes, hashes and timing samples of one worker run.  With a
    scaler, every op is timed through it and ``picks`` holds the sample
    indices each metric keeps."""

    def __init__(self, scaler: Optional[Scaler] = None) -> None:
        self.scaler = scaler
        self.picks: Dict[str, List[int]] = defaultdict(list)
        self.hashes: Dict[str, List] = {}
        self.attempted = self.failed = self.capped = self.capped_trials = 0
        self.capped_ops: Dict[str, int] = defaultdict(int)
        self.problems: List[str] = []

    def record(self, op_id: str, code: int, out: bytes, status: str, problem: Optional[str]) -> None:
        self.attempted += 1
        digest = [code, hashlib.sha256(out).hexdigest()]
        first = self.hashes.setdefault(op_id, digest)
        if first != digest:
            status, problem = "failed", "exit code or report bytes changed between passes"
        if status == "failed":
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op_id}: {problem}")
        elif status == "capped":
            self.capped += 1
            self.capped_ops[op_id.split(":")[0]] += 1
            self.capped_trials += op_id.startswith("trial")

    def call(self, runner, argv: List[str]) -> Tuple[int, bytes, float, int]:
        """Run one op: exit code, report bytes, seconds, sample index."""
        if self.scaler is None:
            t0 = time.perf_counter()
            code, out = runner(argv)
            return code, out, time.perf_counter() - t0, -1
        (code, out), i = self.scaler.time(lambda: runner(argv))
        return code, out, self.scaler.last_s(), i

    def validate_pass(self, ops: List[Dict], wrap=None) -> None:
        for op in ops:
            self.validate(op, wrap)

    def validate(self, op: Dict, wrap=None) -> float:
        """Run one op and return its seconds.  Ops that may hit the cap
        give no timing sample."""
        runner = (wrap or {}).get("op.validate." + op["kind"], run_cli)
        if self.scaler is not None:
            gc.collect()  # no garbage of earlier ops is left, as in a fresh `triform validate`
        code, out, dt, i = self.call(runner, ["validate", op["graph"], op["schema"]])
        status, problem = check_validate(op, code, out)
        self.record(op["id"], code, out, status, problem)
        if status == "ok" and not op.get("may_cap"):
            self.picks[VALIDATE_METRICS[op["kind"]]].append(i)
        return dt

    def trials(self, fuzz: Dict, start: int, stop: int, wrap=None) -> None:
        runner = (wrap or {}).get("op.trial", run_cli)
        if self.scaler is not None:
            gc.collect()  # trials of a slice run back to back, as in one `triform fuzz` campaign
        for i in range(start, stop):
            code, out, _, k = self.call(runner, trial_argv(fuzz, i))
            status, problem = check_trial(code, out)
            self.record(f"trial{fuzz['first_seed'] + i}", code, out, status, problem)
            self.picks["trial_s"].append(k)
            if status == "ok":
                self.picks["decided_s"].append(k)

    def samples(self) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
        """Scaled and raw samples of every metric; closes the scaler."""
        scaled, raw = self.scaler.finish(), self.scaler.raw
        return ({name: [scaled[i] for i in idx] for name, idx in self.picks.items()},
                {name: [raw[i] for i in idx] for name, idx in self.picks.items()})


def timed(manifest: Dict, seconds: float) -> Dict:
    """Validate passes while the next one fits in ``seconds`` (at least
    MIN_PASSES).  A pass has one slot per op: the op itself, repeats of
    earlier ops that are behind their share of ``min_op_s`` (spread over
    the slots from their own to the last, at most 20 runs per pass), and
    a slice of fuzz trials, sized so that MIN_PASSES passes run
    MIN_TRIALS trials.  Every metric thus samples the whole run, not one
    stretch of it.  Every op is timed through a Scaler (speed.py), which
    scales its seconds to the host's reference speed."""
    run = Run(Scaler())
    ops, fuzz = manifest["ops"], manifest["fuzz"]
    per_slot = -(-MIN_TRIALS // (MIN_PASSES * len(ops)))
    t0 = time.perf_counter()
    passes, done, last = 0, 0, 0.0
    while passes < MIN_PASSES or time.perf_counter() - t0 + last <= seconds:
        t = time.perf_counter()
        spent, reps = [0.0] * len(ops), [0] * len(ops)
        for slot in range(len(ops)):
            for i, op in enumerate(ops[: slot + 1]):
                due = fuzz["min_op_s"] * (slot - i + 1) / (len(ops) - i)
                while reps[i] == 0 or (spent[i] < due and reps[i] < 20 and not op.get("may_cap")):
                    spent[i] += run.validate(op)
                    reps[i] += 1
            run.trials(fuzz, done, done + per_slot)
            done += per_slot
        last = time.perf_counter() - t
        passes += 1
    wall_s = time.perf_counter() - t0
    samples, raw = run.samples()
    return result(run, passes=passes, trials=done, wall_s=wall_s, samples=samples, raw=raw,
                  probe_median_s=run.scaler.probe_median_s())


def check(manifest: Dict) -> Dict:
    """One validate pass and CHECK_TRIALS trials; no timings."""
    run = Run()
    run.validate_pass(manifest["ops"])
    run.trials(manifest["fuzz"], 0, CHECK_TRIALS)
    return result(run)


def traced(manifest: Dict, spans_path: str) -> Dict:
    """The same fixed work untraced, traced, and untraced again; per-layer
    totals come from the traced round, overhead is traced over the faster
    untraced round."""
    run = Run()
    ops, fuzz = manifest["ops"], manifest["fuzz"]
    n = fuzz["trace_trials"]

    def round_s(wrap=None) -> float:
        t = time.perf_counter()
        run.validate_pass(ops, wrap=wrap)
        run.trials(fuzz, 0, n, wrap)
        return time.perf_counter() - t

    t0 = time.perf_counter()
    untraced_s = round_s()
    tracer = Tracer()
    wrap = {f"op.validate.{kind}": tracer.span(f"op.validate.{kind}", run_cli) for kind in VALIDATE_METRICS}
    wrap["op.trial"] = tracer.span("op.trial", run_cli)
    capped_before, trials_capped_before = run.capped, run.capped_trials
    with tracer:
        traced_s = round_s(wrap)
    capped, trials_capped = run.capped - capped_before, run.capped_trials - trials_capped_before
    untraced_s = min(untraced_s, round_s())
    tracer.write_tsv(spans_path)
    agg = tracer.aggregate()
    layers = per_layer(tracer, agg, capped, len(ops) + n)
    layers["harness.capped"] = trials_capped
    layers["trace.overhead"] = traced_s / untraced_s
    by_root: Dict[str, Dict[str, List[float]]] = defaultdict(dict)
    for (root, name), a in sorted(agg.items()):
        by_root[root][name] = [a["calls"], round(a["incl_s"], 6), round(a["self_s"], 6)]
    return result(run, passes=3, trials=3 * n, wall_s=time.perf_counter() - t0,
                  metrics=layers, by_root=by_root, spans=len(tracer.start))


def per_layer(tracer: Tracer, agg, capped: int, attempted: int) -> Dict[str, float]:
    tot: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for (root, name), a in agg.items():
        t = tot["op" if root == name else name]
        for key in t:
            t[key] += a[key]

    def s(*names: str) -> float:
        return sum(tot[n]["self_s"] for n in names)

    def calls(name: str) -> int:
        return int(tot[name]["calls"])

    foci = tracer.foci
    return {
        "cli.self_s": s("op"),
        "jsonio.parse_graph_s": s("jsonio.parse_graph"),
        "jsonio.parse_schema_s": s("jsonio.parse_schema"),
        "jsonio.report_s": s("jsonio.report_to_json", "jsonio.dumps"),
        "jsonio.report_bytes": tracer.report_bytes,
        "model.build_graph_s": s("model.build_graph"),
        "model.neigh_calls": calls("model.neigh_signed"),
        "model.neigh_s": s("model.neigh_signed"),
        "model.neigh_max": tracer.neigh_max,
        "shacl.select_s": s("shacl.select"),
        "shacl.foci": foci["shacl.select"],
        "shacl.eval_path_calls": calls("shacl.eval_path"),
        "shacl.eval_path_s": s("shacl.eval_path"),
        "shacl.paths_per_focus": calls("shacl.eval_path") / max(1, foci["shacl.select"]),
        "shacl.self_s": s("shacl.validate"),
        "pgschema.select_s": s("pgschema.select"),
        "pgschema.path_calls": calls("pgschema.eval_pg_path"),
        "pgschema.path_s": s("pgschema.eval_pg_path"),
        "pgschema.content_member_calls": calls("pgschema.content_member"),
        "pgschema.content_member_s": s("pgschema.content_member"),
        "pgschema.edge_member_calls": calls("pgschema.edge_type_member"),
        "pgschema.edge_member_s": s("pgschema.edge_type_member"),
        "pgschema.self_s": s("pgschema.validate", "pgschema.validate_graph_type"),
        "shex.select_s": s("shex.select"),
        "shex.foci": foci["shex.select"],
        "shex.matches_per_focus": calls("model.neigh_signed") / max(1, foci["shex.select"]),
        "shex.self_s": s("shex.validate"),
        "kernel.calls": calls("kernel.bag_match"),
        "kernel.s": s("kernel.bag_match"),
        "kernel.bits_max": tracer.bits_max,
        "kernel.subset_bound": tracer.subset_bound,
        "cogsl.validate_s": s("cogsl.validate"),
        "cogsl.to_shacl_s": s("cogsl.to_shacl"),
        "cogsl.to_shex_s": s("cogsl.to_shex"),
        "harness.gen_s": s("harness.gen_graph", "harness.gen_cogsl_schema"),
        "harness.shrink_calls": calls("harness.shrink_divergence"),
        "capped_share": capped / attempted,
    }


def result(run: Run, **extra) -> Dict:
    doc = {
        "attempted": run.attempted,
        "failed": run.failed,
        "capped": run.capped,
        "capped_ops": dict(run.capped_ops),
        "problems": run.problems,
        "hashes": run.hashes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel": _kernel.kernel_name(),
    }
    doc.update(extra)
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float, help="timed run of about this many seconds")
    mode.add_argument("--check", action="store_true", help="outcomes and report hashes only")
    mode.add_argument("--trace", metavar="SPANS", help="traced run; spans go here (gzip-compressed TSV)")
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if args.trace:
        doc = traced(manifest, args.trace)
    elif args.check:
        doc = check(manifest)
    else:
        doc = timed(manifest, args.seconds)
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
