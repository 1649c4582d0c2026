#!/usr/bin/env python3
"""The repository benchmark: host cost and simulated outcome of the
simulator on three pinned workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-saturated --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, a table

A run builds the workload's points from ``--seed`` (see ``points.py``)
and simulates them pass after pass for about ``--seconds`` of host time.
The last pass is untimed and records the access history, so that there
``validate()`` also checks lock exclusion and conflict serializability.
Every point of every pass is checked: it must not raise, must pass
``SimulationResult.validate()``, and must give the same metrics digest
(SHA-256 of its sorted ``RunMetrics.as_dict()``) in every pass.
Each workload also checks that it exercises the mechanism it was chosen
for (``choices.json``).

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Host times are given at a reference host speed: a fixed calibration
kernel (``calibrate.py``) runs between the points, about every
``CALIBRATE_EVERY_S`` of host time, and each pass's host time is scaled
by the kernel's median slowdown during it, which cancels the drift of a
shared host's speed; the raw host seconds and the slowdown are printed
and kept too.  ``wall_s`` is the median over the passes; ``setup_s`` is
the median of several fresh interpreters, each timed from its start to
the first engine event, scaled by the kernel runs between them;
``peak_rss_mb`` is the process's resident high-water mark after the
first pass.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the median traced pass (``spans.py``);
its digests must equal the untraced ones, which proves the wrappers only
observe.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(provenance, per-point digests, min and median per metric, and in traced
runs the kept spans) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("paper-saturated", "bulk-scan", "sharded-recovery")
SETUP_PROBES = 11
#: Host seconds of simulation between two runs of the calibration kernel.
CALIBRATE_EVERY_S = 0.25
KERNELS_PER_PROBE = 2

#: End-to-end metric -> unit.  ``ok_frac`` is 1 - fail_frac: the share
#: of points run that passed every check (kept non-zero on purpose).
END_TO_END = {
    "wall_s": "s",
    "bats_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_tps": "1/sim_s",
    "sim_rt_p50_s": "sim_s",
    "sim_rt_p90_s": "sim_s",
    "sim_useful_util": "fraction",
    "ok_frac": "fraction",
}


def _load_simulator() -> None:
    """Put the checkout's ``src`` first on the path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources under {SRC}; run this "
                 f"from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not "
                 f"from {SRC}")


# -- set-up time ---------------------------------------------------------------


class _FirstEvent(Exception):
    pass


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up probe: import, build, stop at the first
    engine event and print the monotonic clock reading there."""
    _load_simulator()
    from points import build_points
    from repro.engine.core import Environment
    from repro.machine.cluster import Cluster

    def first_event(self: Any, until: Any = None) -> None:
        raise _FirstEvent(time.monotonic())

    points = build_points(workload, seed)
    first = points[0]
    cluster = Cluster(first.params, first.transactions(), catalog=first.catalog,
                      fault_plan=first.fault_plan)
    Environment.run = first_event  # type: ignore[method-assign]
    try:
        cluster.run()
    except _FirstEvent as reached:
        print(repr(reached.args[0]))
        return
    sys.exit("perfbench: the engine never ran")


def measure_setup(workload: str, seed: int) -> Tuple[List[float],
                                                     List[float]]:
    """Seconds from interpreter start to the first engine event, once per
    fresh interpreter: (reference seconds, host seconds) per probe.
    ``time.monotonic`` is one system-wide clock, so the parent's start
    stamp and the child's reading compare directly.  The calibration
    kernel runs between the probes."""
    samples = []
    kernels = [calibrate.sample() for _ in range(KERNELS_PER_PROBE)]
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
        kernels.extend(calibrate.sample() for _ in range(KERNELS_PER_PROBE))
    slowdown = calibrate.slowdown(kernels)
    return [host / slowdown for host in samples], samples


# -- passes ----------------------------------------------------------------------


def digest(metrics: Any) -> str:
    payload = json.dumps(metrics.as_dict(), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Outcome:
    """The simulated quantities one point produced."""

    def __init__(self, point: Any, cluster: Any, result: Any) -> None:
        m = result.metrics
        self.m = m
        self.commits = m.commits
        self.sim_clocks = m.sim_clocks
        # Data-node time in simulated clocks: available, busy, and busy
        # on objects whose BAT later aborted.
        self.node_time = m.sim_clocks * point.params.num_nodes
        self.busy_time = m.dn_utilization * self.node_time
        self.wasted_time = m.wasted_objects * point.params.obj_time
        self.sharded = result.control_plane is not None
        self.response_times = cluster.metrics.response_times
        self.planned_crashes = point.planned_crashes
        self.log_records = (sum(len(shard.log)
                                for shard in result.control_plane.shards)
                            if self.sharded else 0)


class Pass:
    """What one pass over the points gave: per-point host seconds (of
    ``Cluster.run`` only), digests (None where the point failed), error
    messages, and the calibration kernel's seconds: once before the first
    point, then after any point that ends ``CALIBRATE_EVERY_S`` or more
    of host time since the last kernel run, and after the last point."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.digests: List[Optional[str]] = []
        self.errors: List[str] = []
        self.kernels: List[float] = []

    @property
    def host_s(self) -> float:
        return sum(self.walls)

    @property
    def slowdown(self) -> float:
        return calibrate.slowdown(self.kernels)

    @property
    def reference_walls(self) -> List[float]:
        """Per-point host seconds at the reference host speed."""
        return [wall / self.slowdown for wall in self.walls]

    @property
    def reference_s(self) -> float:
        return self.host_s / self.slowdown


def run_pass(points: List[Any], recorder: Any = None,
             keep: Optional[List[Any]] = None, record_history: bool = False,
             ) -> Pass:
    """Simulate every point once.  ``keep`` collects :class:`Outcome`
    objects.  With ``record_history`` the cluster records every lock
    access, so ``validate()`` also checks lock exclusion and
    serializability."""
    from repro.machine.cluster import Cluster
    from spans import instrument

    done = Pass()
    walls, digests, errors = done.walls, done.digests, done.errors
    since = CALIBRATE_EVERY_S
    for point in points:
        if since >= CALIBRATE_EVERY_S:
            done.kernels.append(calibrate.sample())
            since = 0.0
        cluster = Cluster(point.params, point.transactions(),
                          catalog=point.catalog,
                          fault_plan=point.fault_plan,
                          record_history=record_history)
        restore = instrument(recorder) if recorder is not None else None
        start = time.perf_counter()
        try:
            result = cluster.run()
        except Exception as exc:  # a failed point is counted, not fatal
            walls.append(time.perf_counter() - start)
            since += walls[-1]
            digests.append(None)
            errors.append(f"{point.name}: raised {exc!r}")
            continue
        finally:
            if restore is not None:
                restore()
        walls.append(time.perf_counter() - start)
        since += walls[-1]
        try:
            result.validate()
        except Exception as exc:
            digests.append(None)
            errors.append(f"{point.name}: validate() failed: {exc!r}")
            continue
        digests.append(digest(result.metrics))
        if keep is not None:
            keep.append(Outcome(point, cluster, result))
    done.kernels.append(calibrate.sample())
    return done


# -- metrics -----------------------------------------------------------------------


def percentiles(values: List[float]) -> Tuple[float, float]:
    """p50 and p90; p90 is the highest decile that keeps >= 10 samples
    above it for any pool of >= 100 samples."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def simulated_metrics(outcomes: List[Outcome]) -> Dict[str, float]:
    rts = sorted(rt for o in outcomes for rt in o.response_times)
    p50, p90 = percentiles(rts)
    node_time = sum(o.node_time for o in outcomes)
    return {
        "sim_tps": (sum(o.commits for o in outcomes)
                    / (sum(o.sim_clocks for o in outcomes) / 1000.0)),
        "sim_rt_p50_s": p50 / 1000.0,
        "sim_rt_p90_s": p90 / 1000.0,
        "sim_rt_samples": float(len(rts)),
        "sim_useful_util": (sum(o.busy_time - o.wasted_time
                                for o in outcomes) / node_time),
    }


def mechanism_errors(workload: str, outcomes: List[Outcome],
                     core_share: Optional[float]) -> List[str]:
    """The workload's own check that it exercises what it was chosen for."""
    errors = []
    if workload == "paper-saturated":
        admissions = sum(o.m.scheduler_stats.get("admissions", 0)
                         for o in outcomes)
        rejects = sum(o.m.scheduler_stats.get("admission_rejects", 0)
                      for o in outcomes)
        if not rejects > admissions / 2:
            errors.append(f"only {rejects} of {admissions} admission "
                          f"attempts were rejected")
        if core_share is not None and not core_share > 0.5:
            errors.append(f"core layers hold {core_share:.3f} of traced "
                          f"self time, not the majority")
    elif workload == "bulk-scan":
        if core_share is not None and not core_share < 0.5:
            errors.append(f"core layers hold {core_share:.3f} of traced "
                          f"self time, not a minority")
    elif workload == "sharded-recovery":
        for i, o in enumerate(outcomes):
            if not (o.m.cn_crashes == o.m.cn_recoveries == o.planned_crashes):
                errors.append(
                    f"point {i}: {o.m.cn_crashes} crashes and "
                    f"{o.m.cn_recoveries} recoveries for "
                    f"{o.planned_crashes} planned")
        if not sum(o.m.recovery_records for o in outcomes) > 0:
            errors.append("no dependency-log record was replayed")
        if not sum(o.m.twopc_rounds for o in outcomes) > 0:
            errors.append("no 2PC round ran")
    return errors


def layer_metrics(rec: Any, outcomes: List[Outcome]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see choices.json)."""
    from spans import CORE_LAYERS, TIMED, module_layers, span_layers

    def calls(name: str) -> float:
        return float(rec.calls.get(name, 0))

    def self_s(name: str) -> float:
        return rec.self_s.get(name, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for _, _, _, name in TIMED:
        if name == "engine":
            continue
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    commits = sum(o.commits for o in outcomes)
    events = float(rec.counts.get("engine.events", 0))
    out["engine.events"] = events
    out["engine.self_s"] = self_s("engine")
    out["engine.us_per_event"] = ratio(self_s("engine"), events) * 1e6
    out["schedulers.admit.accept_ratio"] = ratio(
        rec.outcomes.get("schedulers.admit.accepted", 0),
        calls("schedulers.admit"))
    out["schedulers.request_lock.grant_ratio"] = ratio(
        rec.outcomes.get("schedulers.request_lock.granted", 0),
        calls("schedulers.request_lock"))
    out["schedulers.attempts_per_commit"] = ratio(calls("schedulers.admit"),
                                                  commits)
    for layer, sharded in (("control_node", False), ("shard", True)):
        mine = [o for o in outcomes if o.sharded == sharded]
        out[f"{layer}.resumes"] = calls(layer)
        out[f"{layer}.self_s"] = self_s(layer)
        out[f"{layer}.cpu_busy_frac"] = ratio(
            sum(o.m.cn_utilization * o.sim_clocks for o in mine),
            sum(o.sim_clocks for o in mine))
    out["shard.twopc_rounds"] = float(sum(o.m.twopc_rounds
                                          for o in outcomes))
    out["control_log.records"] = float(sum(o.log_records for o in outcomes))
    out["control_log.replay.incl_s"] = rec.incl_s.get("control_log.replay",
                                                      0.0)
    replayed = rec.outcomes.get("control_log.replay.records", 0)
    out["control_log.replay.records"] = float(replayed)
    out["control_log.replay_us_per_record"] = ratio(
        out["control_log.replay.incl_s"], replayed) * 1e6
    out["data_node.quanta"] = float(sum(o.m.weight_messages
                                        for o in outcomes))
    out["data_node.busy_frac"] = ratio(sum(o.busy_time for o in outcomes),
                                       sum(o.node_time for o in outcomes))
    out["metrics.rt_samples_held"] = float(sum(len(o.response_times)
                                               for o in outcomes))
    out["faults.cn_crashes"] = float(sum(o.m.cn_crashes for o in outcomes))
    out["faults.aborts"] = float(sum(o.m.aborts for o in outcomes))
    out["faults.wasted_objects"] = sum(o.m.wasted_objects for o in outcomes)
    by_layer = {layer: 0.0 for layer in sorted(set(module_layers().values()))}
    for name, layer in span_layers().items():
        by_layer[layer] += self_s(name)
    total = sum(by_layer.values())
    for layer, seconds in by_layer.items():
        out[f"{layer}.share"] = ratio(seconds, total)
    out["core.share"] = sum(out[f"{layer}.share"] for layer in CORE_LAYERS)
    out["trace.spans"] = float(rec.next_id)
    return out


def layer_units(names: List[str]) -> Dict[str, str]:
    """The unit of each per-layer metric, read off its name."""
    units = {}
    for name in names:
        if name.endswith(("_s", ".self_s", ".incl_s")):
            units[name] = "s"
        elif name.endswith("us_per_event") or name.endswith("per_record"):
            units[name] = "us"
        elif name.endswith(("share", "ratio", "frac")):
            units[name] = "fraction"
        elif name.endswith("per_commit"):
            units[name] = "ratio"
        elif name == "faults.wasted_objects":
            units[name] = "objects"
        else:
            units[name] = "count"
    return units


# -- a run -------------------------------------------------------------------------


def provenance(seed: int, repeats: int) -> Dict[str, Any]:
    sha, dirty = "unknown", None
    if not (ROOT / ".git").exists():
        # Not a clone (an exported checkout): git would search the
        # directories above it, outside the checkout.
        return {"git_sha": sha, "git_dirty": dirty, **_host(seed, repeats)}
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.split()
        if top and Path(top[0]).resolve() == ROOT:
            sha = top[1]
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"], capture_output=True, text=True,
                timeout=30, check=True).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": sha, "git_dirty": dirty, **_host(seed, repeats)}


def _host(seed: int, repeats: int) -> Dict[str, Any]:
    return {"python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "seed": seed, "repeats": repeats}


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """One benchmark run; returns the full record."""
    _load_simulator()
    from points import build_points
    from spans import SpanRecorder

    setup, setup_host = ([], []) if trace else measure_setup(workload, seed)
    points = build_points(workload, seed)
    outcomes: List[Outcome] = []
    passes: List[Pass] = []                # untraced
    traced: List[Tuple[Pass, Any]] = []    # (pass, recorder)
    reference: List[Optional[str]] = []
    errors: List[str] = []
    failed = [False] * len(points)
    attempted = 0
    peak_rss = 0.0

    def check(done: Pass) -> None:
        nonlocal attempted
        attempted += len(points)
        errors.extend(done.errors)
        for i, (got, want) in enumerate(zip(done.digests, reference)):
            if got is None or got != want:
                failed[i] = True
                if got is not None:
                    errors.append(f"{points[i].name}: digest {got} differs "
                                  f"from the first pass's {want}")

    begin = time.perf_counter()
    while True:
        tracing = trace and len(passes) > len(traced)
        recorder = SpanRecorder() if tracing else None
        done = run_pass(points, recorder,
                        keep=None if reference else outcomes)
        if not reference:
            reference = done.digests
        check(done)
        if tracing:
            traced.append((done, recorder))
        else:
            passes.append(done)
        if len(passes) == 1 and not peak_rss:
            # Later passes repeat the same work; reading the high-water
            # mark here keeps it independent of how many passes fit.
            peak_rss = peak_rss_mb()
        # Stop unless one more pass and the history pass below (each
        # about as long as the longest untraced pass) fit in --seconds.
        longest = max(p.host_s + sum(p.kernels) for p in passes)
        if time.perf_counter() - begin + 2 * longest >= seconds and \
                (not trace or traced):
            break
    # One untimed pass more, with the access history recorded: the timed
    # passes skip that bookkeeping, so this is where a faster conflict
    # lookup that missed a conflict would fail.
    check(run_pass(points, record_history=True))

    # Host time at the reference speed (calibrate.py): each pass's host
    # time scaled by how slowly the calibration kernel ran during it,
    # then the median over the passes.
    wall = statistics.median(p.reference_s for p in passes)
    point_median = [statistics.median(ws)
                    for ws in zip(*(p.reference_walls for p in passes))]
    record: Dict[str, Any] = {
        "workload": workload,
        "provenance": provenance(seed, len(passes)),
        "points": [{"name": p.name, "arrival_seed": p.params.seed,
                    "transactions_seed": p.transactions_seed, "digest": d,
                    "host_wall_s": list(w)}
                   for p, d, w in zip(points, reference,
                                      zip(*(p.walls for p in passes)))],
        "pass_host_s": [p.host_s for p in passes],
        "pass_slowdown": [p.slowdown for p in passes],
        "pass_reference_s": [p.reference_s for p in passes],
        "pass_kernel_s": [p.kernels for p in passes],
    }
    if trace:
        traced.sort(key=lambda item: item[0].reference_s)
        traced_pass, rec = traced[(len(traced) - 1) // 2]
        values = layer_metrics(rec, outcomes)
        for scheduler in ("CHAIN", "K2", "C2PL"):
            values[f"run.{scheduler}.wall_s"] = sum(
                w for p, w in zip(points, point_median)
                if p.params.scheduler == scheduler)
        values["trace.overhead_frac"] = traced_pass.reference_s / wall - 1.0
        record["traced_pass_reference_s"] = [p.reference_s for p, _ in traced]
        record["spans"] = list(rec.spans())
        mech = mechanism_errors(workload, outcomes, values["core.share"])
    else:
        mech = mechanism_errors(workload, outcomes, None)
    if mech:
        failed = [True] * len(points)
        errors.extend(mech)
    fail_frac = sum(failed) / len(points)
    if trace:
        units = layer_units(sorted(values))
        record["metrics"] = {name: {"value": values[name],
                                    "unit": units[name]}
                             for name in sorted(values)}
    else:
        commits = sum(o.commits for o in outcomes)
        fastest = min(p.reference_s for p in passes)
        slowest = max(p.reference_s for p in passes)
        # (value, median, min): host times are medians over the passes
        # (set-up: over the probes) at the reference speed; the fastest
        # reading is kept beside each.
        summary: Dict[str, Tuple[float, Optional[float], Optional[float]]] = {
            "wall_s": (wall, wall, fastest),
            "bats_per_s": (commits / wall, commits / wall, commits / slowest),
            "setup_s": (statistics.median(setup), statistics.median(setup),
                        min(setup)),
            "peak_rss_mb": (peak_rss, None, None),
            "ok_frac": (1.0 - fail_frac, None, None),
        }
        sim = simulated_metrics(outcomes) if outcomes else {}
        for name in ("sim_tps", "sim_rt_p50_s", "sim_rt_p90_s",
                     "sim_useful_util"):
            summary[name] = (sim.get(name, 0.0), None, None)
        record["metrics"] = {
            name: {"value": summary[name][0], "unit": unit,
                   "median": summary[name][1], "min": summary[name][2]}
            for name, unit in END_TO_END.items()}
        record["host_wall_s"] = statistics.median(p.host_s for p in passes)
        record["sim_rt_samples"] = int(sim.get("sim_rt_samples", 0))
        record["setup_samples_s"] = setup
        record["setup_host_samples_s"] = setup_host
    record["fail_frac"] = fail_frac
    record["errors"] = errors
    record["attempted"] = attempted
    record["failed"] = sum(failed)
    return record


def report(record: Dict[str, Any], trace: bool) -> None:
    """Human-readable lines, the artifact, then the result line."""
    prov = record["provenance"]
    print(f"# perfbench {record['workload']}  seed={prov['seed']}  "
          f"repeats={prov['repeats']}  sha={prov['git_sha']}"
          f"{'+dirty' if prov['git_dirty'] else ''}  "
          f"python={prov['python']}  nproc={prov['nproc']}")
    print(f"# {prov['platform']}")
    for point in record["points"]:
        print(f"point {point['name']:<10} "
              f"arrivals={point['arrival_seed']:<11} "
              f"transactions={point['transactions_seed']:<11} "
              f"digest={point['digest']}")
    for name, entry in record["metrics"].items():
        print(f"{name:<44} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'host_slowdown':<44} "
          f"{statistics.median(record['pass_slowdown']):>16.6g} "
          f"x reference")
    if not trace:
        print(f"{'host_wall_s':<44} {record['host_wall_s']:>16.6g} s")
        print(f"{'fail_frac':<44} {record['fail_frac']:>16.6g} fraction")
        print(f"{'sim_rt_samples':<44} {record['sim_rt_samples']:>16d} "
              f"count")
    for error in record["errors"]:
        print(f"FAILED {error}")
    OUT.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{prov['seed']}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    failed = record["failed"]
    print(json.dumps({
        "correct": failed == 0 and not record["errors"],
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {n: {"value": e["value"], "unit": e["unit"]}
                    for n, e in record["metrics"].items()},
    }))


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process (so peak RSS is its own), then
    one table of the end-to-end metrics."""
    rows, status = {}, 0
    for workload in WORKLOADS:
        seed = args.seed if args.seed is not None else default_seed(workload)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status |= 0 if result["correct"] else 1
        rows[workload] = result["metrics"]
    names = list(next(iter(rows.values())))
    print(f"\n{'metric':<44}" + "".join(f"{w:>18}" for w in WORKLOADS)
          + "  unit")
    for name in names:
        unit = rows[WORKLOADS[0]][name]["unit"]
        print(f"{name:<44}" + "".join(
            f"{rows[w][name]['value']:>18.6g}" for w in WORKLOADS)
            + f"  {unit}")
    return status


def default_seed(workload: str) -> int:
    choices = json.loads((HERE / "choices.json").read_text())
    return int(choices["workloads"][workload]["default_seed"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="benchmark seed (default: the workload's "
                             "default seed in choices.json)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host seconds of passes to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    seed = args.seed if args.seed is not None else default_seed(args.workload)
    if args.setup_probe:
        setup_probe(args.workload, seed)
        return 0
    record = measure(args.workload, seed, args.seconds, bool(args.trace))
    report(record, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
