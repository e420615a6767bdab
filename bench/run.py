#!/usr/bin/env python3
"""The repository's benchmark: four workloads, two clocks, one command.

Two ways to run it (both from the root of a checkout):

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One measured run of one workload in this process -- the form
    ``BENCHMARK.json`` names.  ``--trace 0`` makes one call-count pass
    (also the warm-up), then repeats *(fresh set-up, one fixed pass)* until
    the timed passes add up to ``S`` seconds, and reports the end-to-end
    metrics; ``--trace 1`` makes one untraced and one traced pass and
    reports the per-layer metrics.  The last line of standard output is
    the result object; the exit code is 1 if any operation failed.

``python3 bench/run.py [--seed N] [--workload W] [--smoke] [--out DIR]``
    The full protocol: 3 interleaved rounds (1 with ``--smoke``) of every
    workload, each run a fresh subprocess, then one traced run each;
    prints every metric with min/median/max of the rounds and writes
    ``DIR/result.json``.  ``--compare A.json B.json`` reads two such files.

Metric names, units, directions and the cross-seed bounds are read from
``BENCHMARK.json``;
``bench/README.md`` explains each metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}

# Noise controls: one core, one BLAS thread, fixed str hashing, no
# transparent huge pages, and a glibc heap that keeps freed memory instead
# of returning it to the kernel and faulting it in again at the next
# set-up (0.3 s of a 1.1 s set-up, on or off from one call to the next).
# The variables must be in the environment before the interpreter starts,
# so a run that lacks them re-executes itself once.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
    "MALLOC_MMAP_THRESHOLD_": str(1 << 25),
    "MALLOC_TOP_PAD_": str(1 << 26),
    "REIS_BENCH_ENV": "1",
}
ROUNDS = 3
SMOKE_SCALE = 0.125
COUNT_FRACTION = 0.25
MIN_SETUPS = 9


def is_host_metric(name: str) -> bool:
    """Host-clock metrics vary run to run; every other metric is a pure
    function of seed and code and must repeat byte for byte."""
    return (
        name in ("setup_s", "host_us_per_query", "host_peak_rss_mb")
        or "_host_s" in name
        or ".host_ms." in name
        or name.startswith("bench.")
    )


# ------------------------------------------------------------------ one run


def pin_to_one_core() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def disable_transparent_hugepages() -> None:
    """Turn THP off for this process and the ones it starts (Linux).

    With THP ``always``, first-touch zeroing of 2 MB pages put 0.06-1.1 s of
    kernel time, varying call to call, on a set-up whose user time is a
    steady 0.93 s.  The flag survives ``execve`` and ``fork``.
    """
    try:
        import ctypes

        PR_SET_THP_DISABLE = 41
        ctypes.CDLL(None).prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def timed_setup(workload, seed: int):
    gc.collect()
    start = perf_counter()
    state = workload.setup(seed)
    return state, perf_counter() - start


def snapshot(state) -> dict:
    """Device activity so far, summed over the workload's drives."""
    total = {}
    for device in state.devices:
        ssd = device.ssd
        for name, value in ssd.counters.as_dict().items():
            total[name] = total.get(name, 0.0) + value
        extra = {
            "core_busy_s": sum(core.busy_seconds for core in ssd.cores.cores),
            "ecc_corrected_bits": ssd.ecc.corrected_bits,
            "ecc_uncorrectable_codewords": ssd.ecc.uncorrectable_codewords,
        }
        cache = device.page_cache
        if cache is not None:
            stats = cache.stats
            extra.update(
                cache_hits=stats.hits, cache_misses=stats.misses,
                cache_admitted=stats.admitted, cache_evicted=stats.evicted,
                cache_invalidated=stats.invalidated,
            )
        for name, value in extra.items():
            total[name] = total.get(name, 0.0) + value
    if state.router is not None:
        for shard, busy in enumerate(state.router.shard_busy_s):
            total[f"shard_busy_s.{shard}"] = busy
    return total


def run_pass(workload, state, scale: float, log) -> defaultdict:
    """Run one pass; returns the device activity it caused."""
    before = snapshot(state)
    workload.run(state, scale, log)
    after = snapshot(state)
    return defaultdict(
        float, {k: v - before.get(k, 0.0) for k, v in after.items()}
    )


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def energy_joules(state, delta) -> dict:
    """Dynamic energy of a pass by activity class (all drives share one
    power model, so the summed counters are billed once)."""
    power = state.devices[0].ssd.power
    return power.energy_breakdown(delta, delta["core_busy_s"])


def modeled_metrics(state, log, delta) -> dict:
    """End-to-end metrics on the modeled clock (pure function of seed)."""
    energy = energy_joules(state, delta)
    return {
        "modeled_qps": log.qps_ops / log.qps_seconds,
        "modeled_latency_p50_ms": percentile(log.latencies, 50) * 1e3,
        "modeled_latency_p99_ms": percentile(log.latencies, 99) * 1e3,
        "modeled_energy_mj_per_query": sum(energy.values()) / log.attempted * 1e3,
        "deadline_met_fraction": max(0, log.deadline_met - log.failed)
        / log.deadline_ops,
    }


def check_against(reference, log, what: str) -> None:
    """Every operation ``log`` covers must digest as it did in round 1."""
    for key, digest in log.digests.items():
        if reference.digests.get(key) != digest:
            log.fail(f"{what}: digest of {key} differs from the first pass")


def measure(workload, seed: int, seconds: float, scale: float):
    """``--trace 0``: a count pass, then cycles of (fresh set-up, one pass)."""
    from workloads import PassLog

    # The count pass goes first: a quarter pass under ``sys.setprofile``
    # that doubles as the process's discarded warm-up (the first pass of a
    # process runs 5-15% slower than the ones after it).
    state, setup_s = timed_setup(workload, seed)
    setups = [setup_s]
    count = PassLog(count_calls=True)
    workload.run(state, scale * COUNT_FRACTION, count)
    del state

    host_us, first, modeled, recall, oracle_s = [], None, None, 0.0, 0.0
    failed, failures = 0, []
    timed = 0.0
    while True:
        state, setup_s = timed_setup(workload, seed)
        setups.append(setup_s)
        log = PassLog()
        delta = run_pass(workload, state, scale, log)
        metrics = modeled_metrics(state, log, delta)
        if first is None:
            first, modeled = log, metrics
            check_against(first, count, "count pass")
            failed += count.failed
            failures += count.failures
            start = perf_counter()
            recall = workload.recall(state, scale)
            oracle_s = perf_counter() - start
        else:
            check_against(first, log, f"cycle {len(host_us) + 1}")
            if metrics != modeled or log.digests.keys() != first.digests.keys():
                log.fail(f"cycle {len(host_us) + 1}: modeled metrics differ: {metrics}")
        failed += log.failed
        failures += log.failures
        host_us.append(log.host_wall_s / log.attempted * 1e6)
        timed += log.host_wall_s
        del state
        if timed + log.host_wall_s / 2 >= seconds:
            break
    # A cheap set-up is a noisy one: take more samples while they are cheap.
    while len(setups) < MIN_SETUPS and sum(setups) < seconds / 4:
        setups.append(timed_setup(workload, seed)[1])

    metrics = dict(modeled)
    metrics.update(
        setup_s=statistics.median(setups),
        recall_at_10=recall,
        host_us_per_query=statistics.median(host_us),
        host_pycalls_per_query=sum(count.calls) / count.attempted,
        host_peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    detail = {
        "ops_attempted": first.attempted,
        "ops_failed": failed,
        "failures": failures,
        "digest": digest_of(first),
        "cycles": len(host_us),
        "setup_s_samples": setups,
        "host_us_per_query_samples": host_us,
        "latency_samples": len(first.latencies),
        "oracle_host_s": oracle_s,
        "count_pass_ops": count.attempted,
    }
    return metrics, detail


def digest_of(log) -> str:
    h = hashlib.sha1()
    for key in sorted(log.digests):
        h.update(f"{key}={log.digests[key]};".encode())
    return h.hexdigest()


def trace(workload, seed: int, scale: float, out_dir: Path):
    """``--trace 1``: one untraced pass, one traced pass, per-layer metrics."""
    from trace import Tracer  # bench/trace.py (shadows the stdlib module)
    from workloads import PassLog

    state, _ = timed_setup(workload, seed)
    workload.run(state, scale * COUNT_FRACTION, PassLog())  # discarded warm-up
    del state
    state, _ = timed_setup(workload, seed)
    plain = PassLog()
    run_pass(workload, state, scale, plain)
    start = perf_counter()
    workload.recall(state, scale)
    oracle_s = perf_counter() - start
    del state

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin("setup")
        state, _ = timed_setup(workload, seed)
        programmed = snapshot(state).get("page_programs", 0.0)
        if state.router is not None:
            tracer.watch_shards(state.router)
        tracer.begin("pass")
        log = PassLog(traced=True)
        delta = run_pass(workload, state, scale, log)
    finally:
        tracer.uninstall()
    check_against(plain, log, "traced pass")
    tracer.dump(out_dir / f"trace_{workload.name}.json", workload.name)
    metrics = layer_metrics(state, log, delta, tracer)
    metrics["core.layout.deploy_pages_programmed"] = programmed
    metrics["bench.trace_overhead_ratio"] = log.host_wall_s / plain.host_wall_s
    metrics["bench.host_batch_ms_p50"] = percentile(plain.unit_host_s, 50) * 1e3
    metrics["bench.host_batch_ms_p90"] = percentile(plain.unit_host_s, 90) * 1e3
    metrics["bench.oracle_host_s"] = oracle_s
    failed = plain.failed + log.failed
    metrics["bench.failed_fraction"] = failed / log.attempted
    detail = {
        "ops_attempted": log.attempted,
        "ops_failed": failed,
        "failures": plain.failures + log.failures,
        "digest": digest_of(log),
        "units": len(plain.unit_host_s),
        "spans": len(tracer.spans),
        "targets_missing": tracer.missing,
    }
    return metrics, detail


def layer_metrics(state, log, delta, tracer) -> dict:
    """Per-layer metrics of one traced pass: counts per operation from the
    device activity ``delta`` and the pass log, host self times from the
    tracer.  Metrics only some workloads produce read 0 on the others."""
    from trace import INCLUSIVE_METRICS

    ops = log.attempted
    batches = max(log.batches, 1)
    m = {}
    for name in (
        "page_reads", "page_reads_tlc", "latch_xors", "bit_counts",
        "page_programs", "block_erases", "ecc_corrected_bits",
        "ecc_uncorrectable_codewords",
    ):
        m[f"nand.{name}"] = delta[name] / ops
    for name in ("channel_bytes", "dram_cache_hits", "dram_cache_bytes", "core_busy_s"):
        m[f"ssd.{name}"] = delta[name] / ops
    energy = energy_joules(state, delta)
    for name, joules in energy.items():
        m[f"ssd.energy_share.{name}"] = joules / sum(energy.values())
    m["ssd.dram_free_bytes"] = min(d.ssd.dram.free_bytes for d in state.devices)

    for name in (
        "ibc", "coarse", "fine", "rerank", "documents", "host", "merge",
        "queue", "ingest", "failover",
    ):
        m[f"core.engine.modeled_ms.{name}"] = log.phase_seconds.pop(name, 0.0) / batches * 1e3
    if log.phase_seconds:
        log.fail(f"modeled phases without a metric: {sorted(log.phase_seconds)}")
    m["core.shard.merge_modeled_ms"] = m["core.engine.modeled_ms.merge"]
    profiled = log.host_profile.seconds
    for name in ("prepare", "ibc", "coarse", "fine", "rerank", "documents", "finalize"):
        m[f"core.engine.host_ms.{name}"] = profiled.get(name, 0.0) / batches * 1e3
    m["core.batch.mean_batch_size"] = log.batch_ops / batches
    m["core.plan.scan_requests"] = log.scan_requests / ops
    m["core.plan.scan_senses"] = log.scan_senses / ops
    m["core.plan.sense_share_ratio"] = log.unique_senses / max(log.total_senses, 1)

    lookups = delta["cache_hits"] + delta["cache_misses"]
    m["core.cache.hit_rate"] = delta["cache_hits"] / lookups if lookups else 0.0
    m["core.cache.admissions"] = delta["cache_admitted"] / ops
    m["core.cache.evictions"] = delta["cache_evicted"] / ops
    m["core.cache.invalidations"] = delta["cache_invalidated"] / ops
    m["core.cache.used_bytes"] = sum(
        d.page_cache.used_bytes for d in state.devices if d.page_cache is not None
    )
    busy = [v for k, v in delta.items() if k.startswith("shard_busy_s.")]
    m["core.shard.busy_imbalance"] = max(busy) / (sum(busy) / len(busy)) if busy else 0.0
    per_shard = tracer.shard_seconds()
    m["core.shard.per_shard_host_s_sum"] = sum(per_shard) / ops
    m["core.shard.per_shard_host_s_max"] = max(per_shard, default=0.0) / ops

    host, covered = tracer.host_seconds()
    for name, seconds in host["pass"].items():
        m[name] = seconds / ops
    for name in INCLUSIVE_METRICS:  # the parts of one set-up, not per op
        m[name] = host["setup"][name]
    m["bench.trace_coverage"] = covered["pass"] / log.host_wall_s
    m.update(log.layer)
    for name in PER_LAYER:
        m.setdefault(name, 0.0)
    return m


def run_one(args) -> int:
    """One measured run in this process; prints the contract's last line."""
    if os.environ.get("REIS_BENCH_ENV") != "1":
        disable_transparent_hugepages()
        os.execve(
            sys.executable, [sys.executable, *sys.argv], {**os.environ, **CHILD_ENV}
        )
    pin_to_one_core()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    seconds = 0.0 if args.smoke else args.seconds
    load_start = os.getloadavg()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        values, detail = trace(workload, args.seed, scale, args.out)
        manifest = PER_LAYER
    else:
        values, detail = measure(workload, args.seed, seconds, scale)
        manifest = END_TO_END
    if set(values) != set(manifest):
        raise SystemExit(
            "metrics do not match BENCHMARK.json: "
            f"{sorted(set(values) ^ set(manifest))}"
        )
    metrics = {
        name: {"value": values[name], "unit": manifest[name]["unit"]}
        for name in manifest
    }
    label = "smoke" if args.smoke else "full"
    print(f"# {workload.name} seed={args.seed} trace={args.trace} [{label}]")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = detail["ops_attempted"], detail["ops_failed"]
    print(
        f"ops_attempted={attempted} ops_succeeded={attempted - failed} "
        f"ops_failed={failed}"
    )
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    if workload.open_loop:
        print("open loop on the simulated clock: generator lag is 0 by construction")
    detail.update(
        workload=workload.name, seed=args.seed, trace=args.trace, label=label,
        metrics=metrics, load_average=[load_start, os.getloadavg()],
    )
    name = f"run_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    (args.out / name).write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# ------------------------------------------------------------ full protocol


def machine_block() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def child_run(workload: str, args, trace_flag: int) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace_flag), "--out", str(args.out),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload}: run exited {done.returncode} without a result")
    if done.returncode != 0 and result["failed"] == 0:
        raise SystemExit(f"{workload}: run exited {done.returncode}")
    for line in lines[:-1]:
        if line.startswith("FAILED"):
            print(f"  {workload}: {line}")
    name = f"run_{workload}_seed{args.seed}_trace{trace_flag}.json"
    result["detail"] = json.loads((args.out / name).read_text())
    return result


def run_all(args) -> int:
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    rounds = 1 if args.smoke else ROUNDS
    label = "smoke" if args.smoke else "full"
    result = {
        "label": label, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "machine": machine_block(),
        "load_average_start": os.getloadavg(), "workloads": {},
    }
    runs = {w: [] for w in workloads}
    for r in range(rounds):  # interleaved, so slow drift hits every workload
        for w in workloads:
            print(f"round {r + 1}/{rounds}: {w}", flush=True)
            runs[w].append(child_run(w, args, 0))
    failed_total = 0
    for w in workloads:
        print(f"traced run: {w}", flush=True)
        traced = child_run(w, args, 1)
        first = runs[w][0]
        entry = {
            "why": next(x["why"] for x in MANIFEST["workloads"] if x["name"] == w),
            "ops_attempted": first["attempted"],
            "ops_failed": sum(r["failed"] for r in runs[w]) + traced["failed"],
            "digest": first["detail"]["digest"],
            "end_to_end": {},
            "per_layer": traced["metrics"],
            "traced": {k: traced["detail"][k] for k in ("spans", "targets_missing")},
        }
        for name, spec in END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            if not is_host_metric(name) and len(set(values)) != 1:
                print(f"  {w}: {name} differs between rounds: {values}")
                entry["ops_failed"] += 1
            entry["end_to_end"][name] = {
                "value": statistics.median(values), "unit": spec["unit"],
                "min": min(values), "max": max(values), "rounds": values,
            }
        for r in runs[w][1:]:
            if r["detail"]["digest"] != entry["digest"]:
                print(f"  {w}: result digests differ between rounds")
                entry["ops_failed"] += 1
        entry["ops_succeeded"] = entry["ops_attempted"] - entry["ops_failed"]
        entry["failed_fraction"] = entry["ops_failed"] / entry["ops_attempted"]
        failed_total += entry["ops_failed"]
        result["workloads"][w] = entry
    result["load_average_end"] = os.getloadavg()

    for w, entry in result["workloads"].items():
        print(f"\n== {w} [{label}, seed {args.seed}] ==")
        for name, metric in entry["end_to_end"].items():
            spread = (
                f"  (min {metric['min']:.6g}, max {metric['max']:.6g}, n={rounds})"
                if is_host_metric(name) else ""
            )
            print(f"{name:48s} {metric['value']:.6g} {metric['unit']}{spread}")
        for name, metric in entry["per_layer"].items():
            print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
        print(
            f"ops_attempted={entry['ops_attempted']} "
            f"ops_succeeded={entry['ops_succeeded']} ops_failed={entry['ops_failed']} "
            f"failed_fraction={entry['failed_fraction']:.6g}"
        )
    path = args.out / "result.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"\nwrote {path}")
    return 0 if failed_total == 0 else 1


# ------------------------------------------------------------------ compare

# Two results of ONE seed: everything off the host clock repeats byte for
# byte, so a difference is a change of the program and the tight bounds of
# ISSUE 11 apply -- name: (bound, relative to A?).  The bounds in
# BENCHMARK.json cover the cross-seed spread the driver checks; they are
# used for the host metrics and when the two seeds differ.
SAME_SEED_BOUNDS = {
    "modeled_qps": (0.01, True),
    "modeled_latency_p50_ms": (0.01, True),
    "modeled_latency_p99_ms": (0.01, True),
    "modeled_energy_mj_per_query": (0.01, True),
    "recall_at_10": (0.005, False),
    "deadline_met_fraction": (0.01, False),
}
# ISSUE 11's end-to-end metrics that BENCHMARK.json cannot hold (0 on the
# seed commit, or defined on one workload): compared all the same, with an
# absolute bound -- (name, workload or None for all, better, bound).
GUARDS = (
    ("failed_fraction", None, "lower", 0.0),
    ("core.queue.slo_max_rate_qps", "queue_poisson", "higher", 0.0),  # one rung
    ("core.queue.miss_fraction.32k", "queue_poisson", "lower", 0.01),  # overload rung
)


def judge(better: str, bound: float, relative: bool, ma: dict, mb: dict):
    """``(worse, verdict)``: how much worse B's value is than A's (as a
    share of A's if ``relative``), and ``ok`` / ``regressed`` /
    ``unresolved`` (the rounds of either side spread wider than the bound
    and B's do not all beat A's)."""
    sign = 1 if better == "lower" else -1
    scale = abs(ma["value"]) if relative and ma["value"] else 1.0
    worse = sign * (mb["value"] - ma["value"]) / scale + 0.0  # no "-0"
    ra, rb = (m.get("rounds", [m["value"]]) for m in (ma, mb))
    spread = max(max(r) - min(r) for r in (ra, rb)) / scale
    all_better = max(sign * v for v in rb) < min(sign * v for v in ra)
    if spread > bound and not all_better:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def compare(path_a: Path, path_b: Path, exact: bool) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    same_seed = a["seed"] == b["seed"]
    bad = 0
    print(f"{'workload':18s} {'metric':30s} {'A':>12s} {'B':>12s} {'worse':>9s} {'bound':>7s}  verdict")
    for w, wa in a["workloads"].items():
        wb = b["workloads"].get(w)
        if wb is None:
            bad += 1
            print(f"{w:18s} missing from B")
            continue
        rows = []
        for name, spec in END_TO_END.items():
            bound, relative = (spec["bound"], True)
            if same_seed and name in SAME_SEED_BOUNDS:
                bound, relative = SAME_SEED_BOUNDS[name]
            rows.append((name, spec["better"], bound, relative,
                         wa["end_to_end"][name], wb["end_to_end"][name]))
        for name, only, better, bound in GUARDS:
            if only in (None, w):
                ma, mb = (
                    e["per_layer"][name] if name in PER_LAYER else {"value": e[name]}
                    for e in (wa, wb)
                )
                rows.append((name, better, bound, False, ma, mb))
        for name, better, bound, relative, ma, mb in rows:
            worse, verdict = judge(better, bound, relative, ma, mb)
            if exact and not is_host_metric(name) and ma["value"] != mb["value"]:
                verdict = "differs"
            bad += verdict != "ok"
            form = "{:+9.2%} {:7.2%}" if relative else "{:+9.4g} {:7.4g}"
            print(
                f"{w:18s} {name:30s} {ma['value']:12.6g} {mb['value']:12.6g} "
                f"{form.format(worse, bound)}  {verdict}"
            )
        if exact:
            la, lb = wa["per_layer"], wb["per_layer"]
            for name in PER_LAYER:
                if not is_host_metric(name) and la[name]["value"] != lb[name]["value"]:
                    bad += 1
                    print(f"{w:18s} {name:30s} {la[name]['value']!r} != {lb[name]['value']!r}  differs")
    print("all rows ok" if not bad else f"{bad} rows not ok")
    return 0 if not bad else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="1/8 of the operations, one cycle, one round")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--exact", action="store_true",
                        help="with --compare: modeled and count metrics must be identical")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare, exact=args.exact)
    args.out = args.out.resolve()
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args)
    args.out.mkdir(parents=True, exist_ok=True)
    disable_transparent_hugepages()
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
