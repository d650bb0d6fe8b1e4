#!/usr/bin/env python3
"""End-to-end clustering-job benchmark.

    python3 e2ebench/run.py --workload hz-basic --seed 1 --seconds 20 \
        --trace 0

Builds the e2e_bench driver from the source tree next to this directory
(into $CARGO_TARGET_DIR, default .bench_build), runs whole clustering
jobs of one workload for --seconds, checks every job's labels against an
independent reference, and prints the metrics: with --trace 0 the
end-to-end ones, with --trace 1 the per-layer ones (from a run whose
channels, probes and spans are recorded). The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is
nonzero when any job failed or produced a wrong label, or when a
seed-fixed count differs from an earlier run of the same program and seed.

--smoke runs the workload at tiny sizes in a few seconds.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import metrics as m  # noqa: E402

WORKLOADS = ["hz-basic", "hz-enhanced-prune", "vertical", "serve-mesh3"]
BUDGET_S = 170  # the driver binary's share of the run's time limit

# Per-job counts of the gate pass, identical on every run of one program
# (the gate inputs and key seeds do not depend on --seed).
GATE_COUNTS = ["bytes", "frames", "rounds", "encrypted", "selection",
               "candidates", "queries"]
# The subset that must also repeat exactly when a run repeats an input.
REPEAT_COUNTS = ["frames", "rounds", "encrypted", "selection", "candidates",
                 "queries"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no source tree at {ROOT} (needs CMakeLists.txt "
                           "and src/ beside e2ebench/)")
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / "e2ebench-build.log", "w") as out:
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "--target", "e2e_bench",
                      "-j", str(min(os.cpu_count() or 1, 8))])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise RuntimeError(f"build failed; see {out.name}")
    return bdir / "e2e_bench"


def fingerprint():
    """Hash of every file the driver is built from."""
    digest = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    files += [p for p in (ROOT / "cmake").glob("*") if p.is_file()]
    files += [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt",
              HERE / "e2e_bench.cc"]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def gate_of(raw):
    """The gate pass: one job per fixed gate input."""
    return [j for j in raw["jobs"] if j["gate"]]


def timed_of(raw):
    """The jobs of the measured window (seed-derived inputs)."""
    return [j for j in raw["jobs"] if not j["gate"]]


def check_jobs(raw):
    """Failure messages: wrong or failed jobs, a gate pass that did not
    complete, and repeated inputs whose seed-fixed counts moved."""
    problems = [f"job {k} (input {j['input']}): {j['error'] or 'failed'}"
                for k, j in enumerate(raw["jobs"]) if not j["ok"]]
    if len(gate_of(raw)) != raw["gate_inputs"] or not timed_of(raw):
        problems.append("the run did not complete its gate pass and window")
        return problems
    first = {}
    for k, job in enumerate(raw["jobs"]):
        if not job["ok"]:
            continue
        earlier = first.setdefault(job["input"], job)
        moved = [c for c in REPEAT_COUNTS if job[c] != earlier[c]]
        if moved:
            problems.append(f"job {k} repeats input {job['input']} but its "
                            f"{', '.join(moved)} changed")
    return problems


def check_gate_cache(raw, path):
    """Compares the gate pass's counts with an earlier run of the same
    program (recorded at `path`), or records them."""
    counts = {c: [j[c] for j in gate_of(raw)] for c in GATE_COUNTS}
    if path.is_file():
        earlier = json.loads(path.read_text())
        moved = [c for c in GATE_COUNTS if earlier.get(c) != counts[c]]
        if moved:
            return [f"seed-fixed counts differ from an earlier run of this "
                    f"program and seed: {', '.join(moved)}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts))
    return []


def mean(values):
    return sum(values) / len(values)


def secure_comparisons(raw, job):
    """PlanStats' encrypted plus selection comparisons. The vertical
    protocol does not fill PlanStats, so there the count is the comparator
    queries the decorator saw."""
    if raw["workload"] == "vertical":
        return job["queries"]
    return job["encrypted"] + job["selection"]


def end_to_end(raw):
    """Timings and the projected link time come from the measured window;
    the counts and accuracy from the gate pass, so they are exact."""
    timed = timed_of(raw)
    walls = [j["wall_s"] for j in timed]
    gate = gate_of(raw)
    return {
        "job_s": (m.median(walls), "s"),
        "job_p90_s": (m.percentile(walls, 90), "s"),
        "jobs_per_s": (len(timed) / raw["loop_s"], "1/s"),
        "setup_s": (m.median(raw["setup_s"]), "s"),
        "bytes_per_job": (mean([j["bytes"] for j in gate]), "bytes"),
        "frames_per_job": (mean([j["frames"] for j in gate]), "count"),
        "rounds_per_job": (mean([j["rounds"] for j in gate]), "count"),
        "secure_comparisons_per_job": (
            mean([secure_comparisons(raw, j) for j in gate]), "count"),
        "metro_wan_s": (m.median([j["metro_wan_s"] for j in timed]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "ari_vs_central": (mean([j["ari"] for j in gate]), "ratio"),
    }


def per_layer(raw, families, spans):
    """Per-layer metrics of a traced run. The decorated jobs are the run's
    own, except on serve-mesh3, whose links the daemon keeps private: there
    they come from the in-process replay of the same jobs."""
    src = raw.get("replay", raw)
    traced = [j for j in src["jobs"] if j["traced"] and j["ok"]]
    plain = [j for j in src["jobs"] if not j["traced"] and j["ok"]]
    if not traced:
        raise RuntimeError("no traced job completed")
    gate = gate_of(raw)
    out = {}

    def party_sum(job, index):
        return sum(cost[index] for party in job["parties"]
                   for cost in party["tags"].values())

    out["net.recv_wait_s"] = (m.median([party_sum(j, 1) for j in traced]),
                              "s")
    out["net.send_s"] = (m.median([party_sum(j, 2) for j in traced]), "s")
    out["net.frames"] = (m.median([j["frames"] for j in traced]), "count")
    out["net.bytes"] = (m.median([j["bytes"] for j in traced]), "bytes")
    out["net.rounds"] = (m.median([j["rounds"] for j in traced]), "count")
    out["net.mean_frame_bytes"] = (
        m.median([j["bytes"] / j["frames"] for j in traced]), "bytes")
    out["net.deadline_trips"] = (
        sum(j["deadline_trips"] for j in raw["jobs"]), "count")
    out["net.aborts_seen"] = (sum(j["aborts_seen"] for j in raw["jobs"]),
                              "count")

    per_job = []
    for job in traced:
        phases = {f: {"compute_s": 0.0, "wait_s": 0.0, "frames": 0,
                      "bytes": 0} for f in m.FAMILIES + ["other"]}
        residuals = []
        for party in job["parties"]:
            mine, residual = m.phase_breakdown(party, families)
            residuals.append(residual)
            for family, phase in mine.items():
                for key, value in phase.items():
                    phases[family][key] += value
        wall = sum(p["wall_s"] for p in job["parties"])
        per_job.append((phases, wall, residuals))
    for family in m.FAMILIES:
        prefix = f"core.phase.{family}."
        out[prefix + "compute_share"] = (m.median(
            [p[family]["compute_s"] / w for p, w, _ in per_job]), "ratio")
        out[prefix + "wait_share"] = (m.median(
            [p[family]["wait_s"] / w for p, w, _ in per_job]), "ratio")
        out[prefix + "frames"] = (m.median(
            [p[family]["frames"] for p, _, _ in per_job]), "count")
        out[prefix + "bytes"] = (m.median(
            [p[family]["bytes"] for p, _, _ in per_job]), "bytes")
    for party in (0, 1):
        out[f"core.residual_s.party{party}"] = (
            m.median([r[party] for _, _, r in per_job]), "s")

    out["core.negotiate_s"] = (m.median([j["negotiate_s"]
                                         for j in raw["jobs"]]), "s")
    out["core.protocol_s"] = (m.median([j["protocol_s"]
                                        for j in raw["jobs"]]), "s")
    out["core.plan.candidates"] = (mean([j["candidates"] for j in gate]),
                                   "count")
    exact = sum(j["exact"] for j in gate)
    out["core.plan.saved_fraction"] = (
        max(0.0, 1 - sum(j["encrypted"] for j in gate) / exact)
        if exact else 0.0, "ratio")
    job_spans = {}
    for span in spans:
        if span["name"] == "core.job" or span["name"].startswith("net."):
            job_spans.setdefault(span["job"], []).append(span)
    selfs = [m.self_times(group) for group in job_spans.values()]
    out["core.self_s"] = (m.median([s.get("core", 0.0) for s in selfs]), "s")
    out["net.self_s"] = (m.median([s.get("net", 0.0) for s in selfs]), "s")
    # Jobs alternate recorded and pass-through, so both kinds exist.
    out["trace.overhead_s"] = (m.median([j["wall_s"] for j in traced]) -
                               m.median([j["wall_s"] for j in plain]), "s")

    out["smc.comparisons"] = (
        mean([secure_comparisons(raw, j) - j["selection"] for j in gate]),
        "count")
    out["smc.selection_comparisons"] = (mean([j["selection"] for j in gate]),
                                        "count")
    out["smc.establish_s"] = (m.median(src["establish_s"]), "s")
    pool = src["pool"]
    out["smc.pool.produced"] = (pool["produced_per_job"], "count")
    out["smc.pool.peak_demand"] = (pool["peak_demand"], "count")
    out["smc.pool.steady_target"] = (pool["steady_target"], "count")
    out["smc.pool.available_at_job_start"] = (
        m.median([j["pool_available"] for j in src["jobs"]]), "count")

    units = {"_ns": "ns", "_s": "s", "_elem": "ns"}
    for name, value in raw["probes"].items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        out[name] = (value, unit)

    fleet = raw.get("serve_probe", raw)
    out["serve.start_s"] = (m.median(fleet["start_s"]), "s")
    out["serve.mesh_s"] = (m.median(fleet["mesh_s"]), "s")
    serve = raw.get("serve", {"job_retries": 0, "reconnects": 0,
                              "link_frames": 0, "link_bytes": 0})
    jobs = len(raw["jobs"])
    out["serve.job_retries"] = (serve["job_retries"], "count")
    out["serve.reconnects"] = (serve["reconnects"], "count")
    out["serve.link_frames"] = (serve["link_frames"] / jobs, "count")
    out["serve.link_bytes"] = (serve["link_bytes"] / jobs, "bytes")
    out["dbscan.central_s"] = (m.median(raw["central_s"]), "s")
    out["common.pool_threads"] = (raw["host"]["pool_threads"], "count")
    return out, per_job


def report_phases(per_job, raw, families):
    """Prints the phase table of the run's middle traced job, its per-party
    residuals, and how many traced party-jobs reconcile."""
    phases, wall, residuals = per_job[len(per_job) // 2]
    log(f"phases of one traced job (sum over parties, {wall:.4f} s party "
        "wall time):")
    for family, p in phases.items():
        if p["frames"]:
            log(f"  {family:<10} compute {p['compute_s']:.4f} s  wait "
                f"{p['wait_s']:.4f} s  {p['frames']} frames  "
                f"{p['bytes']} bytes")
    for party, residual in enumerate(residuals):
        log(f"  party {party}: residual {residual:.6f} s (wall minus phase "
            "compute + wait)")
    src = raw.get("replay", raw)
    parties = [p for j in src["jobs"] if j["traced"] and j["ok"]
               for p in j["parties"]]
    matched = sum(m.reconciles(p, families) for p in parties)
    log(f"  phases reconcile with wall time (within 5%) in {matched} of "
        f"{len(parties)} traced party-jobs")
    if "replay" in raw:
        log("  (serve-mesh3: phases from the in-process replay of the same "
            "jobs)")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    bdir = build_dir()
    try:
        exe = build(bdir)
        families = m.tag_family_map(ROOT)
    except (RuntimeError, OSError, KeyError) as err:
        log(f"e2ebench: {err}")
        return 2

    trace_path = bdir / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BUDGET_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: driver exceeded {BUDGET_S} s")
        return 1
    if proc.returncode != 0:
        log(f"e2ebench: driver exited {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    host = raw["host"]
    print(f"host: nproc={host['nproc']} pool_threads={host['pool_threads']} "
          f"limb_kernels={host['limb_kernels']} ifma={host['ifma']} "
          f"limb_bits={host['limb_bits']} paillier_bits="
          f"{host['paillier_bits']} rsa_bits={host['rsa_bits']}")
    sizes = [n for views in raw["inputs"] for n in views]
    print(f"workload {args.workload} seed {args.seed}: {len(raw['inputs'])} "
          f"inputs (first {raw['gate_inputs']} fixed: the gate), "
          f"{min(sizes)}-{max(sizes)} points per party; "
          f"{len(timed_of(raw))} timed jobs in {raw['loop_s']:.2f} s; "
          f"driver {time.monotonic() - started:.1f} s")

    problems = check_jobs(raw)
    if not problems:
        tag = "-smoke" if args.smoke else ""
        problems = check_gate_cache(
            raw, bdir / "gate" / fingerprint() / f"{args.workload}{tag}.json")
    for problem in problems:
        log(f"e2ebench: FAILED {problem}")
    attempted = len(raw["jobs"])
    failed = sum(1 for j in raw["jobs"] if not j["ok"])
    if problems and failed == 0:
        failed = 1
    correct = not problems

    walls = [j["wall_s"] for j in timed_of(raw) if j["ok"]]
    e2e = end_to_end(raw) if correct else {}
    if correct:
        print(f"job latency over {len(walls)} jobs: "
              f"{m.samples_beyond(walls, 90)} samples beyond p90")
    print(f"failed_job_ratio {failed / attempted:.4f} "
          f"({failed} of {attempted})")
    if args.trace and correct:
        spans = [json.loads(line)
                 for line in trace_path.read_text().splitlines()]
        metrics, per_job = per_layer(raw, families, spans)
        report_phases(per_job, raw, families)
        shown = dict(metrics)
    else:
        metrics = e2e
        shown = e2e
    for name, (value, unit) in shown.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
