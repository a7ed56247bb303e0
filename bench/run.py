"""Benchmark runner for monokit: three seeded workloads, one process each.

    python3 bench/run.py --workload closed-form --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, a table

With --trace 0 the run times every job of the workload, pass after pass,
for --seconds seconds, each job between two runs of a fixed calibration
kernel (bench/calibrate.py), and reports the end-to-end metrics. A job's
time is the median over passes of its time over the kernel's time around
it, in seconds at the kernel's reference speed; set-up is calibrated
too. With --trace 1 it runs a traced pass
between two untraced ones and reports per-layer counts and self times
instead. The last line of standard output is always one JSON object:
correct, attempted, failed, metrics.
The design, the workloads and the layer-to-metric predictions are in
bench/DESIGN.md.
"""
from __future__ import annotations

import os

# One BLAS thread: numpy's OpenBLAS otherwise starts one per core for the
# matmuls in the pairwise monotone scan and the max-affine prefilter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORKLOADS = ("closed-form", "sampled-scan", "envelope-lp")
SETUP_PROBES = 7
REFERENCE = BENCH / "reference"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
              "job_p90_s": "s", "peak_rss_mb": "MiB"}
# The span each workload is designed to spend most of its time in.
DOMINANT = {"closed-form": "operators.phi.closed",
            "sampled-scan": "operators.enumerate_graph",
            "envelope-lp": "lp.solve"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-jobs", type=int, default=None,
                   help="run only the first N jobs (a quick harness check)")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's verdict digests as the reference "
                        "for the seed")
    p.add_argument("--setup-probe", type=float, default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_monokit():
    """Import the package from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import monokit
    except ImportError as exc:
        sys.exit(f"bench: cannot import monokit from {SRC}: {exc}")
    if Path(monokit.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: monokit imported from {monokit.__file__}, "
                 f"not from {SRC}")
    return monokit


# ---------------------------------------------------------------- environment

def _environment(seed: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted((SRC / "monokit").glob("*.py")):
        src.update(f.name.encode() + f.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": commit, "src_sha256": src.hexdigest()[:16],
            "seed": seed}


# ---------------------------------------------------------------- running

def _time_job(job):
    from checks import Outcome
    t0 = perf_counter()
    try:
        out = Outcome(value=job.call())
    except Exception as exc:  # recorded: a gate outcome or a job failure
        out = Outcome(error=exc)
    return perf_counter() - t0, out


def _setup(workload, seed, max_jobs, workdir):
    import calibrate
    import workloads
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.build(workload, seed, workdir)
    if max_jobs is not None:
        jobs = jobs[:max_jobs]
    _time_job(workloads.warmup_job(jobs))
    for _ in range(20):
        calibrate.timed()
    return jobs


def _probe_setup(args):
    """A fresh process's set-up: import, job generation, one warm-up job.

    The probe then times the calibration kernel itself, on the processor
    it ran on; the parent may run on the other one, under other load.
    """
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        _import_monokit()
        _setup(args.workload, args.seed, args.max_jobs, workdir)
        seconds = perf_counter() - args.setup_probe
        from calibrate import timed_median
        print(f"setup {seconds!r} {timed_median()!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _setup_times(args) -> list[float]:
    """Set-up seconds of fresh processes, at the calibration kernel's
    reference speed."""
    from calibrate import REF_S
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.max_jobs is not None:
        cmd += ["--max-jobs", str(args.max_jobs)]
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd + ["--setup-probe", repr(perf_counter())],
                             capture_output=True, text=True, timeout=170)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        seconds, cal = map(float, res.stdout.split()[-2:])
        times.append(seconds / cal * REF_S)
    return times


def _release_heap():
    """Return freed heap to the system before a pass.

    Without it the peak resident size carries whatever fragmentation the
    previous pass and the seeded set-up left, which moved peak_rss_mb by
    16 % between seeds of envelope-lp for the same largest job.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the peak then includes old fragmentation


def _run_pass(jobs, tracer=None):
    """Times, calibration times and outcomes of one pass over the jobs.

    A job's calibration time is the mean of the kernel runs just before
    and just after it.
    """
    from calibrate import timed
    _release_heap()
    times, cals, outs = [], [], []
    cal_before = timed()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
            tracer.on = True
            root = tracer.open("job")
        dt, out = _time_job(job)
        if tracer is not None:
            tracer.close(root)
            tracer.on = False
        cal_after = timed()
        times.append(dt)
        cals.append(0.5 * (cal_before + cal_after))
        outs.append(out)
        cal_before = cal_after
    return times, cals, outs


def _quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of values.

    It is a mean of all order statistics weighted by a Beta(p(n+1),
    (1-p)(n+1)) density, so it moves smoothly when jobs trade places near
    the quantile. The plain order statistic jumps: the median of
    envelope-lp sits between a cluster of jobs near 15 ms and one near
    21 ms, and moved by 10 % from seed to seed where this moved by 3 %.
    """
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], t)), cdf)
    return float(np.diff(edges) @ x)


# ---------------------------------------------------------------- checks

def _check_jobs(jobs, outs, reference):
    """Records, failures and verdict changes of one pass's outcomes."""
    import checks
    recs = [checks.record(j, o) for j, o in zip(jobs, outs)]
    digests = [checks.digest(r) for r in recs]
    failures: dict[str, list[str]] = {}
    incorrect = []  # unexpected errors and failed gallery claims
    for job, out, rec in zip(jobs, outs, recs):
        problems = checks.invariant_problems(job, out, rec)
        if problems:
            failures[job.name] = problems
        if "unexpected" in rec or not rec.get("passed", True):
            incorrect.append(job.name)
    groups: dict[str, list[int]] = {}
    for i, job in enumerate(jobs):
        if job.twin is not None:
            groups.setdefault(job.twin, []).append(i)
    twin_pairs = len(groups)
    twin_disagree = []
    for key, idx in groups.items():
        views = {repr(checks.twin_view(recs[i])) for i in idx}
        if len(views) > 1:
            twin_disagree.append(key)
            explain = jobs[idx[0]].explain
            cause = f" ({explain()})" if explain is not None else ""
            for i in idx:
                others = [jobs[k].name for k in idx if k != i]
                failures.setdefault(jobs[i].name, []).append(
                    f"twin {', '.join(others)} disagrees{cause}")
    changes = None
    if reference is not None:
        changes = sum(1 for j, d in zip(jobs, digests)
                      if reference.get(j.name) != d)
    return {"digests": digests, "failures": failures,
            "incorrect": incorrect, "twin_pairs": twin_pairs,
            "twin_disagree": twin_disagree, "verdict_changes": changes}


def _reference(workload, seed, jobs):
    path = REFERENCE / f"{workload}.json"
    if not path.exists():
        return None
    ref = json.loads(path.read_text()).get("seeds", {}).get(str(seed))
    if ref is None or [j.name for j in jobs] != list(ref):
        return None
    return ref


def _write_reference(workload, seed, jobs, digests):
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{workload}.json"
    data = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    data["seeds"][str(seed)] = {j.name: d for j, d in zip(jobs, digests)}
    data["seeds"] = dict(sorted(data["seeds"].items(),
                                key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(data, indent=1) + "\n")


# ---------------------------------------------------------------- modes

def _scan_points(jobs) -> int:
    from monokit.fitzpatrick import scan_grid
    return sum(len(scan_grid(V, g)) for j in jobs for V, g in j.scans)


def _measure(args, jobs):
    """Passes over every job until --seconds have gone.

    Other tenants of a shared host stretch whole passes by a third and
    more, in phases that outlast a run, so seconds alone do not repeat
    from run to run. A job's time is its time over the calibration
    kernel's time around it, the median over passes, in seconds at the
    kernel's reference speed; its best plain time is kept for the record.
    Medians and the p90 are then taken across jobs.
    """
    from calibrate import REF_S
    import checks
    per_job = [[] for _ in jobs]
    ratios = [[] for _ in jobs]
    walls, cal_walls = [], []
    first = first_digests = None
    deterministic = True
    t_start = perf_counter()
    while True:
        times, cals, outs = _run_pass(jobs)
        walls.append(sum(times))
        cal_walls.append(sum(t / c for t, c in zip(times, cals)) * REF_S)
        for acc, ratio, t, c in zip(per_job, ratios, times, cals):
            acc.append(t)
            ratio.append(t / c * REF_S)
        digests = [checks.digest(checks.record(j, o))
                   for j, o in zip(jobs, outs)]
        if first is None:
            first, first_digests = outs, digests
        deterministic = deterministic and digests == first_digests
        elapsed = perf_counter() - t_start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    job_best = [min(ts) for ts in per_job]
    job_cal = [statistics.median(r) for r in ratios]
    return first, walls, cal_walls, job_best, job_cal, deterministic


def _run(args) -> int:
    t_proc = perf_counter()
    _import_monokit()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        jobs = _setup(args.workload, args.seed, args.max_jobs, workdir)
        t_ready = perf_counter()
        env = _environment(args.seed)
        reference = _reference(args.workload, args.seed, jobs)
        if args.trace:
            result = _traced(args, jobs, reference)
        else:
            result = _untraced(args, jobs, reference, t_ready - t_proc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["env"] = env
    return _report(args, jobs, result)


def _untraced(args, jobs, reference, own_setup):
    outs, walls, cal_walls, job_best, job_cal, deterministic = \
        _measure(args, jobs)
    # Read before the checks and the quantile estimates allocate their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    chk = _check_jobs(jobs, outs, reference)
    if args.write_reference:
        _write_reference(args.workload, args.seed, jobs, chk["digests"])
    probes = _setup_times(args)
    metrics = {
        "setup_s": statistics.median(probes),
        "wall_s": sum(job_cal),
        "job_p50_s": _quantile(job_cal, 0.5),
        "job_p90_s": _quantile(job_cal, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }
    return {"metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()},
            "check": chk,
            "self_check": [] if deterministic else
            ["verdicts differ between passes"],
            "passes": len(walls), "pass_walls": walls,
            "pass_calibrated_walls": cal_walls,
            "best_wall_s": sum(job_best),
            "setup_probes": probes, "in_process_setup_s": own_setup,
            "job_times": job_best, "job_cal": job_cal}


def _traced(args, jobs, reference):
    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    # Untraced passes on both sides of the traced one, so drift in the
    # machine's speed cancels out of the overhead.
    before, _, plain_outs = _run_pass(jobs)
    traced_times, _, traced_outs = _run_pass(jobs, tracer)
    after, _, _ = _run_pass(jobs)
    chk = _check_jobs(jobs, traced_outs, reference)
    plain = _check_jobs(jobs, plain_outs, None)
    wall = sum(min(a, b) for a, b in zip(before, after))
    traced_wall = sum(traced_times)
    overhead = traced_wall - wall
    layer_self = sum(s for name, s in tracer.self_s.items()
                     if name != tracing.ROOT)
    unattributed = traced_wall - layer_self
    problems = []
    if plain["digests"] != chk["digests"]:
        problems.append("traced verdicts differ from untraced ones")
    if tracer.negative_self:
        problems.append(f"{tracer.negative_self} spans with negative self "
                        "time")
    if not 0.0 <= unattributed <= max(overhead, 0.0) + 1e-3 * len(jobs):
        problems.append(f"layer self times sum to {layer_self:.4f} s, "
                        f"traced wall is {traced_wall:.4f} s, overhead "
                        f"{overhead:.4f} s")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(span_file)
    metrics = _layer_metrics(tracer, overhead)
    metrics["workload.scan_points"] = (_scan_points(jobs), "count")
    return {"metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "check": chk, "self_check": problems,
            "traced_wall_s": traced_wall, "untraced_wall_s": wall,
            "unattributed_s": unattributed, "spans": tracer.span_count(),
            "span_file": str(span_file.relative_to(ROOT)),
            "top_self": sorted(((s, n) for n, s in tracer.self_s.items()),
                               reverse=True)[:8],
            "dominant": max((s, n) for n, s in tracer.self_s.items()
                            if n != tracing.ROOT)[1]}


# Spans reported with their .calls and .self_s.
SPANS = (
    "regions.grid_sample",
    "fitzpatrick.scan_grid",
    "fitzpatrick.is_representative",
    "fitzpatrick.coupling_band",
    "fitzpatrick.penot_envelope",
    "operators.enumerate_graph",
    "operators.phi.closed",
    "operators.phi.sampled",
    "operators.graph_contains",
    "operators.mr_test",
    "operators.is_monotone",
    "convex.envelope_eval",
    "convex.max_affine_eval_batch",
    "lp.solve",
    "sumcalc.verify_sum_representative",
    "sumcalc.add_normal_cone",
    "sumcalc.operator_sum",
    "classify.check_vni",
    "classify.check_locates",
    "classify.check_identifies",
    "classify.check_condition_c",
    "classify.check_v_representable",
    "classify.check_maximal_on_grid",
    "classify.family_scan",
    "classify.dyadic_open_boxes",
    "specfile.parse_spec",
    "cli.main",
    "cli.render_report",
)
COUNTS = ("regions.grid_sample.points", "fitzpatrick.scan_grid.points",
          "operators.enumerate_graph.points", "operators.is_monotone.pairs",
          "convex.max_affine_eval_batch.rows", "lp.solve.infeasible",
          "lp.solve.errors", "lp.pivots")


def _layer_metrics(tracer, overhead) -> dict:
    import tracing
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    for name in COUNTS:
        out[name] = (tracer.counts.get(name, 0), "count")
    enum_calls = tracer.calls.get("operators.enumerate_graph", 0)
    out["operators.enumerate_graph.distinct"] = (len(tracer.enum_keys),
                                                 "count")
    out["operators.enumerate_graph.reuse"] = (
        len(tracer.enum_keys) / enum_calls if enum_calls else 0.0, "ratio")
    env_calls = tracer.calls.get("convex.envelope_eval", 0)
    out["convex.envelope_eval.lp_share"] = (
        tracer.counts.get("convex.envelope_eval.lp_calls", 0) / env_calls
        if env_calls else 0.0, "ratio")
    solves = tracer.calls.get("lp.solve", 0)
    out["lp.pivots_per_solve"] = (
        tracer.counts.get("lp.pivots", 0) / solves if solves else 0.0,
        "count")
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (sum(
            s for n, s in tracer.self_s.items()
            if n.split(".", 1)[0] == layer), "s")
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.spans"] = (tracer.span_count(), "count")
    return out


# ---------------------------------------------------------------- output

def _report(args, jobs, result) -> int:
    chk = result["check"]
    attempted = len(jobs)
    failed = len(chk["failures"])
    correct = not chk["incorrect"] and not result["self_check"]
    env = result["env"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  jobs {attempted}")
    print("# env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    ratio = failed / attempted
    print(f"{args.workload}  fail_frac = {ratio:.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    vc = chk["verdict_changes"]
    print(f"{args.workload}  verdict_changes = "
          f"{'n/a (no reference for this seed)' if vc is None else vc}")
    print(f"{args.workload}  twin pairs {chk['twin_pairs']}, disagreeing "
          f"{len(chk['twin_disagree'])}")
    if not args.trace:
        print(f"{args.workload}  passes {result['passes']}  scan_points "
              f"{_scan_points(jobs)}  best-pass wall "
              f"{result['best_wall_s']:.4f} s plain")
        for job, t, c in zip(jobs, result["job_times"], result["job_cal"]):
            if job.pinned:
                print(f"{args.workload}  pinned {job.name}: {c:.4f} s, "
                      f"best {t:.4f} s plain")
    else:
        print(f"{args.workload}  traced wall {result['traced_wall_s']:.4f} s,"
              f" untraced {result['untraced_wall_s']:.4f} s, unattributed "
              f"{result['unattributed_s']:.4f} s, spans {result['spans']}")
        top = ", ".join(f"{n} {s:.3f}s" for s, n in result["top_self"])
        print(f"{args.workload}  top self times: {top}")
        found = result["dominant"]
        verdict = "confirmed" if found == DOMINANT[args.workload] \
            else "NOT confirmed"
        print(f"{args.workload}  dominant span {found}, predicted "
              f"{DOMINANT[args.workload]}: {verdict}")
    for name, problems in chk["failures"].items():
        print(f"{args.workload}  FAILED {name}: {'; '.join(problems)}")
    for problem in result["self_check"]:
        print(f"{args.workload}  SELF-CHECK {problem}")
    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "correct": correct, "attempted": attempted,
        "failed": failed, "metrics": result["metrics"],
        "verdict_changes": vc, "failures": chk["failures"],
        "twin_disagree": chk["twin_disagree"],
        "self_check": result["self_check"],
        "jobs": [{"name": j.name, "pinned": j.pinned, "digest": d}
                 for j, d in zip(jobs, chk["digests"])],
    }
    if not args.trace:
        detail.update(passes=result["pass_walls"],
                      pass_calibrated_walls=result["pass_calibrated_walls"],
                      best_wall_s=result["best_wall_s"],
                      setup_probes=result["setup_probes"],
                      in_process_setup_s=result["in_process_setup_s"])
        for entry, t, c in zip(detail["jobs"], result["job_times"],
                               result["job_cal"]):
            entry["best_s"] = t
            entry["calibrated_s"] = c
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(detail, indent=1, default=str) + "\n")
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}
    print(json.dumps(line))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows, status = [], 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.max_jobs is not None:
            cmd += ["--max-jobs", str(args.max_jobs)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0 or not res.stdout.strip():
            status = 1
            continue
        last = json.loads(res.stdout.strip().splitlines()[-1])
        detail = json.loads(
            (OUT / f"{w}-seed{args.seed}-trace{args.trace}.json").read_text())
        rows.append((w, last, detail))
    print("\nworkload        metric                                    value")
    for w, last, detail in rows:
        for name, m in last["metrics"].items():
            print(f"{w:<15} {name:<40} {m['value']:>12.6g} {m['unit']}")
        print(f"{w:<15} {'fail_frac':<40} "
              f"{last['failed'] / last['attempted']:>12.6g} ratio "
              f"({last['failed']}/{last['attempted']}), correct "
              f"{last['correct']}")
        vc = detail["verdict_changes"]
        print(f"{w:<15} {'verdict_changes':<40} "
              f"{'n/a' if vc is None else vc:>12}")
        for name in detail["failures"]:
            print(f"{w:<15}   failed job {name}")
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_probe is not None:
        return _probe_setup(args)
    if args.workload == "all":
        return _run_all(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
