#!/usr/bin/env python3
"""genpolicy benchmark: one workload per process, a chain of real CLI stages.

Run from the repository root:

    python3 perfbench/run.py --workload gmpg-bandit --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the chain (set-up in a fresh interpreter, then nine
stages called in-process through ``genpolicy.cli.main``) is repeated until
``--seconds`` have passed and the end-to-end metrics are the medians over
the repetitions. With ``--trace 1`` one untraced chain is followed by one
traced with spans and one traced with tracemalloc, and the per-layer
metrics are reported. Every stage's outputs are checked; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import STAGES, THROUGHPUT, WORKLOADS, stage_argv, stage_dirs, write_config  # noqa: E402

MIN_REPS = 3
TIME_CAP_S = 150.0  # no new repetition starts past this, so a run ends well within 180 s
MIB = float(1 << 20)
# End-to-end timings are scaled to a machine on which calibrate() takes this
# long. The kernel runs between stages, so drift in the speed of a shared
# machine cancels out of the reported numbers; raw timings stay in the record.
CAL_NOMINAL_S = 0.030

# Set-up in a fresh interpreter: imports, config resolution and make-data.
SETUP_CODE = ("import json, sys; sys.path.insert(0, 'src'); "
              "from genpolicy.cli import main; sys.exit(main(json.loads(sys.argv[1])))")


@dataclass
class Rep:
    wall_s: float = 0.0
    stage_s: dict = field(default_factory=dict)
    stage_peak_mib: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    calib_s: list = field(default_factory=list)
    ok: bool = True


def pin_malloc() -> bool:
    """Fix glibc's malloc thresholds for this process.

    By default they adapt to the allocation pattern, so whether a stage's
    arrays come from a warm heap or from fresh, page-faulting memory drifts
    from pass to pass and made the tape-heavy stages swing by 20-30%. With
    the thresholds fixed, large arrays come from a heap that is never
    trimmed, and every timed pass runs against the heap the untimed first
    pass left. Returns False where there is no glibc mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 2**31 - 1))


def calibrate() -> float:
    """Seconds a fixed numpy kernel takes: small tape-like ops, then medium
    matmuls. It runs no genpolicy code, so it measures only how fast the
    machine is running at that moment."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((32, 64))
    w = np.random.default_rng(1).standard_normal((64, 64)) / 8
    big = np.random.default_rng(2).standard_normal((256, 256)) / 16
    t = perf_counter()
    for _ in range(300):
        x = np.tanh(x @ w) * 0.5 + x * 0.5
    for _ in range(20):
        big = np.tanh(big @ big)
    return perf_counter() - t


def run_stage(cli, argv: list) -> tuple[int, str]:
    """genpolicy.cli.main in-process, with its output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except Exception:  # an uncaught error is a failed stage, like exit 1 of the CLI
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue()


def run_chain(cli, wl, ini: str, workdir: str, checks, tracer=None, memory=False) -> Rep:
    """One pass of the workload's chain in a fresh output directory.

    Untraced passes set up in a child interpreter; traced passes run
    make-data in-process so that it gets its spans too.
    """
    # verify and tracing import genpolicy, so they load after main() has put it on sys.path
    from verify import check_stage_files, digest

    shutil.rmtree(workdir, ignore_errors=True)
    dirs = stage_dirs(workdir)
    rep = Rep()
    gc.collect()
    for label in STAGES:
        argv = stage_argv(wl, label, ini, dirs)
        rep.calib_s.append(calibrate())
        start = perf_counter()
        if label == "make-data" and tracer is None and not memory:
            try:
                proc = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(argv)],
                                      capture_output=True, text=True, timeout=120)
                rc, log = proc.returncode, proc.stdout + proc.stderr
            except subprocess.TimeoutExpired:
                rc, log = -1, "set-up did not finish in 120 s"
        elif tracer is not None:
            with tracer.span(f"cli.{label}"):
                rc, log = run_stage(cli, argv)
        elif memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rc, log = run_stage(cli, argv)
            rep.stage_peak_mib[label] = (tracemalloc.get_traced_memory()[1] - base) / MIB
        else:
            rc, log = run_stage(cli, argv)
        rep.stage_s[label] = perf_counter() - start
        if not checks.record(f"{label} exit 0", rc == 0, f"exit {rc}: {log.strip()[-400:]}"):
            rep.ok = False
            for rest in STAGES[STAGES.index(label) + 1:]:
                checks.record(f"{rest} exit 0", False, "not run: an earlier stage failed")
            break
    rep.calib_s.append(calibrate())
    rep.wall_s = sum(rep.stage_s.values())
    if rep.ok:
        for label in STAGES:
            check_stage_files(checks, label, dirs[label])
            rep.digests[label] = digest(dirs[label])
    return rep


def reference_checks(wl, seed: int, workdir: str, checks) -> float:
    """The workload's checks against analytic or independent references;
    returns logprob_err_nats."""
    import verify as ref

    dirs = stage_dirs(workdir)
    ref.check_eval_value(checks, dirs)
    ref.check_softmax_weights(checks, dirs, int(wl.config["policy"]["k_candidates"]))
    if "gmpo_value" in wl.checks:
        ref.check_gmpo_value(checks, dirs)
    if "gmpg_moves" in wl.checks:
        ref.check_gmpg_moves(checks, dirs, float(wl.config["policy"]["beta"]), seed)
    err = ref.logprob_error(dirs)
    if "logprob_tolerance" in wl.checks:
        checks.record(f"logprob within {ref.LOGPROB_TOLERANCE_NATS} nats of log N(a; 0, I)",
                      err <= ref.LOGPROB_TOLERANCE_NATS, f"mean error {err:.4f} nats")
    return err


def same_outputs(checks, first: Rep, rep: Rep, what: str) -> None:
    for label in STAGES:
        if label in rep.digests:
            checks.record(f"{label} {what} bit-identical", rep.digests[label] == first.digests[label],
                          "outputs differ from the first pass")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def scaled_stage_s(rep: Rep) -> dict:
    """Stage times scaled by the calibration runs just before and after each stage."""
    cal = rep.calib_s
    return {label: rep.stage_s[label] * 2 * CAL_NOMINAL_S / (cal[i] + cal[i + 1])
            for i, label in enumerate(STAGES)}


def warm_up(cli, wl, seed, ini, workdir, checks) -> tuple[Rep, float | None]:
    """An untimed first pass: it lets allocator and cache state settle, and
    its outputs get the reference checks that later passes are compared to.
    Returns the pass and logprob_err_nats."""
    first = run_chain(cli, wl, ini, workdir, checks)
    return first, (reference_checks(wl, seed, workdir, checks) if first.ok else None)


def measure(cli, wl, seed, seconds, ini, workdir, checks) -> tuple[dict, dict, list]:
    first, err = warm_up(cli, wl, seed, ini, workdir, checks)
    reps = []
    start = perf_counter()
    while first.ok:
        rep = run_chain(cli, wl, ini, workdir, checks)
        same_outputs(checks, first, rep, "rerun")
        reps.append(rep)
        elapsed = perf_counter() - start
        if not rep.ok or (elapsed >= seconds and len(reps) >= MIN_REPS) \
                or elapsed + rep.wall_s > TIME_CAP_S:
            break
    good = [r for r in reps if r.ok]
    metrics = {}
    if good:
        def median_time(labels):
            return statistics.median(sum(scaled_stage_s(r)[label] for label in labels) for r in good)

        metrics["setup_s"] = (median_time(["make-data"]), "s")
        metrics["wall_s"] = (median_time(STAGES), "s")
        metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
        for label, (name, unit) in THROUGHPUT.items():
            metrics[name] = (wl.work[label] / median_time([label]), unit)
    # Deterministic for a seed but spread widely across seeds, so printed, not gated.
    extra = {} if err is None else {"logprob_err_nats": (err, "nats")}
    return metrics, extra, [first] + reps


def trace(cli, wl, seed, ini, workdir, checks, spans_path) -> tuple[dict, dict, list]:
    from tracing import Tracer, accounting_errors, layer_metrics

    first, err = warm_up(cli, wl, seed, ini, workdir, checks)
    if not first.ok:
        return {}, {}, [first]
    base = run_chain(cli, wl, ini, workdir, checks)
    tracer = Tracer(run_id=seed)
    with tracer.installed():
        traced = run_chain(cli, wl, ini, workdir, checks, tracer=tracer)
    tracer.write(spans_path)
    tracemalloc.start()
    try:
        mem = run_chain(cli, wl, ini, workdir, checks, memory=True)
    finally:
        tracemalloc.stop()
    reps = [first, base, traced, mem]
    if not (base.ok and traced.ok and mem.ok):
        return {}, {}, reps
    same_outputs(checks, first, base, "rerun")
    same_outputs(checks, first, traced, "traced")
    same_outputs(checks, first, mem, "tracemalloc")
    bad = accounting_errors(tracer.spans)
    checks.record("child self times account for each cli stage span", not bad, "; ".join(bad[:3]))
    metrics = layer_metrics(tracer)
    for label in STAGES:
        metrics[f"cli.{label}.traced_peak_mib"] = (mem.stage_peak_mib[label], "MiB")
    stages = STAGES[1:]  # make-data runs in a child interpreter when untraced
    metrics["trace.overhead_s"] = (sum(scaled_stage_s(traced)[s] for s in stages)
                                   - sum(scaled_stage_s(base)[s] for s in stages), "s")
    metrics["likelihood.logprob_err_nats"] = (err, "nats")
    return metrics, {}, reps


def git_commit(root: str) -> str:
    """HEAD of the checkout's own .git, if it has one (read, not run, so
    nothing outside the checkout is consulted)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: str) -> dict:
    import numpy as np

    src = os.path.join(root, "src", "genpolicy")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(root),
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / MIB,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "genpolicy", "cli.py")):
        print("perfbench: src/genpolicy not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import genpolicy.cli as cli
    from verify import Checks

    malloc_pinned = pin_malloc()
    wl = WORKLOADS[args.workload]
    out = os.path.join(root, "perfbench", "out")
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    ini = os.path.join(workdir, "workload.ini")
    write_config(wl, args.seed, ini)
    checks = Checks()
    try:
        if args.trace:
            metrics, extra, reps = trace(cli, wl, args.seed, ini, os.path.join(workdir, "stages"),
                                         checks, os.path.join(out, f"spans-{tag}.jsonl"))
        else:
            metrics, extra, reps = measure(cli, wl, args.seed, args.seconds, ini,
                                    os.path.join(workdir, "stages"), checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = {**provenance(root), "malloc_pinned": malloc_pinned}
    passes = ("an untimed first pass, then one untraced, one with spans and one with tracemalloc"
              if args.trace else f"an untimed first pass, then the median of {len(reps) - 1} timed")
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {passes}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    error_rate = checks.failed / max(1, checks.attempted)
    print(f"error_rate {error_rate:.6g} fraction ({checks.failed} of {checks.attempted} "
          f"stages and checks failed)")
    for line in checks.failures:
        print(f"FAILED {line}")
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "provenance": prov,
              "passes": [vars(r) for r in reps], "error_rate": error_rate,
              "failures": checks.failures,
              "printed_only": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(out, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
