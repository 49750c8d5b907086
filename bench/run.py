"""End-to-end benchmark of ``invalg``.

    python3 bench/run.py --workload catalog --seed 1 --seconds 26 --trace 0

Run from the root of a source checkout.  The run starts several fresh
interpreters that each import the package, build the catalog and generate
the workload's inputs from the seed; the median time from process start to
inputs written is ``setup_s``.  It then runs the workload's untimed jobs
once (see ``workloads.generate``) and repeats its job list in one process,
one job at a time (a closed loop), while another pass fits in
``--seconds``.  Every job is cold: it loads its own JSON file, so no group
caches are shared.  BLAS is pinned to one thread.  Every answer is checked
against ``expected.json`` or a closed form; ``record.json`` defines each
metric and holds the baseline.

Every time metric is divided by the host's slowdown, measured with the
reference kernel of ``speed.py`` between jobs (see there for why); raw times
and slowdowns are printed and written to the report.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` half the time runs untraced and half
with ``tracer.Tracer`` installed, and the last line carries the per-layer
metrics; spans of the last traced pass are written under ``bench/.work``.
"""

import os

# Pin BLAS before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from itertools import product  # noqa: E402

import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 7

# Where each workload's largest self times are predicted to land.
EXPECTED_TOP_LAYERS = {
    "induction": {"groups", "reps", "classify"},
    "tensor": {"factor", "spaces", "algebras", "_linalg"},
    "lie": {"lie"},
}


def _load_program():
    """Import the package from the checkout's ``src``; exit 2 if absent."""
    if not os.path.isfile(os.path.join(SRC, "invalg", "__init__.py")):
        print(f"error: no invalg package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _fresh_import():
    for name in [m for m in sys.modules if m == "invalg" or m.startswith("invalg.")]:
        del sys.modules[name]
    importlib.import_module("invalg")
    importlib.import_module("invalg.cli")
    return importlib.import_module("invalg.catalog")


def setup(workload, seed, expected, input_dir):
    """Import, build the catalog and write the inputs; returns the jobs."""
    cat = _fresh_import()
    if os.path.isdir(input_dir):
        shutil.rmtree(input_dir)
    return workloads.generate(workload, seed, cat.catalog(), expected, input_dir)


def setup_child(args):
    """Body of a set-up process: set up, then time two reference cycles.

    ``args.setup_child`` is the ``perf_counter`` reading (a system-wide
    monotonic clock) taken just before the process was started, so the set-up
    time includes interpreter start and every import.
    """
    _load_program()
    input_dir = os.path.join(_run_dir(args), f"setup-{os.getpid()}")
    setup(args.workload, args.seed, workloads.load_expected(), input_dir)
    seconds = time.perf_counter() - args.setup_child
    shutil.rmtree(input_dir, ignore_errors=True)
    speed.cycle()
    print(json.dumps({"setup_s": seconds, "cycles_s": speed.time_cycles(2)}))
    return 0


def measure_setup(args):
    """Raw and slowdown-corrected set-up times of fresh processes."""
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-child"]
        t0 = time.perf_counter()
        done = subprocess.run(cmd + [repr(t0)], capture_output=True, text=True,
                              timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr}")
        child = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(child["setup_s"])
        corrected.append(child["setup_s"] / (statistics.fmean(child["cycles_s"])
                                              / speed.NOMINAL_S))
    return raw, corrected


def _run_dir(args):
    return os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")


# -- jobs ----------------------------------------------------------------------

class Outcome:
    __slots__ = ("seconds", "ok", "certified", "error", "out_bytes")

    def __init__(self, seconds, ok, certified=None, error=None, out_bytes=0):
        self.seconds = seconds
        self.ok = ok
        self.certified = certified
        self.error = error
        self.out_bytes = out_bytes


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_job(job, out_path, expected):
    """Run one job cold; time the call, then check its answer untimed."""
    cli = sys.modules["invalg.cli"]
    lie = sys.modules["invalg.lie"]
    kind = job["kind"]
    if os.path.exists(out_path):
        os.remove(out_path)
    t0 = time.perf_counter()
    try:
        if kind == "cli":
            code = cli.main([job["cmd"], job["path"], "--out", out_path])
        elif kind == "lie_cli":
            spec = _read(job["path"])
            code = cli.main(["lie", "--type", "x".join(spec["types"]),
                             "--weights", ";".join(json.dumps(w) for w in spec["weights"]),
                             "--out", out_path])
        elif kind == "sweep":
            spec = _read(job["path"])
            rs = lie.RootSystem.from_name(spec["system"])
            weights = [lie.HighestWeight(rs, c)
                       for c in product(range(spec["box"]), repeat=rs.rank)]
            wrong = sum(lie.tensor_irreducible(a, b) != (a.is_zero or b.is_zero)
                        for a in weights for b in weights)
        else:
            spec = _read(job["path"])
            factors = []
            for t, w in zip(spec["types"], spec["weights"]):
                rs = lie.RootSystem.from_name(t)
                factors.append((rs, lie.HighestWeight(rs, tuple(w))))
            cls = lie.etingof_enumerate(factors)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
        seconds = time.perf_counter() - t0
        return Outcome(seconds, False, error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0

    if kind == "sweep":
        return Outcome(seconds, wrong == 0,
                       error=None if wrong == 0 else f"{wrong} wrong pairs")
    if kind == "etingof":
        ok = workloads.check_power_set(spec["types"], spec["weights"],
                                       cls.factor_dims, cls.count)
        return Outcome(seconds, ok, certified=True,
                       error=None if ok else "power-set answer off")
    if code != 0:
        return Outcome(seconds, False, error=f"exit code {code}")
    payload = _read(out_path)
    out_bytes = os.path.getsize(out_path)
    if kind == "lie_cli":
        ok = workloads.check_power_set(spec["types"], spec["weights"],
                                       payload["factor_dims"], payload["count"])
        return Outcome(seconds, ok, certified=True,
                       error=None if ok else "power-set answer off",
                       out_bytes=out_bytes)
    want = expected[job["input"]][job["cmd"]]
    got = workloads.summarize(job["cmd"], payload)
    ok = got == want
    return Outcome(seconds, ok, certified=workloads.certified(job["cmd"], payload),
                   error=None if ok else f"answer {got} != expected {want}",
                   out_bytes=out_bytes)


class Pass:
    """One pass over the job list: outcomes and the host slowdown."""

    def __init__(self, outcomes, cycles):
        self.outcomes = outcomes
        self.cycles = cycles
        self.slowdown = statistics.fmean(cycles) / speed.NOMINAL_S
        self.raw_wall = sum(o.seconds for o in outcomes)
        self.wall = self.raw_wall / self.slowdown
        self.seconds = [o.seconds / self.slowdown for o in outcomes]


def run_passes(jobs, out_dir, expected, budget, tracer=None, on_pass=None):
    """Repeat the job list while another pass fits in ``budget`` seconds.

    Reference cycles bracket every pass and are interleaved with its jobs;
    their mean sets the pass's slowdown.  The pass time is the jobs' own
    time: reference cycles and answer checks are not counted.
    """
    passes = []
    meter = speed.Meter()
    speed.cycle()  # warm up
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        first = len(meter.samples)
        meter.sample()
        outcomes = []
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = i
            outcomes.append(run_job(job, os.path.join(out_dir, f"{i:03d}.json"), expected))
            meter.ran(outcomes[-1].seconds)
        meter.flush()
        passes.append(Pass(outcomes, meter.samples[first:]))
        if on_pass is not None:
            on_pass(passes[-1])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > budget:
            return passes


# -- metrics ---------------------------------------------------------------------

def failures(jobs, passes, untimed):
    """``(attempted, failed)``: each job counts once, failed if it failed on
    any pass, and each untimed job counts once."""
    failed_jobs = sum(not all(p.outcomes[j].ok for p in passes) for j in range(len(jobs)))
    return len(jobs) + len(untimed), failed_jobs + sum(not o.ok for o in untimed)


def end_to_end(passes, jobs, untimed, setup_s):
    per_job = sorted(statistics.median(p.seconds[j] for p in passes) for j in range(len(jobs)))
    # the middle half of the jobs: one job's latency is too noisy to stand
    # for them (10-20% run to run for jobs under 10 ms)
    middle = per_job[len(per_job) // 4:len(per_job) - len(per_job) // 4]
    certs = [all(p.outcomes[j].certified for p in passes) for j in range(len(jobs))
             if passes[0].outcomes[j].certified is not None]
    attempted, failed = failures(jobs, passes, untimed)
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "job_typical_s": statistics.geometric_mean(middle),
        "slowest_job_s": statistics.median(max(p.seconds) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "pass_frac": 1.0 - failed / attempted,
        "certified_frac": sum(certs) / len(certs) if certs else 1.0,
    }
    return values, attempted, failed


def layer_metrics(tracer, p):
    """Per-layer values of one traced pass; times are raw seconds."""
    c = tracer.counters
    n = tracer.calls

    def t(*names):
        return sum(tracer.self_s(name) for name in names)

    cli_cmds = [s for s in tracer.stats if s.startswith("cli.cmd_")]
    attributed = sum(s for name, (_, s, _) in tracer.stats.items()
                     if not name.startswith("cli."))
    attempts = c["reps.split_attempts"]
    scanned = c["factor.subsets_scanned"]
    return {
        "groups.all_subgroups.self_s": t("groups.all_subgroups"),
        "groups.all_subgroups.classes": c["groups.all_subgroups.classes"],
        "reps.character_table.calls": n("reps.character_table"),
        "reps.character_table.self_s": t("reps.character_table"),
        "reps.split_attempts": attempts,
        "reps.split_useful_ratio": c["reps.split_useful"] / attempts if attempts else 0.0,
        "reps.isotypic_decomposition.self_s": t("reps.isotypic_decomposition"),
        "reps.commutant_dimension.self_s": t("reps.commutant_dimension"),
        "reps.adjoint_rep.self_s": t("reps.adjoint_rep"),
        "classify.induction_pairs.self_s": t("classify.induction_pairs"),
        "classify.pairs_kept": c["classify.pairs_kept"],
        "classify.theta.calls": n("classify.theta"),
        "classify.theta.self_s": t("classify.theta"),
        "classify.verify_classification.self_s": t("classify.verify_classification"),
        "factor.multfree_scan.self_s": t("factor.multfree_scan"),
        "factor.subsets_scanned": scanned,
        "factor.closed_ratio": c["factor.subsets_closed"] / scanned if scanned else 0.0,
        "factor.central_simple_invariant_subalgebras.self_s":
            t("factor.central_simple_invariant_subalgebras"),
        "factor.extract_factorization.self_s": t("factor.extract_factorization"),
        "factor.unit_attempts": c["factor.unit_attempts"],
        "spaces.add.calls": n("spaces.add"),
        "spaces.add.self_s": t("spaces.add"),
        "spaces.from_spanning.calls": n("spaces.from_spanning"),
        "spaces.from_spanning.self_s": t("spaces.from_spanning"),
        "spaces.is_product_closed.self_s": t("spaces.is_product_closed"),
        "spaces.contains.calls": n("spaces.contains"),
        "algebras.centralizer.calls": n("algebras.centralizer"),
        "algebras.centralizer.self_s": t("algebras.centralizer"),
        "algebras.central_primitive_idempotents.self_s":
            t("algebras.central_primitive_idempotents"),
        "algebras.idempotent_attempts": c["algebras.idempotent_attempts"],
        "algebras.wedderburn_decompose.self_s": t("algebras.wedderburn_decompose"),
        "algebras.permutation_action.self_s": t("algebras.permutation_action"),
        "linalg.nullspace.calls": n("_linalg.nullspace"),
        "linalg.nullspace.self_s": t("_linalg.nullspace"),
        "linalg.nullspace.bytes": c["_linalg.nullspace.bytes"],
        "linalg.row_space.calls": n("_linalg.row_space"),
        "linalg.row_space.self_s": t("_linalg.row_space"),
        "ideals.invariant_subspaces.self_s": t("ideals.invariant_subspaces"),
        "ideals.invariant_ideals.self_s": t("ideals.invariant_ideals"),
        "lie.weyl_dim.calls": n("lie.weyl_dim"),
        "lie.weyl_dim.self_s": t("lie.weyl_dim"),
        "lie.weyl_dim.distinct_weights": len(tracer.weights),
        "lie.tensor_irreducible.self_s": t("lie.tensor_irreducible"),
        "lie.etingof_enumerate.self_s": t("lie.etingof_enumerate"),
        "catalog.load_input.self_s": t("catalog.load_input"),
        "cli.output_s": t("cli.main"),
        "cli.output_bytes": sum(o.out_bytes for o in p.outcomes),
        "cli.cmd.self_s": t(*cli_cmds),
        "trace.cli_self_frac": 1.0 - attributed / p.raw_wall,
        "trace.wall_s": p.raw_wall,
    }


def layer_self_totals(tracer):
    totals = {}
    for name, (_, s, _) in tracer.stats.items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + s
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def environment():
    import numpy as np
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": np.__version__, "blas_threads": None, "blas": None, "git_sha": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        pass
    try:
        import ctypes
        import glob
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*"))
        if libs:
            env["blas_threads"] = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_()
    except (OSError, AttributeError):
        pass
    # read .git directly: a checkout without .git has no sha to report
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        ref = _read_text(head)
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            ref = _read_text(ref_path) if os.path.isfile(ref_path) else None
        env["git_sha"] = ref
    return env


def _read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


# -- main ------------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_child is not None:
        return setup_child(args)

    _load_program()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    expected = workloads.load_expected()
    run_dir = _run_dir(args)
    input_dir = os.path.join(run_dir, "inputs")
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(run_dir, exist_ok=True)

    setup_raw, setup_corrected = measure_setup(args)
    setup_s = statistics.median(setup_corrected)
    jobs, untimed_jobs = setup(args.workload, args.seed, expected, input_dir)
    os.makedirs(out_dir, exist_ok=True)
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: {len(jobs)} jobs, {len(untimed_jobs)} untimed, "
          f"seed {args.seed}")

    # untimed jobs run once, outside the passes' time budget
    untimed = [run_job(job, os.path.join(out_dir, "untimed.json"), expected)
               for job in untimed_jobs]
    budget = args.seconds

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "setup_raw_s": setup_raw, "setup_corrected_s": setup_corrected}
    if args.trace:
        untraced = run_passes(jobs, out_dir, expected, budget / 2)
        tr = tracer_mod.Tracer()
        tr.install()
        layer_runs = []
        dumps = {}

        def collect(traced_pass):
            layer_runs.append(layer_metrics(tr, traced_pass))
            dumps["last"] = tr.dump()
            dumps["layers"] = layer_self_totals(tr)

        try:
            traced = run_passes(jobs, out_dir, expected, budget / 2, tracer=tr,
                                on_pass=collect)
        finally:
            patches = tr.restore()
        if not tracer_mod.Tracer.restored(patches):
            raise RuntimeError("tracer left a wrapped function installed")
        passes = untraced + traced
        measured = untraced
        metrics = {name: statistics.median(r[name] for r in layer_runs)
                   for name in layer_runs[0]}
        metrics["trace.overhead_frac"] = (statistics.median(q.wall for q in traced)
                                          / statistics.median(q.wall for q in untraced) - 1.0)
        top = [k for k in dumps["layers"] if k != "cli"][:len(
            EXPECTED_TOP_LAYERS.get(args.workload, ()))]
        want = EXPECTED_TOP_LAYERS.get(args.workload)
        if want is not None:
            verdict = "as predicted" if set(top) <= want else "MISMATCH"
            report["layer_check"] = f"largest self times: {top}; predicted " \
                                    f"within {sorted(want)}: {verdict}"
            print(report["layer_check"])
        report["trace"] = dumps["last"]
        report["layer_self_s"] = dumps["layers"]
    else:
        passes = measured = run_passes(jobs, out_dir, expected, budget)

    values, attempted, failed = end_to_end(measured, jobs, untimed, setup_s)
    if args.trace:
        metrics_names = "per_layer"
        attempted, failed = failures(jobs, passes, untimed)
    else:
        metrics, metrics_names = values, "end_to_end"

    correct = all(o.ok for q in passes for o in q.outcomes)
    for j, job in enumerate(jobs):
        bad = [q.outcomes[j] for q in passes if not q.outcomes[j].ok]
        if bad:
            print(f"FAILED {job['id']}: {bad[0].error}")
    for job, o in zip(untimed_jobs, untimed):
        print(f"untimed {job['id']} ({o.seconds:.3g} s): "
              f"{'ok' if o.ok else 'FAILED ' + str(o.error)}")
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    print(f"{len(measured)} untraced passes, slowdown "
          f"{', '.join(f'{q.slowdown:.3f}' for q in measured)}; raw wall_s "
          f"{statistics.median(q.raw_wall for q in measured):.6g} s, raw setup_s "
          f"{statistics.median(setup_raw):.6g} s; "
          + ", ".join(f"{k} {v:.6g} {e2e_units[k]}" for k, v in values.items()))

    report.update({
        "passes": [{"raw_wall_s": q.raw_wall, "slowdown": q.slowdown, "wall_s": q.wall,
                    "cycles_s": q.cycles,
                    "raw_jobs_s": {job["id"]: o.seconds for job, o in zip(jobs, q.outcomes)}}
                   for q in passes],
        "untimed": {job["id"]: {"raw_s": o.seconds, "error": o.error}
                    for job, o in zip(untimed_jobs, untimed)},
        "end_to_end": values, "metrics": metrics,
    })
    with open(os.path.join(run_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    shutil.rmtree(input_dir, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared[metrics_names]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - fail loudly, never print a result
        traceback.print_exc()
        sys.exit(1)
