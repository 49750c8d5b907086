"""The benchmark's own checks.

    python3 bench/check.py

Run from the root of a source checkout.  Checks that

- the same seed gives byte-identical inputs and another seed different ones,
  with the same untimed jobs (identity-label probes: one per non-identity
  class);
- after the tracer is removed, every wrapped name holds its original object;
- ``expected.json`` agrees with the program on the untransformed inputs
  (identity at label 0, no basis change), and with the acceptance gate's
  counts;
- the closed-form Lie dimensions used by the checks agree with the program;
- every metric name in ``BENCHMARK.json`` is well formed.

Exits 1 and says what failed, if anything does.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import filecmp  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from itertools import product  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Counts forced by the acceptance gate and by theory (D_n std: scalars,
# the rotation Cartan, everything).
GATE = {
    "S3:std": (3, [1, 2, 4]), "Q8:std": (5, [1, 2, 2, 2, 4]),
    "D4:std": (5, [1, 2, 2, 2, 4]), "SL23:std": (2, [1, 4]),
    "S3xS3:stdXstd": (13, [1, 2, 2, 2, 4, 4, 4, 4, 4, 8, 8, 8, 16]),
    **{f"D{n}:std": (3, [1, 2, 4]) for n in workloads.DIHEDRAL_NS},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def untransformed_answers(cat, work):
    """Program answers on untransformed inputs: ``{input: {cmd: summary}}``."""
    cli = sys.modules["invalg.cli"]
    answers = {}
    for workload in ("catalog", "induction", "tensor"):
        sources = workloads.input_sources(workload, cat.catalog())
        if workload == "catalog":
            pairs = [(i, c) for i in sources for c in workloads.COMMANDS]
        else:
            pairs = (workloads.cli_jobs(workload, {})
                     + workloads.cli_jobs(workload, {}, timed=False))
        for input_id, cmd in pairs:
            path = os.path.join(work, "in.json")
            out = os.path.join(work, "out.json")
            workloads.write_json(path, workloads.to_wire(sources[input_id], input_id))
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([cmd, path, "--out", out])
            if code != 0:
                continue  # the command does not accept this input
            with open(out, encoding="utf-8") as fh:
                answers.setdefault(input_id, {})[cmd] = workloads.summarize(cmd, json.load(fh))
    return answers


def main():
    run._load_program()
    cat = run._fresh_import()
    problems = []
    expected = workloads.load_expected()

    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for workload in workloads.WORKLOADS:
            dirs, untimed_ids = {}, {}
            for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
                dirs[tag] = os.path.join(work, f"{workload}-{tag}")
                _, untimed = workloads.generate(workload, seed, cat.catalog(), expected,
                                                dirs[tag])
                untimed_ids[tag] = [p["id"] for p in untimed]
            if untimed_ids["a"] != untimed_ids["c"]:
                problems.append(f"{workload}: the untimed jobs depend on the seed")
            names = sorted(os.listdir(dirs["a"]))
            _, diff, errs = filecmp.cmpfiles(dirs["a"], dirs["b"], names, shallow=False)
            if diff or errs or names != sorted(os.listdir(dirs["b"])):
                problems.append(f"{workload}: seed 1 twice gave different inputs {diff + errs}")
            _, diff, _ = filecmp.cmpfiles(dirs["a"], dirs["c"], names, shallow=False)
            if not diff:
                problems.append(f"{workload}: seeds 1 and 2 gave identical inputs")

        tr = tracer.Tracer()
        cls_mod = sys.modules["invalg.classify"]
        original = cls_mod.all_subgroups
        tr.install()
        installed = cls_mod.all_subgroups is not original
        patches = tr.restore()
        if not installed or len(patches) < 100:
            problems.append(f"tracer installed only {len(patches)} wrappers")
        if not tracer.Tracer.restored(patches) or cls_mod.all_subgroups is not original:
            problems.append("tracer left a wrapped name behind")

        answers = untransformed_answers(cat, work)
        if answers != expected:
            problems.append("expected.json disagrees with the program; program says:\n"
                            + json.dumps(answers, indent=1, sort_keys=True))
        for input_id, (count, dims) in GATE.items():
            got = expected.get(input_id, {}).get("subalgebras")
            if got != {"count": count, "dims": dims, "verification_ok": True}:
                problems.append(f"{input_id}: expected.json has {got}, the gate says "
                                f"{count} subalgebras of dims {dims}")

    lie = sys.modules["invalg.lie"]
    for system, rank in workloads.RANKS.items():
        rs = lie.RootSystem.from_name(system)
        for c in product(range(5), repeat=rank):
            if lie.weyl_dim(lie.HighestWeight(rs, c)) != workloads.closed_form_dim(system, c):
                problems.append(f"closed form for {system}{c} disagrees")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad or len(set(names)) != len(names):
        problems.append(f"malformed or repeated names: {bad}")

    for p in problems:
        print("FAIL", p)
    print("all checks passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
