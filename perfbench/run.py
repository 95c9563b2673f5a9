"""The covcat benchmark: timed CLI workloads with known answers.

    python3 perfbench/run.py --workload cover-docs --seed 1 --seconds 40 --trace 0

Each run generates its workload's workspace from the seed in fresh
processes (timed as ``setup_s``), then drives ``covcat.cli.main(argv)``
in-process in a closed loop with one client: one thread sends each command
after the previous one returns, with stdout captured and the working
directory set to the instance's directory so that argv stays relative.
Whole passes over the seed's command list repeat until ``--seconds`` is
spent.  Each latency is also read in units of a fixed reference kernel
timed next to it (see ``_reference``), and the end-to-end metrics are made
of each command's median over the passes in those units.  Every output is
checked against known answers that come from the construction of the
instance, and against the sha256 of each report and built document
recorded in known_digests.json (keyed by instance, not by seed).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of tracing.py, taken
from passes that alternate untraced and traced so that the tracing
overhead is their difference.  Spans of the last traced pass are written
to .perfbench_work/traces/.

    python3 perfbench/run.py --record      # re-record known_digests.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "known_digests.json"
SETUP_REPEATS = 7
MIN_PASSES = 3
TAIL_BEYOND = 10  # commands beyond the percentile cmd_tail_ref reports

sys.path.insert(0, str(HERE))
import plan as plans  # noqa: E402

END_TO_END = {"wall_ref": "ref", "q_wall_ref": "ref", "fp_wall_ref": "ref",
              "cmd_p50_ref": "ref", "cmd_tail_ref": "ref", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _import_covcat():
    if not (SRC / "covcat" / "__init__.py").is_file():
        raise FileNotFoundError(f"no covcat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import covcat.cli
    return covcat.cli


# set-up ---------------------------------------------------------------------


def _setup(plan: dict, out: Path, trace: bool = False) -> dict:
    """Generate the workspace in a fresh process; returns its timings."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, str(HERE / "setup_ws.py"),
            "--workload", plan["workload"], "--seed", str(plan["seed"]),
            "--scale", plan["scale"], "--out", str(out)]
    if trace:
        argv.append("--trace")
    # users run covcat with its bytecode cached: let the first set-up fill a
    # cache kept outside the source tree
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170,
                          env=env)
    if done.returncode != 0:
        raise RuntimeError(f"workspace set-up failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# one command ------------------------------------------------------------------


def _run_command(cli, ws: Path, cmd: dict):
    """Send one command; returns (exit code, stdout, latency in s)."""
    here = os.getcwd()
    buf = io.StringIO()
    os.chdir(ws / cmd["cwd"])
    try:
        with redirect_stdout(buf):
            start = time.perf_counter()
            try:
                code = cli.main(list(cmd["argv"]))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed command, not a stop
                traceback.print_exc()
                code = "crash"
            latency = time.perf_counter() - start
    finally:
        os.chdir(here)
    return code, buf.getvalue(), latency


def _outputs(ws: Path, cmd: dict, stdout: str) -> dict:
    out = {"stdout": stdout.encode()}
    for rel in cmd["expect"].get("written", {}):
        path = ws / cmd["cwd"] / rel
        out[rel] = path.read_bytes() if path.is_file() else b""
    return out


def _known_answer_problems(cmd: dict, outputs: dict) -> list[str]:
    """Check a command's output against the answer its construction fixes."""
    exp = cmd["expect"]
    try:
        report = json.loads(outputs["stdout"])
    except ValueError:
        return ["stdout is not one JSON report"]
    problems = []
    evidence = report.get("evidence", {})
    if "status" in exp and report.get("status") != exp["status"]:
        problems.append(f"status {report.get('status')!r}, want {exp['status']!r}")
    if "deck_order" in exp:
        order = evidence.get("deck_group", {}).get("order")
        if order != exp["deck_order"]:
            problems.append(f"deck order {order}, want {exp['deck_order']}")
    if "fibre_size" in exp:
        fibres = evidence.get("certificate", {}).get("fibres", {})
        sizes = {len(xs) for xs in fibres.values()}
        if not fibres or sizes != {exp["fibre_size"]}:
            problems.append(f"fibre sizes {sorted(sizes)}, want {exp['fibre_size']}")
    if "family_passed" in exp:
        passed = [e.get("passed") for e in evidence.get("family", [])]
        if passed != exp["family_passed"]:
            problems.append(f"family verdicts {passed}, want {exp['family_passed']}")
    if "validate_ok" in exp:
        results = report.get("results", [])
        if report.get("ok") is not True or len(results) != exp["validate_ok"]:
            problems.append("validate did not pass every document")
    if "written" in exp:
        if sorted(report.get("written", [])) != sorted(exp["written"]):
            problems.append(f"wrote {report.get('written')}")
        for rel, objects in exp["written"].items():
            if objects is None:
                continue
            try:
                got = len(json.loads(outputs[rel])["objects"])
            except (ValueError, KeyError):
                problems.append(f"{rel} is not a category document")
                continue
            if got != objects:
                problems.append(f"{rel} has {got} objects, want {objects}")
    return problems


def _check(cmd: dict, code, outputs: dict, digests, full: bool) -> list[str]:
    problems = []
    if code != cmd["expect"]["exit"]:
        problems.append(f"exit {code}, want {cmd['expect']['exit']}")
    if digests is not None:
        want = digests.get(cmd["key"])
        if want is None:
            problems.append("no recorded digest")
        elif want != _digest(outputs):
            problems.append("output differs from the recorded digest")
    if full:
        problems += _known_answer_problems(cmd, outputs)
    return problems


def _digest(outputs: dict) -> dict:
    return {k: hashlib.sha256(v).hexdigest() for k, v in sorted(outputs.items())}


# passes -------------------------------------------------------------------------

_REF_DOC = json.dumps([[f"{i}/{j + 1}" for i in range(40)] for j in range(12)])


def _reference() -> float:
    """Time one fixed pure-Python kernel; returns seconds.

    It parses JSON, adds fractions and fills a dict, as covcat does, but
    calls nothing of covcat, so no change to the program can move it.  The
    machine this benchmark was sized on (a 2-vCPU virtual machine on a
    shared host) runs Python up to 1.8 times slower while its neighbours
    are busy, in phases from under a second to minutes long; a command's
    latency divided by the kernel's time on the same CPU at the same
    moment does not move with them.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for row in json.loads(_REF_DOC):
        for x in row:
            total += Fraction(x)
    table = {(i, str(i)): [i] * 3 for i in range(3000)}
    elapsed = time.perf_counter() - start
    assert total == Fraction(1118273, 462) and len(table) == 3000
    return elapsed


class Sample(NamedTuple):
    latency: float  # s
    relative: float  # latency / reference kernel time around it
    field: str


def _orders(plan: dict):
    """The plan's command order for the first pass, then a fresh seeded
    shuffle for each further pass, so that a stretch of fast or slow host
    time falls on different commands in different passes."""
    rng = random.Random(f"passes/{plan['workload']}/{plan['seed']}")
    order = list(range(len(plan["commands"])))
    while True:
        yield list(order)
        rng.shuffle(order)


def _run_pass(cli, plan: dict, ws: Path, digests, full: bool, failures: list,
              order: list):
    """One closed-loop pass over the commands in ``order``; returns a
    Sample per command, in plan order, and appends (key, problems) for
    every failed command.

    The reference kernel runs before the first command and after each
    one, each time after a full garbage collection, so every command
    starts on a collected heap (as a fresh CLI process does) and is
    compared with the mean of the kernel's times just before and after it.
    """
    rows = [None] * len(plan["commands"])
    gc.collect()
    before = _reference()
    for i in order:
        cmd = plan["commands"][i]
        code, stdout, latency = _run_command(cli, ws, cmd)
        gc.collect()
        after = _reference()
        rows[i] = Sample(latency, 2 * latency / (before + after), cmd["field"])
        before = after
        problems = _check(cmd, code, _outputs(ws, cmd, stdout), digests, full)
        if problems:
            failures.append((cmd["key"], problems))
    return rows


def _wall(rows, field=None) -> float:
    return sum(lat for lat, f in rows if field is None or f == field)


def _best(passes: list) -> list:
    """Each command's least latency in seconds over the passes, with its
    field: the raw-time estimate, for the info line and the traced run."""
    return [(min(rows[i].latency for rows in passes), passes[0][i].field)
            for i in range(len(passes[0]))]


def _relative(passes: list) -> list:
    """Each command's median relative latency over the passes, with its
    field: the estimate the end-to-end metrics are made of."""
    return [(statistics.median(rows[i].relative for rows in passes),
             passes[0][i].field)
            for i in range(len(passes[0]))]


def _tail_percentile(n: int) -> int:
    """Highest whole percentile with TAIL_BEYOND of n samples beyond it."""
    for q in range(99, 50, -1):
        if n - _rank(q, n) >= TAIL_BEYOND:
            return q
    return 50


def _rank(q: int, n: int) -> int:
    """Nearest-rank position (1-based) of percentile q among n samples."""
    return max(1, -(-q * n // 100))


def _load_digests() -> dict:
    return json.loads(DIGESTS.read_text())["digests"]


def timed_run(plan: dict, seconds: int, work: Path) -> dict:
    ws = work / "ws"
    setups = [_setup(plan, ws)["setup_s"]]
    cli = _import_covcat()
    digests = _load_digests()
    passes, clocks, failures = [], [], []
    orders = _orders(plan)
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(_run_pass(cli, plan, ws, digests, not passes, failures,
                                next(orders)))
        clocks.append(time.perf_counter() - start)
        # the other set-ups go between passes, so that their median does not
        # hang on the host's speed in the first seconds of the run
        if len(setups) < SETUP_REPEATS:
            setups.append(_setup(plan, work / "setup")["setup_s"])
        if (len(passes) >= MIN_PASSES and time.perf_counter() - begin
                + statistics.median(clocks) > seconds):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup(plan, work / "setup")["setup_s"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rel = _relative(passes)
    latencies = sorted(r for r, _ in rel)
    q = _tail_percentile(len(latencies))
    tail_rank = _rank(q, len(latencies))
    metrics = {
        "wall_ref": _wall(rel),
        "q_wall_ref": _wall(rel, "Q"),
        "fp_wall_ref": _wall(rel, "Fp"),
        "cmd_p50_ref": statistics.median(latencies),
        "cmd_tail_ref": latencies[tail_rank - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    attempted = len(passes) * len(rel)
    refs = [r.latency / r.relative for rows in passes for r in rows]
    print(f"{len(passes)} passes of {len(rel)} commands; each command's "
          f"relative latency is its median over the passes; cmd_p50_ref over "
          f"{len(rel)} commands; cmd_tail_ref is p{q} with "
          f"{len(rel) - tail_rank} commands beyond it; setup_s is the "
          f"median of {SETUP_REPEATS} set-ups")
    print(f"failed_frac {len(failures) / attempted} ratio")
    print(f"reference kernel ms: least {min(refs) * 1000:.3f}, median "
          f"{statistics.median(refs) * 1000:.3f}, most {max(refs) * 1000:.3f}")
    print(f"raw wall_s: sum of each command's least {_wall(_best(passes)):.4f}; "
          "of each pass " + " ".join(
              f"{sum(r.latency for r in rows):.4f}" for rows in passes))
    return _result(metrics, END_TO_END, attempted, failures)


# traced run -------------------------------------------------------------------

DOC_PARSERS = ("category_from_json", "functor_from_json", "quiver_from_json",
               "algebra_from_json")
DOC_WRITERS = ("dumps", "field_to_json", "category_to_json", "functor_to_json",
               "quiver_to_json", "certificate_to_json",
               "covering_failure_to_json", "deck_group_to_json",
               "triviality_to_json", "galois_verdict_to_json")
LAYERS = ("cli", "documents", "lincat", "linfun", "covering", "fibprod",
          "galois", "exactalg")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(t) -> dict:
    """Per-layer (value, unit) of one traced pass."""
    c = t.counts
    parsers = [f"documents.{n}" for n in DOC_PARSERS]
    kernels = t.calls_under("exactalg.kernel_basis", "fibprod.fibre_product")
    lifts = t.calls("galois.lift_endofunctor")
    m = {
        "cli.load_s": (t.total("cli.Workspace.load_all"), "s"),
        "cli.files_parsed": (c["cli.json.loads"], "count"),
        "cli.emit_s": (t.total("cli._emit"), "s"),
        "documents.parse_s": (t.total(*parsers), "s"),
        "documents.parse_calls": (sum(t.calls(n) for n in parsers), "count"),
        "documents.serialize_s": (
            t.total(*[f"documents.{n}" for n in DOC_WRITERS]), "s"),
        "documents.bytes_out": (c["documents.bytes_out"], "bytes"),
        "lincat.validate_category_s": (t.total("lincat.validate_category"), "s"),
        "lincat.connected_components_calls": (
            t.calls("lincat.connected_components"), "count"),
        "lincat.compose_vectors_calls": (
            c["lincat.LinearCategory.compose_vectors"], "count"),
        "linfun.validate_functor_s": (t.total("linfun.validate_functor"), "s"),
        "linfun.compose_calls": (t.calls("linfun.compose"), "count"),
        "linfun.functor_equal_calls": (t.calls("linfun.functor_equal"), "count"),
        "linfun.functor_equal_s": (t.total("linfun.functor_equal"), "s"),
        "linfun.is_isomorphism_s": (t.total("linfun.is_isomorphism"), "s"),
        "covering.check_covering_s": (t.total("covering.check_covering"), "s"),
        "covering.check_covering_calls": (
            t.calls("covering.check_covering"), "count"),
        "covering.blocks_inverted": (t.calls_under(
            "exactalg.rank_and_inverse", "covering.check_covering"), "count"),
        "fibprod.fibre_product_s": (t.total("fibprod.fibre_product"), "s"),
        "fibprod.objects": (c["fibprod.objects"], "count"),
        "fibprod.nonzero_homs": (c["fibprod.nonzero_homs"], "count"),
        "fibprod.kernels_solved": (kernels, "count"),
        "fibprod.hom_yield": (_ratio(c["fibprod.nonzero_homs"], kernels), "ratio"),
        "galois.deck_group_s": (t.total("galois.deck_group"), "s"),
        "galois.lift_endofunctor_s": (t.total("galois.lift_endofunctor"), "s"),
        "galois.lifts_tried": (lifts, "count"),
        "galois.lifts_accepted": (c["galois.lifts_accepted"], "count"),
        "galois.lift_yield": (_ratio(c["galois.lifts_accepted"], lifts), "ratio"),
        "galois.is_trivial_covering_s": (
            t.total("galois.is_trivial_covering"), "s"),
        "galois.quotient_by_group_s": (t.total("galois.quotient_by_group"), "s"),
        "galois.check_universal_against_s": (
            t.total("galois.check_universal_against"), "s"),
        "exactalg.kernel_basis_calls": (t.calls("exactalg.kernel_basis"), "count"),
        "exactalg.kernel_basis_s.Q": (t.total("exactalg.kernel_basis@Q"), "s"),
        "exactalg.kernel_basis_s.Fp": (t.total("exactalg.kernel_basis@Fp"), "s"),
        "exactalg.rank_and_inverse_calls": (
            t.calls("exactalg.rank_and_inverse"), "count"),
        "exactalg.rank_and_inverse_s.Q": (
            t.total("exactalg.rank_and_inverse@Q"), "s"),
        "exactalg.rank_and_inverse_s.Fp": (
            t.total("exactalg.rank_and_inverse@Fp"), "s"),
        "exactalg.matrices_built": (c["exactalg.Matrix"], "count"),
        "exactalg.fieldspec_s": (t.total("exactalg.FieldSpec"), "s"),
        "trace.spans": (len(t.span_name), "count"),
    }
    selfs = t.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (selfs[layer], "s")
    return m


def traced_run(plan: dict, seconds: int, work: Path) -> dict:
    from tracing import Tracer, surviving_patches

    ws = work / "ws"
    cyclic_cover_s = _setup(plan, ws, trace=True)["examples.cyclic_cover_s"]
    cli = _import_covcat()
    digests = _load_digests()
    tracer = Tracer()
    plain, traced, layers, clocks, failures = [], [], [], [], []
    orders = _orders(plan)
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        order = next(orders)
        plain.append(_run_pass(cli, plan, ws, digests, not plain, failures,
                               order))
        tracer.install()
        try:
            rows = _run_pass(cli, plan, ws, digests, False, failures, order)
        finally:
            tracer.uninstall()
        survivors = surviving_patches()
        if survivors:
            raise RuntimeError(f"patched names survived: {survivors}")
        traced.append(rows)
        layers.append(layer_metrics(tracer))
        clocks.append(time.perf_counter() - start)
        if (len(traced) >= 2 and time.perf_counter() - begin
                + statistics.median(clocks) > seconds):
            break

    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(traces / f"{plan['workload']}.spans.jsonl.gz")

    # times: least over the traced passes, as in _best; counts, and the
    # bytes and ratios made of them, must repeat exactly
    units = {name: unit for name, (_, unit) in layers[0].items()}
    metrics = {}
    for name, unit in units.items():
        values = [pass_metrics[name][0] for pass_metrics in layers]
        if unit != "s" and len(set(values)) != 1:
            failures.append((name, [f"count varies across passes: {values}"]))
        metrics[name] = min(values)
    metrics["examples.cyclic_cover_s"] = cyclic_cover_s
    units["examples.cyclic_cover_s"] = "s"
    traced_wall, plain_wall = _wall(_best(traced)), _wall(_best(plain))
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    units["trace.overhead_s"] = "s"
    attempted = len(plan["commands"]) * (len(plain) + len(traced))
    print(f"{len(traced)} traced and {len(plain)} untraced passes; untraced "
          f"wall_s {plain_wall:.4f}, traced wall_s {traced_wall:.4f}")
    return _result(metrics, units, attempted, failures)


# result ---------------------------------------------------------------------------


def _print_failures(failures: list) -> None:
    for key, problems in failures[:20]:
        print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)


def _result(metrics: dict, units: dict, attempted: int, failures: list) -> dict:
    _print_failures(failures)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def record() -> int:
    """Run every variant of every slot once and record its output digests."""
    cli = _import_covcat()
    from setup_ws import write_workspace

    table, failures = {}, []
    work = WORK / f"record-{os.getpid()}"
    try:
        for scale in sorted(plans.SCALES):
            for workload in plans.WORKLOADS:
                plan = plans.pool_plan(workload, scale)
                ws = work / scale / workload
                write_workspace(plan, ws)
                for cmd in plan["commands"]:
                    code, stdout, _ = _run_command(cli, ws, cmd)
                    outputs = _outputs(ws, cmd, stdout)
                    problems = _check(cmd, code, outputs, None, True)
                    got = _digest(outputs)
                    if table.setdefault(cmd["key"], got) != got:
                        problems.append("same key, different outputs")
                    if problems:
                        failures.append((cmd["key"], problems))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failures:
        _print_failures(failures)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                            capture_output=True).stdout.strip() or "unknown"
    DIGESTS.write_text(json.dumps({
        "recorded_at": {"commit": commit, "python": sys.version.split()[0]},
        "digests": table}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests at {commit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(plans.SCALES), default="full")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        _import_covcat()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load covcat: {exc}", file=sys.stderr)
        return 2

    plan = plans.build_plan(args.workload, args.seed, args.scale)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        result = run(plan, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
