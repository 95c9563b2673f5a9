"""Smoke test of the benchmark itself, at tiny degrees (about a minute).

    python3 perfbench/smoke.py

Checks that
1. every metric BENCHMARK.json names is emitted, with its unit, by a run
   of every workload with tracing off and on, and that those runs pass;
2. the known answers the plans derive from construction agree with
   covcat's is_galois_both, check_universal_against and fibre_product, and
   the twisted Kronecker covers have only the identity lift according to
   the backtracking search in tests/oracles.py;
3. the tracer wraps names while installed and none survives uninstalling.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import plan as plans  # noqa: E402
import run  # noqa: E402
from setup_ws import build_cover, fields, write_workspace  # noqa: E402


class SmokeFailure(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SmokeFailure(message)


def metrics_are_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in plans.WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--scale", "tiny"],
                capture_output=True, text=True, timeout=170)
            check(done.returncode == 0,
                  f"{workload} trace={trace} exited {done.returncode}:\n"
                  f"{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace} reported failures")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace} metrics differ from "
                  f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    print("PASS every BENCHMARK.json metric is emitted with its unit")


def known_answers_agree() -> None:
    from covcat import (check_universal_against, fibre_product,
                        is_galois_both, is_trivial_covering)

    by_kind = fields()
    for workload in plans.WORKLOADS:
        for inst in plans.pool_plan(workload, "tiny")["instances"]:
            covers = [build_cover(spec, by_kind[spec["field"]])
                      for spec in inst["docs"]]
            expect = {cmd["label"]: cmd["expect"] for cmd in inst["commands"]}
            verdict = is_galois_both(covers[0])
            if workload == "cover-docs":
                check(verdict.status.value == "Galois"
                      and verdict.deck.order == inst["docs"][0]["n"],
                      f"{inst['dir']}: a Z/n cover is Galois of order n")
                check(not is_trivial_covering(covers[0]).trivial,
                      f"{inst['dir']}: a connected cover is not trivial")
            elif workload == "deck-direct":
                want = expect["galois-direct"]
                check(verdict.status.value == want["status"]
                      and verdict.deck.order == want["deck_order"],
                      f"{inst['dir']}: is_galois_both gives "
                      f"{verdict.status.value}, order {verdict.deck.order}")
            else:
                check(verdict.status.value == expect["galois-fibre"]["status"],
                      f"{inst['dir']}: U is not Galois")
                report = check_universal_against(covers[0], covers[1:])
                passed = [c.passed for c in report.checks]
                check(passed == expect["universal"]["family_passed"],
                      f"{inst['dir']}: universality {passed}")
                fp = fibre_product(covers[0], covers[1])
                objects = [v for v in expect["fibre-product"]["written"].values()
                           if v is not None]
                check([len(fp.category.objects)] == objects,
                      f"{inst['dir']}: fibre product has "
                      f"{len(fp.category.objects)} objects")
    print("PASS known answers agree with is_galois_both, "
          "check_universal_against and fibre_product")

    spec = importlib.util.spec_from_file_location(
        "oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    n = plans.SCALES["tiny"]["deck-direct"]["n"]
    for field in plans.FIELDS:
        for s in range(n):
            fun = build_cover(plans.cover_spec("kronecker", field, n,
                                               ("B", "C", "F"), twist=s),
                              by_kind[field])
            anchor = fun.fibre("x")[0]
            lifts = sum(len(oracles.exhaustive_lifts(fun, anchor, x))
                        for x in fun.fibre("x"))
            check(lifts == 1, f"twisted sheet {s} over {field}: "
                  f"{lifts} lifts by backtracking, want only the identity")
    print(f"PASS twisted Kronecker covers (n={n}, every sheet) have deck "
          "order 1 by backtracking search")


def no_patch_survives() -> None:
    from tracing import Tracer, surviving_patches

    plan = plans.build_plan("deck-direct", 3, "tiny")
    work = run.WORK / "smoke"
    write_workspace(plan, work)
    try:
        cli = run._import_covcat()
        tracer = Tracer()
        tracer.install()
        try:
            check(len(surviving_patches()) > 20,
                  "installed tracer wraps too few names")
            failures = []
            run._run_pass(cli, plan, work, run._load_digests(), True, failures,
                          range(len(plan["commands"])))
            check(not failures, f"traced pass failed: {failures[:3]}")
        finally:
            tracer.uninstall()
        survivors = surviving_patches()
        check(not survivors, f"patched names survived: {survivors}")
        check(tracer.calls("galois.deck_group") > 0, "no deck_group span")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("PASS no patched name survives the traced run")


def main() -> int:
    try:
        metrics_are_emitted()
        known_answers_agree()
        no_patch_survives()
    except SmokeFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
