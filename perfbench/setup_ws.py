"""Generate a workload's workspace in a fresh process and time it.

    python3 perfbench/setup_ws.py --workload W --seed N --scale full --out DIR [--trace]

The timed region is what a user pays to get a workspace: importing covcat,
building the covers (examples.cyclic_cover), serializing them
(documents.*_to_json) and writing the files.  Prints one JSON line with
``setup_s``; with --trace, also the traced time in examples.cyclic_cover.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import plan as plans  # noqa: E402  (no covcat import)


def _twist(cover, s: int):
    """Send the Kronecker arrow be_s to al + be, leaving the other sheets."""
    from covcat.exactalg import Matrix
    from covcat.linfun import LinearFunctor

    n = len(cover.source.objects) // 2
    key = (f"x{s}", f"y{(s + 1) % n}")
    m = cover.hom_matrices[key]
    j = cover.source.hom(*key).index(f"be{s}")
    rows = [list(r) for r in m.entries]
    for row in rows:
        row[j] = m.field.one  # al + be in the (al, be) basis
    matrices = dict(cover.hom_matrices)
    matrices[key] = Matrix(m.field, m.nrows, m.ncols,
                           tuple(tuple(r) for r in rows))
    return LinearFunctor(cover.source, cover.target, cover.object_map, matrices)


def fields() -> dict:
    from covcat.exactalg import GF, QQ
    return {"Q": QQ, "Fp": GF(plans.PRIME)}


def build_cover(spec: dict, field):
    """The covering functor a plan's document spec describes."""
    from covcat.examples import cyclic_cover, standard_bases

    wq = next(wq for wq in standard_bases() if wq.name == spec["base"])
    arrow = plans.BASES[spec["base"]][1]
    wq = dataclasses.replace(wq, weights={**wq.weights, arrow: spec["weight"]})
    cover = cyclic_cover(wq, spec["n"], field)
    if spec["twist"] is not None:
        cover = _twist(cover, spec["twist"])
    return cover


def write_workspace(plan: dict, out: Path) -> None:
    from covcat import documents as docs

    by_kind = fields()
    for inst in plan["instances"]:
        where = out / inst["dir"]
        where.mkdir(parents=True, exist_ok=True)
        for spec in inst["docs"]:
            cover = build_cover(spec, by_kind[spec["field"]])
            b, c, f = spec["names"]
            payloads = [(c, docs.category_to_json(cover.source, c)),
                        (f, docs.functor_to_json(cover, f, c, b))]
            if spec["write_base"]:
                payloads.insert(0, (b, docs.category_to_json(cover.target, b)))
            for name, payload in payloads:
                (where / f"{name}.json").write_text(docs.dumps(payload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(plans.SCALES))
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    plan = plans.build_plan(args.workload, args.seed, args.scale)

    start = time.perf_counter()
    import covcat  # noqa: F401  (importing is part of set-up)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        write_workspace(plan, Path(args.out))
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = time.perf_counter() - start
    result = {"setup_s": elapsed}
    if tracer is not None:
        result["examples.cyclic_cover_s"] = tracer.total("examples.cyclic_cover")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
