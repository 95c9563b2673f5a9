"""Workload plans: which documents to generate and which commands to send.

A plan is a pure function of (workload, seed, scale) and never imports
covcat, so the parent process can build it before the library is loaded.
Each workload is a list of slots; a slot lists interchangeable variants of
one instance that cost the same (a twisted sheet, the unit weight of a
family member), and the seed picks one variant per slot and the order of
the commands.  The known answers attached to every command come from the
construction of the instance, never from running the program.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cover-docs", "deck-direct", "fibre-universal")

# the standard bases of covcat.examples: object count, and the one arrow
# whose weight (sheet shift) is 1 in examples.standard_bases()
BASES = {
    "triangle": (3, "a"),
    "kronecker": (2, "be"),
    "free_square": (4, "f"),
    "rel_square": (4, "m"),
    "double_arrows": (3, "b2"),
}
FIELDS = ("Q", "Fp")
PRIME = 2147483647

# cover degrees.  "full" is the measured benchmark; "tiny" is for the smoke
# test.  fibre-universal: U has degree n, the family has one member of a
# degree dividing n (passes) and one of a degree not dividing n (fails).
SCALES = {
    "full": {"cover-docs": {"n": 16},
             "deck-direct": {"n": 8},
             "fibre-universal": {"n": 4, "d_pass": 2, "d_fail": 3}},
    "tiny": {"cover-docs": {"n": 3},
             "deck-direct": {"n": 3},
             "fibre-universal": {"n": 2, "d_pass": 2, "d_fail": 3}},
}

PRODUCT_LABELS = 3


def units(d: int) -> list[int]:
    """Sheet shifts w for which the Z/d cover stays connected."""
    return [w for w in range(1, d) if math.gcd(w, d) == 1] or [1]


def cover_spec(base, field, n, names, weight=1, twist=None, write_base=True):
    """A document set: the Z/n cover of ``base`` whose shift arrow has weight
    ``weight``; ``twist`` = s sends the Kronecker arrow be_s to al + be."""
    return {"base": base, "field": field, "n": n, "weight": weight,
            "twist": twist, "names": list(names), "write_base": write_base}


def _command(iid, label, cwd, field, argv, expect, variant=None):
    """``key`` names what the outputs depend on: the instance, the command
    and, where the instance has variants the command reads, the variant."""
    key = f"{iid}/{label}" if variant is None else f"{iid}/{label}/{variant}"
    return {"key": key, "label": label, "cwd": cwd, "field": field,
            "argv": argv, "expect": expect}


def _cover_docs_slots(size):
    n = size["n"]
    slots = []
    for base, (objs, _) in BASES.items():
        for field in FIELDS:
            stem = f"{base}-{field}"
            b, c, f = f"{stem}-B", f"{stem}-C", f"{stem}-F"
            iid = f"cover-docs/{stem}-n{n}"
            product = f"{b}-x{PRODUCT_LABELS}"
            commands = [
                _command(iid, "validate", "shared", field,
                         ["validate", f"{b}.json", f"{c}.json", f"{f}.json"],
                         {"exit": 0, "validate_ok": 3}),
                _command(iid, "covering", "shared", field,
                         ["check", "covering", f"{f}.json"],
                         {"exit": 0, "status": "Covering", "fibre_size": n}),
                _command(iid, "trivial", "shared", field,
                         ["check", "trivial", f"{f}.json"],
                         {"exit": 1, "status": "NonTrivial"}),
                _command(iid, "product-set", "shared", field,
                         ["build", "product-set", b, str(PRODUCT_LABELS),
                          "--out", "out"],
                         {"exit": 0,
                          "written": {f"out/{product}.json": PRODUCT_LABELS * objs,
                                      f"out/{product}-pr.json": None}}),
            ]
            slots.append([{"dir": "shared",
                           "docs": [cover_spec(base, field, n, (b, c, f))],
                           "commands": commands}])
    return slots


def _deck_instance(base, field, n, twist):
    objs = BASES[base][0]
    label = base if twist is None else f"{base}_twisted{twist}"
    stem = f"{label}-{field}"
    iid = f"deck-direct/{stem}-n{n}"
    galois = twist is None
    order = n if galois else 1
    quotient_objects = objs if galois else objs * n
    commands = [
        _command(iid, "galois-direct", stem, field,
                 ["check", "galois", "F.json", "--method", "direct"],
                 {"exit": 0 if galois else 1,
                  "status": "Galois" if galois else "NonGalois",
                  "deck_order": order}),
        _command(iid, "quotient", stem, field,
                 ["build", "quotient", "C", "--by-deck-of", "F", "--out", "out"],
                 {"exit": 0,
                  "written": {"out/C-mod-F.json": quotient_objects,
                              "out/C-mod-F-proj.json": None}}),
    ]
    return {"dir": stem,
            "docs": [cover_spec(base, field, n, ("B", "C", "F"), twist=twist)],
            "commands": commands}


def _deck_direct_slots(size):
    n = size["n"]
    slots = [[_deck_instance(base, field, n, None)]
             for base in BASES for field in FIELDS]
    # Kronecker covers with one twisted sheet: non-Galois, n-1 rejected lifts
    slots += [[_deck_instance("kronecker", field, n, s) for s in range(n)]
              for field in FIELDS]
    return slots


def _fibre_instance(base, field, size, w_pass, w_fail):
    n, d_pass, d_fail = size["n"], size["d_pass"], size["d_fail"]
    objs = BASES[base][0]
    members = [(d_pass, w_pass), (d_fail, w_fail)]
    names = [f"M{d}w{w}" for d, w in members]
    stem = f"{base}-{field}-" + "-".join(names)
    iid = f"fibre-universal/{base}-{field}-n{n}"
    docs = [cover_spec(base, field, n, ("B", "C", "U"))]
    for (d, w), name in zip(members, names):
        docs.append(cover_spec(base, field, d, ("B", f"C{name}", name),
                               weight=w, write_base=False))
    passed = [n % d == 0 for d, _ in members]
    fp_member = names[0]
    fp = f"fp-U-{fp_member}"
    commands = [
        _command(iid, "galois-fibre", stem, field,
                 ["check", "galois", "U.json", "--method", "fibre"],
                 {"exit": 0, "status": "Galois"}),
        _command(iid, "universal", stem, field,
                 ["check", "universal", "U", "--family", ",".join(names)],
                 {"exit": 0 if all(passed) else 1,
                  "status": ("UniversalRelativeToFamily" if all(passed)
                             else "NotUniversal"),
                  "family_passed": passed},
                 variant=",".join(names)),
        _command(iid, "fibre-product", stem, field,
                 ["build", "fibre-product", "U", fp_member, "--out", "out"],
                 {"exit": 0,
                  "written": {f"out/{fp}.json": n * d_pass * objs,
                              f"out/{fp}-pr1.json": None,
                              f"out/{fp}-pr2.json": None}},
                 variant=fp_member),
    ]
    return {"dir": stem, "docs": docs, "commands": commands}


def _fibre_universal_slots(size):
    return [[_fibre_instance(base, field, size, wp, wf)
             for wp in units(size["d_pass"]) for wf in units(size["d_fail"])]
            for base in BASES for field in FIELDS]


_SLOTS = {"cover-docs": _cover_docs_slots,
          "deck-direct": _deck_direct_slots,
          "fibre-universal": _fibre_universal_slots}


def slots(workload: str, scale: str = "full") -> list[list[dict]]:
    return _SLOTS[workload](SCALES[scale][workload])


def build_plan(workload: str, seed: int, scale: str = "full") -> dict:
    """The seed's instances (one variant per slot) and shuffled commands."""
    rng = random.Random(f"{workload}/{seed}")
    chosen = [rng.choice(variants) for variants in slots(workload, scale)]
    commands = [cmd for inst in chosen for cmd in inst["commands"]]
    rng.shuffle(commands)
    return {"workload": workload, "seed": seed, "scale": scale,
            "instances": chosen, "commands": commands}


def pool_plan(workload: str, scale: str = "full") -> dict:
    """Every variant of every slot, for recording known digests."""
    instances = [inst for variants in slots(workload, scale)
                 for inst in variants]
    commands = [cmd for inst in instances for cmd in inst["commands"]]
    return {"workload": workload, "seed": None, "scale": scale,
            "instances": instances, "commands": commands}
