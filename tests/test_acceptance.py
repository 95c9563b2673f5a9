"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

All checks are exact (integer dimensions, coordinate equality); there are no
numeric tolerances anywhere.  Run with -s to see the per-criterion lines.
"""

from covcat import documents as docs
from covcat.exactalg import QQ, Matrix
from covcat.lincat import Quiver, path_category
from covcat.linfun import LinearFunctor, compose, functor_equal, \
    hom_inverses, identity_functor, is_isomorphism, validate_functor
from covcat.covering import CoveringCertificate, CoveringFailure, check_covering
from covcat.fibprod import fibre_product
from covcat.galois import GaloisStatus, check_universal_against, deck_group, \
    is_galois, is_trivial_covering, quotient_by_group, structure_iso
from covcat.examples import cyclic_cover, kronecker, triangle_cover, \
    triangle_cover_twisted

from oracles import exhaustive_lifts, solve_mediating


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number:2d} {label}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label} {detail}"


def test_criterion_01_running_example_exact(f1, f2):
    base = f1.target
    ok = base.total_dim() == 7
    ok = ok and f1.source.total_dim() == 14
    for fun in (f1, f2):
        cert = check_covering(fun)
        ok = ok and isinstance(cert, CoveringCertificate)
        verdict = is_galois(fun, "direct")
        ok = ok and verdict.status is GaloisStatus.GALOIS
        ok = ok and verdict.deck.order == 2
        verdict_f = is_galois(fun, "fibre")
        ok = ok and verdict_f.status is GaloisStatus.GALOIS
    _report(1, "double cover of the triangle (dims 7/14, deck order 2)", ok)


def test_criterion_02_mixed_fibre_product_kills_diagonal_homs(f1, f2):
    fp = fibre_product(f1, f2)
    ok = True
    for i in (0, 1):
        for j in (0, 1):
            dim = fp.category.dim(f"(t{i},t{j})", f"(s{(i+1) % 2},s{(j+1) % 2})")
            ok = ok and dim == 0
    witnesses = []
    for pr in (fp.pr1, fp.pr2):
        failure = check_covering(pr)
        ok = ok and isinstance(failure, CoveringFailure)
        # the failed block is exactly a star component that cannot surject
        ok = ok and failure.kind == "block-dimension"
        ok = ok and failure.actual_dim < failure.expected_dim
        witnesses.append(failure.message())
    _report(2, "mixed fibre product: zero homs, both projections fail", ok,
            witnesses[0])


def test_criterion_03_method_agreement_over_corpus(galois_corpus):
    ok = len(galois_corpus) >= 25
    disagreements = []
    k_status = None
    for name, fun in galois_corpus:
        direct = is_galois(fun, "direct")
        fibre = is_galois(fun, "fibre")
        if direct.status is not fibre.status:
            disagreements.append(name)
        if name == "kronecker/twisted":
            k_status = (direct.status, fibre.status)
    ok = ok and not disagreements
    ok = ok and k_status == (GaloisStatus.NON_GALOIS, GaloisStatus.NON_GALOIS)
    _report(3, "direct/fibre-product Galois methods agree", ok,
            f"{len(galois_corpus)} coverings, disagreements: {disagreements}")


def test_criterion_04_universality_relative_to_family(f1, f2):
    good = check_universal_against(f1, [f1])
    bad = check_universal_against(f1, [f2])
    ok = good.universal_relative_to_family
    ok = ok and not bad.universal_relative_to_family
    ok = ok and bad.checks[0].covering_failure is not None
    _report(4, "universal against [F1] passes, against [F2] fails", ok)


def test_criterion_05_fully_faithful_pullbacks_certify(pullback_pairs):
    ok = len(pullback_pairs) >= 15
    failures = []
    for name, cover, incl in pullback_pairs:
        # a covering pulled back along a fully faithful functor
        if not isinstance(check_covering(cover), CoveringCertificate) \
                or hom_inverses(incl) is None:
            failures.append(name)
            continue
        fp = fibre_product(cover, incl)
        cert = check_covering(fp.pr2)
        if not isinstance(cert, CoveringCertificate):
            failures.append(name)
            continue
        if not validate_functor(fp.pr2).ok:
            failures.append(name)
    ok = ok and not failures
    _report(5, "pullback projections receive covering certificates", ok,
            f"{len(pullback_pairs)} pairs")


def test_criterion_06_structure_theorem_over_corpus(galois_corpus):
    checked = 0
    failures = []
    for name, fun in galois_corpus:
        verdict = is_galois(fun, "direct")
        if verdict.status is not GaloisStatus.GALOIS:
            continue
        checked += 1
        prime = structure_iso(fun)
        quotient, projection = quotient_by_group(fun.source, verdict.deck)
        if is_isomorphism(prime) is None:
            failures.append(f"{name}: not iso")
        if not functor_equal(compose(prime, projection), fun):
            failures.append(f"{name}: F'P != F")
        for r in quotient.objects:
            for r2 in quotient.objects:
                want = fun.target.dim(fun.object_map[r], fun.object_map[r2])
                if quotient.dim(r, r2) != want:
                    failures.append(f"{name}: quotient dim mismatch at ({r},{r2})")
    f1 = triangle_cover(2)
    verdict = is_galois(f1, "direct")
    quotient, _ = quotient_by_group(f1.source, verdict.deck)
    if quotient.dim("t0", "s0") != 2:
        failures.append("triangle quotient (t,s) dim != 2")
    ok = checked >= 20 and not failures
    _report(6, "structure theorem F'P = F with matching quotient dims", ok,
            f"{checked} Galois coverings" + (f"; {failures}" if failures else ""))


def test_criterion_07_lift_uniqueness_by_exhaustion(small_corpus):
    from covcat.galois import lift_endofunctor
    checked_pairs = 0
    failures = []
    for name, fun in small_corpus:
        cert = check_covering(fun)
        fibre = cert.fibres[fun.target.objects[0]]
        anchor = fibre[0]
        for x_prime in fibre:
            found = exhaustive_lifts(fun, anchor, x_prime)
            lift = lift_endofunctor(fun, anchor, x_prime)
            checked_pairs += 1
            if len(found) > 1:
                failures.append(f"{name}: {len(found)} lifts to {x_prime}")
            elif lift is None and found:
                failures.append(f"{name}: missed lift to {x_prime}")
            elif lift is not None and (not found or
                                       found[0][0] != lift.object_map):
                failures.append(f"{name}: lift to {x_prime} disagrees")
    ok = checked_pairs >= 20 and not failures
    _report(7, "exhaustive search finds exactly the constructed lifts", ok,
            f"{checked_pairs} anchored pairs over {len(small_corpus)} instances")


def test_criterion_08_freeness_and_transitivity(galois_corpus):
    failures = []
    for name, fun in galois_corpus:
        cert = check_covering(fun)
        deck = deck_group(fun)
        identity = identity_functor(fun.source)
        for i, h in enumerate(deck.elements):
            if functor_equal(h, identity):
                continue
            for x in fun.source.objects:
                if deck.act(i, x) == x:
                    failures.append(f"{name}: element {i} fixes {x}")
                    break
        base0 = fun.target.objects[0]
        transitive_somewhere = set(deck.orbit(cert.fibres[base0][0])) == \
            set(cert.fibres[base0])
        if transitive_somewhere:
            for b in fun.target.objects:
                for x in cert.fibres[b]:
                    if set(deck.orbit(x)) != set(cert.fibres[b]):
                        failures.append(f"{name}: not transitive at {b}")
    ok = not failures
    _report(8, "deck groups act freely; transitivity propagates", ok,
            f"{len(galois_corpus)} coverings" + (f"; {failures}" if failures else ""))


def _point_category():
    return path_category(Quiver(("pt",), ()), [], QQ)


def _point_cone(cat, obj):
    point = _point_category()
    return LinearFunctor(point, cat, {"pt": obj},
                         {("pt", "pt"): Matrix.from_columns(
                             cat.field, [cat.identity[obj]], cat.dim(obj, obj))})


def _arrow_category():
    return path_category(Quiver(("x", "y"), (("m", "x", "y"),)), [], QQ)


def _arrow_cone(cat, src, dst, morphism_name):
    arrow = _arrow_category()
    column = cat.basis_vector(morphism_name)
    return LinearFunctor(
        arrow, cat, {"x": src, "y": dst},
        {("x", "x"): Matrix.from_columns(cat.field, [cat.identity[src]],
                                         cat.dim(src, src)),
         ("y", "y"): Matrix.from_columns(cat.field, [cat.identity[dst]],
                                         cat.dim(dst, dst)),
         ("x", "y"): Matrix.from_columns(cat.field, [column],
                                         cat.dim(src, dst))})


def test_criterion_09_pullback_universal_property(f1, f2):
    cones = []  # entries: (fibre product, f, g, p, q)

    kr2 = cyclic_cover(kronecker(), 2)
    fp_kr = fibre_product(kr2, kr2)
    for h in deck_group(kr2).elements:
        cones.append((fp_kr, kr2, kr2, identity_functor(kr2.source), h))
    for obj in ("x0", "x1"):
        cones.append((fp_kr, kr2, kr2, _point_cone(kr2.source, "x0"),
                      _point_cone(kr2.source, obj)))

    fp_mixed = fibre_product(f1, f2)
    cones.append((fp_mixed, f1, f2, _point_cone(f1.source, "t0"),
                  _point_cone(f1.source, "t0")))
    cones.append((fp_mixed, f1, f2, _point_cone(f1.source, "u0"),
                  _point_cone(f1.source, "u1")))

    fp_square = fibre_product(f1, f1)
    cones.append((fp_square, f1, f1, _arrow_cone(f1.source, "t0", "u0", "b0"),
                  _arrow_cone(f1.source, "t0", "u0", "b0")))
    cones.append((fp_square, f1, f1, _arrow_cone(f1.source, "t0", "u0", "b0"),
                  _arrow_cone(f1.source, "t1", "u1", "b1")))

    ident_b = identity_functor(f1.target)
    fp_ident = fibre_product(ident_b, f1)
    cones.append((fp_ident, ident_b, f1, _arrow_cone(f1.target, "t", "u", "b"),
                  _arrow_cone(f1.source, "t0", "u0", "b0")))

    one = triangle_cover(1)
    fp_one = fibre_product(one, one)
    cones.append((fp_one, one, one, identity_functor(one.source),
                  identity_functor(one.source)))

    ok = len(cones) >= 10
    failures = []
    for idx, (fp, f, g, p, q) in enumerate(cones):
        if not functor_equal(compose(f, p), compose(g, q)):
            failures.append(f"cone {idx} is not a cone")
            continue
        solutions = solve_mediating(fp, p, q)
        if len(solutions) != 1:
            failures.append(f"cone {idx}: {len(solutions)} mediators")
            continue
        m = solutions[0]
        if not (functor_equal(compose(fp.pr1, m), p) and
                functor_equal(compose(fp.pr2, m), q)):
            failures.append(f"cone {idx}: mediator does not commute")
    ok = ok and not failures
    _report(9, "mediating functors exist uniquely for small cones", ok,
            f"{len(cones)} cones" + (f"; {failures}" if failures else ""))


def test_criterion_10_determinism_of_reports(f1, f2, kron_twisted):
    def render_all():
        fresh_f1 = triangle_cover(2)
        fresh_f2 = triangle_cover_twisted(2)
        out = []
        out.append(docs.dumps(docs.category_to_json(fresh_f1.source, "C2")))
        out.append(docs.dumps(docs.functor_to_json(fresh_f1, "F1", "C2", "B")))
        cert = check_covering(fresh_f1)
        out.append(docs.dumps(docs.certificate_to_json(cert, "F1")))
        for fun in (fresh_f1, fresh_f2, kron_twisted):
            verdict = is_galois(fun, "direct")
            out.append(docs.dumps(docs.galois_verdict_to_json(verdict)))
            verdict = is_galois(fun, "fibre")
            out.append(docs.dumps(docs.galois_verdict_to_json(verdict)))
        fp = fibre_product(fresh_f1, fresh_f1)
        out.append(docs.dumps(docs.triviality_to_json(
            is_trivial_covering(fp.pr1))))
        return out

    first = render_all()
    second = render_all()
    ok = first == second
    _report(10, "repeated runs serialize byte-identically", ok,
            f"{len(first)} reports")
