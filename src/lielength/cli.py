"""Experiment runner.

Subcommands mirror the toolkit's modules: ``el`` / ``rel`` length
estimates, ``trotter`` scaling defects, ``cel`` circle lengths, ``schatten``
chain and witness experiments, ``en`` elementary-group checks, ``coarse``
map fitting, and ``suite acceptance`` for the full battery.  Runs are
deterministic for a fixed ``--seed``; result files carry no timestamps, so
identical configs produce identical bytes.  ``--tol`` (``el`` and ``rel``
only) is the bracket-order slack.  Exit status: 0 when every check held, 1
when a check failed, 2 on unusable input, with one ``lielength: error:`` line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys

import numpy as np

from . import acceptance, algebra, circle, coarse, elementary, explength, schatten


def _write_result(doc, out, fmt):
    if out is None:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True, default=str)
        sys.stdout.write("\n")
        return
    if fmt == "json":
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=str)
    else:
        rows = doc if isinstance(doc, list) else [doc]
        flat = [_flatten(r) for r in rows]
        keys = sorted({k for r in flat for k in r})
        with open(out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows(flat)


def _flatten(doc, prefix=""):
    out = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)) and value and isinstance(
                value[0], (dict, list, tuple)):
            out[name] = json.dumps(value, default=str)
        else:
            out[name] = value
    return out


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _build_group(args):
    """The element read from ``--input``, else the named sample ``--group``:
    u<k> is a random element of the unitary group of size k (operator norm
    model), gl<n> a random invertible n-by-n complex matrix."""
    if args.input:
        return algebra.group_from_json(_read_json(args.input))
    match = re.fullmatch(r"(u|gl)([0-9]+)", args.group)
    if match is None or int(match[2]) < 1:
        raise ValueError(f"--group {args.group!r}: use u<k> or gl<n>, with "
                         "k, n >= 1")
    sample = (acceptance.random_unitary if match[1] == "u"
              else acceptance.random_gl)
    return sample(int(match[2]), np.random.default_rng(args.seed))


def _cmd_el(args):
    g = _build_group(args)
    budget = explength.EstimateBudget(optimize=not args.no_optimize)
    bracket = explength.el_estimate(g, budget=budget, seed=args.seed)
    doc = {"command": f"el {args.action}", "group": args.group or args.input,
           "seed": args.seed, "bracket": bracket.to_json(),
           "norm": algebra.norm_description(g.algebra)}
    if args.action == "estimate":
        doc["bracket"].pop("certificate", None)
    _write_result(doc, args.out, args.format)
    return 0 if bracket.lower <= bracket.upper + args.tol else 1


def _cmd_rel(args):
    g = _build_group(args)
    budget = explength.EstimateBudget(optimize=not args.no_optimize)
    value = explength.rel_estimate(g, budget=budget, seed=args.seed)
    upper = explength.el_estimate(g, budget=budget, seed=args.seed).upper
    doc = {"command": "rel estimate", "group": args.group or args.input,
           "seed": args.seed, "rel_upper": value, "el_upper": upper,
           "check": "reduced length below plain length on the shared pool"}
    _write_result(doc, args.out, args.format)
    return 0 if value <= upper + args.tol else 1


def _cmd_trotter(args):
    rng = np.random.default_rng(args.seed)
    alg = algebra.scalar_complex()
    x = algebra.MatrixOverAlgebra.random(alg, args.dim, rng, scale=1.0)
    y = algebra.MatrixOverAlgebra.random(alg, args.dim, rng, scale=1.0)
    x = x.scaled(1.0 / max(1.0, x.op_norm()))
    y = y.scaled(1.0 / max(1.0, y.op_norm()))
    rows = []
    ok = True
    for n in args.subdivisions:
        prod_err, comm_err = explength.trotter_check(x, y, n)
        rows.append({"n": n, "product_error": prod_err,
                     "commutator_error": comm_err,
                     "product_error_times_n": prod_err * n})
        ok = ok and prod_err * n < args.bound
    doc = {"command": "trotter", "seed": args.seed, "dim": args.dim,
           "check": f"n * product defect stays below {args.bound}",
           "rows": rows}
    _write_result(doc if args.format == "json" else rows, args.out,
                  args.format)
    return 0 if ok else 1


def _cmd_cel(args):
    f = circle.CircleFunction.from_json(_read_json(args.input))
    ok, windings = circle.identity_component_check(f)
    doc = {"command": "cel compute", "input": args.input,
           "identity_component": ok,
           "windings": {f"{u}-{v}": k for (u, v), k in windings.items()}}
    if ok:
        doc["quotient_norm"] = circle.quotient_norm(f)
        doc["cel"] = circle.cel(f)
        print(f"cel = {doc['cel']:.12g}")
    else:
        print("not in the identity component; no finite length")
    _write_result(doc, args.out, args.format)
    return 0 if ok else 1


def _samples(args):
    """``--samples``, refused below 1: a check over no sample checks
    nothing."""
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    return args.samples


def _cmd_schatten(args):
    rng = np.random.default_rng(args.seed)
    ctx = schatten.SchattenContext(args.dim, args.p)
    if args.action == "sandwich":
        rows = []
        ok = True
        for _ in range(_samples(args)):
            a = schatten.random_selfadjoint(args.dim, rng,
                                            rng.uniform(1e-3, math.pi))
            try:
                lhs, mid, rhs = schatten.sandwich_check(a, ctx)
                rows.append({"dim": args.dim, "p": args.p, "lhs": lhs,
                             "mid": mid, "rhs": rhs})
            except AssertionError:
                ok = False
        doc = {"command": "schatten sandwich",
               "check": "half |a|_p <= |exp(ia)-1|_p <= |a|_p",
               "rows": rows}
        _write_result(doc if args.format == "json" else rows, args.out,
                      args.format)
        return 0 if ok else 1
    if args.action == "chain":
        u = schatten.random_punitary(ctx, rng)
        d0 = u.dist_to_identity()
        chain = schatten.coarse_proper_chain(u, d0 * 1.05 + 0.1, args.step)
        report = schatten.geodesic_chain(u)
        doc = {"command": "schatten chain", "distance": d0,
               "coarse_proper_steps": len(chain) - 1,
               "geodesic_steps": len(report.step_lengths),
               "geodesic_sum": report.sum_of_steps,
               "check": "steps below bound; total below twice the distance"}
        _write_result(doc, args.out, args.format)
        return 0 if report.satisfies_large_scale_geodesic else 1
    if args.action == "witness":
        elements = [schatten.random_punitary(ctx, rng)
                    for _ in range(args.samples)]
        doc = {"command": "schatten witness", "rows": []}
        ok = True
        for n in args.index:
            _, min_eig = schatten.haagerup_witness(elements, n)
            doc["rows"].append({"n": n, "min_eigenvalue": min_eig})
            ok = ok and min_eig >= -1e-8
        doc["check"] = "Gaussian kernel Gram matrices stay PSD"
        _write_result(doc if args.format == "json" else doc["rows"],
                      args.out, args.format)
        return 0 if ok else 1


def _cmd_en(args):
    rng = np.random.default_rng(args.seed)
    if args.action == "identities":
        algebras = (algebra.scalar_complex(), algebra.matrix_algebra(2))
        worst = 0.0
        for idx in range(_samples(args)):
            alg = algebras[idx % 2]
            a = algebra.AlgebraElement(alg, alg.random_value(rng))
            b = algebra.AlgebraElement(alg, alg.random_value(rng))
            r1, r2 = elementary.bracket_identities_check(a, b, 3, 1, 2)
            worst = max(worst, r1, r2)
        doc = {"command": "en identities", "samples": args.samples,
               "worst_residual": worst,
               "check": "bracket identities exact to 1e-12"}
        _write_result(doc, args.out, args.format)
        return 0 if worst <= 1e-12 else 1
    if args.action == "decompose":
        x = algebra.matrix_from_json(_read_json(args.input))
        ctx = elementary.HSDeterminantContext(x.algebra)
        decomp = elementary.traceless_decompose(x, ctx)
        residual = (decomp.rebuild() - x).op_norm()
        doc = {"command": "en decompose", "rebuild_residual": residual,
               "e_slots": sorted(map(str, decomp.e_coefficients)),
               "f_slots": sorted(map(str, decomp.f_coefficients)),
               "check": "span rebuild reproduces the input"}
        _write_result(doc, args.out, args.format)
        return 0 if residual <= 1e-10 else 1
    if args.action == "hsdet":
        if args.input:
            word = elementary.word_from_json(_read_json(args.input))
            ctx = elementary.HSDeterminantContext(word[0].payload.algebra)
        else:
            alg = algebra.scalar_complex()
            ctx = elementary.HSDeterminantContext(alg)
            word = []
            for _ in range(4):
                i, j = rng.permutation(3)[:2] + 1
                payload = algebra.AlgebraElement(alg, alg.random_value(rng))
                word.append(elementary.gen_E(int(i), int(j), payload, 3))
        cert = elementary.word_certificate(word)
        value = elementary.hs_determinant(cert, ctx)
        doc = {"command": "en hsdet", "seed": args.seed,
               "raw": str(value.raw), "reduced": str(value.reduced),
               "check": "invariant vanishes on elementary words"}
        _write_result(doc, args.out, args.format)
        return 0 if float(np.max(np.abs(value.raw))) <= 1e-10 else 1
    if args.action == "witness":
        bracket = elementary.unboundedness_witness(args.m)
        doc = {"command": "en witness", "m": args.m,
               "lower": bracket.lower, "upper": bracket.upper,
               "check": "lower bound is log(m+1), upper bound m"}
        _write_result(doc, args.out, args.format)
        ok = abs(bracket.lower - math.log(args.m + 1)) <= 1e-12
        return 0 if ok else 1


def _cmd_coarse(args):
    doc_in = _read_json(args.input)
    domain = coarse.SampledSpace(doc_in["domain"]["ids"],
                                 np.asarray(doc_in["domain"]["dist"]),
                                 doc_in["domain"]["origin"])
    codomain = coarse.SampledSpace(doc_in["codomain"]["ids"],
                                   np.asarray(doc_in["codomain"]["dist"]),
                                   doc_in["codomain"]["origin"])
    sample = coarse.CoarseMapSample(domain, codomain,
                                    [tuple(p) for p in doc_in["pairs"]])
    fit = coarse.fit_quasi_isometry(sample)
    moduli = coarse.fit_coarse_moduli(sample)
    doc = {"command": "coarse fit", "input": args.input,
           "multiplicative": fit.constant, "additive": fit.additive,
           "refuted": fit.refuted,
           "moduli": {"bins": moduli.bin_edges, "lower": moduli.lower,
                      "upper": moduli.upper, "expansive": moduli.expansive},
           "label": f"sampled at {len(domain.ids)} points"}
    _write_result(doc, args.out, args.format)
    return 0 if not fit.refuted else 1


def _cmd_suite(args):
    reports = acceptance.run_all()
    if args.out:
        _write_result(reports, args.out, args.format)
    return 0 if all(r["passed"] for r in reports) else 1


def _finite_float(text):
    """argparse type of every float option: NaN and inf are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lielength",
        description="desk-scale length geometry experiments on matrix groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_el = sub.add_parser("el", help="exponential length bracket")
    p_el.add_argument("action", choices=("estimate", "bracket"))
    p_el.add_argument("--group", default="u4")
    p_el.add_argument("--input", default=None,
                      help="JSON group element instead of a named sample")
    p_el.add_argument("--no-optimize", action="store_true")
    p_el.add_argument("--tol", type=_finite_float, default=1e-9)
    common(p_el)
    p_el.set_defaults(fn=_cmd_el)

    p_rel = sub.add_parser("rel", help="reduced length estimate")
    p_rel.add_argument("action", choices=("estimate",))
    p_rel.add_argument("--group", default="gl2")
    p_rel.add_argument("--input", default=None)
    p_rel.add_argument("--no-optimize", action="store_true")
    p_rel.add_argument("--tol", type=_finite_float, default=1e-9)
    common(p_rel)
    p_rel.set_defaults(fn=_cmd_rel)

    p_tr = sub.add_parser("trotter", help="product-formula scaling defects")
    p_tr.add_argument("--dim", type=int, default=2)
    p_tr.add_argument("--subdivisions", type=int, nargs="+",
                      default=[16, 32, 64, 128])
    p_tr.add_argument("--bound", type=_finite_float, default=4.0)
    common(p_tr)
    p_tr.set_defaults(fn=_cmd_trotter)

    p_cel = sub.add_parser("cel", help="circle-function length")
    p_cel.add_argument("action", choices=("compute",))
    p_cel.add_argument("--input", required=True)
    common(p_cel)
    p_cel.set_defaults(fn=_cmd_cel)

    p_s = sub.add_parser("schatten", help="p-unitary experiments")
    p_s.add_argument("action", choices=("sandwich", "chain", "witness"))
    p_s.add_argument("--dim", type=int, default=4)
    p_s.add_argument("--p", type=_finite_float, default=2.0)
    p_s.add_argument("--samples", type=int, default=100)
    p_s.add_argument("--step", type=_finite_float, default=1.0)
    p_s.add_argument("--index", type=int, nargs="+", default=[1, 10])
    common(p_s)
    p_s.set_defaults(fn=_cmd_schatten)

    p_en = sub.add_parser("en", help="elementary-group checks")
    p_en.add_argument("action",
                      choices=("identities", "decompose", "hsdet", "witness"))
    p_en.add_argument("--samples", type=int, default=100)
    p_en.add_argument("--input", default=None)
    p_en.add_argument("--m", type=int, default=10)
    common(p_en)
    p_en.set_defaults(fn=_cmd_en)

    p_co = sub.add_parser("coarse", help="fit map constants and moduli")
    p_co.add_argument("--input", required=True)
    common(p_co)
    p_co.set_defaults(fn=_cmd_coarse)

    p_su = sub.add_parser("suite", help="run a named battery")
    p_su.add_argument("name", choices=("acceptance",))
    common(p_su)
    p_su.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError,
            explength.NoFactorizationError) as exc:
        print(f"lielength: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
