"""Experiment runner.

Subcommands mirror the toolkit's modules: ``el`` / ``rel`` length
estimates, ``trotter`` scaling defects, ``cel`` circle lengths, ``schatten``
chain and witness experiments, ``en`` elementary-group checks, ``coarse``
map fitting, and ``suite acceptance`` for the full battery.  Each action
accepts exactly the options it reads; ``--seed`` only where a generator is
seeded.  Runs are deterministic for a fixed ``--seed``; result files carry
no timestamps, so identical configs produce identical bytes.  Exit
status: 0 when every check held, 1 when a check failed, 2 on unusable
input, with one ``lielength: error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import re
import sys

import numpy as np

from . import acceptance, algebra, circle, coarse, elementary, explength, schatten


def _write_result(doc, out, fmt):
    """Write ``doc`` to the file ``out``, or to stdout when it is None.  CSV
    takes ``doc["rows"]`` when the doc has them, and the doc as one row
    otherwise; a list doc is its own rows.  JSON holding NaN or inf is
    not standard JSON: it is refused, with a ValueError, before any write."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=str,
                      allow_nan=False) if fmt == "json" else None
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w", newline="")) as fh:
        if text is not None:
            fh.write(text + ("\n" if out is None else ""))
            return
        rows = doc.get("rows", [doc]) if isinstance(doc, dict) else doc
        flat = [_flatten(r) for r in rows]
        writer = csv.DictWriter(fh, fieldnames=sorted({k for r in flat
                                                       for k in r}))
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


def _build_group(args, default):
    """The element read from ``--input``, else the named sample ``--group``
    (``default`` when neither is given): u<k> is a random element of the
    unitary group of size k (operator norm model), gl<n> a random
    invertible n-by-n complex matrix.  Also returns the doc entry that says
    where the element came from."""
    if args.input and args.group:
        raise ValueError(f"--input {args.input!r} and --group {args.group!r} "
                         "name two elements; give one")
    if args.input:
        return (algebra.group_from_json(_read_json(args.input)),
                {"input": args.input})
    spec = default if args.group is None else args.group
    match = re.fullmatch(r"(u|gl)([0-9]+)", spec)
    if match is None or int(match[2]) < 1:
        raise ValueError(f"--group {spec!r}: use u<k> or gl<n>, with "
                         "k, n >= 1")
    sample = (acceptance.random_unitary if match[1] == "u"
              else acceptance.random_gl)
    g = sample(int(match[2]), np.random.default_rng(args.seed))
    return g, {"group": spec}


def _cmd_el(args):
    g, source = _build_group(args, "u4")
    budget = explength.EstimateBudget(optimize=not args.no_optimize)
    bracket = explength.el_estimate(g, budget=budget, seed=args.seed)
    doc = {"command": f"el {args.action}", **source, "seed": args.seed,
           "bracket": bracket.to_json(),
           "norm": algebra.norm_description(g.algebra)}
    if args.action == "estimate":
        doc["bracket"].pop("certificate", None)
    return doc, explength.in_order(bracket.lower, bracket.upper)


def _cmd_rel(args):
    g, source = _build_group(args, "gl2")
    budget = explength.EstimateBudget(optimize=not args.no_optimize)
    value = explength.rel_estimate(g, budget=budget, seed=args.seed)
    upper = explength.el_estimate(g, budget=budget, seed=args.seed).upper
    doc = {"command": "rel estimate", **source, "seed": args.seed,
           "rel_upper": value, "el_upper": upper,
           "check": "reduced length below plain length on the shared pool"}
    return doc, explength.in_order(value, upper)


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
        ok = ok and prod_err * n < explength.TROTTER_BOUND
    doc = {"command": "trotter", "seed": args.seed, "dim": args.dim,
           "check": f"n * product defect stays below "
                    f"{explength.TROTTER_BOUND}",
           "rows": rows}
    return doc, ok


def _cmd_cel(args):
    f = circle.CircleFunction.from_json(_read_json(args.input))
    ok, windings = circle.identity_component_check(f)
    doc = {"command": "cel compute", "input": args.input,
           "identity_component": ok,
           "windings": {f"{u}-{v}": k for (u, v), k in windings.items()}}
    if ok:
        q = doc["quotient_norm"] = circle.quotient_norm(f)
        doc["cel"] = 2.0 * math.pi * q
        print(f"cel = {doc['cel']:.12g}")
    else:
        print("not in the identity component; no finite length")
    return doc, ok


def _samples(args):
    """``--samples``, refused below 1: a check over no sample checks
    nothing."""
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    return args.samples


def _schatten_sandwich(args):
    rng = np.random.default_rng(args.seed)
    ctx = schatten.SchattenContext(args.dim, args.p)
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
    return doc, ok


def _schatten_chain(args):
    rng = np.random.default_rng(args.seed)
    ctx = schatten.SchattenContext(args.dim, args.p)
    u = schatten.random_punitary(ctx, rng)
    d0 = u.dist_to_identity()
    chain = schatten.coarse_proper_chain(u, d0 * 1.05 + 0.1, args.step)
    report = schatten.geodesic_chain(u)
    doc = {"command": "schatten chain", "distance": d0,
           "coarse_proper_steps": len(chain) - 1,
           "geodesic_steps": len(report.step_lengths),
           "geodesic_sum": report.sum_of_steps,
           "check": "steps below bound; total below twice the distance"}
    return doc, report.satisfies_large_scale_geodesic


def _schatten_witness(args):
    rng = np.random.default_rng(args.seed)
    ctx = schatten.SchattenContext(args.dim, args.p)
    elements = [schatten.random_punitary(ctx, rng)
                for _ in range(args.samples)]
    doc = {"command": "schatten witness", "rows": []}
    ok = True
    for n in args.index:
        _, min_eig = schatten.haagerup_witness(elements, n)
        doc["rows"].append({"n": n, "min_eigenvalue": min_eig})
        ok = ok and min_eig >= -1e-8
    doc["check"] = "Gaussian kernel Gram matrices stay PSD"
    return doc, ok


def _en_identities(args):
    rng = np.random.default_rng(args.seed)
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
    return doc, worst <= 1e-12


def _en_decompose(args):
    x = algebra.matrix_from_json(_read_json(args.input))
    decomp = elementary.traceless_decompose(x)
    residual = (decomp.rebuild() - x).op_norm()
    doc = {"command": "en decompose", "rebuild_residual": residual,
           "e_slots": sorted(map(str, decomp.e_coefficients)),
           "f_slots": sorted(map(str, decomp.f_coefficients)),
           "check": "span rebuild reproduces the input"}
    return doc, residual <= 1e-10


def _en_hsdet(args):
    if args.input:
        word = elementary.word_from_json(_read_json(args.input))
    else:
        rng = np.random.default_rng(args.seed)
        alg = algebra.scalar_complex()
        word = []
        for _ in range(4):
            i, j = rng.permutation(3)[:2] + 1
            payload = algebra.AlgebraElement(alg, alg.random_value(rng))
            word.append(elementary.ElementaryGenerator("E", 3, payload,
                                                       int(i), int(j)))
    cert = elementary.word_certificate(word)
    value = elementary.hs_determinant(cert)
    doc = {"command": "en hsdet", "seed": args.seed,
           "raw": str(value.raw), "reduced": str(value.reduced),
           "check": "invariant vanishes on elementary words"}
    return doc, float(np.max(np.abs(value.raw))) <= 1e-10


def _en_witness(args):
    bracket = elementary.unboundedness_witness(args.m)
    doc = {"command": "en witness", "m": args.m,
           "lower": bracket.lower, "upper": bracket.upper,
           "check": "lower bound is log(m+1), upper bound m"}
    return doc, abs(bracket.lower - math.log(args.m + 1)) <= 1e-12


def _cmd_coarse(args):
    doc_in = _read_json(args.input)
    *spaces, pairs = algebra.json_fields(doc_in, "a coarse map", "domain",
                                         "codomain", "pairs")
    domain, codomain = (coarse.SampledSpace(*algebra.json_fields(
        space, f"the {name}", "ids", "dist", "origin"))
        for space, name in zip(spaces, ("domain", "codomain")))
    sample = coarse.CoarseMapSample(domain, codomain, pairs)
    fit = coarse.fit_quasi_isometry(sample)
    moduli = coarse.fit_coarse_moduli(sample)
    doc = {"command": "coarse fit", "input": args.input,
           "multiplicative": fit.constant if fit.constant < math.inf else None,
           "additive": fit.additive, "refuted": fit.refuted,
           "moduli": {"bins": moduli.bin_edges, "lower": moduli.lower,
                      "upper": moduli.upper, "expansive": moduli.expansive},
           "label": f"sampled at {len(domain.ids)} points"}
    return doc, not fit.refuted


def _cmd_suite(args):
    """The battery prints one line per criterion; the report goes only to
    ``--out``."""
    reports = acceptance.run_all()
    return (reports if args.out else None), all(r["passed"] for r in reports)


def _finite_float(text):
    """argparse type of every float option: NaN and inf are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


class _ActionParser(argparse.ArgumentParser):
    """The parser of a command or action: an option it does not take is
    reported with its own usage line, not handed back to the root."""

    def parse_known_args(self, *args, **kwargs):
        namespace, extras = super().parse_known_args(*args, **kwargs)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser():
    """One parser per action, declaring exactly the options it reads."""
    parser = argparse.ArgumentParser(
        prog="lielength",
        description="desk-scale length geometry experiments on matrix groups")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_ActionParser)

    def action(subparsers, name, fn, *options, **kwargs):
        sub = subparsers.add_parser(name, **kwargs)
        for flag, spec in options:
            sub.add_argument(flag, **spec)
        sub.add_argument("--out", default=None)
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.set_defaults(fn=fn)

    def actions(name, summary):
        return commands.add_parser(name, help=summary).add_subparsers(
            dest="action", required=True)

    seed = ("--seed", {"type": int, "default": 0})
    dim = ("--dim", {"type": int, "default": 4})
    p = ("--p", {"type": _finite_float, "default": 2.0})
    samples = ("--samples", {"type": int, "default": 100})
    group = (("--group", {"default": None, "help": "u<k> or gl<n>"}),
             ("--input", {"default": None,
                          "help": "JSON group element instead of a named "
                                  "sample"}),
             ("--no-optimize", {"action": "store_true"}), seed)

    action(commands, "el", _cmd_el,
           ("action", {"choices": ("estimate", "bracket")}), *group,
           help="exponential length bracket")
    action(actions("rel", "reduced length estimate"), "estimate", _cmd_rel,
           *group)
    action(commands, "trotter", _cmd_trotter,
           ("--dim", {"type": int, "default": 2}),
           ("--subdivisions", {"type": int, "nargs": "+",
                               "default": [16, 32, 64, 128]}), seed,
           help="product-formula scaling defects")
    action(actions("cel", "circle-function length"), "compute", _cmd_cel,
           ("--input", {"required": True}))

    s = actions("schatten", "p-unitary experiments")
    action(s, "sandwich", _schatten_sandwich, dim, p, samples, seed)
    action(s, "chain", _schatten_chain, dim, p,
           ("--step", {"type": _finite_float, "default": 1.0}), seed)
    action(s, "witness", _schatten_witness, dim, p, samples,
           ("--index", {"type": int, "nargs": "+", "default": [1, 10]}), seed)

    en = actions("en", "elementary-group checks")
    action(en, "identities", _en_identities, samples, seed)
    action(en, "decompose", _en_decompose, ("--input", {"required": True}))
    action(en, "hsdet", _en_hsdet, ("--input", {"default": None}), seed)
    action(en, "witness", _en_witness, ("--m", {"type": int, "default": 10}))

    action(commands, "coarse", _cmd_coarse, ("--input", {"required": True}),
           help="fit map constants and moduli")
    action(actions("suite", "run a named battery"), "acceptance", _cmd_suite)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        doc, ok = args.fn(args)
        if doc is not None:
            _write_result(doc, args.out, args.format)
    except (OSError, ValueError, KeyError, algebra.NumericFailureError,
            explength.NoFactorizationError) as exc:
        print(f"lielength: error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
