"""Command-line front end.

One verb per operation family; every verb prints one JSON value on
stdout: an object, or for ``converge`` an array of result rows.  With
--format csv the same payload is written as a header plus one line per
row (a single object is one row; nested values are JSON text in their
cell).  Exact rationals are serialized as "numerator/denominator"
strings; --decimals adds a rounded float rendering *next to* each exact
value, never in place of it.

Exit codes: 0 success, 1 domain or parse error, 2 usage error, 3 budget
exceeded.  Verbs that enumerate (census, lemma-check, converge) honor
--budget, falling back to the FQX_CENSUS_BUDGET environment variable
and then the built-in default.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction

from .density import (
    DecimalWriter,
    density_coprime_to,
    density_unimodular,
    divisible_bound,
    tail_bound,
    truncation_gap,
    zeta_inverse,
    zeta_inverse_truncated,
)
from .errors import BudgetExceededError
from .experiment import (
    Predicate,
    SpaceSpec,
    closed_form_count,
    convergence_report,
    exhaustive_census,
    monte_carlo,
)
from .gf import field_from_order, make_field
from .matrix import (
    IrreducibleSet,
    complete_to_invertible,
    determinant,
    minors_gcd,
    parse_matrix,
    render_cell,
    render_matrix,
    smith_normal_form,
    stack,
)
from .poly import (
    irreducibles_up_to,
    count_irreducibles,
    poly_from_index,
    poly_from_string,
    poly_to_index,
    poly_to_pretty,
    poly_to_string,
)


def _parse_primes(spec, text: str) -> IrreducibleSet:
    """Parse a ';'-separated list of polynomials into an IrreducibleSet."""
    members = [poly_from_string(spec, c) for c in text.split(";") if c.strip()]
    return IrreducibleSet(spec, members)


def _resolve_budget(args) -> int | None:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("FQX_CENSUS_BUDGET")
    if env is not None:
        return int(env)
    return None


# ---------------------------------------------------------------------------
# Verb handlers.  Each returns a payload: a dict, or a list of row dicts.


def _cmd_field(args):
    spec = make_field(args.p, args.e)
    modulus = None
    if spec.modulus is not None:
        modulus = ",".join(str(d) for d in spec.modulus)
    return {"p": spec.p, "e": spec.e, "q": spec.q, "modulus": modulus}


def _cmd_poly(args):
    spec = field_from_order(args.q)
    if args.index is not None:
        f = poly_from_index(spec, args.index)
    else:
        f = poly_from_string(spec, args.text)
    return {
        "q": spec.q,
        "index": poly_to_index(f),
        "coeffs": poly_to_string(f),
        "pretty": poly_to_pretty(f),
        "degree": f.degree,
        "monic": f.is_monic,
    }


def _cmd_irreducibles(args):
    spec = field_from_order(args.q)
    budget = _resolve_budget(args)
    payload = {"q": spec.q, "max_degree": args.max_degree}
    counts = {}
    if args.counts_only:
        for m in range(1, args.max_degree + 1):
            counts[str(m)] = count_irreducibles(spec, m)
        payload["counts"] = counts
        return payload
    kwargs = {} if budget is None else {"budget": budget}
    table = irreducibles_up_to(spec, args.max_degree, **kwargs)
    polys = {}
    for m in range(1, args.max_degree + 1):
        entries = table.irreducibles(m)
        counts[str(m)] = len(entries)
        polys[str(m)] = [poly_to_string(f) for f in entries]
    payload["counts"] = counts
    payload["polys"] = polys
    return payload


def _cmd_zeta(args):
    payload = {
        "q": args.q,
        "j": args.j,
        "zeta_inverse": zeta_inverse(args.q, args.j),
    }
    if args.t is not None:
        truncated = zeta_inverse_truncated(args.q, args.j, args.t)
        bound = tail_bound(args.q, args.t)
        gap = truncation_gap(args.q, args.j, args.t, truncated)
        args.writer.truncated(args.q, args.j, args.t, truncated, gap)
        payload.update(
            {
                "t": args.t,
                "truncated": truncated,
                "gap": gap,
                "tail_bound": bound,
                "within_bound": gap <= bound,
            }
        )
    return payload


def _cmd_density(args):
    payload = {"q": args.q, "k": args.k, "n": args.n}
    if args.divisible_degree is not None:
        share = divisible_bound(args.q, args.k, args.n, args.divisible_degree)
        payload["predicate"] = f"divisible[degree {args.divisible_degree}]"
        payload["density"] = share.exact
        payload["bound"] = share.bound
        return payload
    if args.coprime_to is not None:
        spec = field_from_order(args.q)
        primes = _parse_primes(spec, args.coprime_to)
        predicate = Predicate.coprime_to(primes)
        payload["predicate"] = predicate.label()
        payload["density"] = density_coprime_to(args.q, args.k, args.n, primes)
        return payload
    payload["predicate"] = "unimodular"
    payload["density"] = density_unimodular(args.q, args.k, args.n)
    return payload


def _space_and_predicate(args) -> tuple[SpaceSpec, Predicate]:
    spec = field_from_order(args.q)
    space = SpaceSpec(spec, args.k, args.n, args.N)
    if args.divisible_by is not None:
        predicate = Predicate.divisible_by(poly_from_string(spec, args.divisible_by))
    elif args.coprime_to is not None:
        predicate = Predicate.coprime_to(_parse_primes(spec, args.coprime_to))
    else:
        predicate = Predicate.unimodular()
    return space, predicate


def _theory_for(space: SpaceSpec, predicate: Predicate) -> Fraction | None:
    q, k, n = space.field.q, space.k, space.n
    if predicate.kind == "unimodular":
        return density_unimodular(q, k, n)
    if predicate.kind == "coprime":
        return density_coprime_to(q, k, n, predicate.primes)
    if k < n:
        return divisible_bound(q, k, n, predicate.poly.degree).exact
    return None


def _row_decimals(row: dict, theory: Fraction | None, decimals: int | None) -> dict:
    """Append the --decimals columns of a result row, after its fixed columns.

    The share is hits over samples (over total for a census), and the
    gap is taken against the exact closed form; "" stands for no theory.
    """
    if decimals is not None:
        ratio = Fraction(row["hits"], row["samples"] or row["total"])
        gap = None if theory is None else abs(ratio - theory)
        for key, val in (("ratio", ratio), ("theory", theory), ("gap", gap)):
            row[f"{key}_decimal"] = "" if val is None else f"{float(val):.{decimals}f}"
    return row


def _cmd_census(args):
    space, predicate = _space_and_predicate(args)
    result = exhaustive_census(
        space, predicate, budget=_resolve_budget(args), workers=args.workers
    )
    theory = _theory_for(space, predicate)
    return _row_decimals(result.to_row(theory=theory), theory, args.decimals)


def _cmd_mc(args):
    space, predicate = _space_and_predicate(args)
    estimate = monte_carlo(
        space,
        predicate,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
    )
    theory = _theory_for(space, predicate)
    return _row_decimals(estimate.to_row(theory=theory), theory, args.decimals)


def _cmd_lemma_check(args):
    spec = field_from_order(args.q)
    primes = _parse_primes(spec, args.coprime_to)
    expected = closed_form_count(args.q, args.k, args.n, primes, args.multiplier)
    bound = args.multiplier * args.q**primes.degree - 1
    space = SpaceSpec(spec, args.k, args.n, bound)
    result = exhaustive_census(
        space,
        Predicate.coprime_to(primes),
        budget=_resolve_budget(args),
        workers=args.workers,
    )
    return {
        "q": args.q,
        "k": args.k,
        "n": args.n,
        "primes": Predicate.coprime_to(primes).label(),
        "multiplier": args.multiplier,
        "N": bound,
        "census_hits": result.hits,
        "closed_form": expected,
        "match": result.hits == expected,
    }


def _cmd_converge(args):
    schedule = [int(v) for v in args.schedule.split(",") if v.strip() != ""]
    rows = convergence_report(
        args.q,
        args.k,
        args.n,
        schedule,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        budget=_resolve_budget(args),
    )
    if args.decimals is None:
        return rows
    theory = density_unimodular(args.q, args.k, args.n)
    return [_row_decimals(row, theory, args.decimals) for row in rows]


def _matrix_from_args(args):
    spec = field_from_order(args.q)
    return parse_matrix(spec, args.matrix)


def _cmd_unimodular(args):
    a = _matrix_from_args(args)
    if a.k > a.n:
        raise ValueError("cannot extend a matrix with more rows than columns")
    g = minors_gcd(a)
    return {
        "q": a.spec.q,
        "k": a.k,
        "n": a.n,
        "minors_gcd": render_cell(g),
        "minors_gcd_pretty": poly_to_pretty(g),
        "unimodular": g.degree == 0,
    }


def _cmd_complete(args):
    a = _matrix_from_args(args)
    extension = complete_to_invertible(a)
    stacked = stack(a, extension)
    det = determinant(stacked)
    return {
        "q": a.spec.q,
        "k": a.k,
        "n": a.n,
        "rows_added": extension.k,
        "completion": render_matrix(extension),
        "stacked": render_matrix(stacked),
        "determinant": render_cell(det),
        "determinant_pretty": poly_to_pretty(det),
    }


def _cmd_snf(args):
    a = _matrix_from_args(args)
    u, d, v = smith_normal_form(a)
    invariants = [d.entries[i][i] for i in range(min(a.k, a.n))]
    return {
        "q": a.spec.q,
        "k": a.k,
        "n": a.n,
        "U": render_matrix(u),
        "D": render_matrix(d),
        "V": render_matrix(v),
        "invariants": [render_cell(f) for f in invariants],
        "invariants_pretty": [poly_to_pretty(f) for f in invariants],
    }


# ---------------------------------------------------------------------------
# Output shaping.


def _finish(obj, decimals, writer: DecimalWriter):
    if isinstance(obj, dict):
        out = {}
        for key, val in obj.items():
            if isinstance(val, Fraction):
                out[key] = writer.ratio(val)
                if decimals is not None:
                    out[f"{key}_decimal"] = f"{float(val):.{decimals}f}"
            elif isinstance(val, (dict, list, tuple)):
                out[key] = _finish(val, decimals, writer)
            else:
                out[key] = val
        return out
    if isinstance(obj, (list, tuple)):
        return [_finish(v, decimals, writer) for v in obj]
    return obj


def _emit(payload, args) -> None:
    # one writer per output: a term shared by several values (the gap has
    # the truncated product's denominator) is converted once
    shaped = _finish(payload, args.decimals, args.writer)
    if args.format == "json":
        print(json.dumps(shaped))
        return
    rows = shaped if isinstance(shaped, list) else [shaped]
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {
                key: json.dumps(val) if isinstance(val, (list, dict)) else val
                for key, val in row.items()
            }
        )


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_output_options(sub):
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    sub.add_argument(
        "--decimals",
        type=int,
        default=None,
        metavar="D",
        help="also render rationals as floats with D decimal places",
    )


def _add_budget_option(sub):
    sub.add_argument(
        "--budget",
        type=int,
        default=None,
        help="evaluation budget (default: FQX_CENSUS_BUDGET or built-in)",
    )


def _add_workers_option(sub):
    sub.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqx",
        description="Exact arithmetic and density experiments for matrices "
        "of polynomials over finite fields.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("field", help="describe GF(p^e) and its modulus")
    sub.add_argument("--p", type=int, required=True, help="characteristic")
    sub.add_argument("--e", type=int, default=1, help="extension degree (default 1)")
    _add_output_options(sub)
    sub.set_defaults(handler=_cmd_field)

    sub = subs.add_parser("poly", help="inspect one polynomial")
    sub.add_argument("--q", type=int, required=True, help="field order")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--index", type=int, help="enumeration index")
    group.add_argument("--text", help="polynomial text (either format)")
    _add_output_options(sub)
    sub.set_defaults(handler=_cmd_poly)

    sub = subs.add_parser("irreducibles", help="count and list monic irreducibles")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--max-degree", type=int, required=True)
    sub.add_argument(
        "--counts-only", action="store_true", help="skip materializing the lists"
    )
    _add_budget_option(sub)
    _add_output_options(sub)
    sub.set_defaults(handler=_cmd_irreducibles)

    sub = subs.add_parser("zeta", help="reciprocal zeta values, exact")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument(
        "--t", type=int, default=None, help="also compute the degree-<=t truncation"
    )
    _add_output_options(sub)
    sub.set_defaults(handler=_cmd_zeta)

    sub = subs.add_parser("density", help="closed-form asymptotic densities")
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument(
        "--coprime-to",
        default=None,
        metavar="POLYS",
        help="';'-separated monic irreducibles for the coprimality predicate",
    )
    sub.add_argument(
        "--divisible-degree",
        type=int,
        default=None,
        metavar="D",
        help="degree of an irreducible for the divisibility share and bound",
    )
    _add_output_options(sub)
    sub.set_defaults(handler=_cmd_density)

    def _census_like(name, help_text):
        s = subs.add_parser(name, help=help_text)
        s.add_argument("--q", type=int, required=True)
        s.add_argument("--k", type=int, required=True)
        s.add_argument("--n", type=int, required=True)
        s.add_argument("--N", type=int, required=True, help="largest entry index")
        s.add_argument("--coprime-to", default=None, metavar="POLYS")
        s.add_argument("--divisible-by", default=None, metavar="POLY")
        _add_workers_option(s)
        _add_output_options(s)
        return s

    sub = _census_like("census", "exhaustively count a predicate over a space")
    _add_budget_option(sub)
    sub.set_defaults(handler=_cmd_census)

    sub = _census_like("mc", "Monte Carlo estimate of a predicate share")
    sub.add_argument("--samples", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.set_defaults(handler=_cmd_mc)

    sub = subs.add_parser(
        "lemma-check",
        help="compare an aligned census against its closed-form count",
    )
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--coprime-to", required=True, metavar="POLYS")
    sub.add_argument(
        "--multiplier", type=int, default=1, help="alignment multiplier m (default 1)"
    )
    _add_workers_option(sub)
    _add_budget_option(sub)
    _add_output_options(sub)
    sub.set_defaults(handler=_cmd_lemma_check)

    sub = subs.add_parser(
        "converge", help="measured unimodular share along a schedule of N"
    )
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument(
        "--schedule", required=True, help="comma-separated strictly increasing N"
    )
    sub.add_argument("--mode", choices=("exhaustive", "mc"), default="exhaustive")
    sub.add_argument("--samples", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    _add_workers_option(sub)
    _add_budget_option(sub)
    _add_output_options(sub)
    sub.set_defaults(handler=_cmd_converge)

    def _matrix_verb(name, help_text):
        s = subs.add_parser(name, help=help_text)
        s.add_argument("--q", type=int, required=True)
        s.add_argument(
            "--matrix",
            required=True,
            help="rows ';'-separated, entries '|'-separated, "
            "entries in coefficient-index form",
        )
        _add_output_options(s)
        return s

    sub = _matrix_verb("unimodular", "test whether the maximal minors are coprime")
    sub.set_defaults(handler=_cmd_unimodular)

    sub = _matrix_verb("complete", "extend a unimodular matrix to a square invertible one")
    sub.set_defaults(handler=_cmd_complete)

    sub = _matrix_verb("snf", "Smith normal form with its transform matrices")
    sub.set_defaults(handler=_cmd_snf)

    return parser


# parse_args leaves the parser as it found it, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    args.writer = DecimalWriter()
    try:
        _emit(args.handler(args), args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
