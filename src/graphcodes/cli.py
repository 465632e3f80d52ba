"""Command-line front end.

Verbs: construct, certify, dual, tables, tradeoff, simulate, repair,
subres-check.  Output is deterministic for fixed flags and --seed
(default 0) and goes to stdout or --out.  Exit codes: 0 success, 1
failed certify, simulate, repair or subres-check, 2 bad flags or values.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from typing import List, Optional

from graphcodes.combinat import layer_str
from graphcodes.concat import (
    balance_table,
    build_concat,
    code_family,
    concat_params,
    scenario_table,
)
from graphcodes.field import field_make
from graphcodes.jgc import certify_infosets, dual, to_json
from graphcodes.layered import census_csv, tradeoff_points
from graphcodes.rs import rs_jgc
from graphcodes.storesim import StorageState, collect, ingest, repair_node
from graphcodes.subres import (
    poly_deg,
    poly_gcd,
    poly_trim,
    principal_subresultant,
    sh_identity_check,
)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write(args, doc, header: str, rows) -> None:
    """doc as indented JSON with --format json, else the CSV: header,
    then one line per row, its entries joined by commas."""
    if args.format == "json":
        text = json.dumps(doc, indent=2, default=str) + "\n"
    else:
        text = "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"
    _emit(text, args.out)


def _ints(p: argparse.ArgumentParser, names: str) -> None:
    """One required integer flag per letter of names: "nvk" adds --n,
    --v and --k."""
    for name in names:
        p.add_argument(f"--{name}", type=int, required=True)


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcodes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, text in (("construct", "build a Johnson graph code"),
                       ("certify", "check every anchor's information set"),
                       ("dual", "descriptor of the dual graph code")):
        p = sub.add_parser(verb, help=text)
        _ints(p, "nvktq")
        _common(p)

    p = sub.add_parser("tables", help="census, balance, and scenario tables")
    _ints(p, "nvk")
    _common(p)

    p = sub.add_parser("tradeoff", help="layered storage/repair tradeoff")
    _ints(p, "n")
    _common(p)

    for verb, text in (("simulate", "ingest and recover from all anchors"),
                       ("repair", "repair every node, one at a time")):
        p = sub.add_parser(verb, help=text)
        _ints(p, "nvkq")
        _common(p)

    p = sub.add_parser("subres-check",
                       help="randomized subresultant gcd criteria")
    _ints(p, "q")
    p.add_argument("--trials", type=int, default=200)
    _common(p)
    return parser


def _run_construct(args) -> int:
    code = rs_jgc(args.n, args.v, args.k, args.t, args.q)
    _emit(to_json(code, alphas=code.alphas) + "\n", args.out)
    return 0


def _run_certify(args) -> int:
    code = rs_jgc(args.n, args.v, args.k, args.t, args.q)
    report = certify_infosets(code)
    doc = {kind: [layer_str(A, code.n) for A in anchors]
           for kind, anchors in report.items()}
    _write(args, doc, "anchor,status",
           [(a, kind) for kind in ("pass", "fail", "skipped") for a in doc[kind]])
    return 0 if not report["fail"] and not report["skipped"] else 1


def _run_dual(args) -> int:
    code = rs_jgc(args.n, args.v, args.k, args.t, args.q)
    _emit(to_json(dual(code)) + "\n", args.out)
    return 0


def _run_tables(args) -> int:
    n, v, k = args.n, args.v, args.k
    family = code_family(n, v, k)
    sections = {"census": census_csv(n, v, k)}
    csv_rows = []
    if family == "concat":
        params = concat_params(n, v, k)
        rows, sums = balance_table(n, v, k)
        sections["balance"] = {
            "columns": list(range(k, -1, -1)),
            "rows": [{"size": u, "multiplicity": params.counts.get(u, 0),
                      "entries": row}
                     for u, row in zip(range(v, 0, -1), rows)],
            "sums": sums,
        }
        sections["parameters"] = {
            "M1": params.M1, "M0": params.M0, "M": params.M,
            "alpha": params.alpha, "beta": params.beta,
        }
        sections["scenarios"] = scenario_table(n, v, k)
        # the census, then a blank line and the parameters, then a blank
        # line and the scenarios
        p, sizes = sections["parameters"], range(v, 0, -1)
        csv_rows = [(), p, p.values(),
                    (), ("scenario", *(f"size_{u}" for u in sizes), "M", "alpha", "beta")]
        csv_rows += [(row["scenario"], *(row["counts"].get(u, 0) for u in sizes),
                      row["M"], row["alpha"], row["beta"]) for row in sections["scenarios"]]
    _write(args, sections, sections["census"].rstrip("\n"), csv_rows)
    return 0


def _run_tradeoff(args) -> int:
    points = tradeoff_points(args.n)
    doc = [{"v": v, "alpha_over_M": a, "beta_over_M": b} for v, a, b in points]
    _write(args, doc, "v,alpha_over_M,beta_over_M", points)
    return 0


def _ingested(args) -> StorageState:
    """A new state of build_concat(--n, --v, --k, --q) holding a blob
    drawn from --seed."""
    code = build_concat(args.n, args.v, args.k, args.q)
    rng = random.Random(args.seed)
    return ingest(code, [rng.randrange(args.q) for _ in range(code.M)])


def _run_simulate(args) -> int:
    state = _ingested(args)
    code, blob = state.code, state.blob
    anchors = list(itertools.combinations(range(code.n), code.k))
    failures = []
    for A in anchors:
        if collect(state, A) != blob:
            failures.append(A)
    doc = {
        "n": code.n, "k": code.k, "q": args.q,
        "scenario": code.layout and code.layout.name,
        "M": code.M, "alpha": code.alpha, "beta": code.beta,
        "recovered": len(anchors) - len(failures),
        "anchors": len(anchors),
        "failures": [layer_str(A, code.n) for A in failures],
    }
    header = "M,alpha,beta,recovered,anchors"
    _write(args, doc, header, [[doc[key] for key in header.split(",")]])
    return 0 if not failures else 1


def _run_repair(args) -> int:
    state = _ingested(args)
    rows = []
    bad = 0
    for f in range(state.code.n):
        repaired = repair_node(state, f)
        exact = repaired.nodes[f] == state.nodes[f]
        bw = sorted(set(repaired.last_repair_bandwidth.values()))
        rows.append({"node": f, "exact": exact, "per_helper": bw})
        if not exact:
            bad += 1
    _write(args, rows, "node,exact,per_helper",
           [(r["node"], int(r["exact"]), "|".join(map(str, r["per_helper"]))) for r in rows])
    return 0 if bad == 0 else 1


def _run_subres_check(args) -> int:
    F = field_make(args.q)
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        dp = rng.randrange(1, 5)
        dq = rng.randrange(1, 5)
        p = poly_trim([rng.randrange(args.q) for _ in range(dp)] + [1])
        q = poly_trim([rng.randrange(args.q) for _ in range(dq)] + [1])
        delta = poly_deg(poly_gcd(F, p, q))
        for i in range(min(poly_deg(p), poly_deg(q)) + 1):
            d = principal_subresultant(F, p, q, i)
            if delta > i and d != 0:
                failures += 1
            if delta == i and d == 0:
                failures += 1
    # spot-check the anchored determinant identity as well
    pts = list(range(min(args.q, 7)))
    idents = 0
    for _ in range(min(args.trials, 50)):
        k = rng.randrange(1, 4)
        I = sorted(rng.sample(range(6), rng.randrange(1, 4)))
        L = sorted(rng.sample(range(len(pts)), len(I)))
        lead = rng.randrange(1, args.q)
        if not sh_identity_check(F, pts, L, k, I, lead=lead):
            idents += 1
    doc = {"q": args.q, "trials": args.trials,
           "gcd_criterion_failures": failures,
           "identity_failures": idents}
    _write(args, doc, ",".join(doc), [doc.values()])
    return 0 if failures == 0 and idents == 0 else 1


_RUNNERS = {
    "construct": _run_construct,
    "certify": _run_certify,
    "dual": _run_dual,
    "tables": _run_tables,
    "tradeoff": _run_tradeoff,
    "simulate": _run_simulate,
    "repair": _run_repair,
    "subres-check": _run_subres_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _RUNNERS[args.verb](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
