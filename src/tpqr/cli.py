"""Command-line front end.

Each subcommand returns its report, its text lines and its verdict;
``main`` alone prints them and picks the exit code: 0 all checks passed,
1 a mathematical check failed (the failing certificate is in the report),
2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys

_JSON_INT_LIMIT = 2**53

# Input size limits: the rank p+q+r-1 of the H_2 action `monodromy`
# computes, the rank of a `lattice t|ttilde` Gram matrix (`lattice e`
# accepts only k in 6..10), and for `verify-fibration` the sample count and
# the critical-point count p+q+r.  Newton projection onto the fiber already
# fails for (2,3,r) between r = 350 and 400, and every triple probed above
# the critical-point limit exits 2 on that failure.  At each limit the
# slowest case measured, text or `--json`, takes 0.14 s (`monodromy`),
# 0.19 s (`lattice`), 0.26 s (`verify-fibration` samples) and 0.24 s
# (`verify-fibration --pqr 2,3,995`) in a fresh process, min of 3, on a
# 2-vCPU x86-64 machine with Python 3.11.  `verify-fibration` checks the
# critical-point count and an explicit `--samples` before it imports
# numpy, so those rejections exit without loading it; a sample count read
# from a tolerance file is checked once numcheck has parsed the file.
_MONODROMY_RANK_LIMIT = 120
_LATTICE_RANK_LIMIT = 180
_SAMPLES_LIMIT = 10_000
_CRITICAL_POINT_LIMIT = 1000


def _sanitize(obj):
    """Decimal-string any integer too wide for consumers that parse JSON
    numbers as doubles; a bool, a float and a string pass as they are."""
    if isinstance(obj, int):  # a bool is below the limit
        return obj if abs(obj) < _JSON_INT_LIMIT else str(obj)
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    return obj


def _parse_triple(values: list[str] | str) -> tuple[int, int, int]:
    if isinstance(values, str):
        values = [values]
    if len(values) == 1 and "," in values[0]:
        values = values[0].split(",")
    if len(values) != 3:
        raise ValueError("a triple p q r (or p,q,r) is required")
    return tuple(int(v) for v in values)  # type: ignore[return-value]


def _check_limit(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{what} {value} exceeds the limit {limit}")


def _load_config(args):
    from . import numcheck

    path = args.tolerance_file
    cfg = numcheck.parse_config_file(path) if path else numcheck.NumericalConfig()
    given = {"samples": args.samples, "seed": args.seed}
    updates = {key: value for key, value in given.items() if value is not None}
    cfg = numcheck.NumericalConfig(**{**vars(cfg), **updates})
    _check_limit("sample count", cfg.samples, _SAMPLES_LIMIT)
    return cfg


# A command parses its arguments, then imports only the layers it calls: a
# usage error compiles no layer, a request none it does not run, and only
# verify-fibration loads numcheck (numpy).  It returns (report, lines, passed).

Result = tuple[dict, list[str], bool]


def _cmd_monodromy(args) -> Result:
    p, q, r = _parse_triple(args.triple)
    from . import sl2z, triple_excess

    m = sl2z.monodromy_matrix(p, q, r)
    cls = sl2z.classify(m)
    report = {
        "triple": [p, q, r],
        "matrix": m.to_json(),
        "trace": m.trace,
        "class": cls.value,
    }
    if cls is sl2z.MatrixClass.HYPERBOLIC:
        report["rl_word"] = list(sl2z.rl_word(m).exponents)
    if triple_excess(p, q, r) >= 0:
        _check_limit("H_2 rank", p + q + r - 1, _MONODROMY_RANK_LIMIT)
        from . import milnorfiber, quadlattice
        lattice = quadlattice.t_tilde_lattice(p, q, r)
        mu = milnorfiber.monodromy_action(p, q, r)
        report["h2_action"] = {
            "labels": list(lattice.labels),
            "gram": [list(row) for row in lattice.gram],
            "mu": [list(row) for row in mu],
            "char_poly": list(milnorfiber.char_poly(mu)),
        }
    return report, [f"A_{{{p},{q},{r}}} = {m}", f"trace {m.trace}, {cls.value}"], True


def _cmd_dual(args) -> Result:
    p, q, r = _parse_triple(args.triple)
    from . import cuspdual

    rep = cuspdual.verify_duality(p, q, r)
    ok = rep.verify()
    report = rep.to_json()
    report["passed"] = ok
    lines = [
        "dual of ({},{},{}): ({},{},{})".format(p, q, r, *rep.dual),
        f"cycle {rep.self_cycle.entries} <-> {rep.dual_side_cycle.entries}",
        f"alpha_v = {rep.alpha_self} (dual side {rep.alpha_dual}, equal: {rep.alphas_equal})",
        f"conjugacy certificates verified: {ok}",
    ]
    return report, lines, ok


def _cmd_lattice(args) -> Result:
    name = args.name
    if name in ("t", "ttilde"):
        p, q, r = _parse_triple(args.triple)
        _check_limit("lattice rank", p + q + r - (2 if name == "t" else 1), _LATTICE_RANK_LIMIT)

    from . import quadlattice

    if name == "t":
        lat = quadlattice.t_lattice(p, q, r)
    elif name == "ttilde":
        lat = quadlattice.t_tilde_lattice(p, q, r, generator=args.generator)
    elif name == "e":
        lat = quadlattice.e_lattice(args.k)
    elif name == "h":
        lat = quadlattice.hyperbolic_plane()
    else:  # "k3"; argparse's choices admit no other name
        lat = quadlattice.k3_lattice()
    snf = quadlattice.smith_normal_form(lat)
    report = {
        "lattice": lat.to_json(),
        "rank": lat.rank,
        "disc": quadlattice.discriminant(lat),
        "signature": list(quadlattice.signature(lat)),
        "parity": quadlattice.parity(lat),
        "snf": snf.to_json(),
        "radical_rank": snf.divisors.count(0),
    }
    lines = [
        f"rank {report['rank']}, disc {report['disc']}, "
        f"signature {tuple(report['signature'])}, {report['parity']}",
        f"SNF divisors: {snf.divisors}",
    ]
    return report, lines, True


def _cmd_k3(args) -> Result:
    p, q, r = _parse_triple(args.pair)
    from . import k3glue, sl2z

    pair = k3glue.pair_for_triple(p, q, r)
    if pair is None:
        raise ValueError(f"({p},{q},{r}) is not in the duality table")
    lat, verdict = k3glue.glued_lattice(pair)
    count = k3glue.critical_count(pair)
    a = sl2z.monodromy_matrix(*pair.left)
    b = sl2z.monodromy_matrix(*pair.right)
    cert = sl2z.is_conjugate_to_inverse(a, b)
    ok = count == 24 and cert is not None
    report = {
        "pair": pair.to_json(),
        "critical_count": count,
        "glued": verdict.to_json(),
        "glued_rank": lat.rank,
        "boundary_inverse_conjugacy": cert.to_json() if cert else None,
        "passed": ok,
    }
    lines = [
        f"{pair.left_label} {pair.left} <-> {pair.right_label} {pair.right}",
        f"critical count {count}",
        f"glued lattice: det {verdict.det}, signature {verdict.signature}, "
        f"{verdict.parity}, unimodular {verdict.unimodular}",
        f"boundary monodromies inverse-conjugate: {cert is not None}",
    ]
    return report, lines, ok


def _cmd_inose(args) -> Result:
    counts = tuple(int(v) for v in args.case.split(","))
    from . import k3glue

    case = k3glue.InoseCase(counts)
    m = k3glue.inose_monodromy(case)
    cls = k3glue.classify_inose_boundary(case)
    report = {
        "case": list(counts),
        "monodromy": m.to_json(),
        "trace": m.trace,
        "boundary": None,
        "side": None,
    }
    lines = [f"monodromy {m}, trace {m.trace}"]
    if cls is not None:
        p, q, r = cls.triple
        report["boundary"] = f"X_{{{p},{q},{r}}}"
        report["side"] = cls.side
        report["certificate"] = cls.certificate.to_json()
        lines.append(f"boundary of X_{{{p},{q},{r}}} (matched: {cls.side})")
    else:
        lines.append("no duality-table boundary matches")
    return report, lines, True


def _cmd_verify_fibration(args) -> Result:
    p, q, r = _parse_triple(args.pqr)
    _check_limit("critical point count", p + q + r, _CRITICAL_POINT_LIMIT)
    if args.samples is not None:
        _check_limit("sample count", args.samples, _SAMPLES_LIMIT)

    from . import numcheck

    cfg = _load_config(args)
    if args.a is not None:
        params = numcheck.FibrationParams(p, q, r, a=args.a, theta=args.theta, t=args.t)
    else:
        params = numcheck.FibrationParams.minimal(p, q, r, theta=args.theta, t=args.t)
    try:
        report = numcheck.verify_fibration(params, cfg)
    except numcheck.ProjectionError as exc:  # a precondition, not a failed check
        raise ValueError(f"projection onto the fiber failed: {exc}") from exc

    crit, hess = report["critical_points"], report["hessian_x_axis"]
    audit = report["symplectic_inequality"]
    lines = [
        f"critical points: {crit['count']} verified, all_ok={crit['all_ok']}",
        f"hessian (x-axis): matches={hess['matches']} lambda={hess['lam_measured']:.6g}",
        f"inequality audit: passed={audit['passed']} min_margin={audit['min_margin']:.3g}",
    ]
    if "lagrangian_defect" in report:
        defect = report["lagrangian_defect"]
        lines.append(
            f"lagrangian defect: passed={defect['passed']} samples={defect['samples']} "
            f"max_defect={defect['max_defect']:.3g}"
        )
    if "domain_y" in report:
        lines.append(f"domain_y audit: passed={report['domain_y']['passed']}")
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return report, lines, report["passed"]


def _cmd_table(args) -> Result:
    from . import cuspdual, k3glue

    rows = []
    ok = True
    for pair in k3glue.strange_duality_table():
        rep = cuspdual.verify_duality(*pair.left)
        row = {
            "labels": [pair.left_label, pair.right_label],
            "triple": list(pair.left),
            "dual": list(pair.right),
            "self_dual": pair.self_dual,
            "cycle": rep.self_cycle.to_json(),
            "dual_cycle": rep.dual_side_cycle.to_json(),
            "alpha_v": str(rep.alpha_self),
            "alphas_equal": rep.alphas_equal,
            "conjugacy_verified": rep.verify(),
            "critical_count": k3glue.critical_count(pair),
        }
        ok = ok and row["conjugacy_verified"] and row["critical_count"] == 24
        ok = ok and rep.dual == pair.right
        rows.append(row)
    report = {"rows": rows, "passed": ok}
    lines = [
        "{:<4} {:<9} -> {:<4} {:<9} cycle {:<12} alpha_v {:<18} 24:{} ok:{}".format(
            row["labels"][0],
            str(tuple(row["triple"])),
            row["labels"][1],
            str(tuple(row["dual"])),
            str(tuple(row["cycle"])),
            row["alpha_v"],
            row["critical_count"],
            row["conjugacy_verified"],
        )
        for row in rows
    ]
    return report, lines, ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpqr",
        description="Exact monodromy/lattice arithmetic and numerical "
        "fibration checks for the T_{p,q,r} singularity family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("monodromy", help="torus-bundle monodromy of a triple")
    sp.add_argument("triple", nargs="+")
    sp.set_defaults(func=_cmd_monodromy)

    sp = sub.add_parser("dual", help="verify the strange-duality data of a triple")
    sp.add_argument("triple", nargs="+")
    sp.set_defaults(func=_cmd_dual)

    sp = sub.add_parser("lattice", help="lattice invariants")
    sp.add_argument("name", choices=["t", "ttilde", "e", "h", "k3"])
    sp.add_argument("--triple", nargs="+", default=["2,3,7"])
    sp.add_argument("--generator", default="S'", choices=["S", "S'"])
    sp.add_argument("--k", type=int, default=8)
    sp.set_defaults(func=_cmd_lattice)

    sp = sub.add_parser("k3", help="glued-lattice and boundary checks for a pair")
    sp.add_argument("--pair", required=True, help="p,q,r of either side")
    sp.set_defaults(func=_cmd_k3)

    sp = sub.add_parser("inose", help="classify a boundary loop by quadrant counts")
    sp.add_argument("--case", required=True, help="c1,c2,c3,c4")
    sp.set_defaults(func=_cmd_inose)

    sp = sub.add_parser("verify-fibration", help="numerical fibration verifier")
    sp.add_argument("--pqr", required=True)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--theta", type=float, default=0.0)
    sp.add_argument("--a", type=float, default=None, help="default: minimal admissible + 1")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tolerance-file", default=None, help="key=value overrides")
    sp.set_defaults(func=_cmd_verify_fibration)

    sp = sub.add_parser("table", help="the full duality table with verdicts")
    sp.set_defaults(func=_cmd_table)

    for sp in sub.choices.values():  # the shared flag, listed last in each help
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report, lines, passed = args.func(args)
        if args.json:
            print(json.dumps(_sanitize(report), indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
