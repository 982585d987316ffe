"""Command line front end.

All inputs are flags; there is no configuration file or environment lookup,
so identical invocations produce identical output.  JSON output is sorted
canonically (weights by decreasing (t, r)) and carries the same content as
the plain text.  Exit status is 0 exactly when every requested verification
passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import structures
from .alcoves import OUT, classify, linked_weight
from .decompose import IntegrityError, decompose, sweep, verify
from .modchar import m_char, simple_char, tilting_char, to_simple_basis
from .weights import _PRIME_BOUND, Weight, _check_prime, _parse_int, parse_weight
from .weylchar import Character


def _json_dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1)


def _prime(text: str) -> int:
    """argparse type of ``--p``: a prime >= 5.  A p at or above the bound of
    the exact primality test gets the library's message, which names it."""
    p = 0
    try:
        _check_prime(p := _parse_int(text))
    except ValueError as exc:
        message = str(exc) if p >= _PRIME_BOUND else f"p must be a prime >= 5, got {text}"
        raise argparse.ArgumentTypeError(message) from None
    return p


def _jobs(text: str) -> int:
    """argparse type of ``--jobs``: a worker count >= 1."""
    try:
        n = _parse_int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a worker count >= 1, got {text}")
    return n


def _kind_char(kind: str, w: Weight, p: int) -> Character:
    if kind == "weyl":
        return Character("weyl", {w: 1})
    # read by name at call time, so a traced function is seen
    return {"simple": simple_char, "tilting": tilting_char, "m": m_char}[kind](w, p)


def cmd_facet(args) -> int:
    w = parse_weight(args.weight)
    label = classify(w, args.p)
    if args.json:
        print(_json_dumps({"p": args.p, "weight": list(w), "facet": label}))
    else:
        print(label)
    return 0


def cmd_dim(args) -> int:
    w = parse_weight(args.weight)
    dim = _kind_char(args.kind, w, args.p).dimension()
    print(_json_dumps({"p": args.p, "kind": args.kind, "weight": list(w), "dim": dim})
          if args.json else dim)
    return 0


def cmd_char(args) -> int:
    w = parse_weight(args.weight)
    c = _kind_char(args.kind, w, args.p)  # always in the Weyl basis
    if args.basis == "simple":
        c = to_simple_basis(c, args.p)
    if args.json:
        print(_json_dumps(c.to_json()))
    else:
        symbol = {"weyl": "X", "simple": "Xp"}[c.basis]
        terms = [
            (f"{k}*" if k != 1 else "") + f"{symbol}({w2[0]},{w2[1]})"
            for w2, k in c.items_sorted()
        ]
        print(" + ".join(terms) if terms else "0")
    return 0


def cmd_decompose(args) -> int:
    lhs, rhs = parse_weight(args.lhs), parse_weight(args.rhs)
    try:
        d = decompose(lhs, rhs, args.p)
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 2
    report = verify(d)
    if args.json:
        payload = d.to_json()
        payload["verified"] = report.passed
        if not report.passed:
            payload["failures"] = [c.name for c in report.failures()]
        print(_json_dumps(payload))
    else:
        status = "verified" if report.passed else "VERIFICATION FAILED"
        print(f"{d}  [dim {d.dim_product}, {status}]")
        for c in report.failures():
            print(f"  failed: {c.name} {c.detail}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    result = sweep(args.p, run_verify=not args.no_verify, jobs=args.jobs)
    if args.json:
        print(_json_dumps(result.to_json()))
    else:
        counts = ", ".join(f"{k}:{v}" for k, v in sorted(result.summand_counts.items()))
        print(f"p={result.p}: {result.pairs} pairs, summands {counts}, "
              f"{result.m_pairs} pairs with an M summand, "
              f"{len(result.failures)} failures")
        for f in result.failures:
            print(f"  FAIL {f}")
    return 0 if result.passed else 1


def cmd_quiver(args) -> int:
    # the quiver engine loads only here, so no other command pays for it
    from . import sprime
    from .quiver import coefficient_quiver

    if args.action == "verify":
        if args.target is not None or args.basis is not None:
            print("verify takes no module and no --basis", file=sys.stderr)
            return 2
        checks = sprime.report()
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  {detail}" if detail and not ok else ""))
        failed = sum(1 for _, ok, _ in checks if not ok)
        print(f"{len(checks) - failed}/{len(checks)} checks passed")
        return 0 if failed == 0 else 1
    target = args.target  # argparse admits only "verify" and "dot"
    if target is None:
        print("dot needs a target module (P1, P2, P3, P3p, M2)", file=sys.stderr)
        return 2
    if target not in ("P1", "P2", "P3", "P3p", "M2"):
        print(f"unknown module {target!r}", file=sys.stderr)
        return 2
    if args.basis is not None and target != "P2":
        print(f"--basis picks the bottom layer of P2 only, not of {target}", file=sys.stderr)
        return 2
    alg = sprime.algebra()
    if target == "P2":
        names = tuple((args.basis or "b1'b1,b2'b2").split(","))
        cq = sprime.p2_coefficient_quiver(names, alg)
    else:
        module = sprime.module_m2(alg) if target == "M2" else alg.projective(target[1:])
        cq = coefficient_quiver(module, module.coordinate_basis())
    print(cq.to_dot(target))
    return 0


def cmd_diagram(args) -> int:
    w = parse_weight(args.weight)
    p = args.p
    facet = classify(w, p)
    if facet == OUT:
        print(f"weight {args.weight} lies outside the region for p={p}", file=sys.stderr)
        return 2
    d = structures.diagram(facet, args.kind)

    def labeler(entry: str) -> Optional[str]:
        mu = linked_weight(w, entry, p)
        return None if mu is None else f"{mu[0]},{mu[1]}"

    print(structures.diagram_dot(d, labeler, title=f"{args.kind} {w[0]},{w[1]} p={p}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl3tensor",
        description="Exact tensor product decomposition for restricted "
                    "simple SL3 modules (p >= 5).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_p(sp):
        sp.add_argument("--p", type=_prime, required=True, help="prime >= 5")

    def add_common(sp):
        add_p(sp)
        sp.add_argument("--weight", required=True, help="weight 'a,b'")
        sp.add_argument("--json", action="store_true", help="emit JSON")

    sp = sub.add_parser("facet", help="classify a weight into its facet")
    add_common(sp)
    sp.set_defaults(func=cmd_facet)

    sp = sub.add_parser("dim", help="dimension of a module")
    add_common(sp)
    sp.add_argument("--kind", default="simple",
                    choices=("weyl", "simple", "tilting", "m"))
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("char", help="character of a module")
    add_common(sp)
    sp.add_argument("--kind", default="simple",
                    choices=("weyl", "simple", "tilting", "m"))
    sp.add_argument("--basis", default=None, choices=("weyl", "simple"))
    sp.set_defaults(func=cmd_char)

    sp = sub.add_parser("decompose", help="decompose a tensor product")
    add_p(sp)
    sp.add_argument("--lhs", required=True, help="weight 'a,b'")
    sp.add_argument("--rhs", required=True, help="weight 'a,b'")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("sweep", help="decompose and verify all restricted pairs")
    add_p(sp)
    sp.add_argument("--jobs", type=_jobs, default=1,
                    help="worker processes, capped by the CPU count")
    sp.add_argument("--no-verify", action="store_true",
                    help="skip per-pair verification")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("quiver", help="path-algebra checks and drawings")
    sp.add_argument("action", choices=("verify", "dot"))
    sp.add_argument("target", nargs="?", help="P1, P2, P3, P3p or M2")
    sp.add_argument("--basis", default=None,
                    help="two of a'a,b1'b1,b2'b2 for the P2 bottom layer")
    sp.set_defaults(func=cmd_quiver)

    sp = sub.add_parser("diagram", help="layered module diagram as DOT")
    add_p(sp)
    sp.add_argument("--kind", required=True, choices=("delta", "tilting", "m"))
    sp.add_argument("--weight", required=True, help="weight 'a,b'")
    sp.set_defaults(func=cmd_diagram)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return exc.code
    try:
        return args.func(args)
    except (ValueError, IntegrityError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
