"""Command-line front end: rank tables, chain counts, verification, DOT export.

Output is byte-deterministic for fixed arguments: rows ascend by (k, n) and
vertices by (level, position).  Exit codes: 0 success, 1 verification or
cross-check failure, 2 argument errors.
"""

from __future__ import annotations

import argparse
import sys

from .poset import Vertex, build_poset
from .reduced import POWERED_NAMES, REDUCED_NAMES, ReducedFunction, standard_reduced
from .sequences import FSequence, make_sequence
from .verify import run_checks

DEFAULT_MAX_N = 12  # guards against accidental Fibonacci-sized blowups


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--seq",
        required=True,
        metavar="SPEC",
        help="fibonacci | naturals | constant:<c> | custom:<a0,a1,...>",
    )
    sp.add_argument("--n", required=True, type=int, help="max level of the finite poset")
    sp.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    sp.add_argument(
        "--allow-large",
        action="store_true",
        help=f"lift the n <= {DEFAULT_MAX_N} safety cap",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact incidence algebras of cobweb posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="print the rank-pair triangle of a named function")
    _add_common(t)
    t.add_argument("--fn", required=True, choices=REDUCED_NAMES, help="function name")
    t.add_argument("--power", type=int, help="convolution power (required for *_pow names)")
    t.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    v = sub.add_parser("verify", help="run the oracle-equivalence suite; exit 0 iff all pass")
    _add_common(v)
    v.add_argument("--seed", type=int, default=0, help="seed for the random-table checks")

    c = sub.add_parser("chains", help="chain counts between two ranks, from the algebra")
    _add_common(c)
    c.add_argument("--from", dest="from_rank", required=True, type=int, metavar="K")
    c.add_argument("--to", dest="to_rank", required=True, type=int, metavar="N")
    c.add_argument(
        "--oracle", action="store_true", help="cross-check every count by explicit DFS"
    )
    c.add_argument("--format", choices=("plain", "json"), default="plain")

    m = sub.add_parser("mobius", help="print the Mobius rank-pair triangle")
    _add_common(m)
    m.add_argument("--format", choices=("plain", "csv", "json"), default="plain")

    d = sub.add_parser("export-dot", help="write the Hasse diagram in DOT")
    _add_common(d)

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _ArgError(f"cannot write --out {out_path}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _render_plain(table: ReducedFunction, title: str) -> str:
    ranks = range(table.min_rank, table.max_rank + 1)
    cells = {t: str(v) for t, v in table.values.items()}
    width = max([len(str(n)) for n in ranks] + [len(s) for s in cells.values()], default=1) + 2
    lines = [title]
    lines.append("k\\n" + "".join(f"{n:>{width}}" for n in ranks))
    for k in ranks:
        row = [f"{k:<3}"]
        for n in ranks:
            row.append(f"{cells[(k, n)]:>{width}}" if n >= k else " " * width)
        lines.append("".join(row).rstrip())
    return "\n".join(lines) + "\n"


def _render_table(table: ReducedFunction, fmt: str, title: str) -> str:
    if fmt == "csv":
        return table.to_csv()
    if fmt == "json":
        return table.to_json()
    return _render_plain(table, title)


def _cmd_table(args, seq: FSequence) -> int:
    if args.fn in POWERED_NAMES:
        if args.power is None:
            raise _ArgError(f"--power is required for --fn {args.fn}")
        table = standard_reduced(args.fn, seq, args.n, power=args.power)
        label = f"{args.fn}({args.power})"
    elif args.power is not None:
        table = standard_reduced(args.fn, seq, args.n).power(args.power)
        label = f"{args.fn}^{args.power}"
    else:
        table = standard_reduced(args.fn, seq, args.n)
        label = args.fn
    _emit(_render_table(table, args.format, f"{label} table for seq={seq.name} n={args.n}"), args.out)
    return 0


def _cmd_mobius(args, seq: FSequence) -> int:
    table = standard_reduced("mobius", seq, args.n)
    _emit(_render_table(table, args.format, f"mobius table for seq={seq.name} n={args.n}"), args.out)
    return 0


def _cmd_verify(args, seq: FSequence) -> int:
    results = run_checks(seq, args.n, seed=args.seed)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}" + (f": {r.detail}" if r.detail else ""))
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} checks passed for seq={seq.name} n={args.n}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed == len(results) else 1


def _cmd_chains(args, seq: FSequence) -> int:
    k, n = args.from_rank, args.to_rank
    if not (seq.min_rank <= k <= n <= args.n):
        raise _ArgError(
            f"need {seq.min_rank} <= --from <= --to <= {args.n}, got from={k} to={n}"
        )
    all_chains = standard_reduced("C", seq, args.n).invert().value(k, n)
    by_length = {
        s: standard_reduced("eta_pow", seq, args.n, power=s).value(k, n)
        for s in range(1, n - k + 1)
    }
    maximal = standard_reduced("M", seq, args.n).invert().value(k, n)

    oracle_note = ""
    if args.oracle:
        p = build_poset(seq, args.n)
        x, y = Vertex(1, k), Vertex(1, n)
        diag = 1 if k == n else 0
        mismatches = []
        if p.count_all_chains(x, y) + diag != all_chains:
            mismatches.append(f"all: algebra {all_chains}, DFS {p.count_all_chains(x, y) + diag}")
        for s, c in by_length.items():
            dfs = p.count_chains(x, y, s)
            if dfs != c:
                mismatches.append(f"length {s}: algebra {c}, DFS {dfs}")
        if p.count_all_maximal_chains(x, y) + diag != maximal:
            mismatches.append(
                f"maximal: algebra {maximal}, DFS {p.count_all_maximal_chains(x, y) + diag}"
            )
        oracle_note = "OK" if not mismatches else "; ".join(mismatches)

    if args.format == "json":
        import json

        obj = {
            "seq": seq.name,
            "n": args.n,
            "from": k,
            "to": n,
            "all": all_chains,
            "by_length": {str(s): c for s, c in by_length.items()},
            "maximal": maximal,
        }
        if args.oracle:
            obj["oracle"] = oracle_note
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    else:
        lines = [f"seq={seq.name} n={args.n} ranks {k} -> {n}"]
        lines.append(f"all chains: {all_chains}")
        lines.append("by length:")
        for s, c in by_length.items():
            lines.append(f"  {s}: {c}")
        lines.append(f"maximal chains: {maximal}")
        if args.oracle:
            lines.append(f"oracle cross-check: {oracle_note}")
        _emit("\n".join(lines) + "\n", args.out)
    if args.oracle and oracle_note != "OK":
        print("oracle cross-check failed", file=sys.stderr)
        return 1
    return 0


def _cmd_export_dot(args, seq: FSequence) -> int:
    _emit(build_poset(seq, args.n).to_dot(), args.out)
    return 0


class _ArgError(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n > DEFAULT_MAX_N and not args.allow_large:
            raise _ArgError(
                f"--n {args.n} exceeds the safety cap {DEFAULT_MAX_N}; pass --allow-large"
            )
        if getattr(args, "power", None) is not None and args.power < 1:
            raise _ArgError(f"--power must be >= 1, got {args.power}")
        seq = make_sequence(args.seq, args.n)
        handler = {
            "table": _cmd_table,
            "verify": _cmd_verify,
            "chains": _cmd_chains,
            "mobius": _cmd_mobius,
            "export-dot": _cmd_export_dot,
        }[args.command]
        return handler(args, seq)
    except (_ArgError, ValueError) as exc:
        parser.error(str(exc))  # prints to stderr and exits 2
        return 2  # unreachable; parser.error raises SystemExit


if __name__ == "__main__":
    sys.exit(main())
