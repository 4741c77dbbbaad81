"""The golden CLI matrix: a fixed list of ``cobweb`` invocations, each with its
exit code and the sha256 of its stdout and of its stderr.

``tests/test_golden_cli.py`` runs every invocation in-process through
``cobweb.cli.main`` and compares it with ``golden_cli.txt``.  A change that
alters any entry names each changed invocation, and why, in CHANGES.md.
To regenerate the file, and see what changed:

    PYTHONPATH=src python tests/golden_cli.py && git diff tests/golden_cli.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

from cobweb.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.txt")

SHAPES = (
    "fibonacci",
    "naturals",
    "constant:2",
    "constant:3",
    "custom:0,2,3,1,2,3",
    "custom:1,3,1,4,2,3",
)
PLAIN_NAMES = ("delta", "zeta", "zeta2", "eta", "C", "chi", "M", "mobius")
POWERED_NAMES = ("eta_pow", "chi_pow")
FORMATS = ("plain", "csv", "json")
RANK_PAIRS = ((0, 5), (1, 3), (2, 2), (2, 5), (4, 5))


def invocations() -> list[list[str]]:
    """Every argv of the matrix, in a fixed order."""
    out = []
    for spec in SHAPES:
        common = ["--seq", spec, "--n", "5"]
        for name in PLAIN_NAMES:
            for fmt in FORMATS:
                base = ["table", *common, "--fn", name, "--format", fmt]
                out.append(base)
                out += [[*base, "--power", str(k)] for k in (0, 1, 2, 3, 7)]
        for name in POWERED_NAMES:
            out.append(["table", *common, "--fn", name])  # missing --power
            out.append(["table", *common, "--fn", name, "--power", "0"])
            for fmt in FORMATS:
                base = ["table", *common, "--fn", name, "--format", fmt]
                out += [[*base, "--power", str(k)] for k in (1, 2, 3, 5)]
        out += [["mobius", *common, "--format", fmt] for fmt in FORMATS]
        for k, m in RANK_PAIRS:
            for fmt in ("plain", "json"):
                base = ["chains", *common, "--from", str(k), "--to", str(m), "--format", fmt]
                out += [base, [*base, "--oracle"]]
        out += [["verify", "--seq", spec, "--n", str(n)] for n in (3, 4, 5)]
        out.append(["export-dot", *common])
    out += [
        ["verify", "--seq", "fibonacci", "--n", "4", "--seed", "1"],
        ["table", "--seq", "fibonacci", "--n", "13", "--fn", "zeta"],  # over the n cap
        ["table", "--seq", "fibonacci", "--n", "13", "--fn", "zeta", "--allow-large"],
        ["table", "--seq", "fibonacci", "--n", "-1", "--fn", "zeta"],
        ["table", "--seq", "fibonacci", "--n", "3", "--fn", "nope"],
        ["table", "--seq", "lucas", "--n", "3", "--fn", "zeta"],
        ["table", "--seq", "custom:1,2", "--n", "3", "--fn", "zeta"],
        ["table", "--seq", "constant:0", "--n", "3", "--fn", "zeta"],
        ["chains", "--seq", "fibonacci", "--n", "5", "--from", "4", "--to", "2"],
        ["table", "--seq", "custom:0", "--n", "0", "--fn", "zeta"],
        ["mobius", "--seq", "custom:0", "--n", "0", "--format", "json"],
        ["verify", "--seq", "custom:0", "--n", "0"],
        ["export-dot", "--seq", "custom:0", "--n", "0"],
        ["table", "--seq", "fibonacci", "--n", "8", "--fn", "C", "--power", "31"],
    ]
    return out


def run(argv: list[str]) -> str:
    """One line of the golden file: exit code, sha256 of stdout and of stderr, argv."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors exit 2
            code = exc.code
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (stdout, stderr))
    return " ".join((str(code), *digests, *argv))


def lines() -> list[str]:
    return [run(argv) for argv in invocations()]


if __name__ == "__main__":
    got = lines()
    GOLDEN.write_text("\n".join(got) + "\n")
    print(f"wrote {len(got)} invocations to {GOLDEN}")
