"""The CLI's bytes and exit codes, pinned: every invocation of the golden
matrix in ``golden_cli.py`` against ``golden_cli.txt``."""

from golden_cli import GOLDEN, lines


def test_golden_cli_matrix():
    want = GOLDEN.read_text().splitlines()
    got = lines()
    assert len(got) == len(want)
    changed = [g.split(" ", 3)[3] for g, w in zip(got, want) if g != w]
    assert not changed, f"{len(changed)} invocations changed, first: {changed[:5]}"
