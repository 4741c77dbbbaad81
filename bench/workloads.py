"""The three benchmark workloads: request mixes, execution and output checks.

Every workload is a closed loop of stratified batches.  A batch holds a fixed
number of requests of each size class, so any seed gives a workload of the
same size; the seed only shuffles the order and draws the random parts (the
``--seed`` values of ``verify``, rank and vertex pairs, random tables).

Each request is checked after it returns, outside the timed region, against
a second route through the package that the request itself did not take.
A check returns ``None`` or a ``(category, detail)`` failure.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

import cobweb.cli as cli
import cobweb.incidence as incidence
import cobweb.poset as poset
import cobweb.reduced as reduced
import cobweb.sequences as sequences
from tracer import pairs_of


@dataclass
class Request:
    label: str  # size class; every batch holds a fixed number of each class
    budget_s: float  # a request that runs longer is recorded as a "timeout" failure
    check: str  # name of the output check applied to the result
    argv: list[str] | None = None  # command line, for CLI requests
    params: dict = field(default_factory=dict)


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def call_cli(argv: list[str]) -> CliResult:
    """Run ``cobweb.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


def _number(token: str):
    return Fraction(token) if "/" in token else int(token)


def wrong(detail: str):
    return ("wrong-output", detail)


class Workload:
    name = ""
    mix: list = []  # (count per batch, factory(rng) -> Request)

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.sizes: dict[str, int] = {}
        self._refs: dict = {}
        self._verified: dict = {}

    def setup(self) -> None:
        """Build any long-lived state before the first timed request."""

    def per_batch(self) -> dict[str, int]:
        """Requests of each size class in one batch, by class label."""
        return {make(random.Random(0)).label: count for count, make in self.mix}

    def params(self) -> dict:
        return {"classes": self.per_batch()}

    def batch(self, index: int) -> list[Request]:
        rng = random.Random(f"{self.seed}:batch:{index}")
        reqs = [make(rng) for count, make in self.mix for _ in range(count)]
        rng.shuffle(reqs)
        return reqs

    def prepare(self, req: Request, rng: random.Random):
        """Untimed per-request inputs (random tables)."""
        return None

    def execute(self, req: Request, inputs):
        return call_cli(req.argv)

    def check(self, req: Request, inputs, result):
        return getattr(self, "check_" + req.check)(req, inputs, result)

    def add_size(self, key: str, amount: int) -> None:
        self.sizes[key] = self.sizes.get(key, 0) + amount

    def ref(self, key, build):
        """Reference values computed once per run and shared by all checks."""
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]

    def seq(self, spec: str, n: int):
        return self.ref(("seq", spec, n), lambda: sequences.make_sequence(spec, n))

    def exit_ok(self, result: CliResult, want: int = 0):
        if result.code != want:
            stderr = result.err.strip()[-200:]
            return ("exit-code", f"exit {result.code}, expected {want}: {stderr}")
        return None


# -- verify-sweep -----------------------------------------------------------------


def _verify(spec: str, n: int, count: int, budget_s: float):
    label = f"verify {spec} n={n}"

    def make(rng):
        argv = ["verify", "--seq", spec, "--n", str(n), "--seed", str(rng.randrange(10**6))]
        return Request(label, budget_s, "verify", argv, {"spec": spec, "n": n})

    return (count, make)


def _chains_oracle(spec: str, n: int, gap: int, count: int):
    label = f"chains --oracle {spec} n={n} gap={gap}"

    def make(rng):
        k = rng.randrange(0, n - gap + 1)
        argv = ["chains", "--seq", spec, "--n", str(n), "--from", str(k), "--to", str(k + gap),
                "--oracle"]
        return Request(label, 10.0, "chains_oracle", argv, {"spec": spec, "n": n})

    return (count, make)


def _dot(spec: str, n: int, count: int):
    label = f"export-dot {spec} n={n}"
    argv = ["export-dot", "--seq", spec, "--n", str(n)]
    return (count, lambda rng: Request(label, 10.0, "dot", argv, {"spec": spec, "n": n}))


class VerifySweep(Workload):
    """Every request builds a fresh poset and shares nothing, so materialization,
    the convolution plan, DFS memos and full convolution/inversion are paid cold."""

    name = "verify-sweep"
    mix = [
        _verify("constant:2", 6, 3, 5.0),
        _verify("custom:0,2,3,2,3,2,3,2", 7, 3, 5.0),
        _verify("naturals", 6, 3, 5.0),
        _verify("constant:3", 6, 3, 5.0),
        _verify("fibonacci", 6, 3, 10.0),
        _verify("fibonacci", 7, 3, 30.0),
        _verify("fibonacci", 8, 1, 60.0),
        _chains_oracle("fibonacci", 7, 5, 1),
        _chains_oracle("constant:2", 10, 8, 1),
        _dot("fibonacci", 11, 1),
        _dot("constant:3", 12, 1),
    ]

    def check_verify(self, req, inputs, result):
        seq = self.seq(req.params["spec"], req.params["n"])
        self.add_size("comparable_pairs_built", pairs_of(seq.values))
        self.add_size("output_bytes", len(result.out))
        lines = result.out.splitlines()
        if not lines:
            return wrong("no output")
        bad = [line for line in lines[:-1] if not line.startswith("PASS ")]
        m = re.fullmatch(r"(\d+)/(\d+) checks passed for .*", lines[-1])
        if bad or not m or m.group(1) != m.group(2) or int(m.group(2)) != len(lines) - 1:
            return wrong((bad or [lines[-1]])[0][:200])
        return self.exit_ok(result)

    def check_chains_oracle(self, req, inputs, result):
        seq = self.seq(req.params["spec"], req.params["n"])
        self.add_size("comparable_pairs_built", pairs_of(seq.values))
        self.add_size("output_bytes", len(result.out))
        if "oracle cross-check: OK" not in result.out.splitlines():
            return wrong("oracle cross-check line is not OK")
        return self.exit_ok(result)

    def check_dot(self, req, inputs, result):
        values = self.seq(req.params["spec"], req.params["n"]).values
        self.add_size("comparable_pairs_built", pairs_of(values))
        self.add_size("output_bytes", len(result.out))
        nodes = sum(line.count('";') for line in result.out.splitlines() if "rank=same" in line)
        edges = sum(1 for line in result.out.splitlines() if "->" in line)
        want_edges = sum(a * b for a, b in zip(values, values[1:]))
        if nodes != sum(values) or edges != want_edges:
            return wrong(f"{nodes} nodes, {edges} edges; expected {sum(values)}, {want_edges}")
        return self.exit_ok(result)


# -- rank-tables ----------------------------------------------------------------------


def _table(spec, n, fn, fmt="plain", power=None, conv_power=None, count=1, budget_s=10.0):
    argv = ["table", "--seq", spec, "--n", str(n), "--fn", fn, "--format", fmt, "--allow-large"]
    label = f"table {spec} n={n} {fn} {fmt}"
    if power is not None or conv_power is not None:
        argv += ["--power", str(power or conv_power)]
        label += f" --power {power or conv_power}"
    params = {"spec": spec, "n": n, "fn": fn, "fmt": fmt, "power": power, "conv_power": conv_power}
    return (count, lambda rng: Request(label, budget_s, "table", argv, params))


def _mobius(spec, n, fmt, count=1):
    argv = ["mobius", "--seq", spec, "--n", str(n), "--format", fmt, "--allow-large"]
    params = {"spec": spec, "n": n, "fn": "mobius", "fmt": fmt, "power": None, "conv_power": None}
    return (count, lambda rng: Request(f"mobius {spec} n={n} {fmt}", 10.0, "table", argv, params))


def _chains(spec, n, gap, fmt, count=1, budget_s=20.0):
    label = f"chains {spec} n={n} gap={gap} {fmt}"

    def make(rng):
        k = rng.randrange(0, n - gap + 1)
        argv = ["chains", "--seq", spec, "--n", str(n), "--from", str(k), "--to", str(k + gap),
                "--format", fmt, "--allow-large"]
        return Request(label, budget_s, "chains", argv, {"spec": spec, "n": n, "k": k,
                                                         "to": k + gap, "fmt": fmt})

    return (count, make)


def _probe(label, argv):
    return (1, lambda rng: Request(f"probe {label}", 5.0, "probe", list(argv)))


class RankTables(Workload):
    """Reduced closed forms, reduced power/invert and rendering only.  No poset
    is built, so a change to the full algebra must leave this workload alone."""

    name = "rank-tables"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        missing = os.path.join(root, "bench", "out", f"missing-dir-{seed}", "table.txt")
        self.mix = [
            _table("naturals", 30, "eta_pow", "plain", power=5, count=2, budget_s=20.0),
            _chains("constant:2", 18, 16, "plain", budget_s=30.0),
            _table("naturals", 30, "eta_pow", "csv", power=4, count=2),
            _chains("constant:2", 16, 15, "json", count=2),
            _table("constant:2", 60, "eta_pow", "json", power=3),
            _mobius("naturals", 150, "plain"),
            _mobius("naturals", 100, "json"),
            _mobius("fibonacci", 80, "csv"),
            _chains("fibonacci", 16, 14, "json"),
            _table("fibonacci", 100, "zeta2", "plain"),
            _table("fibonacci", 60, "chi_pow", "json", power=7),
            _table("naturals", 50, "zeta", "plain", conv_power=3),
            _table("naturals", 50, "eta", "csv", conv_power=4),
            _table("constant:3", 40, "chi", "json", conv_power=6),
            _table("fibonacci", 80, "C", "plain"),
            _table("fibonacci", 80, "M", "csv"),
            _table("fibonacci", 120, "delta", "json"),
            _table("naturals", 60, "zeta", "csv"),
            _table("constant:3", 100, "chi", "plain"),
            _table("fibonacci", 40, "eta", "csv"),
            _table("fibonacci", 16, "mobius", "plain"),
            _table("constant:2", 24, "delta", "plain", conv_power=5),
            _probe("unknown --seq", ["table", "--seq", "nosuchseq", "--n", "10", "--fn", "zeta"]),
            _probe("--power 0", ["table", "--seq", "naturals", "--n", "10", "--fn", "zeta",
                                 "--power", "0"]),
            _probe("--from > --to", ["chains", "--seq", "naturals", "--n", "10", "--from", "9",
                                     "--to", "3"]),
            _probe("--out into a missing directory",
                   ["table", "--seq", "naturals", "--n", "10", "--fn", "zeta", "--out", missing]),
        ]

    def reference(self, spec, n, fn, power, conv_power):
        """The table the request should print, by a route the CLI does not take."""
        seq = self.seq(spec, n)
        R = lambda name, **kw: self.ref(("R", spec, n, name, tuple(kw.items())),
                                        lambda: reduced.standard_reduced(name, seq, n, **kw))
        if conv_power is not None:
            if fn == "eta":
                return R("eta_pow", power=conv_power)
            if fn == "chi":
                return R("chi_pow", power=conv_power)
            if fn == "delta":
                return R("delta")
            table = R("zeta2")  # fn == "zeta"
            for _ in range(conv_power - 2):
                table = table.convolve(R("zeta"))
            return table
        mobius_inv = lambda: self.ref(("minv", spec, n), lambda: R("mobius").invert())
        delta = lambda k, m: 1 if k == m else 0
        pointwise = lambda f: reduced.ReducedFunction.from_callable(seq, n, f)
        if fn == "delta":
            return R("zeta").convolve(R("mobius"))
        if fn == "zeta":
            return mobius_inv()
        if fn == "zeta2":
            return R("zeta").convolve(R("zeta"))
        if fn == "eta":
            return pointwise(lambda k, m: mobius_inv().value(k, m) - delta(k, m))
        if fn == "eta_pow":
            return R("eta").power(power)
        if fn == "C":
            return pointwise(lambda k, m: 2 * delta(k, m) - mobius_inv().value(k, m))
        if fn == "chi":
            m_inv = R("M").invert()
            return pointwise(lambda k, m: m_inv.value(k, m) if m == k + 1 else 0)
        if fn == "chi_pow":
            return R("chi").power(power)
        if fn == "M":
            chi = R("chi_pow", power=1)
            return pointwise(lambda k, m: delta(k, m) - chi.value(k, m))
        return R("zeta").invert()  # mobius

    def check_table(self, req, inputs, result):
        p = req.params
        failure = self.exit_ok(result)
        if failure:
            return failure
        self.add_size("output_bytes", len(result.out))
        # an output identical to one already verified for this class passes
        verified = self._verified.get(req.label)
        if verified is not None and verified[0] == result.out:
            self.add_size("rank_pairs_emitted", verified[1])
            return None
        got = parse_table(result.out, p["fmt"])
        self.add_size("rank_pairs_emitted", len(got))
        want = self.reference(p["spec"], p["n"], p["fn"], p["power"], p["conv_power"]).values
        if got != want:
            bad = next((t for t in want if got.get(t) != want[t]), None)
            return wrong(f"{len(got)} cells vs {len(want)}; first mismatch at {bad}")
        self._verified[req.label] = (result.out, len(got))
        return None

    def check_chains(self, req, inputs, result):
        p = req.params
        failure = self.exit_ok(result)
        if failure:
            return failure
        self.add_size("output_bytes", len(result.out))
        self.add_size("rank_pairs_emitted", 1)
        spec, n, k, m = p["spec"], p["n"], p["k"], p["to"]
        seq = self.seq(spec, n)

        def eta_powers():
            eta = reduced.standard_reduced("eta", seq, n)
            table, out = eta, {}
            for s in range(1, n + 1):
                out[s] = table
                table = table.convolve(eta)
            return out

        powers = self.ref(("eta powers", spec, n), eta_powers)
        by_length = {s: powers[s].value(k, m) for s in range(1, m - k + 1)}
        maximal = reduced.standard_reduced("chi_pow", seq, n, power=m - k).value(k, m)
        want = {"all": sum(by_length.values()), "by_length": by_length, "maximal": maximal}
        got = parse_chains(result.out, p["fmt"])
        if got != want:
            return wrong(f"chains {k}->{m}: got {got}, expected {want}"[:300])
        return None

    def check_probe(self, req, inputs, result):
        failure = self.exit_ok(result, want=2)
        if failure:
            return failure
        lines = result.err.splitlines()
        errors = [line for line in lines if ": error: " in line]
        if len(errors) != 1 or lines[-1] != errors[0] or "Traceback" in result.err:
            return ("contract", f"stderr is not one error line: {result.err[-200:]!r}")
        return None


def parse_table(text: str, fmt: str) -> dict:
    """Rank-pair values of a rendered table, keyed (k, n)."""
    values = {}
    lines = text.splitlines()
    if fmt == "csv":
        if lines[0] != "k,n,value":
            raise ValueError("bad csv header")
        for line in lines[1:]:
            k, n, v = line.split(",")
            values[(int(k), int(n))] = _number(v)
    elif fmt == "json":
        for key, v in json.loads(text).items():
            k, n = key.split(",")
            values[(int(k), int(n))] = _number(v) if isinstance(v, str) else v
    else:
        ranks = [int(t) for t in lines[1].split()[1:]]
        for line in lines[2:]:
            tokens = line.split()
            k = int(tokens[0])
            row = [n for n in ranks if n >= k]
            if len(row) != len(tokens) - 1:
                raise ValueError(f"row {k} has {len(tokens) - 1} cells")
            for n, v in zip(row, tokens[1:]):
                values[(k, n)] = _number(v)
    return values


def parse_chains(text: str, fmt: str) -> dict:
    if fmt == "json":
        obj = json.loads(text)
        return {"all": obj["all"], "maximal": obj["maximal"],
                "by_length": {int(s): c for s, c in obj["by_length"].items()}}
    got = {"by_length": {}}
    for line in text.splitlines():
        if line.startswith("all chains: "):
            got["all"] = int(line.split(": ")[1])
        elif line.startswith("maximal chains: "):
            got["maximal"] = int(line.split(": ")[1])
        elif line.startswith("  "):
            s, c = line.split(":")
            got["by_length"][int(s)] = int(c)
    return got


# -- algebra-session ------------------------------------------------------------------


def _op(op: str, count: int, budget_s: float, **params):
    label = " ".join([op] + [f"{k}={v}" for k, v in params.items()])
    return (count, lambda rng: Request(label, budget_s, op, None, dict(params)))


SPOT_PAIRS = 8


class AlgebraSession(Workload):
    """One long-lived poset reused by every request: steady-state convolution,
    inversion, lift/project and warm DFS memos, with the plan built in set-up."""

    name = "algebra-session"
    spec, n = "fibonacci", 9
    mix = [
        _op("invert", 2, 20.0, diagonal="non-unit"),
        _op("invert", 3, 5.0, diagonal="unit"),
        _op("convolve", 4, 5.0),
        _op("power", 1, 5.0, k=2),
        _op("power", 1, 5.0, k=3),
        _op("lift_project", 3, 5.0),
        _op("dfs", 3, 5.0, pairs=20),
    ]

    def params(self) -> dict:
        return {**super().params(), "seq": self.spec, "n": self.n}

    def setup(self) -> None:
        """Build the poset and warm its lazily built state with one convolution."""
        self.sequence = sequences.make_sequence(self.spec, self.n)
        self.poset = poset.build_poset(self.sequence, self.n)
        zeta = incidence.standard_full("zeta", self.poset)
        zeta.convolve(zeta)
        self.pairs = self.poset.comparable_pairs()
        self.strict_pairs = [(x, y) for x, y in self.pairs if x != y]
        self.diagonal = [(x, y) for x, y in self.pairs if x == y]
        self.add_size("comparable_pairs_built", len(self.pairs))

    def _table(self, rng, diagonal=None):
        values = dict(zip(self.pairs, rng.choices(range(-5, 6), k=len(self.pairs))))
        if diagonal is not None:
            choices = (1, -1) if diagonal == "unit" else (2, 3, -2, -3)
            values.update(zip(self.diagonal, rng.choices(choices, k=len(self.diagonal))))
        return incidence.IncidenceFunction(self.poset, values)

    def prepare(self, req, rng):
        """The request's operands, plus the pairs its check will spot."""
        op = req.check
        if op == "dfs":
            return [rng.choice(self.strict_pairs) for _ in range(req.params["pairs"])], None
        if op == "invert":
            operands = (self._table(rng, req.params["diagonal"]),)
        elif op == "convolve":
            operands = (self._table(rng), self._table(rng))
        elif op == "power":
            operands = (self._table(rng),)
        else:  # lift_project
            triangle = reduced.rank_triangle(self.sequence, self.n)
            operands = (reduced.ReducedFunction(
                self.sequence, self.n, {t: rng.randint(-5, 5) for t in triangle}),)
        return operands, rng.sample(self.pairs, SPOT_PAIRS)

    def execute(self, req, inputs):
        operands, _ = inputs
        op = req.check
        if op == "invert":
            return operands[0].invert()
        if op == "convolve":
            return operands[0].convolve(operands[1])
        if op == "power":
            return operands[0].power(req.params["k"])
        if op == "lift_project":
            lifted = operands[0].lift(self.poset)
            return lifted, reduced.project(lifted)
        p = self.poset
        return [
            (p.count_chains(x, y, 2), p.count_multichains(x, y, 3),
             p.count_all_maximal_chains(x, y), p.mobius(x, y))
            for x, y in operands
        ]

    def _segment(self, x, y):
        """[x, y] enumerated from the level lists, not from ``FinitePoset.segment``."""
        if x == y:
            return [x]
        return [x, *(z for s in range(x.s + 1, y.s) for z in self.poset.levels[s]), y]

    def _product(self, f, g, x, y):
        return sum(f(x, z) * g(z, y) for z in self._segment(x, y))

    def _spot(self, spots, want, got):
        for x, y in spots:
            w = want(x, y)
            if got.values[(x, y)] != w:
                return wrong(f"({x},{y}): {got.values[(x, y)]}, segment sum {w}")
        return None

    def check_convolve(self, req, inputs, result):
        (f, g), spots = inputs
        return self._spot(spots, lambda x, y: self._product(f.value, g.value, x, y), result)

    def check_power(self, req, inputs, result):
        (f,), spots = inputs
        square = lambda x, y: self._product(f.value, f.value, x, y)
        want = square if req.params["k"] == 2 else (
            lambda x, y: self._product(square, f.value, x, y))
        return self._spot(spots, want, result)

    def check_invert(self, req, inputs, result):
        """f * inv == delta, with inv scaled by the lcm of its denominators so
        the convolution runs on integers."""
        (f,), _ = inputs
        scale = 1
        for v in result.values.values():
            if isinstance(v, Fraction):
                scale = math.lcm(scale, v.denominator)
        scaled = {pair: int(v * scale) for pair, v in result.values.items()}
        product = f.convolve(incidence.IncidenceFunction(self.poset, scaled))
        for (x, y), v in product.values.items():
            if v != (scale if x == y else 0):
                return wrong(f"(f * inv)({x},{y}) = {Fraction(v, scale)}, delta says {int(x == y)}")
        return None

    def check_lift_project(self, req, inputs, result):
        (table,), spots = inputs
        lifted, back = result
        if back != table:
            return wrong("project(lift(r)) differs from r")
        for x, y in spots:
            if lifted.values[(x, y)] != table.value(x.s, y.s):
                return wrong(f"lift at ({x},{y}) is not r({x.s},{y.s})")
        return None

    def check_dfs(self, req, inputs, result):
        seq, n = self.sequence, self.n
        R = lambda name, **kw: self.ref(("R", name, tuple(kw.items())),
                                        lambda: reduced.standard_reduced(name, seq, n, **kw))
        zeta3 = self.ref("zeta^3", lambda: R("zeta").power(3))
        m_inv = self.ref("M^-1", lambda: R("M").invert())
        for (x, y), got in zip(inputs[0], result):
            k, m = x.s, y.s
            want = (R("eta_pow", power=2).value(k, m), zeta3.value(k, m), m_inv.value(k, m),
                    R("mobius").value(k, m))
            if got != want:
                return wrong(f"({x},{y}): DFS {got}, reduced algebra {want}")
        return None


WORKLOADS = {w.name: w for w in (VerifySweep, RankTables, AlgebraSession)}
