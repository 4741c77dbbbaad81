"""Oracle-equivalence checks: every closed form against direct enumeration.

Each check compares one family of algebra results with counts obtained by
walking the explicit poset, and reports the first counterexample when they
disagree.  The negative controls run deliberately wrong variants (endpoint
ranks weighted by their level size, segment sums started one level too low)
and require the enumeration oracle to refute them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .incidence import FULL_NAMES, IncidenceFunction, mobius_closed_form, standard_full
from .poset import FinitePoset, build_poset
from .reduced import (
    ReducedFunction,
    incidence_coefficient,
    project,
    rank_triangle,
    standard_reduced,
)
from .sequences import FSequence


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _ok(name: str, detail: str = "") -> CheckResult:
    return CheckResult(name, True, detail)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, "first counterexample: " + detail)


# -- random tables for law checks -------------------------------------------


def random_incidence_function(p: FinitePoset, rng: random.Random) -> IncidenceFunction:
    """Integer values in [-5, 5] on every comparable pair."""
    return IncidenceFunction._raw(
        p, {pair: rng.randint(-5, 5) for pair in p.comparable_pairs()}
    )


def random_reduced_function(seq: FSequence, max_rank: int, rng: random.Random) -> ReducedFunction:
    """Integer values in [-5, 5] on every rank pair of the triangle."""
    return ReducedFunction(
        seq, max_rank, {t: rng.randint(-5, 5) for t in rank_triangle(seq, max_rank)}
    )


# -- individual checks -------------------------------------------------------


def check_order_axioms(p: FinitePoset) -> CheckResult:
    """Reflexivity, antisymmetry and transitivity of the order relation."""
    name = "order-axioms"
    for v in p.vertices:
        if not p._leq(v, v):
            return _fail(name, f"leq({v},{v}) is false")
    for x in p.vertices:
        for y in p.vertices:
            if p._leq(x, y) and p._leq(y, x) and x != y:
                return _fail(name, f"antisymmetry broken at ({x}, {y})")
    for x, y in p.comparable_pairs():
        for z in p.vertices:
            if p._leq(y, z) and not p._leq(x, z):
                return _fail(name, f"transitivity broken at ({x}, {y}, {z})")
    return _ok(name, f"{len(p.vertices)} vertices checked exhaustively")


def check_structure(p: FinitePoset) -> CheckResult:
    """Hasse edges equal the cover relation; consecutive levels form complete
    bipartite digraphs with F_p * F_{p+1} edges; vertex count is the level sum."""
    name = "structure"
    seq, N = p.seq, p.max_level
    if len(p.vertices) != sum(seq.value_at(s) for s in range(N + 1)):
        return _fail(name, f"vertex count {len(p.vertices)} != level sum")
    derived = {
        (x, y) for x, y in p.comparable_pairs() if x != y and len(p.segment(x, y)) == 2
    }
    if set(p.hasse_edges) != derived:
        extra = set(p.hasse_edges) ^ derived
        return _fail(name, f"hasse edges differ from covers, e.g. {sorted(extra)[0]}")
    for lvl in range(N):
        want = seq.value_at(lvl) * seq.value_at(lvl + 1)
        got = sum(1 for u, w in p.hasse_edges if u.s == lvl)
        if got != want:
            return _fail(name, f"levels ({lvl},{lvl + 1}): {got} edges, expected {want}")
    minimal = [v for v in p.vertices if not any(p._leq(u, v) for u in p.vertices if u != v)]
    if seq.value_at(0) == 1 and minimal != [p.levels[0][0]]:
        return _fail(name, f"expected unique minimum <1,0>, found {minimal}")
    return _ok(name, f"{len(p.hasse_edges)} hasse edges")


def check_segment_cardinality(p: FinitePoset) -> CheckResult:
    """|[x,y]| equals the in-between level sum plus 2 for x < y, and 1 at x = y."""
    name = "segment-cardinality"
    seq = p.seq
    for x, y in p.comparable_pairs():
        size = len(p.segment(x, y))
        if x == y:
            if size != 1:
                return _fail(name, f"|[{x},{x}]| = {size}, expected 1")
        else:
            want = sum(seq.value_at(i) for i in range(x.s + 1, y.s)) + 2
            if size != want:
                return _fail(name, f"|[{x},{y}]| = {size}, expected {want}")
    for level in p.levels:
        for i, x in enumerate(level):
            for y in level[i + 1 :]:
                if p.segment(x, y) or p.segment(y, x):
                    return _fail(name, f"incomparable pair ({x}, {y}) has nonempty segment")
    return _ok(name, f"{len(p.comparable_pairs())} pairs")


def check_chain_counts(p: FinitePoset, k_max: int = 4) -> CheckResult:
    """zeta^k, eta^k and chi^k against DFS multichain/chain/saturated-chain counts."""
    name = "chain-counts"
    zeta = standard_full("zeta", p)
    eta = standard_full("eta", p)
    chi = standard_full("chi", p)
    zk, ek, ck = zeta, eta, chi
    for k in range(1, k_max + 1):
        for x, y in p.comparable_pairs():
            want = p.count_multichains(x, y, k)
            if zk.values[(x, y)] != want:
                return _fail(name, f"zeta^{k}({x},{y}) = {zk.values[(x, y)]}, DFS says {want}")
            want = p.count_chains(x, y, k)
            if ek.values[(x, y)] != want:
                return _fail(name, f"eta^{k}({x},{y}) = {ek.values[(x, y)]}, DFS says {want}")
            want = p.count_maximal_chains(x, y, k)
            if ck.values[(x, y)] != want:
                return _fail(name, f"chi^{k}({x},{y}) = {ck.values[(x, y)]}, DFS says {want}")
            rank_formula = 0
            if y.s - x.s == k:
                rank_formula = 1
                for i in range(x.s + 1, y.s):
                    rank_formula *= p.seq.value_at(i)
            if ck.values[(x, y)] != rank_formula:
                return _fail(
                    name,
                    f"chi^{k}({x},{y}) = {ck.values[(x, y)]}, level product says {rank_formula}",
                )
        if k < k_max:
            zk, ek, ck = zk.convolve(zeta), ek.convolve(eta), ck.convolve(chi)
    return _ok(name, f"powers 1..{k_max} on {len(p.comparable_pairs())} pairs")


def check_inverse_counters(p: FinitePoset) -> CheckResult:
    """C^-1 counts all strict chains, M^-1 all saturated chains (diagonal 1)."""
    name = "inverse-counters"
    c_inv = standard_full("C", p).invert()
    m_inv = standard_full("M", p).invert()
    for x, y in p.comparable_pairs():
        want_c = 1 if x == y else p.count_all_chains(x, y)
        if c_inv.values[(x, y)] != want_c:
            return _fail(name, f"C^-1({x},{y}) = {c_inv.values[(x, y)]}, DFS says {want_c}")
        want_m = 1 if x == y else p.count_all_maximal_chains(x, y)
        if m_inv.values[(x, y)] != want_m:
            return _fail(name, f"M^-1({x},{y}) = {m_inv.values[(x, y)]}, DFS says {want_m}")
    return _ok(name)


def check_mobius_agreement(p: FinitePoset) -> CheckResult:
    """Deletion recursion == invert(zeta) == rank product form == lifted rank table."""
    name = "mobius-agreement"
    by_inversion = standard_full("zeta", p).invert()
    by_formula = mobius_closed_form(p)
    by_rank_table = standard_reduced("mobius", p.seq, p.max_level).lift(p)
    for x, y in p.comparable_pairs():
        values = {
            "recursion": p.mobius(x, y),
            "zeta inverse": by_inversion.values[(x, y)],
            "rank product": by_formula.values[(x, y)],
            "lifted table": by_rank_table.values[(x, y)],
        }
        if len(set(values.values())) != 1:
            return _fail(name, f"({x},{y}): " + ", ".join(f"{k}={v}" for k, v in values.items()))
    return _ok(name, f"{len(p.comparable_pairs())} pairs, four routes")


def _full_counterpart(name: str, p: FinitePoset, s: int | None) -> IncidenceFunction:
    if name == "zeta2":
        return standard_full("zeta", p).power(2)
    if name == "eta_pow":
        return standard_full("eta", p).power(s)
    if name == "chi_pow":
        return standard_full("chi", p).power(s)
    if name == "mobius":
        return standard_full("zeta", p).invert()
    return standard_full(name, p)


def check_reduction_soundness(p: FinitePoset, s_max: int = 4) -> CheckResult:
    """Lifted rank tables equal the full functions; project(lift) is the identity;
    closed-form tables equal reduced convolution powers and inverses."""
    name = "reduction-soundness"
    seq, N = p.seq, p.max_level
    named: list[tuple[str, int | None]] = [(n, None) for n in FULL_NAMES]
    named += [("zeta2", None), ("mobius", None)]
    named += [("eta_pow", s) for s in range(1, s_max + 1)]
    named += [("chi_pow", s) for s in range(1, s_max + 1)]
    for fn_name, s in named:
        table = standard_reduced(fn_name, seq, N, power=s)
        full = _full_counterpart(fn_name, p, s)
        lifted = table.lift(p)
        if lifted != full:
            diff = next(
                pair
                for pair in p.comparable_pairs()
                if lifted.values[pair] != full.values[pair]
            )
            return _fail(
                name,
                f"lift({fn_name}{'' if s is None else f'({s})'}) at {diff}: "
                f"{lifted.values[diff]} vs full {full.values[diff]}",
            )
        if project(lifted) != table:
            return _fail(name, f"project(lift({fn_name})) is not the original table")
    zr = standard_reduced("zeta", seq, N)
    er = standard_reduced("eta", seq, N)
    cr = standard_reduced("chi", seq, N)
    if standard_reduced("zeta2", seq, N) != zr.convolve(zr):
        return _fail(name, "zeta2 closed form != zeta * zeta in the rank algebra")
    for s in range(1, s_max + 1):
        if standard_reduced("eta_pow", seq, N, power=s) != er.power(s):
            return _fail(name, f"eta_pow({s}) closed form != eta^{s}")
        if standard_reduced("chi_pow", seq, N, power=s) != cr.power(s):
            return _fail(name, f"chi_pow({s}) closed form != chi^{s}")
    if standard_reduced("mobius", seq, N) != zr.invert():
        return _fail(name, "mobius closed form != inverse of zeta in the rank algebra")
    if standard_reduced("C", seq, N).invert() != project(standard_full("C", p).invert()):
        return _fail(name, "reduced C inverse != projected full C inverse")
    if standard_reduced("M", seq, N).invert() != project(standard_full("M", p).invert()):
        return _fail(name, "reduced M inverse != projected full M inverse")
    return _ok(name, f"{len(named)} named tables")


def check_homomorphism(p: FinitePoset, samples: int = 30, seed: int = 0) -> CheckResult:
    """project(f * g) == project(f) * project(g) for random rank-dependent f, g."""
    name = "homomorphism"
    rng = random.Random(seed)
    seq, N = p.seq, p.max_level
    for i in range(samples):
        fr = random_reduced_function(seq, N, rng)
        gr = random_reduced_function(seq, N, rng)
        f, g = fr.lift(p), gr.lift(p)
        left = project(f.convolve(g))
        right = project(f).convolve(project(g))
        if left != right:
            t = next(t for t in left.values if left.values[t] != right.values[t])
            return _fail(
                name,
                f"sample {i}, type {t}: projected product {left.values[t]} "
                f"!= reduced product {right.values[t]}",
            )
    return _ok(name, f"{samples} random rank-dependent pairs")


def check_algebra_laws(p: FinitePoset, samples: int = 20, seed: int = 0) -> CheckResult:
    """Associativity and two-sided identity, full and reduced, on random tables."""
    name = "algebra-laws"
    rng = random.Random(seed)
    seq, N = p.seq, p.max_level
    delta = standard_full("delta", p)
    delta_r = standard_reduced("delta", seq, N)
    for i in range(samples):
        f = random_incidence_function(p, rng)
        g = random_incidence_function(p, rng)
        h = random_incidence_function(p, rng)
        if f.convolve(g).convolve(h) != f.convolve(g.convolve(h)):
            return _fail(name, f"sample {i}: full convolution not associative")
        if delta.convolve(f) != f or f.convolve(delta) != f:
            return _fail(name, f"sample {i}: delta is not a two-sided identity")
        fr = random_reduced_function(seq, N, rng)
        gr = random_reduced_function(seq, N, rng)
        hr = random_reduced_function(seq, N, rng)
        if fr.convolve(gr).convolve(hr) != fr.convolve(gr.convolve(hr)):
            return _fail(name, f"sample {i}: reduced convolution not associative")
        if delta_r.convolve(fr) != fr or fr.convolve(delta_r) != fr:
            return _fail(name, f"sample {i}: reduced delta is not a two-sided identity")
    return _ok(name, f"{samples} random triples, full and reduced")


def check_incidence_coefficients(p: FinitePoset) -> CheckResult:
    """Coefficient formula against |{z in [x,y]: rank(z) = l}| on every segment."""
    name = "incidence-coefficients"
    seq, N = p.seq, p.max_level
    for x, y in p.comparable_pairs():
        seg = p.segment(x, y)
        for l in range(seq.min_rank - 1, N + 2):
            want = sum(1 for z in seg if z.s == l)
            got = incidence_coefficient(seq, x.s, y.s, l)
            if got != want:
                return _fail(
                    name,
                    f"coefficient (k={x.s}, n={y.s}, l={l}) = {got}, "
                    f"segment [{x},{y}] holds {want}",
                )
    return _ok(name, "all rank levels of all segments")


def _endpoint_weighted_coefficient(seq: FSequence, k: int, n: int, l: int) -> int:
    # negative control: weights the endpoint ranks by their level sizes too
    if k > n or l < k or l > n:
        return 0
    return seq.value_at(l)


def _segment_size_from_lower_level(seq: FSequence, k: int, n: int) -> int:
    # negative control: starts the in-between sum at the lower endpoint's level
    return sum(seq.value_at(i) for i in range(k, n)) + 2


def check_negative_controls(p: FinitePoset) -> CheckResult:
    """The endpoint-weighted coefficient and the shifted segment-size sum must
    each disagree with enumeration somewhere (when the poset can expose them)."""
    name = "negative-controls"
    seq, N = p.seq, p.max_level
    if not p.comparable_pairs():
        return _ok(name, "no comparable pairs; neither variant can be exposed")
    size_refuted = False
    coeff_refuted = False
    for x, y in p.comparable_pairs():
        seg = p.segment(x, y)
        if _segment_size_from_lower_level(seq, x.s, y.s) != len(seg):
            size_refuted = True
        for l in range(x.s, y.s + 1):
            want = sum(1 for z in seg if z.s == l)
            if _endpoint_weighted_coefficient(seq, x.s, y.s, l) != want:
                coeff_refuted = True
        if size_refuted and coeff_refuted:
            break
    if not size_refuted:
        return _fail(name, "shifted segment-size sum was never refuted")
    exposable = any(seq.value_at(r) > 1 for r in range(seq.min_rank, N + 1))
    if exposable and not coeff_refuted:
        return _fail(name, "endpoint-weighted coefficient was never refuted")
    detail = "both wrong variants refuted" if coeff_refuted else (
        "size variant refuted; coefficient variant undetectable (all levels singleton)"
    )
    return _ok(name, detail)


def run_checks(
    seq: FSequence,
    max_level: int,
    *,
    seed: int = 0,
    homomorphism_samples: int = 30,
    associativity_samples: int = 20,
    k_max: int = 4,
) -> list[CheckResult]:
    """Run the whole suite on one poset instance, in a fixed order."""
    p = build_poset(seq, max_level)
    return [
        check_order_axioms(p),
        check_structure(p),
        check_segment_cardinality(p),
        check_chain_counts(p, k_max=k_max),
        check_inverse_counters(p),
        check_mobius_agreement(p),
        check_incidence_coefficients(p),
        check_reduction_soundness(p, s_max=k_max),
        check_homomorphism(p, samples=homomorphism_samples, seed=seed),
        check_algebra_laws(p, samples=associativity_samples, seed=seed),
        check_negative_controls(p),
    ]
