"""In-memory span tracer installed around the package's public entry points.

Nothing inside the package is edited: each traced public function is replaced
wherever a ``cobweb`` module looks it up, and each traced method is replaced
on its class.  A span holds its name, start, end, parent span and request id.
The layer of a span is the first dotted component of its name, which is the
package module it measures.  Self time is a span's duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("sequences", "poset", "incidence", "reduced", "verify", "cli")

ORACLE_METHODS = (
    "count_chains",
    "count_all_chains",
    "count_maximal_chains",
    "count_all_maximal_chains",
    "count_multichains",
    "mobius",
)


class Tracer:
    """Collects spans while ``enabled``; pass-through otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.request = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._req = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    # -- spans ----------------------------------------------------------------

    def _id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def begin(self, name: str) -> int:
        i = len(self._start)
        self._name.append(self._id(name))
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._req.append(self.request)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    def rename(self, i: int, name: str) -> None:
        self._name[i] = self._id(name)

    def traced(self, fn, name, *, when=None, rename=None, after=None):
        """Wrap ``fn`` so each call while enabled is one span.

        ``name`` is a string or a function of the call's arguments; ``when``
        filters which calls become spans; ``rename`` names the span after its
        result; ``after`` updates counters from the result and arguments.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or (when is not None and not when(*args, **kwargs)):
                return fn(*args, **kwargs)
            i = tracer.begin(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            if rename is not None:
                tracer.rename(i, rename(result))
            if after is not None:
                after(tracer.counters, result, args, kwargs)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def patch_function(self, module, attr: str, name, **kw) -> None:
        """Replace ``module.attr`` in every loaded cobweb module that holds it."""
        fn = getattr(module, attr, None)
        if fn is None:
            return
        wrapper = self.traced(fn, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "cobweb" or mod_name.startswith("cobweb."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name, **kw) -> None:
        fn = cls.__dict__.get(attr)
        if fn is not None:
            setattr(cls, attr, self.traced(fn, name, **kw))

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        import cobweb.cli as cli
        import cobweb.incidence as incidence
        import cobweb.poset as poset
        import cobweb.reduced as reduced
        import cobweb.sequences as sequences
        import cobweb.verify as verify

        self.patch_function(sequences, "make_sequence", "sequences.make_sequence")
        self.patch_function(poset, "build_poset", "poset.build_poset", after=_count_pairs)
        fp = poset.FinitePoset
        # cached accessors become spans only when they build (cache empty)
        self.patch_method(
            fp, "comparable_pairs", "poset.comparable_pairs",
            when=lambda p: getattr(p, "_pairs", None) is None,
        )
        self.patch_method(
            fp, "convolution_plan", "poset.convolution_plan",
            when=lambda p: getattr(p, "_conv_plan", None) is None,
        )
        for attr in ORACLE_METHODS:
            self.patch_method(fp, attr, "poset.oracle")
        self.patch_method(fp, "to_dot", "poset.to_dot")

        inc = incidence.IncidenceFunction
        for attr in ("convolve", "power", "invert"):
            self.patch_method(inc, attr, f"incidence.{attr}")
        self.patch_function(incidence, "standard_full", "incidence.standard_full")

        red = reduced.ReducedFunction
        for attr in ("convolve", "power", "invert", "lift"):
            self.patch_method(red, attr, f"reduced.{attr}")
        self.patch_function(
            reduced, "standard_reduced",
            lambda name, *a, **k: "reduced.standard_reduced"
            + (".eta_pow" if str(name).strip() == "eta_pow" else ""),
        )
        self.patch_function(reduced, "project", "reduced.project")

        self.patch_function(verify, "run_checks", "verify.run_checks")
        for attr in [a for a in vars(verify) if a.startswith("check_")]:
            self.patch_function(
                verify, attr, f"verify.{attr}", rename=lambda r: f"verify.{r.name}"
            )
        self.patch_function(cli, "main", "cli.main")

    # -- results ------------------------------------------------------------------

    def stats(self) -> dict[str, list]:
        """Per span name: [calls, self seconds, total seconds]."""
        n = len(self._start)
        covered = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                covered[p] += self._end[i] - self._start[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            dur = self._end[i] - self._start[i]
            row = out[self.names[self._name[i]]]
            row[0] += 1
            row[1] += dur - covered[i]
            row[2] += dur
        return out

    def span_count(self) -> int:
        return len(self._start)

    def write(self, path) -> None:
        """Write every span as gzipped JSON lines: a names header, then
        ``[name, start, end, parent, request]`` per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self._start)):
                fh.write(
                    f"[{self._name[i]},{self._start[i]:.9f},{self._end[i]:.9f},"
                    f"{self._parent[i]},{self._req[i]}]\n"
                )


def pairs_of(sizes) -> int:
    """Comparable pairs of the cobweb poset with these level sizes."""
    above, pairs = sum(sizes), 0
    for f in sizes:
        above -= f
        pairs += f + f * above
    return pairs


def _count_pairs(counters, result, args, kwargs) -> None:
    counters["poset.pairs_built"] += pairs_of([len(level) for level in result.levels])
