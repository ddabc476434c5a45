"""Outside-in tracing of slmc: wrap the public functions of every layer.

`Tracer.install()` replaces each public function of each layer module with a
wrapper, rebinding it in every ``slmc`` namespace that imported it, and
patches the public methods of the layer's classes (plus the few operators
that the per-layer metrics name).  A wrapper records one span per call:
name, start, end, parent span and job id, in flat arrays kept in memory.
Spans are recorded only while a job or the input build of a pass runs, so
oracle checks and rendering done by the harness stay out of the layer
numbers.

Self time of a span is its duration minus the durations of its direct
children; calls are strictly nested (one thread), so that equals the time
not covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "graded",
    "algebra",
    "morphism",
    "derham",
    "mpoly",
    "linsolve",
    "groupoid",
    "modelio",
    "caps",
    "properties",
    "cli",
)

# Operators wrapped in addition to the public methods; the per-layer metrics
# name them (WordSum products, MPoly products, PolyForm constructions).
EXTRA_METHODS = {
    ("graded", "WordSum"): ("__mul__",),
    ("mpoly", "MPoly"): ("__mul__",),
    ("derham", "PolyForm"): ("__init__",),
}

# Leaf accessors called millions of times (symbol lookups, zero tests): a
# span each would multiply the tracing overhead and the span store, so they
# are counted but not timed; their time stays in the caller's self time.
COUNT_ONLY = {
    "graded.GradedSpace.index",
    "graded.GradedSpace.degree",
    "graded.GradedSpace.weight",
    "graded.GradedSpace.symbols",
    "graded.Element.is_zero",
    "graded.Element.zero",
}

NO_PARENT = 0xFFFFFFFF
SETUP_SPAN = "bench.setup"  # root span of a pass's input build (job id 0)
JOB_SPAN = "bench.job"  # root span of each job (job ids 1..)
HOOK_SPAN = "bench.tracer"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("I")
        self.job = array("I")
        self._stack: list[int] = []
        self.recording = False
        self.job_id = 0
        self.stats: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._twist_seen: set = set()
        self._undo: list[tuple[object, str, object]] = []
        self._hook_id = self._name_id(HOOK_SPAN)
        self._setup_name = self._name_id(SETUP_SPAN)
        self._job_name = self._name_id(JOB_SPAN)

    # -- span recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t

    def run_job(self, job_id: int, fn, *args):
        """Run one job (job 0: the input build) inside a root span; spans are
        recorded only here."""
        self.job_id = job_id
        self.recording = True
        idx = self._open(self._job_name if job_id else self._setup_name)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.recording = False

    def _hook(self, hook, args, kwargs, result) -> None:
        # Statistic hooks run in their own span so that their cost is not
        # charged to the caller's self time.
        idx = self._open(self._hook_id)
        try:
            hook(self, args, kwargs, result)
        finally:
            self._close(idx)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, span: str):
        nid = self._name_id(span)
        hook = HOOKS.get(span)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the generator's own work is
            # charged to it and not to whoever iterates.
            count_key = f"{span}.yields"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if tracer.recording:
                    tracer._bump(f"{span}.calls")
                while True:
                    if not tracer.recording:
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        yield value
                        continue
                    idx = tracer._open(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except BaseException:
                        tracer._close(idx)
                        raise
                    tracer._close(idx)
                    tracer._bump(count_key)
                    yield value

            return gen_wrapper

        if span in COUNT_ONLY:
            counts = self.counts
            counts[span] = 0

            @functools.wraps(fn)
            def counter(*args, **kwargs):
                if tracer.recording:
                    counts[span] += 1
                return fn(*args, **kwargs)

            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer._hook(hook, args, kwargs, result)
            return result

        return wrapper

    def _bump(self, key: str, by: float = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + by

    def install(self) -> None:
        """Wrap every layer; rebind in all slmc namespaces; patch classes."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"slmc.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._patch_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "slmc" or mod_name.startswith("slmc.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, layer: str, cls) -> None:
        extra = EXTRA_METHODS.get((layer, cls.__name__), ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            span = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, span))
            elif isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(raw.__func__, span))
            elif inspect.isfunction(raw):
                patched = self._wrap(raw, span)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.name)

    def self_times(self) -> tuple[list[float], list[float]]:
        """(duration, self time) for every span."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p != NO_PARENT:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time (0 if COUNT_ONLY)."""
        dur, selft = self.self_times()
        out: dict[str, dict[str, float]] = {}
        names = self.names
        for i, nid in enumerate(self.name):
            row = out.get(names[nid])
            if row is None:
                row = out[names[nid]] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += selft[i]
        for span, calls in self.counts.items():
            if calls:
                out[span] = {"calls": calls, "total_s": 0.0, "self_s": 0.0}
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        nid = self._ids.get(name)
        aid = self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        count = 0
        for i, n in enumerate(self.name):
            if n != nid:
                continue
            p = self.parent[i]
            while p != NO_PARENT:
                if self.name[p] == aid:
                    count += 1
                    break
                p = self.parent[p]
        return count

    def write(self, directory: Path, stem: str) -> Path:
        """Write all spans once: a JSON header plus one binary file per column."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "job": self.job,
        }
        header = {
            "names": self.names,
            "no_parent": NO_PARENT,
            "columns": {k: {"file": f"{stem}.{k}.bin", "typecode": v.typecode} for k, v in columns.items()},
            "spans": len(self.name),
        }
        for key, col in columns.items():
            with open(directory / f"{stem}.{key}.bin", "wb") as fh:
                col.tofile(fh)
        path = directory / f"{stem}.json"
        path.write_text(json.dumps(header, indent=1) + "\n")
        return path


# -- statistic hooks ---------------------------------------------------------


def _multinomial(sizes) -> int:
    total = math.factorial(sum(sizes))
    for p in sizes:
        total //= math.factorial(p)
    return total


def _stairway(tracer: Tracer, args, kwargs, result) -> None:
    tracer._bump("graded.stairway_shuffles.kept", len(result))
    tracer._bump("graded.stairway_shuffles.generated", _multinomial([int(p) for p in args]))


def _shuffles(tracer: Tracer, args, kwargs, result) -> None:
    tracer._bump("graded.shuffles.perms", len(result))


def _element_key(e) -> tuple:
    value = getattr(e, "value", e)
    return tuple(sorted(value.terms.items()))


def _twist(tracer: Tracer, args, kwargs, result) -> None:
    alg = args[0]
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    tables = tuple(
        sorted(
            (m, word, _element_key(value))
            for m, table in alg.brackets.items()
            for word, value in table.items()
        )
    )
    key = (alg.space.basis, alg.nilpotency, tables, _element_key(alpha))
    if key in tracer._twist_seen:
        tracer._bump("algebra.twist_algebra.repeats")
    else:
        tracer._twist_seen.add(key)


def _solve_linear(tracer: Tracer, args, kwargs, result) -> None:
    rows = args[0]
    n_vars = args[2] if len(args) > 2 else kwargs["n_vars"]
    tracer._bump("linsolve.solve_linear.cells", len(rows) * (n_vars + 1))
    if result is None:
        tracer._bump("linsolve.solve_linear.inconsistent")


def _is_obstruction(result) -> bool:
    return type(result).__name__ == "Obstruction"


def _fill_horn(tracer: Tracer, args, kwargs, result) -> None:
    if _is_obstruction(result):
        tracer._bump("groupoid.fill_horn.obstructed")


def _connect_points(tracer: Tracer, args, kwargs, result) -> None:
    if not _is_obstruction(result):
        tracer._bump("groupoid.connect_points.found")


HOOKS = {
    "graded.stairway_shuffles": _stairway,
    "graded.shuffles": _shuffles,
    "algebra.twist_algebra": _twist,
    "linsolve.solve_linear": _solve_linear,
    "groupoid.fill_horn": _fill_horn,
    "groupoid.connect_points": _connect_points,
}


# -- per-layer metrics -------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, per traced pass."""
    agg = tracer.aggregate()
    stats = tracer.stats

    def calls(span: str) -> float:
        return agg.get(span, {}).get("calls", 0) / passes

    def self_s(*spans: str) -> float:
        return sum(agg.get(s, {}).get("self_s", 0.0) for s in spans) / passes

    def stat(key: str) -> float:
        return stats.get(key, 0) / passes

    m: dict[str, tuple[float, str]] = {}

    def count(name: str, value: float) -> None:
        m[name] = (value, "count")

    def secs(name: str, value: float) -> None:
        m[name] = (value, "s")

    def ratio(name: str, value: float) -> None:
        m[name] = (value, "ratio")

    # Plain calls/self_s pairs, named <module>.<function>.
    for span in (
        "graded.stairway_shuffles",
        "graded.shuffles",
        "morphism.extend_to_coalgebra",
        "graded.canonical_word",
        "graded.koszul_sign",
        "graded.exp_element",
        "algebra.eval_bracket",
        "algebra.check_relations",
        "algebra.curvature",
        "algebra.twist_algebra",
        "caps.get_caps",
        "linsolve.solve_linear",
        "groupoid.tensor_curvature",
        "groupoid.fill_horn",
        "groupoid.connect_points",
        "modelio.parse_model",
    ):
        count(f"{span}.calls", calls(span))
        secs(f"{span}.self_s", self_s(span))
    for metric, span in (
        ("graded.WordSum_mul", "graded.WordSum.__mul__"),
        ("derham.PolyForm_wedge", "derham.PolyForm.wedge"),
        ("mpoly.MPoly_mul", "mpoly.MPoly.__mul__"),
        ("mpoly.MPoly_evaluate", "mpoly.MPoly.evaluate"),
    ):
        count(f"{metric}.calls", calls(span))
        secs(f"{metric}.self_s", self_s(span))
    for span in (
        "groupoid.mc_system",
        "morphism.compose_infty",
        "morphism.check_morphism",
        "morphism.pushforward",
        "morphism.twist_morphism",
        "cli.main",
        "properties.run_suite",
    ):
        secs(f"{span}.self_s", self_s(span))

    ratio(
        "graded.stairway_shuffles.kept_ratio",
        _ratio(stats.get("graded.stairway_shuffles.kept", 0), stats.get("graded.stairway_shuffles.generated", 0)),
    )
    count("graded.shuffles.perms", stat("graded.shuffles.perms"))
    count("graded.iter_words.words", stat("graded.iter_words.yields"))
    secs("graded.iter_words.self_s", self_s("graded.iter_words"))
    twists = agg.get("algebra.twist_algebra", {}).get("calls", 0)
    ratio("algebra.twist_algebra.repeat_ratio", _ratio(stats.get("algebra.twist_algebra.repeats", 0), twists))
    count("derham.PolyForm.calls", calls("derham.PolyForm.__init__"))
    secs("derham.PolyForm_face_degeneracy.self_s", self_s("derham.PolyForm.face", "derham.PolyForm.degeneracy"))
    count("mpoly.MPoly_partial.calls", calls("mpoly.MPoly.partial"))
    count("linsolve.solve_linear.cells", stat("linsolve.solve_linear.cells"))
    solves = agg.get("linsolve.solve_linear", {}).get("calls", 0)
    ratio("linsolve.solve_linear.inconsistent_ratio", _ratio(stats.get("linsolve.solve_linear.inconsistent", 0), solves))
    horns = agg.get("groupoid.fill_horn", {}).get("calls", 0)
    ratio("groupoid.fill_horn.obstructed_ratio", _ratio(stats.get("groupoid.fill_horn.obstructed", 0), horns))
    connects = agg.get("groupoid.connect_points", {}).get("calls", 0)
    ratio("groupoid.connect_points.found_ratio", _ratio(stats.get("groupoid.connect_points.found", 0), connects))
    m["groupoid.connect_points.solves_per_call"] = (
        _ratio(tracer.calls_under("linsolve.solve_linear", "groupoid.connect_points"), connects),
        "count",
    )
    secs("modelio.render.self_s", self_s(*(s for s in agg if s.startswith("modelio.render"))))

    # Layer totals: every wrapped span of the module, and the harness glue.
    for layer in LAYERS:
        spans = [s for s in agg if s.startswith(f"{layer}.")]
        count(f"{layer}.layer.calls", sum(agg[s]["calls"] for s in spans) / passes)
        secs(f"{layer}.layer.self_s", self_s(*spans))
    secs("bench.setup.self_s", self_s(SETUP_SPAN))
    secs("bench.job.self_s", self_s(JOB_SPAN))
    secs("bench.tracer.self_s", self_s(HOOK_SPAN))
    count("bench.spans", tracer.span_count() / passes)
    return m
