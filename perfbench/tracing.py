"""Spans around certctrl's public functions, recorded from outside the
program, and the per-layer metrics computed from them.

``instrument`` replaces each traced function at every module binding that
holds it (``build_mesh`` is bound in core, cli, evt, danskin and
stability), so a call is traced whichever module makes it.  Spans are kept
in memory as lists ``[name, start, end, parent, job, info, error]``; a
span's self time is its duration minus the part of it that child spans
cover.  Calls run on one thread (the benchmark never passes --workers), so
a single stack gives every span its parent.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, JOB, INFO, ERROR = range(7)


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _mesh_info(args, kwargs, mesh):
    box = _arg(args, kwargs, 0, "box")
    key = (tuple(box.center.tolist()), float(box.side), float(_arg(args, kwargs, 1, "eps")),
           _arg(args, kwargs, 2, "budget"))
    return len(mesh), key


def _matrix_n(args, kwargs):
    a = _arg(args, kwargs, 0, "A")
    return len(getattr(a, "entries", a))


def _blocks_in(args, kwargs, _):
    return sum(len(getattr(gb, "blocks", gb)) for gb in _arg(args, kwargs, 0, "gbs"))


# (module, function) -> info(args, kwargs, result) recorded with the span
TRACED = {
    ("core", "build_mesh"): _mesh_info,
    ("evt", "enumerate_policy_net"): lambda a, k, net: len(net),
    ("evt", "epsilon_minimize"): None,
    ("selector", "simple_approx"): None,
    ("selector", "countable_reduction"): _blocks_in,
    ("selector", "extract_selector"): None,
    ("eigen", "hurwitz_verdict"): lambda a, k, _: _matrix_n(a, k),
    ("eigen", "approx_eigenpairs"): lambda a, k, out: (_matrix_n(a, k), len(out[0])),
    ("danskin", "finite_difference_audit"): None,
    ("danskin", "psi"): None,
    ("danskin", "delta_optimizers"): None,
    ("trajectories", "picard_solve"): lambda a, k, sol: int(sol.grid.size),
    ("trajectories", "sample_hold_trajectory"): None,
    ("stability", "check_sandwich"): None,
    ("stability", "check_decay"): None,
    ("stability", "check_linear_growth"): None,
    ("stability", "clf_feedback"): None,
    ("stability", "find_sampling_time"): None,
}

# methods the selector CLI task uses to check its own selector
LOCATED_CHECK = (("RegularSVF", "located_distance_to"), ("RepresentableDomain", "sample_off_exception"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.evaluator_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, False]
            spans.append(rec)
            stack.append(idx)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[END] = perf_counter()
                rec[ERROR] = True
                stack.pop()
                raise
            rec[END] = perf_counter()
            stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        return traced

    def instrument(self) -> None:
        """Wrap every traced function at each certctrl module binding."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "certctrl" or name.startswith("certctrl."))]
        pkg = sys.modules["certctrl"]
        for (mod, fname), info in TRACED.items():
            orig = getattr(getattr(pkg, mod), fname)
            wrapped = self.wrap(f"{mod}.{fname}", orig, info)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, attr, orig, wrapped))
        for cls, meth in LOCATED_CHECK:
            klass = getattr(pkg.selector, cls)
            orig = getattr(klass, meth)
            self._patches.append((klass, meth, orig, self.wrap("selector.located_check", orig)))
        make = pkg.evt.Functional

        def counted(evaluator, *args, **kwargs):
            def ev(policy):
                self.evaluator_calls += 1
                return evaluator(policy)

            return make(ev, *args, **kwargs)

        self._patches.append((pkg.evt, "Functional", make, counted))
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Install the wrappers, or put the original functions back."""
        for target, attr, orig, wrapped in self._patches:
            setattr(target, attr, wrapped if on else orig)


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _rate(work, seconds) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans, evaluator_calls: int) -> dict[str, float]:
    """Per-layer metrics named as in BENCHMARK.json (without cli.bytes_written
    and the trace.* and oracle.* entries, which the runner adds)."""
    selfs = self_times(spans)
    calls, self_s, incl, errors = defaultdict(int), defaultdict(float), defaultdict(float), defaultdict(int)
    for s, st in zip(spans, selfs):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += st
        incl[s[NAME]] += s[END] - s[START]
        errors[s[NAME]] += s[ERROR]

    nodes = repeats = members = blocks = grid = pairs = node_intervals = 0
    eig_ms = {"n_le_8": [0.0, 0], "n_gt_8": [0.0, 0]}
    eig_dim = eig_missing = 0
    seen = defaultdict(set)
    under_fst = [False] * len(spans)
    for i, s in enumerate(spans):
        name, info, parent = s[NAME], s[INFO], s[PARENT]
        under_fst[i] = name == "stability.find_sampling_time" or (parent >= 0 and under_fst[parent])
        if info is None:
            continue
        if name == "core.build_mesh":
            nodes += info[0]
            repeats += info[1] in seen[s[JOB]]
            seen[s[JOB]].add(info[1])
            if parent >= 0 and spans[parent][NAME] == "stability.check_linear_growth":
                pairs += info[0] ** 2
        elif name == "evt.enumerate_policy_net":
            members += info
        elif name == "selector.countable_reduction":
            blocks += info
        elif name == "trajectories.picard_solve":
            grid += info
            node_intervals += parent >= 0 and under_fst[parent]
        elif name.startswith("eigen."):
            n = info[0] if name == "eigen.approx_eigenpairs" else info
            bucket = eig_ms["n_le_8" if n <= 8 else "n_gt_8"]
            bucket[0] += 1e3 * (s[END] - s[START])
            bucket[1] += 1
            if name == "eigen.approx_eigenpairs":
                eig_dim += n
                eig_missing += n - info[1]

    m = {
        "core.build_mesh.calls": calls["core.build_mesh"],
        "core.build_mesh.nodes": nodes,
        "core.build_mesh.self_s": self_s["core.build_mesh"],
        "core.build_mesh.nodes_per_s": _rate(nodes, self_s["core.build_mesh"]),
        "core.build_mesh.repeat_frac": _rate(repeats, calls["core.build_mesh"]),
        "evt.enumerate_policy_net.members": members,
        "evt.enumerate_policy_net.self_s": self_s["evt.enumerate_policy_net"],
        "evt.enumerate_policy_net.members_per_s": _rate(members, self_s["evt.enumerate_policy_net"]),
        "evt.epsilon_minimize.self_s": self_s["evt.epsilon_minimize"],
        "evt.evaluator.calls": evaluator_calls,
        "evt.eval.members_per_s": _rate(members, self_s["evt.epsilon_minimize"]),
        "selector.simple_approx.self_s": self_s["selector.simple_approx"],
        "selector.countable_reduction.calls": calls["selector.countable_reduction"],
        "selector.countable_reduction.blocks_in": blocks,
        "selector.countable_reduction.self_s": self_s["selector.countable_reduction"],
        "selector.countable_reduction.blocks_per_s": _rate(blocks, self_s["selector.countable_reduction"]),
        "selector.extract_selector.self_s": self_s["selector.extract_selector"],
        "selector.located_check.self_s": self_s["selector.located_check"],
        "eigen.hurwitz_verdict.self_s": self_s["eigen.hurwitz_verdict"],
        "eigen.approx_eigenpairs.self_s": self_s["eigen.approx_eigenpairs"],
        "eigen.enclose_ms.n_le_8": _rate(*eig_ms["n_le_8"]),
        "eigen.enclose_ms.n_gt_8": _rate(*eig_ms["n_gt_8"]),
        "eigen.errors": errors["eigen.hurwitz_verdict"] + errors["eigen.approx_eigenpairs"],
        "eigen.pairs_missing_frac": _rate(eig_missing, eig_dim),
        "danskin.finite_difference_audit.self_s": self_s["danskin.finite_difference_audit"],
        "danskin.psi.calls": calls["danskin.psi"],
        "danskin.psi.self_s": self_s["danskin.psi"],
        "danskin.delta_optimizers.self_s": self_s["danskin.delta_optimizers"],
        "trajectories.picard_solve.calls": calls["trajectories.picard_solve"],
        "trajectories.picard_solve.grid_nodes": grid,
        "trajectories.picard_solve.self_s": self_s["trajectories.picard_solve"],
        "trajectories.picard_solve.grid_nodes_per_s": _rate(grid, self_s["trajectories.picard_solve"]),
        "trajectories.picard_solve.errors": errors["trajectories.picard_solve"],
        "trajectories.sample_hold_trajectory.self_s": self_s["trajectories.sample_hold_trajectory"],
        "stability.check_sandwich.self_s": self_s["stability.check_sandwich"],
        "stability.check_decay.self_s": self_s["stability.check_decay"],
        "stability.check_linear_growth.self_s": self_s["stability.check_linear_growth"],
        "stability.check_linear_growth.pairs_per_s": _rate(pairs, self_s["stability.check_linear_growth"]),
        "stability.clf_feedback.calls": calls["stability.clf_feedback"],
        "stability.clf_feedback.self_s": self_s["stability.clf_feedback"],
        "stability.find_sampling_time.self_s": self_s["stability.find_sampling_time"],
        "stability.find_sampling_time.node_intervals": node_intervals,
        "stability.node_intervals_per_s": _rate(node_intervals, incl["stability.find_sampling_time"]),
        "cli.run.self_s": self_s["cli.run"],
    }
    return m


def layer_self_total(metrics: dict[str, float]) -> float:
    """Sum of every reported self time: the per-layer ones plus cli.run."""
    return sum(v for k, v in metrics.items() if k.endswith(".self_s"))
