"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps library functions from outside, each where its caller
looks it up: `bfly.engine.build_id` rather than `bfly.lowrank.build_id`,
because the engine imports it by name. A hook whose target no longer exists
is reported as missing; the run goes on without it. Spans are kept in memory
as [name, start, end, parent index, attributes] and written out at the end.

A span's self time is its duration minus the durations of its direct
children. Every `<layer>.<call>_s` metric below is a self time inside the
solve call (chebyshev.eval_s: inside evaluate), so these add up to the traced
solve time; `engine.init_s` and `engine.stage_s.<level>` are inclusive.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _phase_probe(args, kwargs):
    return lambda out: {"points": len(out)}


def _stage_probe(args, kwargs):
    # _translate_local(eng, level, blocks, ledger) and
    # Engine.pre_stage(self, level, blocks, ledger) share these positions.
    level = _arg(args, kwargs, 1, "level")
    ledger = _arg(args, kwargs, 3, "ledger")
    before = ledger.flops
    return lambda out: {
        "level": level,
        "flops": ledger.flops - before,
        "entries": sum(v.size for v in out.values()),
    }


def _id_probe(args, kwargs):
    rows = _arg(args, kwargs, 0, "M").shape[0]
    return lambda out: {"rows": rows, "rank": out.rank}


def _translation_id_probe(args, kwargs):
    rows = len(_arg(args, kwargs, 1, "target_points"))
    return lambda out: {"rows": rows, "rank": out.matrix.shape[0]}


def _sum_scatter_probe(args, kwargs):
    contributions = _arg(args, kwargs, 0, "contributions")
    padded = sum(blk.size for blocks in contributions.values() for blk in blocks)
    return lambda out: {"padded": padded}


@dataclass(frozen=True)
class Hook:
    span: str
    module: str
    owner: Optional[str]  # class inside the module, or None for the module itself
    attr: str
    probe: Optional[Callable] = None


HOOKS = (
    Hook("phases.phase", "bfly.phases", "PhaseEvaluator", "__call__", _phase_probe),
    Hook("phases.kernel_matrix", "bfly.engine", None, "kernel_matrix"),
    Hook("phases.kernel_matrix", "bfly.chebyshev", None, "kernel_matrix"),
    Hook("chebyshev.init", "bfly.chebyshev", None, "init_source_weights"),
    Hook("chebyshev.translate", "bfly.chebyshev", None, "_column_contribution"),
    Hook("chebyshev.translate", "bfly.chebyshev", None, "_row_contribution"),
    Hook("chebyshev.switch", "bfly.chebyshev", None, "middle_switch"),
    Hook("chebyshev.eval", "bfly.chebyshev", None, "evaluate_block"),
    Hook("lowrank.id", "bfly.engine", None, "build_id", _id_probe),
    Hook("lowrank.translation_id", "bfly.engine", None, "build_translation_id", _translation_id_probe),
    Hook("engine.make_engine", "bfly.engine", None, "make_engine"),
    Hook("engine.make_engine", "bfly.parallel", None, "make_engine"),
    Hook("engine.init", "bfly.engine", "ChebEngine", "init_blocks"),
    Hook("engine.init", "bfly.engine", "IdEngine", "init_blocks"),
    Hook("engine.pre_stage", "bfly.engine", "ChebEngine", "pre_stage", _stage_probe),
    Hook("engine.stage", "bfly.engine", None, "_translate_local", _stage_probe),
    Hook("engine.stage", "bfly.parallel", None, "_translate_local", _stage_probe),
    Hook("parallel.sum_scatter", "bfly.parallel", None, "sum_scatter", _sum_scatter_probe),
    Hook("geometry.bin", "bfly.engine", "SourceSet", "bin_by_leaf"),
    Hook("geometry.keys_in_region", "bfly.parallel", None, "keys_in_region"),
)

# Probes read arguments by position and name; a later signature change makes
# them raise one of these, which marks the hook as missing instead of failing.
_PROBE_ERRORS = (AttributeError, IndexError, KeyError, TypeError)


def _hook_label(h: Hook) -> str:
    return ".".join(x for x in (h.module, h.owner, h.attr) if x)


def _resolve(h: Hook):
    try:
        owner = importlib.import_module(h.module)
        if h.owner is not None:
            owner = getattr(owner, h.owner)
        return owner, getattr(owner, h.attr)
    except (ImportError, AttributeError):
        return None


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing = {_hook_label(h) for h in HOOKS if _resolve(h) is None}
        self._open: List[int] = []

    def reset(self) -> None:
        self.spans = []
        self._open = []

    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        recorder = self
        label = _hook_label(hook)

        def traced(*args, **kwargs):
            after = None
            if hook.probe is not None:
                try:
                    after = hook.probe(args, kwargs)
                except _PROBE_ERRORS:
                    recorder.missing.add(label)
            rec = recorder._enter(hook.span)
            try:
                out = fn(*args, **kwargs)
            finally:
                recorder._exit(rec)
            if after is not None:
                try:
                    rec[4] = after(out)
                except _PROBE_ERRORS:
                    recorder.missing.add(label)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every live hook for the duration of the block."""
        undo = []
        try:
            for hook in HOOKS:
                found = _resolve(hook)
                if found is None:
                    continue
                owner, fn = found
                undo.append((owner, hook.attr, fn, hook.attr in vars(owner)))
                setattr(owner, hook.attr, self.wrap(hook, fn))
            yield
        finally:
            for owner, attr, fn, own in reversed(undo):
                if own:
                    setattr(owner, attr, fn)
                else:
                    delattr(owner, attr)


# Per-layer metrics: name -> (unit, better, measured). Measured values are
# timings, taken from the traced repeat with the fastest solve; the rest are
# counts that depend only on the inputs. MAX_LEVELS covers the deepest
# workload (N=1024); stages a workload does not have read 0.
MAX_LEVELS = 10

PER_LAYER: Dict[str, tuple] = {
    "phases.calls": ("count", "lower", False),
    "phases.points": ("count", "lower", False),
    "phases.points_per_call": ("count", "higher", False),
    "phases.s": ("s", "lower", True),
    "phases.kernel_matrix_calls": ("count", "lower", False),
    "phases.kernel_matrix_s": ("s", "lower", True),
    "chebyshev.init_calls": ("count", "lower", False),
    "chebyshev.init_s": ("s", "lower", True),
    "chebyshev.translate_calls": ("count", "lower", False),
    "chebyshev.translate_s": ("s", "lower", True),
    "chebyshev.switch_calls": ("count", "lower", False),
    "chebyshev.switch_s": ("s", "lower", True),
    "chebyshev.eval_s": ("s", "lower", True),
    "lowrank.id_calls": ("count", "lower", False),
    "lowrank.id_s": ("s", "lower", True),
    "lowrank.translation_id_calls": ("count", "lower", False),
    "lowrank.translation_id_s": ("s", "lower", True),
    "lowrank.rows_sampled": ("count", "lower", False),
    "lowrank.rank_max": ("count", "lower", False),
    "engine.init_s": ("s", "lower", True),
    **{f"engine.stage_s.{lv}": ("s", "lower", True) for lv in range(MAX_LEVELS)},
    **{f"engine.stage_flops.{lv}": ("count", "lower", False) for lv in range(MAX_LEVELS)},
    "engine.self_s": ("s", "lower", True),
    "parallel.sum_scatter_calls": ("count", "lower", False),
    "parallel.sum_scatter_s": ("s", "lower", True),
    "parallel.self_s": ("s", "lower", True),
    "parallel.pad_ratio": ("ratio", "higher", False),
    "geometry.bin_s": ("s", "lower", True),
    "geometry.keys_in_region_calls": ("count", "lower", False),
    "geometry.keys_in_region_s": ("s", "lower", True),
    "costs.flops": ("count", "lower", False),
    "costs.flops_max_rank": ("count", "lower", False),
    "costs.messages_max": ("count", "lower", False),
    "costs.entries_sent": ("count", "lower", False),
    "costs.s_per_flop": ("s/flop", "lower", True),
    "trace.solve_s": ("s", "lower", True),
    "trace.overhead": ("ratio", "lower", True),
    "trace.self_sum_ratio": ("ratio", "higher", True),
    "trace.hooks_missing": ("count", "lower", False),
}

# Self times inside the solve call; together they cover its whole duration.
SOLVE_SELF_TIMES = (
    "phases.s",
    "phases.kernel_matrix_s",
    "chebyshev.init_s",
    "chebyshev.translate_s",
    "chebyshev.switch_s",
    "lowrank.id_s",
    "lowrank.translation_id_s",
    "engine.self_s",
    "parallel.sum_scatter_s",
    "parallel.self_s",
    "geometry.bin_s",
    "geometry.keys_in_region_s",
)


@dataclass
class _Tally:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0


def layer_metrics(spans: List[list], solve_root: str, eval_root: str) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat (one solve and one evaluate)."""
    n = len(spans)
    child = [0.0] * n
    root = [0] * n
    for i, (_, start, end, par, _) in enumerate(spans):
        root[i] = i if par < 0 else root[par]
        if par >= 0:
            child[par] += end - start
    solve = [i for i in range(n) if spans[root[i]][0] == solve_root]
    tally: Dict[str, _Tally] = {}
    for i in solve:
        t = tally.setdefault(spans[i][0], _Tally())
        dur = spans[i][2] - spans[i][1]
        t.calls += 1
        t.incl_s += dur
        t.self_s += dur - child[i]

    def calls(name: str) -> int:
        return tally[name].calls if name in tally else 0

    def self_s(prefix: str) -> float:
        return sum(t.self_s for name, t in tally.items() if name == prefix or name.startswith(prefix + "."))

    def attrs(name: str):
        return [spans[i][4] for i in solve if spans[i][0] == name and spans[i][4] is not None]

    m: Dict[str, float] = {}
    points = sum(a["points"] for a in attrs("phases.phase"))
    m["phases.calls"] = calls("phases.phase")
    m["phases.points"] = points
    m["phases.points_per_call"] = points / calls("phases.phase") if calls("phases.phase") else 0.0
    m["phases.s"] = self_s("phases.phase")
    for span in (
        "phases.kernel_matrix",
        "chebyshev.init",
        "chebyshev.translate",
        "chebyshev.switch",
        "lowrank.id",
        "lowrank.translation_id",
        "parallel.sum_scatter",
        "geometry.keys_in_region",
    ):
        m[span + "_calls"] = calls(span)
        m[span + "_s"] = self_s(span)
    m["chebyshev.eval_s"] = sum(
        spans[i][2] - spans[i][1] - child[i]
        for i in range(n)
        if spans[i][0] == "chebyshev.eval" and spans[root[i]][0] == eval_root
    )
    ids = attrs("lowrank.id") + attrs("lowrank.translation_id")
    m["lowrank.rows_sampled"] = sum(a["rows"] for a in ids)
    m["lowrank.rank_max"] = max((a["rank"] for a in ids), default=0)
    m["engine.init_s"] = tally["engine.init"].incl_s if "engine.init" in tally else 0.0

    stage_s = [0.0] * MAX_LEVELS
    stage_flops = [0] * MAX_LEVELS
    true_entries: Dict[int, int] = {}
    padded: Dict[int, int] = {}
    level = None
    for i in solve:
        name, start, end, _, a = spans[i]
        if name in ("engine.stage", "engine.pre_stage") and a is not None:
            stage_s[a["level"]] += end - start
            stage_flops[a["level"]] += a["flops"]
            if name == "engine.stage":
                level = a["level"]
                true_entries[level] = true_entries.get(level, 0) + a["entries"]
        elif name == "parallel.sum_scatter" and a is not None and level is not None:
            padded[level] = padded.get(level, 0) + a["padded"]
    for lv in range(MAX_LEVELS):
        m[f"engine.stage_s.{lv}"] = stage_s[lv]
        m[f"engine.stage_flops.{lv}"] = stage_flops[lv]
    m["engine.self_s"] = self_s("engine")
    m["parallel.self_s"] = self_s("parallel") - m["parallel.sum_scatter_s"]
    # Share of the packed entries that carry data; 1.0 when nothing is packed.
    sent = sum(padded.values())
    m["parallel.pad_ratio"] = sum(true_entries.get(lv, 0) for lv in padded) / sent if sent else 1.0
    m["geometry.bin_s"] = self_s("geometry.bin")

    solve_s = sum(spans[i][2] - spans[i][1] for i in range(n) if spans[i][3] < 0 and spans[i][0] == solve_root)
    m["trace.solve_s"] = solve_s
    m["trace.self_sum_ratio"] = sum(m[k] for k in SOLVE_SELF_TIMES) / solve_s
    return m


def dump(path, spans: List[list]) -> None:
    """Write spans as JSON lines of [name, start, end, parent, attributes]."""
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")
