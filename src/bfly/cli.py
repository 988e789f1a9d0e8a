"""Command-line front-end: `bfly verify` and `bfly scale`.

verify builds a random (or file-provided) source set, runs the simulated
parallel butterfly at the given process count (p = 1 is the sequential
schedule), and reports the relative sup-norm error against direct summation
together with ledger totals. scale repeats the simulated parallel run over
a list of process counts on the same sources, draws no targets, and emits
one cost row per count. Configuration
comes from defaults, then an optional key=value file, then flags, each
layer overriding the last. Outputs are deterministic for a fixed config
and seed: CSV floats use 17 significant digits and JSON keys are sorted.

Exit codes: 0 success, 1 error above threshold, 2 usage or input error
(including a file that is not UTF-8, an error that is not finite, a cheb
problem whose one level of weights and 1-D child matrices would not fit in
the machine's memory, and a source count, or verify's target count, whose
points would not).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from numpy.random import PCG64, Generator

from .costs import CostParams
from .engine import AllZeroReferenceError, SourceSet, direct_apply, rel_sup_error
from .parallel import ParallelResult, ledger_report, simulate_parallel
from .phases import REGISTRY

# every key of a config file and flag (--id-limit for id_limit): its raw
# default, None where it is required or depends on the backend, and its help
_KEYS: Dict[str, Tuple[Optional[str], str]] = {
    "dim": (None, "spatial dimension d (required)"),
    "log2n": (None, "log2 of boxes per dimension (required)"),
    "q": (None, "cheb points per dimension, or id tolerance in (0,1)"),
    "phase": ("fourier", "phase name, one of: {phases}"),
    "backend": ("cheb", "cheb or id"),
    "procs": ("1", "process count (verify) or comma list (scale)"),
    "alpha": ("1e-6", "per-message latency, seconds"),
    "beta": ("1e-9", "per-entry bandwidth cost, seconds"),
    "gamma": ("1e-10", "per-flop cost, seconds"),
    "seed": ("0", "PRNG seed (PCG64)"),
    "sources": ("256", "random source count, or CSV path (y0..y{d-1},re,im)"),
    "targets": ("100", "random evaluation point count"),
    "output": ("-", "output path, '-' for stdout"),
    "format": ("csv", "csv or json"),
    "threshold": ("1e-3", "verify exits 1 when error exceeds this"),
    "id_limit": ("4096", "largest N^d allowed for the id backend"),
}


class UsageError(Exception):
    """Configuration or input problem; maps to exit code 2."""


def _physical_memory_bytes() -> int:
    """The machine's physical memory, or the largest array size where
    os.sysconf cannot tell."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return sys.maxsize
    return pages * size if pages > 0 and size > 0 else sys.maxsize


@dataclass(frozen=True)
class RunConfig:
    dim: int
    log2n: int
    q: Union[int, float]  # points per dimension (cheb) or tolerance (id)
    phase: str
    backend: str
    procs: Tuple[int, ...]
    alpha: float
    beta: float
    gamma: float
    seed: int
    sources: Union[int, str]
    targets: int
    output: str
    format: str
    threshold: float
    id_limit: int


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise UsageError(f"invalid value for {key}: {raw!r} (expected integer)")


def _to_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"invalid value for {key}: {raw!r} (expected number)")
    if not math.isfinite(value):
        raise UsageError(f"invalid value for {key}: {raw!r} (expected a finite number)")
    return value


def _read_config_file(path: str) -> Dict[str, str]:
    """key=value lines; `#` starts a comment; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    out: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
        key, value = body.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key=value config file")
    phases = ", ".join(sorted(REGISTRY))
    for key, (_, text) in _KEYS.items():
        common.add_argument("--" + key.replace("_", "-"), dest=key, help=text.replace("{phases}", phases))
    parser = argparse.ArgumentParser(prog="bfly", description="butterfly evaluation of oscillatory sums")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common], help="compare against direct summation")
    sub.add_parser("scale", parents=[common], help="cost ledgers over a list of process counts")
    return parser


def parse_config(argv: Optional[List[str]] = None) -> Tuple[RunConfig, str]:
    """Merge defaults, config file, and flags into a validated RunConfig."""
    args = _build_parser().parse_args(argv)
    merged: Dict[str, str] = {k: v for k, (v, _) in _KEYS.items() if v is not None}
    if args.config is not None:
        merged.update(_read_config_file(args.config))
    merged.update((k, v) for k, v in vars(args).items() if k in _KEYS and v is not None)

    for required in ("dim", "log2n"):
        if required not in merged:
            raise UsageError(f"missing required key: {required}")
    dim = _to_int("dim", merged["dim"])
    if dim not in (1, 2, 3):
        raise UsageError(f"dim must be 1, 2 or 3, got {dim}")
    log2n = _to_int("log2n", merged["log2n"])
    if log2n < 0:
        raise UsageError("log2n must be a nonnegative integer")
    N = 1 << log2n

    phase_name = merged["phase"]
    if phase_name not in REGISTRY:
        raise UsageError(f"unknown phase {phase_name!r}; known: {', '.join(sorted(REGISTRY))}")
    phase_dim = REGISTRY[phase_name].dim
    if phase_dim is not None and phase_dim != dim:
        raise UsageError(f"phase {phase_name!r} requires dim={phase_dim}, got dim={dim}")

    backend = merged["backend"]
    if backend not in ("cheb", "id"):
        raise UsageError(f"invalid value for backend: {merged['backend']!r} (expected cheb or id)")
    id_limit = _to_int("id_limit", merged["id_limit"])
    if id_limit < 1:
        raise UsageError("id_limit must be a positive integer")

    q: Union[int, float]
    if "q" in merged:
        q_raw = _to_float("q", merged["q"])
        if backend == "cheb":
            if q_raw < 2 or q_raw != int(q_raw):
                raise UsageError("q must be an integer >= 2 for the cheb backend")
            q = int(q_raw)
        else:
            if not (0.0 < q_raw < 1.0):
                raise UsageError("q is the id tolerance and must lie strictly in (0, 1)")
            q = q_raw
    else:
        q = 8 if backend == "cheb" else 1e-7
    if backend == "id" and N**dim > id_limit:
        raise UsageError(f"id backend is gated to N^d <= {id_limit}; got N^d = 2^{dim * log2n}")
    memory = _physical_memory_bytes()
    if backend == "cheb":
        # one level of weights, 2^d N^d q^d complex entries, and the (2, q, q)
        # real 1-D child matrices; a solve holds both and at least two
        # levels, so a problem whose level and matrices pass the memory
        # cannot run
        need = 16 * (2 * N * int(q)) ** dim + 16 * int(q) ** 2
        if need > memory:
            raise UsageError(
                f"cheb backend at dim={dim}, log2n={log2n}, q={merged.get('q', q)}: one level of weights and"
                f" the 1-D child matrices take at least 2^{need.bit_length() - 1} bytes, past the"
                f" {memory / 2**30:.1f} GiB of physical memory"
            )

    procs_raw = merged["procs"]
    procs: List[int] = []
    for token in procs_raw.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"invalid value for procs: {procs_raw!r}")
        p = _to_int("procs", token)
        if p < 1 or (p & (p - 1)) != 0:
            raise UsageError(f"procs must be powers of two, got {p}")
        if p > N**dim:
            raise UsageError(f"procs={p} exceeds the pair count N^d={N**dim}")
        procs.append(p)
    if args.command == "verify" and len(procs) != 1:
        raise UsageError("verify takes a single process count")

    alpha = _to_float("alpha", merged["alpha"])
    beta = _to_float("beta", merged["beta"])
    gamma = _to_float("gamma", merged["gamma"])
    if min(alpha, beta, gamma) < 0:
        raise UsageError("alpha, beta, gamma must be nonnegative")
    threshold = _to_float("threshold", merged["threshold"])
    if threshold <= 0:
        raise UsageError("threshold must be positive")
    seed = _to_int("seed", merged["seed"])
    if not (0 <= seed < 2**64):
        raise UsageError("seed must fit in 64 bits")
    targets = _to_int("targets", merged["targets"])
    if targets < 0:
        raise UsageError("targets must be nonnegative")
    # a count, or else a path: isdigit() takes superscripts, which int() does not
    src_raw = merged["sources"]
    sources: Union[int, str] = int(src_raw) if src_raw.removeprefix("+").isdecimal() else src_raw
    # the drawn points alone, 8 bytes a coordinate and 16 a strength
    drawn = [("sources", sources, 8 * dim + 16)]
    if args.command == "verify":  # scale draws no targets
        drawn.append(("targets", targets, 8 * dim))
    for key, count, each in drawn:
        if isinstance(count, int) and count * each > memory:
            raise UsageError(
                f"{key}={count}: the drawn points take at least {count * each} bytes, past the"
                f" {memory / 2**30:.1f} GiB of physical memory"
            )
    fmt = merged["format"]
    if fmt not in ("csv", "json"):
        raise UsageError(f"invalid value for format: {fmt!r} (expected csv or json)")

    cfg = RunConfig(
        dim=dim, log2n=log2n, q=q, phase=phase_name, backend=backend,
        procs=tuple(procs), alpha=alpha, beta=beta, gamma=gamma, seed=seed,
        sources=sources, targets=targets, output=merged["output"], format=fmt,
        threshold=threshold, id_limit=id_limit,
    )
    return cfg, args.command


def _load_source_file(path: str, dim: int) -> SourceSet:
    expected = [f"y{k}" for k in range(dim)] + ["re", "im"]
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read sources file {path}: {exc}")
    if not rows or [c.strip() for c in rows[0]] != expected:
        raise UsageError(f"sources file {path} must start with header {','.join(expected)}")
    positions = np.zeros((len(rows) - 1, dim))
    strengths = np.zeros(len(rows) - 1, dtype=complex)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != dim + 2:
            raise UsageError(f"{path}:{i}: expected {dim + 2} columns")
        try:
            vals = [float(c) for c in row]
        except ValueError:
            raise UsageError(f"{path}:{i}: non-numeric entry")
        positions[i - 2] = vals[:dim]
        strengths[i - 2] = complex(vals[dim], vals[dim + 1])
    try:
        return SourceSet(positions, strengths)
    except ValueError as exc:
        raise UsageError(f"sources file {path}: {exc}")


def _draw_sources(cfg: RunConfig) -> Tuple[SourceSet, Generator]:
    """The run's sources, read from its file or drawn as positions, then
    strengths; and the generator, left where verify draws its targets."""
    rng = Generator(PCG64(cfg.seed))
    if isinstance(cfg.sources, str):
        return _load_source_file(cfg.sources, cfg.dim), rng
    n = cfg.sources
    positions = rng.uniform(size=(n, cfg.dim))
    radii = np.sqrt(rng.uniform(size=n))
    angles = rng.uniform(size=n)
    return SourceSet(positions, radii * np.exp(2j * np.pi * angles)), rng


def _draw_inputs(cfg: RunConfig) -> Tuple[SourceSet, np.ndarray]:
    """Fixed draw order: positions, then strengths, then targets."""
    src, rng = _draw_sources(cfg)
    return src, rng.uniform(size=(cfg.targets, cfg.dim))


def _engine_kwargs(cfg: RunConfig) -> dict:
    if cfg.backend == "cheb":
        return {"q": int(cfg.q), "backend": "cheb"}
    return {"backend": "id", "tol": float(cfg.q)}


def _solve(cfg: RunConfig, src: SourceSet, p: int) -> Tuple[ParallelResult, List[dict]]:
    """The run's simulate_parallel at p, and its per-rank ledger rows."""
    params = CostParams(cfg.alpha, cfg.beta, cfg.gamma)
    res = simulate_parallel(src, REGISTRY[cfg.phase], 1 << cfg.log2n, p=p, params=params, **_engine_kwargs(cfg))
    return res, ledger_report(res.ledgers)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _emit(cfg: RunConfig, header: List[str], rows: List[List], doc: dict) -> str:
    """The CSV of header and rows, or the JSON of doc and the config."""
    if cfg.format == "csv":
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    return json.dumps({"config": dataclasses.asdict(cfg), **doc}, sort_keys=True, indent=2) + "\n"


def cmd_verify(cfg: RunConfig) -> Tuple[str, int]:
    src, tgts = _draw_inputs(cfg)
    res, rows = _solve(cfg, src, cfg.procs[0])
    if src.count == 0 or cfg.targets == 0:
        reason = "no sources" if src.count == 0 else "no targets"
        print(f"warning: {reason}; error reported as 0 by convention", file=sys.stderr)
        error = 0.0
    else:
        try:
            error = rel_sup_error(res.field.evaluate(tgts), direct_apply(src, REGISTRY[cfg.phase], tgts))
        except AllZeroReferenceError:
            print("warning: reference sum is identically zero; error reported as 0 by convention", file=sys.stderr)
            error = 0.0
        if not math.isfinite(error):
            raise UsageError(f"the relative error is {error}, not a finite number: the sums overflow")

    total = res.field.ledger  # every rank's costs summed (parallel.RankCosts.total)
    modeled = max(r["modeled_seconds"] for r in rows)
    text = _emit(
        cfg, ["error", "flops", "messages", "entries_sent", "modeled_seconds"],
        [[error, total.flops, total.messages, total.entries_sent, modeled]],
        {"error": error, "ledger": rows, "modeled_seconds": modeled},
    )
    return text, 0 if error <= cfg.threshold else 1


def cmd_scale(cfg: RunConfig) -> Tuple[str, int]:
    src, _ = _draw_sources(cfg)
    header = ["p", "flops_max", "messages_max", "entries_max", "modeled_seconds"]
    rows = []
    for p in cfg.procs:
        _, rep = _solve(cfg, src, p)
        rows.append([p] + [max(r[k] for r in rep) for k in ("flops", "messages", "entries_sent", "modeled_seconds")])
    return _emit(cfg, header, rows, {"rows": [dict(zip(header, row)) for row in rows]}), 0


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output {path}: {exc}")


def main(argv: Optional[List[str]] = None) -> int:
    try:
        cfg, command = parse_config(argv)
        # sums that overflow end in cmd_verify's non-finite error, not in warnings
        with np.errstate(over="ignore", invalid="ignore"):
            text, code = cmd_verify(cfg) if command == "verify" else cmd_scale(cfg)
        _write_output(cfg.output, text)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help or usage failure
        return int(exc.code) if exc.code is not None else 0


if __name__ == "__main__":
    sys.exit(main())
