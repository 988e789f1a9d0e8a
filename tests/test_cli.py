"""Command-line behavior: config layering, validation, output formats,
exit codes, and byte-level determinism."""

from __future__ import annotations

import functools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import bfly
import bfly.cli
import bfly.engine
from bfly.cli import main
from bfly.parallel import simulate_parallel
from bfly.phases import PhaseEvaluator

BASE = ["--dim", "1", "--log2n", "2", "--sources", "32", "--targets", "10"]


def run_to_file(tmp_path, args, name="out.txt"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


# ---------------------------------------------------------------------------
# configuration layering and validation
# ---------------------------------------------------------------------------


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 4  # interpolation points\nseed=5\n")
    code, text = run_to_file(
        tmp_path, ["verify", "--config", str(cfg), "--q", "8", "--format", "json"] + BASE
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["config"]["q"] == 8  # flag wins
    assert doc["config"]["seed"] == 5  # file beats default


def test_config_file_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# full line comment\n\nphase=fourier\n  targets = 7 # trailing\n")
    code, text = run_to_file(tmp_path, ["verify", "--config", str(cfg), "--format", "json"] + BASE[:4] + ["--sources", "16"])
    assert code == 0
    assert json.loads(text)["config"]["targets"] == 7


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=1\nwavelets=3\n")
    assert main(["verify", "--config", str(cfg), "--log2n", "2"]) == 2
    err = capsys.readouterr().err
    assert "wavelets" in err and ":2" in err


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a phrase\n")
    assert main(["verify", "--config", str(cfg)] + BASE) == 2
    assert "key=value" in capsys.readouterr().err


def test_missing_required_keys(capsys):
    assert main(["verify", "--log2n", "2"]) == 2
    assert "dim" in capsys.readouterr().err
    assert main(["verify", "--dim", "1"]) == 2
    assert "log2n" in capsys.readouterr().err


def test_bad_values_name_the_key(capsys):
    assert main(["verify", "--dim", "one", "--log2n", "2"]) == 2
    assert "dim" in capsys.readouterr().err
    assert main(["verify", "--dim", "1", "--log2n", "2", "--threshold", "0"]) == 2
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "scale"])
def test_counts_past_the_memory_are_usage_errors(monkeypatch, capsys, command):
    # rejected at the parse step, against a machine of 1 MiB: a drawn 1-D
    # target takes 8 bytes, a source 24; --targets 1000000000000 used to
    # end in a traceback, unable to allocate 7.28 TiB. scale draws no
    # targets, so it takes a count of them past the memory and draws none
    def never_run(cfg):
        raise AssertionError(f"a run of {cfg.sources} sources and {cfg.targets} targets was started")

    sizes = []  # of every uniform draw

    class Recorded(np.random.Generator):
        def uniform(self, *args, size=None, **kwargs):
            sizes.append(size)
            return super().uniform(*args, size=size, **kwargs)

    monkeypatch.setattr(bfly.cli, "_physical_memory_bytes", lambda: 1 << 20)
    args = [command, "--dim", "1", "--log2n", "2"]
    for key, fits in (("targets", 1 << 17), ("sources", (1 << 20) // 24)):
        cfg, _ = bfly.cli.parse_config(args + [f"--{key}", str(fits)])
        assert getattr(cfg, key) == fits
        if (command, key) == ("scale", "targets"):
            assert main(args) == 0
            want = capsys.readouterr().out
            with monkeypatch.context() as m:
                m.setattr(bfly.cli, "Generator", Recorded)
                assert main(args + [f"--{key}", str(fits + 1)]) == 0
            assert capsys.readouterr().out == want
            assert sizes == [(256, 1), 256, 256]  # the sources' positions, radii and angles
            continue
        with monkeypatch.context() as m:
            m.setattr(bfly.cli, "cmd_verify", never_run)
            m.setattr(bfly.cli, "cmd_scale", never_run)
            assert main(args + [f"--{key}", str(fits + 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}={fits + 1}: the drawn points take at least"), err
        assert err.endswith("past the 0.0 GiB of physical memory\n"), err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("key", ["q", "alpha", "beta", "gamma", "threshold"])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, key, raw, via):
    # they must never reach the run: int(nan) raised a traceback, a nan
    # alpha printed nan seconds, and a nan threshold read as "error above"
    if via == "flag":
        extra = [f"--{key}={raw}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        extra = ["--config", str(cfg)]
    assert main(["verify", "--dim", "1", "--log2n", "3"] + extra) == 2
    err = capsys.readouterr().err
    assert f"invalid value for {key}" in err and "finite" in err


def test_procs_validation(capsys):
    assert main(["verify"] + BASE + ["--procs", "3"]) == 2
    assert "powers of two" in capsys.readouterr().err
    assert main(["verify"] + BASE + ["--procs", "64"]) == 2
    assert "exceeds" in capsys.readouterr().err
    assert main(["verify"] + BASE + ["--procs", "1,2"]) == 2
    assert "single process count" in capsys.readouterr().err


def test_phase_validation(capsys):
    assert main(["verify"] + BASE + ["--phase", "unknown"]) == 2
    assert "unknown" in capsys.readouterr().err
    assert main(["verify"] + BASE + ["--phase", "hyp-radon"]) == 2
    assert "dim" in capsys.readouterr().err


def test_q_validation_per_backend(capsys):
    assert main(["verify"] + BASE + ["--q", "1"]) == 2
    assert main(["verify"] + BASE + ["--q", "4.5"]) == 2
    assert main(["verify"] + BASE + ["--backend", "id", "--q", "8"]) == 2
    assert "(0, 1)" in capsys.readouterr().err
    assert main(["verify"] + BASE + ["--backend", "nope"]) == 2


def test_id_backend_gate(capsys):
    args = ["verify", "--dim", "1", "--log2n", "13", "--backend", "id"]
    assert main(args) == 2
    assert "id backend" in capsys.readouterr().err
    # raising the gate lets the same shape through the parser
    assert main(["verify"] + BASE + ["--backend", "id", "--id-limit", "4"]) == 0


def test_id_backend_default_tolerance(tmp_path):
    code, text = run_to_file(
        tmp_path, ["verify", "--backend", "id", "--format", "json"] + BASE
    )
    assert code == 0
    assert json.loads(text)["config"]["q"] == 1e-7


def test_no_subcommand_is_usage_error():
    assert main([]) == 2


HELP_OPTIONS = """
options:
  -h, --help            show this help message and exit
  --config FILE         key=value config file
  --dim DIM             spatial dimension d (required)
  --log2n LOG2N         log2 of boxes per dimension (required)
  --q Q                 cheb points per dimension, or id tolerance in (0,1)
  --phase PHASE         phase name, one of: fourier, gen-radon, hyp-radon
  --backend BACKEND     cheb or id
  --procs PROCS         process count (verify) or comma list (scale)
  --alpha ALPHA         per-message latency, seconds
  --beta BETA           per-entry bandwidth cost, seconds
  --gamma GAMMA         per-flop cost, seconds
  --seed SEED           PRNG seed (PCG64)
  --sources SOURCES     random source count, or CSV path (y0..y{d-1},re,im)
  --targets TARGETS     random evaluation point count
  --output OUTPUT       output path, '-' for stdout
  --format FORMAT       csv or json
  --threshold THRESHOLD
                        verify exits 1 when error exceeds this
  --id-limit ID_LIMIT   largest N^d allowed for the id backend
"""

HELP_USAGE = {
    "verify": """\
usage: bfly verify [-h] [--config FILE] [--dim DIM] [--log2n LOG2N] [--q Q]
                   [--phase PHASE] [--backend BACKEND] [--procs PROCS]
                   [--alpha ALPHA] [--beta BETA] [--gamma GAMMA] [--seed SEED]
                   [--sources SOURCES] [--targets TARGETS] [--output OUTPUT]
                   [--format FORMAT] [--threshold THRESHOLD]
                   [--id-limit ID_LIMIT]
""",
    "scale": """\
usage: bfly scale [-h] [--config FILE] [--dim DIM] [--log2n LOG2N] [--q Q]
                  [--phase PHASE] [--backend BACKEND] [--procs PROCS]
                  [--alpha ALPHA] [--beta BETA] [--gamma GAMMA] [--seed SEED]
                  [--sources SOURCES] [--targets TARGETS] [--output OUTPUT]
                  [--format FORMAT] [--threshold THRESHOLD]
                  [--id-limit ID_LIMIT]
""",
}


@pytest.mark.parametrize("command", ["verify", "scale"])
def test_help_text_is_pinned(monkeypatch, capsys, command):
    # the bytes an 80-column --help printed before the flags came from one
    # table of keys; the table must not change a flag, its order or its help
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == HELP_USAGE[command] + HELP_OPTIONS


# ---------------------------------------------------------------------------
# source files
# ---------------------------------------------------------------------------


def test_sources_file_roundtrip(tmp_path):
    src = tmp_path / "pts.csv"
    src.write_text("y0,re,im\n0.125,1.0,0.0\n0.625,0.0,-2.0\n0.875,0.5,0.5\n")
    code, text = run_to_file(
        tmp_path,
        ["verify", "--dim", "1", "--log2n", "2", "--sources", str(src), "--targets", "12", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["error"] <= 1e-10


def test_sources_file_errors(tmp_path, monkeypatch, capsys):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("x,re,im\n0.5,1,0\n")
    assert main(["verify", "--dim", "1", "--log2n", "2", "--sources", str(bad_header)]) == 2
    assert "header" in capsys.readouterr().err

    bad_cols = tmp_path / "c.csv"
    bad_cols.write_text("y0,re,im\n0.5,1\n")
    assert main(["verify", "--dim", "1", "--log2n", "2", "--sources", str(bad_cols)]) == 2
    assert ":2" in capsys.readouterr().err

    bad_num = tmp_path / "n.csv"
    bad_num.write_text("y0,re,im\n0.5,one,0\n")
    assert main(["verify", "--dim", "1", "--log2n", "2", "--sources", str(bad_num)]) == 2
    assert "non-numeric" in capsys.readouterr().err

    outside = tmp_path / "o.csv"
    outside.write_text("y0,re,im\n1.5,1,0\n")
    assert main(["verify", "--dim", "1", "--log2n", "2", "--sources", str(outside)]) == 2
    assert "unit cube" in capsys.readouterr().err

    assert main(["verify", "--dim", "1", "--log2n", "2", "--sources", str(tmp_path / "missing.csv")]) == 2
    capsys.readouterr()

    # not counts: str.isdigit() takes superscript digits, which int()
    # rejects, and "++3" passed once its "+" were stripped; each ended in a
    # ValueError traceback with exit 1, which reads as "error above threshold"
    monkeypatch.chdir(tmp_path)
    for raw in ("²", "+²", "3²", "++3"):
        assert main(["verify", "--dim", "1", "--log2n", "2", "--sources", raw]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read sources file {raw}: ")


@pytest.mark.parametrize("which", ["config", "sources"])
def test_non_utf8_files_are_usage_errors(tmp_path, capsys, which):
    path = tmp_path / "bad.txt"
    if which == "config":
        path.write_bytes(b"dim=1\nlog2n=2\n# caf\xff\n")
        args = ["verify", "--config", str(path)]
    else:
        path.write_bytes(b"y0,re,im\n0.5,1\xff,0\n")
        args = ["verify", "--dim", "1", "--log2n", "2", "--sources", str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {which} file") and "Traceback" not in err


def run_console(args):
    """`python -m bfly.cli args` in a child interpreter that imports the same
    bfly as this one, installed or not, so stderr holds every warning."""
    search = [str(pathlib.Path(bfly.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "bfly.cli"] + args,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search))),
    )


def test_non_finite_error_is_usage_error(tmp_path):
    # a finite strength near the largest double overflows the sums; the nan
    # error must not read as exit 1, "error above threshold", and must come
    # alone, without NumPy's overflow warnings before it
    path = tmp_path / "s.csv"
    path.write_text("y0,re,im\n0.5,1.7e308,0\n")
    proc = run_console(["verify", "--dim", "1", "--log2n", "3", "--sources", str(path)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: the relative error is nan, not a finite number: the sums overflow\n"
    # scale reports the ledgers, which do not depend on the values, silently
    proc = run_console(["scale", "--dim", "1", "--log2n", "3", "--procs", "1,2", "--sources", str(path)])
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("p,flops_max,")


@pytest.mark.parametrize("dim,log2n", [("2", "40"), ("3", "30"), ("3", "5000")])
def test_cheb_problem_past_the_memory_is_usage_error(monkeypatch, capsys, dim, log2n):
    # rejected at the parse step: one level of weights, 2^d N^d q^d complex
    # entries, is past any machine's memory at these sizes; and so are the
    # (2, q, q) real 1-D child matrices of a huge q, even where one level of
    # a one-leaf tree would fit (32 MB at d = 1, q = 10^6)
    def never_run(cfg):
        raise AssertionError(f"a log2n={cfg.log2n} q={cfg.q} run was started")

    monkeypatch.setattr(bfly.cli, "cmd_verify", never_run)
    monkeypatch.setattr(bfly.cli, "cmd_scale", never_run)
    for command in ("verify", "scale"):
        for n, q in ((log2n, "2"), ("0", "1000000"), ("0", "1e300")):
            assert main([command, "--dim", dim, "--log2n", n, "--q", q]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cheb backend at dim={dim}, log2n={n}, q={q}:"), err
            assert "physical memory" in err and "1-D child matrices" in err, err
    # the id backend's own gate rejects the same sizes without spelling N^d out
    assert main(["verify", "--dim", dim, "--log2n", log2n, "--backend", "id"]) == 2
    assert f"got N^d = 2^{int(dim) * int(log2n)}" in capsys.readouterr().err


def test_large_q_weights_stay_finite():
    # the barycentric weights' defining product underflows past q of about
    # 900; the closed form keeps q = 1000 at d = 1 exact
    proc = run_console(["verify", "--dim", "1", "--log2n", "2", "--q", "1000"])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert float(proc.stdout.splitlines()[1].split(",")[0]) <= 1e-12


@pytest.mark.parametrize("dim", ["0", "-1", "4", "6"])
def test_dim_outside_one_to_three_is_usage_error(monkeypatch, capsys, dim):
    # rejected at the parse step, so the run must never start
    def never_run(cfg):
        raise AssertionError(f"a dim={cfg.dim} run was started")

    monkeypatch.setattr(bfly.cli, "cmd_verify", never_run)
    with pytest.raises(bfly.cli.UsageError, match="dim must be 1, 2 or 3"):
        bfly.cli.parse_config(["verify", "--dim", dim, "--log2n", "0"])
    assert main(["verify", "--dim", dim, "--log2n", "0"]) == 2
    assert "dim must be 1, 2 or 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row", ["nan,1,0", "inf,1,0", "0.5,inf,0", "0.5,1,nan", "0.5,-inf,inf"]
)
def test_sources_file_non_finite(tmp_path, capsys, row):
    path = tmp_path / "s.csv"
    path.write_text(f"y0,re,im\n0.25,1,0\n{row}\n")
    assert main(["verify", "--dim", "1", "--log2n", "2", "--sources", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


def test_zero_sources_and_targets_warn(tmp_path, capsys):
    code, text = run_to_file(tmp_path, ["verify", "--dim", "1", "--log2n", "2", "--sources", "0"])
    assert code == 0
    assert text.splitlines()[1].startswith("0,")
    assert "no sources" in capsys.readouterr().err

    code, text = run_to_file(
        tmp_path, ["verify"] + BASE[:6] + ["--targets", "0"], name="out2.txt"
    )
    assert code == 0
    assert "no targets" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def test_verify_csv_shape(tmp_path):
    code, text = run_to_file(tmp_path, ["verify"] + BASE)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "error,flops,messages,entries_sent,modeled_seconds"
    assert len(lines) == 2
    vals = lines[1].split(",")
    assert float(vals[0]) <= 1e-10
    assert int(vals[1]) > 0
    assert int(vals[2]) == 0 and int(vals[3]) == 0


def test_verify_parallel_csv_counts(tmp_path):
    code, text = run_to_file(tmp_path, ["verify"] + BASE + ["--procs", "4"])
    assert code == 0
    vals = text.splitlines()[1].split(",")
    # four ranks, one bit moved per rank per stage on two stages
    assert int(vals[2]) == 4 * 2
    assert float(vals[0]) <= 1e-10


@pytest.mark.parametrize("procs,backend", [("1", "cheb"), ("1", "id"), ("4", "cheb"), ("4", "id")])
def test_verify_solves_once(tmp_path, monkeypatch, procs, backend):
    # one simulator call at every p, p = 1 included; a second solve would
    # repeat the id backend's whole factorization precompute
    import bfly.cli as cli

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["p"])
        return simulate_parallel(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_parallel", counted)
    code, _ = run_to_file(tmp_path, ["verify", "--backend", backend, "--procs", procs] + BASE)
    assert code == 0
    assert calls == [int(procs)]


@pytest.mark.parametrize(
    "args",
    [
        ["--dim", "1", "--log2n", "0"],
        ["--dim", "1", "--log2n", "6", "--q", "5"],
        ["--dim", "2", "--log2n", "3", "--q", "4"],
        ["--dim", "3", "--log2n", "2", "--q", "3", "--phase", "gen-radon"],
        ["--dim", "2", "--log2n", "1", "--backend", "id"],
        ["--dim", "2", "--log2n", "3", "--backend", "id"],
    ],
)
def test_verify_p1_matches_butterfly_apply(tmp_path, args):
    # at p = 1 the simulator is the sequential engine: the same error and
    # ledger row as butterfly_apply plus direct_apply on the same draw
    args = ["verify", "--format", "json", "--sources", "64", "--targets", "40", "--threshold", "1"] + args
    cfg, _ = bfly.cli.parse_config(args)
    src, tgts = bfly.cli._draw_inputs(cfg)
    phase = bfly.get_phase(cfg.phase)
    field = bfly.butterfly_apply(src, phase, 1 << cfg.log2n, **bfly.cli._engine_kwargs(cfg))
    error = bfly.rel_sup_error(field.evaluate(tgts), bfly.direct_apply(src, phase, tgts))
    code, text = run_to_file(tmp_path, args)
    assert code == 0
    doc = json.loads(text)
    assert doc["error"] == error
    assert doc["ledger"] == bfly.ledger_report([field.ledger])


def test_verify_json_schema(tmp_path):
    code, text = run_to_file(tmp_path, ["verify", "--format", "json"] + BASE + ["--procs", "2"])
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"config", "error", "ledger", "modeled_seconds"}
    assert sorted(doc["ledger"][0]) == ["entries_sent", "flops", "messages", "modeled_seconds", "rank"]
    assert [row["rank"] for row in doc["ledger"]] == [0, 1]
    assert doc["config"]["procs"] == [2]


def test_scale_csv_schema_and_counts(tmp_path):
    code, text = run_to_file(
        tmp_path, ["scale", "--dim", "1", "--log2n", "3", "--sources", "40", "--procs", "1,2,4"]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "p,flops_max,messages_max,entries_max,modeled_seconds"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 4]
    assert [int(r[2]) for r in rows] == [0, 1, 2]
    assert int(rows[0][3]) == 0


def test_scale_json_schema(tmp_path):
    code, text = run_to_file(
        tmp_path, ["scale", "--format", "json", "--dim", "1", "--log2n", "2", "--sources", "16", "--procs", "1,4"]
    )
    assert code == 0
    doc = json.loads(text)
    assert set(doc) == {"config", "rows"}
    assert [row["p"] for row in doc["rows"]] == [1, 4]
    assert set(doc["rows"][0]) == {"p", "flops_max", "messages_max", "entries_max", "modeled_seconds"}


def test_stdout_output(capsys):
    code = main(["verify"] + BASE)
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("error,")


def test_unwritable_output(capsys):
    assert main(["verify"] + BASE + ["--output", "/nonexistent-dir/x.csv"]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_threshold_exit_code(tmp_path):
    code, text = run_to_file(tmp_path, ["verify"] + BASE + ["--threshold", "1e-30"])
    assert code == 1
    assert float(text.splitlines()[1].split(",")[0]) > 1e-30


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_repeat_runs_byte_identical(tmp_path):
    args = ["verify", "--dim", "2", "--log2n", "2", "--q", "4", "--sources", "80", "--targets", "15", "--procs", "4"]
    _, first = run_to_file(tmp_path, args, name="a.csv")
    _, second = run_to_file(tmp_path, args, name="b.csv")
    assert first == second


def test_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    # the simulator's threads keyword has no effect: passing it must not
    # change a byte of either command's output
    args = ["verify"] + BASE + ["--procs", "4"]
    sargs = ["scale", "--dim", "1", "--log2n", "3", "--sources", "48", "--procs", "1,2,8"]
    _, one = run_to_file(tmp_path, args, name="t1.csv")
    _, sone = run_to_file(tmp_path, sargs, name="s1.csv")
    monkeypatch.setattr(bfly.cli, "simulate_parallel", functools.partial(simulate_parallel, threads=4))
    _, four = run_to_file(tmp_path, args, name="t4.csv")
    _, sfour = run_to_file(tmp_path, sargs, name="s4.csv")
    assert one == four
    assert sone == sfour


def test_scale_id_builds_one_setup_for_every_process_count(tmp_path, monkeypatch, no_kept):
    # every p solves the same sources, so the first builds the id set-up and
    # the others take it, with the bytes of a cold build at every p
    args = ["scale", "--dim", "2", "--log2n", "3", "--backend", "id", "--sources", "200", "--procs", "1,4,16"]

    def cold(*a, **kw):
        bfly.engine._kept = None
        return simulate_parallel(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(bfly.cli, "simulate_parallel", cold)
        _, want = run_to_file(tmp_path, args, name="cold.csv")
    calls = []
    precompute = bfly.engine.IdEngine._precompute

    def counted(self, pool):
        calls.append(None)
        return precompute(self, pool)

    monkeypatch.setattr(bfly.engine.IdEngine, "_precompute", counted)
    bfly.engine._kept = None
    code, text = run_to_file(tmp_path, args, name="kept.csv")
    assert code == 0 and len(calls) == 1
    assert text == want and len(text.splitlines()) == 4


def test_scale_cheb_makes_its_factors_once_for_every_process_count(tmp_path, monkeypatch, no_kept):
    # every p solves with the same phase, d, N and q, so the first keeps the
    # solve's factors and the others take them, calling the phase only for
    # the probe and the sources, with the bytes of a cold solve at every p
    args = ["scale", "--dim", "2", "--log2n", "4", "--procs", "1,4,16"]

    def cold(*a, **kw):
        bfly.engine._kept = None
        return simulate_parallel(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(bfly.cli, "simulate_parallel", cold)
        _, want = run_to_file(tmp_path, args, name="cold.csv")
    fourier = bfly.cli.REGISTRY["fourier"]
    calls = []  # each solve's phase calls, as the number of point pairs

    def fn(xs, ys):
        calls[-1].append(int(np.prod(np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1]))))
        return fourier.fn(xs, ys)

    def solve(*a, **kw):
        calls.append([])
        return simulate_parallel(*a, **kw)

    monkeypatch.setitem(bfly.cli.REGISTRY, "fourier", PhaseEvaluator("fourier", fourier.dim, fn))
    monkeypatch.setattr(bfly.cli, "simulate_parallel", solve)
    bfly.engine._kept = None
    code, text = run_to_file(tmp_path, args, name="kept.csv")
    assert code == 0 and text == want and len(text.splitlines()) == 4
    sources = 256 * 4  # the default count, against the centers of the root's children
    # the first p: the sources, the init's demodulation, three column
    # stages of 1 + 2^d grids each, and the kept factors' two-pair probe
    first, *later = calls
    assert len(first) == 2 + 3 * 5 + 1 and first[0] == sources and first[-1] == 2
    assert later == [[2, sources]] * 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "sub.csv"
    proc = run_console(["verify", "--dim", "1", "--log2n", "2", "--sources", "16", "--targets", "5", "--output", str(out)])
    assert proc.returncode == 0
    assert out.read_text().startswith("error,")
