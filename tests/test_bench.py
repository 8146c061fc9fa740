"""Tests for the measurement machinery (repro.bench)."""

import math

import numpy as np
import pytest

from repro.apps.common import compressor, expander, low_pass_filter
from repro.bench import (build_config, format_table, leaf_only_lmap,
                         measure, removal_percent, speedup_percent,
                         time_config)
from repro.graph import Pipeline, leaf_filters
from repro.linear import LinearFilter
from repro.runtime import Collector, FunctionSource, run_graph


def tiny_program(taps=8):
    return Pipeline([
        FunctionSource(lambda n: math.sin(0.1 * n), "src"),
        low_pass_filter(1.0, math.pi / 3, taps, name="lp1"),
        low_pass_filter(1.0, math.pi / 4, taps, name="lp2"),
        Collector(),
    ], name="tiny")


def test_removal_percent():
    assert removal_percent(100, 25) == 75.0
    assert removal_percent(100, 150) == -50.0
    assert removal_percent(0, 10) == 0.0


def test_speedup_percent():
    assert speedup_percent(2.0, 1.0) == pytest.approx(100.0)
    assert speedup_percent(1.0, 2.0) == pytest.approx(-50.0)


def test_format_table_alignment():
    text = format_table("T", ["a", "b"], [["x", 1.5], ["y", -2.25]],
                        width=6)
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "b" in lines[2]
    assert any("1.5" in ln for ln in lines)


@pytest.mark.parametrize("config", ["original", "linear", "linear_nc",
                                    "freq", "freq_nc", "autosel",
                                    "linear_blas", "redund"])
def test_all_configs_build_and_agree(config):
    base = run_graph(tiny_program(), 64)
    stream = build_config(tiny_program(), config)
    got = run_graph(stream, 64)
    np.testing.assert_allclose(got, base, atol=1e-8)


def test_unknown_config_rejected():
    with pytest.raises(ValueError):
        build_config(tiny_program(), "bogus")


def test_measure_returns_per_output_metrics():
    m = measure(tiny_program(), "original", 32)
    assert m.outputs == 32
    assert m.flops > 0 and m.mults > 0
    assert m.flops_per_output == m.flops / 32
    assert measure(tiny_program(), "original", 32) == m  # counts only


def test_time_config_reads_a_clock():
    """The timed half, apart from the counted one; no test compares
    two of its readings."""
    assert time_config(tiny_program(), "original", 32) > 0


def test_linear_config_collapses_the_run():
    stream = build_config(tiny_program(), "linear")
    linear_leaves = [f for f in leaf_filters(stream)
                     if isinstance(f, LinearFilter)]
    assert len(linear_leaves) == 1  # both low-passes combined


def test_nc_config_keeps_filters_separate():
    stream = build_config(tiny_program(), "linear_nc")
    linear_leaves = [f for f in leaf_filters(stream)
                     if isinstance(f, LinearFilter)]
    assert len(linear_leaves) == 2


def test_nc_combination_reduces_mults_only_with_combination():
    """The Figure 5-4 mechanism in miniature: two cascaded FIRs halve
    their mults only when combined."""
    m_nc = measure(tiny_program(), "linear_nc", 64)
    m_c = measure(tiny_program(), "linear", 64)
    assert m_c.mults < m_nc.mults


def test_leaf_only_lmap_drops_containers():
    prog = tiny_program()
    lmap = leaf_only_lmap(prog)
    assert not lmap.is_linear(prog)
    for f in leaf_filters(prog):
        if f.name.startswith("lp"):
            assert lmap.is_linear(f)


def test_serve_harness_flags_left_the_cli(capsys):
    """The load and chaos harnesses are tests now, not bench modes."""
    from repro.bench import main as bench_main

    with pytest.raises(SystemExit):
        bench_main(["--help"])
    usage = capsys.readouterr().out
    for flag in ("--serve", "--clients", "--serve-out", "--chaos",
                 "--chaos-seed", "--chaos-out"):
        assert flag not in usage


TIMING_FLAGS = {"--compare": [], "--chunked": [], "--chunk-size": ["64"],
                "--workers": ["2"], "--parallel-out": ["none"]}


def test_timing_flags_left_the_cli(capsys):
    """The CLI emits one cell; comparing cells (backend matrix, chunked
    vs batch, workers scaling) is perfbench's job."""
    from repro.bench import main as bench_main

    for flag, value in TIMING_FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            bench_main(["--app", "fir", "--outputs", "64", flag] + value)
        assert exc.value.code == 2  # argparse usage error
    capsys.readouterr()
    with pytest.raises(SystemExit):
        bench_main(["--help"])
    usage = capsys.readouterr().out
    for flag in TIMING_FLAGS:
        assert flag not in usage


def test_rate_changer_configs_equivalent():
    prog = Pipeline([
        FunctionSource(lambda n: float(n % 7), "src"),
        expander(2),
        low_pass_filter(2.0, math.pi / 2, 10),
        compressor(3),
        Collector(),
    ], name="ratec-mini")

    def fresh():
        return Pipeline(list(prog.children), name=prog.name)

    base = run_graph(fresh(), 40)
    for config in ("linear", "freq", "autosel"):
        got = run_graph(build_config(fresh(), config), 40)
        np.testing.assert_allclose(got, base, atol=1e-8, err_msg=config)


class TestBenchDSL:
    """``--dsl``: benchmark arbitrary DSL sources through the same
    measurement machinery as the named apps."""

    @staticmethod
    def _app_dsl(name):
        import os

        from repro.apps._loader import DSL_DIR
        return os.path.join(DSL_DIR, name + ".str")

    def test_dsl_mode_measures_the_elaborated_program(self, capsys):
        import json

        from repro.bench import main as bench_main

        assert bench_main(["--dsl", self._app_dsl("common"),
                           "--dsl", self._app_dsl("fir"),
                           "--top", "FIRProgram", "--dsl-args", "32",
                           "--outputs", "256"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["app"] == "FIRProgram"
        assert rec["outputs"] == 256
        # a 32-tap FIR is one multiply and one add per tap per output
        assert rec["flops_per_output"] == 64.0

    def test_dsl_mode_applies_configs(self, capsys):
        import json

        from repro.bench import main as bench_main

        argv = ["--dsl", self._app_dsl("common"),
                "--dsl", self._app_dsl("fir"),
                "--top", "FIRProgram", "--dsl-args", "32",
                "--outputs", "256", "--backend", "compiled"]
        assert bench_main(argv) == 0
        original = json.loads(capsys.readouterr().out)
        assert bench_main(argv + ["--config", "linear"]) == 0
        linear = json.loads(capsys.readouterr().out)
        assert linear["mults"] <= original["mults"]

    def test_dsl_parse_error_renders_diagnostics(self, tmp_path, capsys):
        from repro.bench import main as bench_main

        bad = tmp_path / "bad.str"
        bad.write_text("float->float filter F {\n"
                       "    work pop 1 push 1 {\n"
                       "        float x = pop()\n"
                       "    }\n"
                       "}\n")
        assert bench_main(["--dsl", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error[dsl-expected]" in err
        assert "^" in err  # caret snippet, not just a message

    def test_dsl_flag_validation(self):
        from repro.bench import main as bench_main

        for argv in ([],                              # neither mode
                     ["--app", "fir", "--dsl", "x"],  # both modes
                     ["--app", "fir", "--top", "X"],
                     ["--app", "fir", "--dsl-args", "1"]):
            with pytest.raises(SystemExit) as exc:
                bench_main(argv)
            assert exc.value.code == 2
