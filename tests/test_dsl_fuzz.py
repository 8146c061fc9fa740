"""The grammar-driven differential fuzzer, exercised as a test.

A batch of generated programs must agree across all three backends
(interp vs compiled bitwise; plan to 1e-9) — the same contract the CI
smoke run enforces at larger count via ``python -m repro.dsl.fuzz``.
"""

import pytest

from repro.dsl.fuzz import (check_program, generate, main, run_fuzz)

#: Fixed so failures reproduce; distinct from the CI smoke's seed 0.
BATCH_SEED = 20260807
BATCH_COUNT = 30


def test_batch_no_mismatches():
    mismatches = run_fuzz(BATCH_COUNT, seed=BATCH_SEED, n_outputs=48,
                          stop_on_first=False)
    assert mismatches == [], "\n\n".join(m.render() for m in mismatches)


def test_generation_is_deterministic():
    a, b = generate(12345), generate(12345)
    assert a.source == b.source
    assert a.census == b.census
    assert generate(12345).source != generate(54321).source


def test_generated_programs_cover_all_constructs():
    """Across a modest batch the generator exercises every composite —
    otherwise the differential is vacuously narrow."""
    census = {}
    for i in range(BATCH_COUNT):
        for kind, n in generate(BATCH_SEED * 1_000_003 + i).census.items():
            census[kind] = census.get(kind, 0) + n
    for kind in ("filter", "pipeline", "splitjoin", "feedbackloop", "mixed"):
        assert census.get(kind, 0) > 0, f"no {kind} generated"


@pytest.mark.parametrize("seed", [3, 17, 41])
def test_kernel_census_is_the_plan_reports(monkeypatch, seed):
    """A program's kernel keys are the union of its plan sessions'
    ``report().census()`` keys: the fuzzer keeps no census of its own."""
    from repro.session import StreamSession

    reached, close = set(), StreamSession.close

    def recording(session):
        if not session.closed and session.backend == "plan":
            reached.update(session.report().census())
        close(session)

    monkeypatch.setattr(StreamSession, "close", recording)
    program = generate(seed)
    assert check_program(program, n_outputs=48, optimize="auto") is None
    assert reached and program.kernels == reached


def test_rate_signature_is_consistent():
    """The generator's claimed (pop, push) must divide evenly into any
    steady state — spot-check that requesting a multiple of ``push``
    outputs succeeds for rate-changing programs."""
    for seed in range(40):
        prog = generate(seed)
        if prog.pop != prog.push:
            assert check_program(prog, n_outputs=3 * prog.push) is None
            break
    else:
        pytest.skip("no rate-changing program in the first 40 seeds")


def test_cli_smoke(capsys):
    assert main(["--count", "3", "--seed", "7", "--outputs", "32"]) == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out
    assert "non-source leaves" in out and "k=0 / " in out
    # every plan mode also ran in 8 calls, the last 4 restored
    assert "3/3 restored runs matched" in out
