"""One content identity (``repro.graph.identity``).

The plan cache, the serve pool, the extractor's memo, the lane-code memo
and sibling fusion all decide "same program" through one module: a
leaf's *shape* (code, written fields, field names and types) and its
*values* (field contents, hashed on every call), and a graph's
``content_id`` over both.  A graph from DSL text is identified like any
other — by content, not by the text it came from.
"""

import numpy as np
import pytest

import repro
from repro import dsl
from repro.apps import BENCHMARKS
from repro.apps._loader import dsl_source
from repro.exec import clear_plan_cache, plan_cache_stats
from repro.graph.identity import content_id, shape_digest, value_digest
from repro.graph.streams import Filter, walk
from repro.ir import nodes as N
from repro.linear import extract_filter, extraction

FIR_BODY = dsl_source("common") + """
float->float pipeline FIRBody {
    add LowPassFilter(1.0, pi / 3.0, 256, 0);
}
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def extractor_runs(monkeypatch):
    """How many times the extractor has run since the fixture was made."""
    runs = [0]
    real = extraction._Extractor.linear_node

    def counting(self):
        runs[0] += 1
        return real(self)

    monkeypatch.setattr(extraction._Extractor, "linear_node", counting)
    return runs


def scale(const=None, **fields):
    """``push(pop() * c)``: ``c`` an IR constant, or field ``k``."""
    c = N.Const(const) if const is not None else N.Var("k")
    work = N.WorkFunction(1, 1, 1, (N.PushS(N.Bin("*", N.Pop(), c)),))
    return Filter("Scale", work, fields=fields)


# ---------------------------------------------------------------------------
# Stale plans
# ---------------------------------------------------------------------------


def test_zeroed_taps_of_a_dsl_graph_are_a_new_plan():
    """A graph loaded from text and then edited in place is a new
    program: the recompile misses, and its plan pushes what interp
    does (the text-keyed plan pushed max |out| = 2.14 against 0.0)."""
    s = repro.compile(FIR_BODY, top="FIRBody")
    for f in walk(s.stream):
        if isinstance(f, Filter):
            for v in f.fields.values():
                if isinstance(v, np.ndarray):
                    v[:] = 0.0
    misses = plan_cache_stats()["misses"]
    plan = repro.compile(s.stream)
    assert plan_cache_stats()["misses"] == misses + 1
    x = np.random.default_rng(0).normal(size=1024)
    out = plan.push(x)
    ref = repro.compile(s.stream, backend="interp").push(x)
    np.testing.assert_array_equal(out, ref)
    assert not np.any(out)


def test_text_and_its_loaded_graph_share_one_plan():
    args = (1.0, np.pi / 3.0, 64, 0)
    text = dsl_source("common")
    a = repro.compile(text, top="LowPassFilter", args=args)
    b = repro.compile(dsl.load_source(text, "LowPassFilter", *args))
    assert a.cache_entry is b.cache_entry
    assert plan_cache_stats() == {"hits": 1, "misses": 1, "entries": 1}


# ---------------------------------------------------------------------------
# Rebuilt graphs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_a_rebuilt_app_has_its_content_id(name):
    first = content_id(BENCHMARKS[name]())
    dsl.clear_source_cache()  # new IR objects, the same programs
    assert content_id(BENCHMARKS[name]()) == first == (first[0], False)


def test_a_rebuilt_app_is_not_extracted_again(extractor_runs):
    """Re-elaborated from its text and compiled in another mode, no app
    runs the extractor: every leaf is a program it has seen."""
    for build in BENCHMARKS.values():
        repro.compile(build(), optimize="auto")
        dsl.clear_source_cache()
        before = extractor_runs[0]
        repro.compile(build(), optimize="linear")
        assert extractor_runs[0] == before, build


def test_filterbank_extracts_each_distinct_leaf_once(extractor_runs):
    """FilterBank's cold ``auto`` compile extracts 18 programs: two of
    its 20 leaves repeat another's content."""
    repro.compile(BENCHMARKS["FilterBank"](), optimize="auto")
    assert extractor_runs[0] == 18


# ---------------------------------------------------------------------------
# What tells two programs apart
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a, b", [(1, 1.0), (0.0, -0.0)])
def test_ir_constants_that_compare_equal_are_other_code(a, b):
    fa, fb = scale(a), scale(b)
    assert fa.work == fb.work  # dataclass equality cannot tell them
    assert fa.work.digest != fb.work.digest
    assert shape_digest(fa) != shape_digest(fb)
    assert content_id(fa) != content_id(fb)


@pytest.mark.parametrize("a, b", [(1, 1.0), (0.0, -0.0),
                                  (np.zeros(2), -np.zeros(2))])
def test_field_values_that_compare_equal_are_other_values(a, b):
    fa, fb = scale(k=a), scale(k=b)
    assert value_digest(fa) != value_digest(fb)
    assert content_id(fa) != content_id(fb)
    # an int and a float are other types; two floats one shape
    assert (shape_digest(fa) == shape_digest(fb)) == \
        (type(a) is type(b))


def test_siblings_share_a_shape_not_a_value():
    a, b = scale(k=2.0), scale(k=3.0)
    assert shape_digest(a) == shape_digest(b)
    assert value_digest(a) != value_digest(b)
    a.fields["k"] = 3.0  # in place: the value digest follows
    assert value_digest(a) == value_digest(b)


def test_a_field_hashed_by_identity_is_never_memoised():
    tagged = scale(k=2.0, tag=object())
    assert value_digest(tagged) is None
    first = extract_filter(tagged)
    assert first.is_linear
    assert extract_filter(tagged) is not first
