"""Property-based tests (hypothesis) for the sweep point seeds and the
runner's JSON canonicalization of rows."""

import json

from hypothesis import given, settings, strategies as st

import repro
from repro.sweep import SweepPoint, canonical_params, run_sweep

# JSON-representable param values, one level of nesting deep — the
# shapes experiment drivers actually pass.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 40), 2 ** 40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
values = st.one_of(scalars, st.lists(scalars, max_size=4),
                   st.dictionaries(st.text(max_size=8), scalars,
                                   max_size=4))
params_st = st.dictionaries(st.text(min_size=1, max_size=12), values,
                            max_size=6)


def _seed(params):
    return SweepPoint("exp", "m:f", params).seed()


class TestSeedStability:
    @given(params=params_st, order=st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_seed_is_independent_of_insertion_order(self, params, order):
        keys = list(params)
        order.shuffle(keys)
        reordered = {k: params[k] for k in keys}
        assert _seed(params) == _seed(reordered)
        assert canonical_params(params) == canonical_params(reordered)

    @given(params=params_st)
    @settings(max_examples=60, deadline=None)
    def test_canonical_params_round_trips(self, params):
        assert json.loads(canonical_params(params)) == params

    @given(params=params_st, extra=st.integers())
    @settings(max_examples=60, deadline=None)
    def test_seed_changes_when_params_change(self, params, extra):
        changed = dict(params)
        changed["__extra__"] = extra
        assert _seed(params) != _seed(changed)

    @given(params=params_st)
    @settings(max_examples=60, deadline=None)
    def test_seed_is_a_valid_64_bit_int(self, params):
        assert 0 <= _seed(params) < 2 ** 64

    @given(params=params_st, version=st.text(min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_seed_ignores_the_package_version(self, params, version):
        before = _seed(params)
        saved = repro.__version__
        repro.__version__ = version
        try:
            assert _seed(params) == before
        finally:
            repro.__version__ = saved


class TestRowCanonicalization:
    @given(value=values)
    @settings(max_examples=40, deadline=None)
    def test_rows_round_trip_through_json(self, value):
        (row,) = run_sweep([SweepPoint("exp", "tests.sweep.targets:echo",
                                       {"value": value})]).rows
        plain = json.loads(json.dumps(value))
        assert row == {"value": plain, "pair": [plain, plain]}
