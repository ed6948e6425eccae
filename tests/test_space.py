import numpy as np
import pytest

from aspo import assets
from aspo.errors import InvalidConfigurationError, InvalidPointError
from aspo.space import (
    CATEGORICAL,
    ORDINAL,
    ParameterDef,
    ParameterSpace,
    decode,
    encode,
    point_ranks,
    random_configuration,
    relaxed_values,
    snap,
)


def ordinal(name, values, default=None):
    return ParameterDef(name, "ordinal", tuple(values),
                        values[0] if default is None else default)


def categorical(name, values, default=None):
    return ParameterDef(name, "categorical", tuple(values),
                        values[0] if default is None else default)


def _boomish_space():
    return ParameterSpace([
        categorical("bpd_config", ["TAGEL", "Boom2", "Alpha21264"]),
        ordinal("FetchWidth", [1, 4, 8], default=4),
        ordinal("DecodeWidth", [1, 2, 3, 4, 5, 6]),
    ])


@pytest.fixture
def boomish_space():
    return _boomish_space()


class TestParameterDef:
    def test_rejects_duplicates(self):
        with pytest.raises(InvalidConfigurationError):
            categorical("x", ["a", "b", "a"])

    def test_rejects_unsorted_ordinal(self):
        with pytest.raises(InvalidConfigurationError):
            ordinal("x", [1, 3, 2])

    def test_rejects_non_integer_ordinal(self):
        with pytest.raises(InvalidConfigurationError):
            ordinal("x", [1.5, 2.5])

    def test_rejects_default_outside_values(self):
        with pytest.raises(InvalidConfigurationError):
            ParameterDef("x", "ordinal", (1, 2), 3)

    def test_rejects_empty_values(self):
        with pytest.raises(InvalidConfigurationError):
            ParameterDef("x", "ordinal", (), 1)


class TestEncode:
    def test_ordinal_middle_rank(self, boomish_space):
        cfg = {"bpd_config": "TAGEL", "FetchWidth": 4, "DecodeWidth": 1}
        point = encode(boomish_space, cfg)
        # FetchWidth=4 is rank 1 of 3 -> 0.5
        assert point[3] == 0.5

    def test_one_hot_block(self, boomish_space):
        cfg = {"bpd_config": "TAGEL", "FetchWidth": 1, "DecodeWidth": 1}
        point = encode(boomish_space, cfg)
        assert list(point[:3]) == [1.0, 0.0, 0.0]

    def test_two_value_categorical_second_option(self):
        space = ParameterSpace([categorical("flag", ["off", "on"])])
        assert list(encode(space, {"flag": "on"})) == [0.0, 1.0]

    def test_unknown_parameter_rejected(self, boomish_space):
        with pytest.raises(InvalidConfigurationError):
            encode(boomish_space, {"bpd_config": "TAGEL", "FetchWidth": 4,
                                   "DecodeWidth": 1, "bogus": 1})

    def test_inadmissible_value_rejected(self, boomish_space):
        with pytest.raises(InvalidConfigurationError):
            encode(boomish_space, {"bpd_config": "TAGEL", "FetchWidth": 5,
                                   "DecodeWidth": 1})

    def test_missing_parameter_rejected(self, boomish_space):
        with pytest.raises(InvalidConfigurationError):
            encode(boomish_space, {"bpd_config": "TAGEL", "FetchWidth": 4})


class TestSnap:
    def test_argmax_block(self):
        space = ParameterSpace([categorical("c", ["a", "b", "x"])])
        assert list(snap(space, [0.2, 0.7, 0.1])) == [0.0, 1.0, 0.0]

    def test_argmax_tie_lowest_index(self):
        space = ParameterSpace([categorical("c", ["a", "b"])])
        assert list(snap(space, [0.5, 0.5])) == [1.0, 0.0]

    def test_ordinal_nearest_rank(self):
        space = ParameterSpace([ordinal("o", [1, 4, 8])])
        assert snap(space, [0.6])[0] == 0.5

    def test_ordinal_tie_rounds_down(self):
        space = ParameterSpace([ordinal("o", [1, 4, 8])])
        assert snap(space, [0.25])[0] == 0.0
        assert snap(space, [0.75])[0] == 0.5

    def test_idempotent(self, boomish_space):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.uniform(size=boomish_space.encoded_dim)
            once = snap(boomish_space, p)
            assert np.array_equal(snap(boomish_space, once), once)

    def test_dimension_mismatch(self, boomish_space):
        with pytest.raises(InvalidPointError):
            snap(boomish_space, [0.1, 0.2])

    def test_out_of_box_rejected(self, boomish_space):
        p = np.zeros(boomish_space.encoded_dim)
        p[0] = 1.5
        with pytest.raises(InvalidPointError):
            snap(boomish_space, p)


class TestDecode:
    def test_round_trip_default(self, boomish_space):
        cfg = boomish_space.default_configuration()
        assert decode(boomish_space, encode(boomish_space, cfg)) == cfg

    def test_near_tie_categorical(self):
        space = ParameterSpace([categorical("c", ["first", "second"])])
        assert decode(space, [0.49, 0.51]) == {"c": "second"}

    def test_all_zero_block_decodes_first(self):
        space = ParameterSpace([categorical("c", ["first", "second"])])
        assert decode(space, [0.0, 0.0]) == {"c": "first"}

    def test_round_trip_exhaustive(self, boomish_space):
        for cfg in boomish_space.iter_configurations():
            assert decode(boomish_space, encode(boomish_space, cfg)) == cfg

    def test_encode_of_decode_is_snap(self, boomish_space):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = rng.uniform(size=boomish_space.encoded_dim)
            snapped = snap(boomish_space, p)
            assert np.array_equal(
                encode(boomish_space, decode(boomish_space, p)), snapped)

    def test_snapped_points_always_valid(self, boomish_space):
        rng = np.random.default_rng(13)
        for _ in range(200):
            cfg = decode(boomish_space, rng.uniform(size=boomish_space.encoded_dim))
            boomish_space.validate(cfg)


class TestSpace:
    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            ParameterSpace([ordinal("x", [1, 2]), ordinal("x", [3, 4])])

    def test_encoded_dim(self, boomish_space):
        # 3 one-hot coords + 2 ordinal coords
        assert boomish_space.encoded_dim == 5

    def test_size(self, boomish_space):
        assert boomish_space.size() == 3 * 3 * 6

    def test_single_value_ordinal_encodes_to_zero(self):
        space = ParameterSpace([ordinal("fixed", [7])])
        assert encode(space, {"fixed": 7})[0] == 0.0
        assert decode(space, [0.0]) == {"fixed": 7}

    def test_bad_json_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            ParameterSpace.from_json("{not json")

    def test_iter_matches_size(self, boomish_space):
        assert len(list(boomish_space.iter_configurations())) == boomish_space.size()


class TestRelaxedValues:
    def test_vertex_matches_exact_values(self, boomish_space):
        cfg = {"bpd_config": "Boom2", "FetchWidth": 8, "DecodeWidth": 3}
        values, _ = relaxed_values(boomish_space, encode(boomish_space, cfg))
        assert values == {"FetchWidth": 8.0, "DecodeWidth": 3.0}

    def test_interpolates_between_ranks(self):
        space = ParameterSpace([ordinal("o", [1, 4, 8])])
        values, slopes = relaxed_values(space, [0.25])
        # halfway between ranks 0 and 1 -> halfway between 1 and 4
        assert values["o"] == pytest.approx(2.5)
        off, slope = slopes["o"]
        assert off == 0
        assert slope == pytest.approx((4 - 1) * 2)

    def test_slope_matches_finite_difference(self):
        space = ParameterSpace([ordinal("o", [2, 4, 8, 16])])
        u, h = 0.4, 1e-7
        v_hi, _ = relaxed_values(space, [u + h])
        v_lo, _ = relaxed_values(space, [u - h])
        _, slopes = relaxed_values(space, [u])
        fd = (v_hi["o"] - v_lo["o"]) / (2 * h)
        assert slopes["o"][1] == pytest.approx(fd, rel=1e-5)


class TestNonFinitePoints:
    """NaN fails both box comparisons, so it needs its own check."""

    @pytest.fixture
    def space(self):
        return assets.load_bundle("boom").space

    @pytest.mark.parametrize("fn", [snap, decode, relaxed_values])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", [ORDINAL, CATEGORICAL])
    def test_rejected(self, space, fn, bad, kind):
        off = next(off for p, off in space.blocks() if p.kind == kind)
        point = np.full(space.encoded_dim, 0.5)
        point[off] = bad
        with pytest.raises(InvalidPointError):
            fn(space, point)


# Reference loops: the per-block snap and relaxed_values that the index-array
# versions replaced.  The array versions must reproduce them bit for bit.

def reference_snap(space, point):
    arr = np.asarray(point, dtype=float)
    out = np.zeros_like(arr)
    for p, off in space.blocks():
        if p.kind == CATEGORICAL:
            out[off + int(np.argmax(arr[off:off + p.width]))] = 1.0
        elif p.count == 1:
            out[off] = 0.0
        else:
            rank = int(np.ceil(arr[off] * (p.count - 1) - 0.5))
            out[off] = rank / (p.count - 1)
    return out


def reference_encode(space, cfg):
    out = np.zeros(space.encoded_dim)
    for p, off in space.blocks():
        if p.kind == CATEGORICAL:
            out[off + p.values.index(cfg[p.name])] = 1.0
        else:
            out[off] = p.scaled_rank(cfg[p.name])
    return out


def reference_relaxed_values(space, point):
    arr = np.asarray(point, dtype=float)
    values, slopes = {}, {}
    for p, off in space.blocks():
        if p.kind != ORDINAL:
            continue
        if p.count == 1:
            values[p.name] = float(p.values[0])
            slopes[p.name] = (off, 0.0)
            continue
        pos = float(np.clip(arr[off], 0.0, 1.0)) * (p.count - 1)
        i0 = min(int(pos), p.count - 2)
        frac = pos - i0
        lo, hi = p.values[i0], p.values[i0 + 1]
        values[p.name] = lo + frac * (hi - lo)
        slopes[p.name] = (off, (hi - lo) * (p.count - 1))
    return values, slopes


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _equivalence_points(space, n, seed):
    """Uniform points, half of them on a 1/840 grid that hits every rank
    midpoint and many one-hot ties, plus the two faces of the box."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, space.encoded_dim))
    pts[::2] = np.round(pts[::2] * 840) / 840
    pts[0], pts[1] = 0.0, 1.0
    return pts


def _space(name):
    if name == "boomish":
        return _boomish_space()
    if name == "mixed":   # single-valued blocks of both kinds
        return ParameterSpace([
            ordinal("fixed", [7]), categorical("only", ["x"]),
            categorical("c", ["a", "b"]), ordinal("o", [1, 4, 8, 64]),
            categorical("d", ["p", "q", "r", "s"])])
    return assets.load_bundle(name).space


@pytest.mark.parametrize("processor",
                         ["boom", "rocketchip", "el2_veer", "mixed"])
class TestIndexArraysMatchReference:
    N = 10_000

    def test_snap_decode_encode(self, processor):
        space = _space(processor)
        for u in _equivalence_points(space, self.N, 1):
            want = reference_snap(space, u)
            assert _bits(snap(space, u)) == _bits(want)
            cfg = decode(space, u)
            assert _bits(encode(space, cfg)) == _bits(want)
            assert _bits(reference_encode(space, cfg)) == _bits(want)

    def test_relaxed_values(self, processor):
        space = _space(processor)
        for u in _equivalence_points(space, self.N, 2):
            values, slopes = relaxed_values(space, u)
            want_values, want_slopes = reference_relaxed_values(space, u)
            assert list(values) == list(want_values)
            assert _bits(list(values.values())) == \
                _bits(list(want_values.values()))
            assert list(slopes) == list(want_slopes)
            for name, (off, slope) in slopes.items():
                assert off == want_slopes[name][0]
                assert _bits([slope]) == _bits([want_slopes[name][1]])

    def test_random_configuration_draw_order(self, processor):
        space = _space(processor)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(50):
            want = {p.name: p.values[int(ref.integers(p.count))]
                    for p in space.params}
            assert random_configuration(space, rng) == want


def _tie_points(space, n, seed):
    """Rows with every ordinal half-way between two ranks and every one-hot
    block of two or more options tied at its maximum."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, space.encoded_dim))
    rows = np.arange(n)[:, None]
    for p, off in space.blocks():
        if p.count == 1:
            continue
        if p.kind == ORDINAL:
            pts[:, off] = (rng.integers(p.count - 1, size=n) + 0.5) \
                / (p.count - 1)
        else:
            block = pts[:, off:off + p.count]
            tied = rng.permuted(np.tile(np.arange(p.count), (n, 1)),
                                axis=1)[:, :2]
            block[rows, tied] = block.max(axis=1)[:, None]
    return pts


@pytest.mark.parametrize(
    "name", ["boom", "rocketchip", "el2_veer", "mixed", "boomish"])
class TestPointSets:
    """``point_ranks`` and ``snap`` over rows: each row as it is alone."""

    def test_rows_match_single_points(self, name):
        space = _space(name)
        rows = np.concatenate([_equivalence_points(space, 1000, 3),
                               _tie_points(space, 1000, 4)])
        ranks, snapped = point_ranks(space, rows), snap(space, rows)
        assert ranks.shape == (len(rows), len(space.params))
        assert snapped.shape == rows.shape
        for i, u in enumerate(rows):
            assert np.array_equal(ranks[i], point_ranks(space, u))
            assert snapped[i].tobytes() == snap(space, u).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.5])
    def test_one_bad_row_rejects_the_batch(self, name, bad):
        space = _space(name)
        rows = _equivalence_points(space, 20, 5)
        rows[7, -1] = bad
        for fn in (point_ranks, snap):
            with pytest.raises(InvalidPointError):
                fn(space, rows)

    def test_other_shapes_rejected(self, name):
        space = _space(name)
        D = space.encoded_dim
        for shape in [(2, 3, D), (4, D + 1), (D + 1,), ()]:
            for fn in (point_ranks, snap):
                with pytest.raises(InvalidPointError):
                    fn(space, np.full(shape, 0.5))
        for fn in (decode, relaxed_values):     # one point only
            with pytest.raises(InvalidPointError):
                fn(space, np.full((3, D), 0.5))
