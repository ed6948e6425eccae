import numpy as np
import pytest

from aspo import assets
from aspo.constraints import (
    Conditional,
    Conj,
    Disj,
    Divisibility,
    Inequality,
    IntervalAtom,
    _interval_value,
    compile_tree,
    exact_configuration,
    exact_tree,
    parse_constraints,
    smooth_gradient,
    smooth_inequality,
    smooth_satisfied,
    smooth_tree,
    tree_parameters,
)
from aspo.errors import ConstraintSyntaxError, DomainError, UnknownParameterError
from aspo.space import (
    ParameterDef,
    ParameterSpace,
    config_ranks,
    ordinal_columns,
    random_configuration,
    relaxed_values,
)


def reference_value_and_gradient(tree, values):
    """The recursive smooth value and subgradient: the oracle for
    ``compile_tree`` and ``smooth_gradient``, kept independent of both."""
    if isinstance(tree, (Conj, Disj)):
        pairs = [reference_value_and_gradient(c, values) for c in tree.children]
        best_i = 0
        for i in range(1, len(pairs)):
            v = pairs[i][0]
            # strict comparison keeps the lowest index on ties
            if (v < pairs[best_i][0]) if isinstance(tree, Conj) else (v > pairs[best_i][0]):
                best_i = i
        merged = {}
        for _, g in pairs:
            for k in g:
                merged.setdefault(k, 0.0)
        merged.update(pairs[best_i][1])
        return pairs[best_i][0], merged
    if isinstance(tree, Inequality):
        v = smooth_inequality(tree, values)
        grad = {tree.xa: 0.0, tree.xb: 0.0}
        grad[tree.xa] += tree.ka
        grad[tree.xb] += -tree.kb
        return v, grad
    if isinstance(tree, Conditional):
        cond, cons = tree.condition, tree.consequence
        v1, v2 = values[cond.param], values[cons.param]
        c1 = _interval_value(cond, v1)
        c2 = _interval_value(cons, v2)
        dc1 = -(2 * v1 - cond.lo - cond.hi)
        dc2 = -(2 * v2 - cons.lo - cons.hi)
        vac = -c1 - tree.vacuity_margin
        if c1 <= c2:
            inner, inner_grad = c1, {cond.param: dc1, cons.param: 0.0}
        else:
            inner, inner_grad = c2, {cond.param: 0.0, cons.param: dc2}
        if vac >= inner:
            grad = {cond.param: -dc1, cons.param: 0.0}
            return vac, grad
        return inner, inner_grad
    if isinstance(tree, Divisibility):
        v = smooth_tree(tree, values)
        a, b = values[tree.xa], values[tree.xb]
        s = np.sin(2 * np.pi * a / b)
        return v, {tree.xa: -s * np.pi / b, tree.xb: s * np.pi * a / b ** 2}
    raise TypeError(f"not a constraint node: {tree!r}")


def reference_gradient(tree, values):
    return reference_value_and_gradient(tree, values)[1]


def ordspace(**params):
    return ParameterSpace([
        ParameterDef(name, "ordinal", tuple(vals), vals[0])
        for name, vals in params.items()
    ])


@pytest.fixture
def boom_core():
    # the parameters the example constraints talk about
    return ordspace(
        FetchWidth=[1, 4, 8],
        DecodeWidth=[1, 2, 3, 4, 5, 6],
        RobEntry=[32, 64, 96, 120, 128],
        FetchBufferEntry=[8, 16, 24, 32, 35, 40],
        icache_nSets=[2, 4, 8, 16, 32, 64],
        icache_nWays=[2, 4, 8, 16, 32, 64],
        dcache_nSets=[2, 4, 8, 16, 32, 64],
        dcache_nWays=[2, 4, 8, 16, 32, 64],
    )


DCACHE_RULE = {"any": [
    {"cond": {"if": {"param": "dcache_nWays", "in": [16, 32]},
              "then": {"param": "dcache_nSets", "in": [2, 4]}}},
    {"cond": {"if": {"param": "dcache_nWays", "in": [128, 256]},
              "then": {"param": "dcache_nSets", "in": [4, 8]}}},
]}


class TestParsing:
    def test_inequality_leaf(self, boom_core):
        tree = parse_constraints(
            {"all": [{"ineq": {"ka": 1, "xa": "FetchWidth",
                               "kb": 1, "xb": "DecodeWidth", "t": 0}}]},
            boom_core)
        assert tree == Conj((Inequality(1.0, "FetchWidth", 1.0, "DecodeWidth", 0.0),))

    def test_two_branch_cache_rule(self, boom_core):
        tree = parse_constraints({"all": [DCACHE_RULE]}, boom_core)
        (disj,) = tree.children
        assert isinstance(disj, Disj)
        assert all(isinstance(c, Conditional) for c in disj.children)
        assert disj.children[0].condition == IntervalAtom("dcache_nWays", 16.0, 32.0)

    def test_divisibility_leaf(self, boom_core):
        tree = parse_constraints(
            {"all": [{"div": {"xa": "RobEntry", "xb": "DecodeWidth"}}]}, boom_core)
        assert tree.children[0] == Divisibility("RobEntry", "DecodeWidth")

    def test_syntax_error_carries_position(self, boom_core):
        with pytest.raises(ConstraintSyntaxError, match=r"line 2, column"):
            parse_constraints('{"all": [\n  {"ineq": }\n]}', boom_core)

    def test_unknown_parameter(self, boom_core):
        with pytest.raises(UnknownParameterError):
            parse_constraints(
                {"all": [{"div": {"xa": "NoSuch", "xb": "DecodeWidth"}}]}, boom_core)

    def test_categorical_in_numeric_constraint(self):
        space = ParameterSpace([
            ParameterDef("mode", "categorical", ("a", "b"), "a"),
            ParameterDef("n", "ordinal", (1, 2), 1),
        ])
        with pytest.raises(ConstraintSyntaxError, match="categorical"):
            parse_constraints(
                {"all": [{"ineq": {"xa": "mode", "xb": "n"}}]}, space)

    def test_root_must_be_conjunction(self, boom_core):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraints({"any": []}, boom_core)

    def test_empty_child_list_rejected(self, boom_core):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraints({"all": [{"any": []}]}, boom_core)


class TestSmoothInequality:
    def test_satisfied_value(self):
        c = Inequality(1.0, "FetchWidth", 1.0, "DecodeWidth", 0.0)
        assert smooth_inequality(c, {"FetchWidth": 4, "DecodeWidth": 2}) == 2

    def test_boundary_counts_as_satisfied(self):
        c = Inequality(1.0, "FetchWidth", 1.0, "DecodeWidth", 0.0)
        assert smooth_inequality(c, {"FetchWidth": 1, "DecodeWidth": 1}) == 0

    def test_strict_rewrite_matches_exact_semantics(self, boom_core):
        # oracle: integer comparison over every admissible operand pair
        tree = parse_constraints(
            {"all": [{"ineq": {"xa": "FetchBufferEntry", "xb": "FetchWidth",
                               "strict": True}}]},
            boom_core)
        leaf = tree.children[0]
        for fbe in boom_core.param("FetchBufferEntry").values:
            for fw in boom_core.param("FetchWidth").values:
                values = {"FetchBufferEntry": fbe, "FetchWidth": fw}
                assert (smooth_inequality(leaf, values) >= 0) == (fbe > fw), values

    def test_strict_example_violation(self, boom_core):
        tree = parse_constraints(
            {"all": [{"ineq": {"xa": "FetchBufferEntry", "xb": "FetchWidth",
                               "strict": True}}]},
            boom_core)
        v = smooth_inequality(tree.children[0],
                              {"FetchBufferEntry": 8, "FetchWidth": 8})
        assert v < 0


class TestSmoothIntervalAtom:
    @pytest.mark.parametrize("v,expected", [(3, 1), (2, 0), (5, -3)])
    def test_values(self, v, expected):
        atom = IntervalAtom("x", 2, 4)
        assert _interval_value(atom, v) == expected

    def test_sign_iff_inside(self):
        atom = IntervalAtom("x", 2, 4)
        for v in np.linspace(0, 6, 61):
            assert (_interval_value(atom, v) >= 0) == (2 <= v <= 4)


class TestSmoothTree:
    def test_divisibility_satisfied(self):
        tree = Conj((Divisibility("a", "b"),))
        assert smooth_tree(tree, {"a": 4, "b": 2}) == pytest.approx(0.0, abs=1e-12)

    def test_divisibility_violated(self):
        tree = Conj((Divisibility("a", "b"),))
        assert smooth_tree(tree, {"a": 3, "b": 2}) == pytest.approx(-1.0)

    def test_divisibility_zero_divisor(self):
        tree = Conj((Divisibility("a", "b"),))
        with pytest.raises(DomainError):
            smooth_tree(tree, {"a": 3, "b": 0})

    def test_divisibility_periodic(self):
        d = Divisibility("a", "b")
        rng = np.random.default_rng(3)
        for _ in range(100):
            b = int(rng.integers(1, 20))
            a = int(rng.integers(1, 200))
            v1 = smooth_tree(Conj((d,)), {"a": a, "b": b})
            v2 = smooth_tree(Conj((d,)), {"a": a + b, "b": b})
            assert v1 == pytest.approx(v2, abs=1e-10)

    def test_dcache_rule_first_branch_positive(self, boom_core):
        tree = parse_constraints({"all": [DCACHE_RULE]}, boom_core)
        value = smooth_tree(tree, {"dcache_nWays": 16, "dcache_nSets": 4})
        assert value > 0

    def test_dcache_rule_sign_matches_exact_on_grid(self, boom_core):
        # brute-force oracle over all admissible (nWays, nSets) pairs
        tree = parse_constraints({"all": [DCACHE_RULE]}, boom_core)
        for ways in boom_core.param("dcache_nWays").values:
            for sets in boom_core.param("dcache_nSets").values:
                values = {"dcache_nWays": ways, "dcache_nSets": sets}
                want = ((not 16 <= ways <= 32) or 2 <= sets <= 4) or \
                       ((not 128 <= ways <= 256) or 4 <= sets <= 8)
                assert bool(smooth_satisfied(smooth_tree(tree, values))) == want
                assert bool(exact_tree(tree, values)) == want

    def test_conditional_boundary_violation_is_negative(self, boom_core):
        # condition sits exactly on an interval endpoint while the
        # consequence fails; the vacuity margin must push this negative
        tree = parse_constraints(
            {"all": [{"cond": {"if": {"param": "icache_nWays", "in": [64, 128]},
                               "then": {"param": "icache_nSets", "in": [2, 4]}}}]},
            boom_core)
        value = smooth_tree(tree, {"icache_nWays": 64, "icache_nSets": 8})
        assert value < 0
        assert not exact_tree(tree, {"icache_nWays": 64, "icache_nSets": 8})

    def test_vectorized_matches_scalar(self, boom_core):
        tree = parse_constraints({"all": [
            {"ineq": {"xa": "FetchWidth", "xb": "DecodeWidth"}},
            {"div": {"xa": "RobEntry", "xb": "DecodeWidth"}},
            DCACHE_RULE,
        ]}, boom_core)
        names = sorted(tree_parameters(tree))
        rng = np.random.default_rng(5)
        cols = {n: rng.choice(boom_core.param(n).values, size=64) for n in names}
        vec_smooth = smooth_tree(tree, cols)
        vec_exact = exact_tree(tree, cols)
        for i in range(64):
            row = {n: int(cols[n][i]) for n in names}
            assert vec_smooth[i] == pytest.approx(smooth_tree(tree, row))
            assert bool(vec_exact[i]) == bool(exact_tree(tree, row))


class TestExactTree:
    def test_inequality_violation(self, boom_core):
        tree = parse_constraints(
            {"all": [{"ineq": {"xa": "FetchWidth", "xb": "DecodeWidth"}}]},
            boom_core)
        assert not exact_tree(tree, {"FetchWidth": 1, "DecodeWidth": 4})

    def test_vacuous_conditional_true(self):
        tree = Conj((Conditional(IntervalAtom("a", 10, 20), IntervalAtom("b", 0, 1)),))
        assert exact_tree(tree, {"a": 5, "b": 99})

    def test_conjunction_needs_all(self):
        tree = Conj((Inequality(1, "a", 1, "b", 0), Divisibility("a", "b")))
        assert exact_tree(tree, {"a": 4, "b": 2})
        assert not exact_tree(tree, {"a": 5, "b": 2})   # not divisible
        assert not exact_tree(tree, {"a": 1, "b": 2})   # inequality fails

    def test_disjunction_needs_any(self):
        tree = Conj((Disj((Inequality(1, "a", 1, "b", 0), Divisibility("b", "a"))),))
        assert exact_tree(tree, {"a": 5, "b": 3})       # 5 >= 3
        assert exact_tree(tree, {"a": 3, "b": 6})       # 3 < 6 but 3 divides 6
        assert not exact_tree(tree, {"a": 3, "b": 5})   # both branches fail

    def test_boom_defaults_satisfy_example_rules(self, boom_core):
        tree = parse_constraints({"all": [
            {"ineq": {"xa": "FetchWidth", "xb": "DecodeWidth"}},
            {"ineq": {"xa": "FetchBufferEntry", "xb": "FetchWidth", "strict": True}},
            {"cond": {"if": {"param": "icache_nWays", "in": [64, 128]},
                      "then": {"param": "icache_nSets", "in": [2, 4]}}},
            DCACHE_RULE,
            {"div": {"xa": "RobEntry", "xb": "DecodeWidth"}},
            {"div": {"xa": "FetchBufferEntry", "xb": "DecodeWidth"}},
        ]}, boom_core)
        defaults = {"FetchWidth": 4, "DecodeWidth": 1, "RobEntry": 32,
                    "FetchBufferEntry": 16, "icache_nSets": 64, "icache_nWays": 4,
                    "dcache_nSets": 64, "dcache_nWays": 4}
        # oracle: each rule checked by hand
        assert defaults["FetchWidth"] >= defaults["DecodeWidth"]
        assert defaults["FetchBufferEntry"] > defaults["FetchWidth"]
        assert not 64 <= defaults["icache_nWays"] <= 128
        assert not 16 <= defaults["dcache_nWays"] <= 32
        assert defaults["RobEntry"] % defaults["DecodeWidth"] == 0
        assert defaults["FetchBufferEntry"] % defaults["DecodeWidth"] == 0
        assert exact_tree(tree, defaults)
        assert smooth_satisfied(smooth_tree(tree, defaults))


class TestSignAgreement:
    def test_exhaustive_on_small_grid(self, boom_core):
        tree = parse_constraints({"all": [
            {"ineq": {"xa": "FetchWidth", "xb": "DecodeWidth"}},
            {"ineq": {"xa": "FetchBufferEntry", "xb": "FetchWidth", "strict": True}},
            {"div": {"xa": "RobEntry", "xb": "DecodeWidth"}},
        ]}, boom_core)
        names = sorted(tree_parameters(tree))
        grids = np.meshgrid(*[np.asarray(boom_core.param(n).values) for n in names],
                            indexing="ij")
        cols = {n: g.ravel() for n, g in zip(names, grids)}
        agree = smooth_satisfied(smooth_tree(tree, cols)) == exact_tree(tree, cols)
        assert agree.all()


class TestStructuralProperties:
    def test_disj_grows_with_children(self, boom_core):
        base = (Inequality(1, "FetchWidth", 1, "DecodeWidth", 0),)
        extra = Divisibility("RobEntry", "DecodeWidth")
        rng = np.random.default_rng(17)
        for _ in range(100):
            values = {n: int(rng.choice(boom_core.param(n).values))
                      for n in ("FetchWidth", "DecodeWidth", "RobEntry")}
            small = smooth_tree(Disj(base), values)
            big = smooth_tree(Disj(base + (extra,)), values)
            assert big >= small

    def test_conj_shrinks_with_children(self, boom_core):
        base = (Inequality(1, "FetchWidth", 1, "DecodeWidth", 0),)
        extra = Divisibility("RobEntry", "DecodeWidth")
        rng = np.random.default_rng(19)
        for _ in range(100):
            values = {n: int(rng.choice(boom_core.param(n).values))
                      for n in ("FetchWidth", "DecodeWidth", "RobEntry")}
            small = smooth_tree(Conj(base + (extra,)), values)
            big = smooth_tree(Conj(base), values)
            assert big >= small


class TestGradient:
    def test_inequality_gradient(self):
        tree = Conj((Inequality(2.0, "a", 3.0, "b", 1.0),))
        grad = smooth_gradient(tree, {"a": 5.0, "b": 2.0})
        assert grad == {"a": 2.0, "b": -3.0}

    def test_interval_vertex_gradient_zero(self):
        # derivative of -(v-2)(v-4) at the vertex v=3 is zero
        tree = Conj((Conditional(IntervalAtom("a", 0, 100), IntervalAtom("b", 2, 4),
                                 vacuity_margin=0.5),))
        grad = smooth_gradient(tree, {"a": 50.0, "b": 3.0})
        assert grad["b"] == pytest.approx(0.0)

    def test_divisibility_gradient_finite_difference(self):
        tree = Conj((Divisibility("a", "b"),))
        values = {"a": 5.0, "b": 2.0}
        grad = reference_gradient(tree, values)
        assert smooth_gradient(tree, values) == grad
        h = 1e-6
        for name in ("a", "b"):
            hi = dict(values)
            lo = dict(values)
            hi[name] += h
            lo[name] -= h
            fd = (smooth_tree(tree, hi) - smooth_tree(tree, lo)) / (2 * h)
            assert grad[name] == pytest.approx(fd, rel=1e-5)

    def test_gradient_matches_finite_differences_at_random_points(self, boom_core):
        tree = parse_constraints({"all": [
            {"ineq": {"xa": "FetchWidth", "xb": "DecodeWidth"}},
            {"div": {"xa": "RobEntry", "xb": "DecodeWidth"}},
            DCACHE_RULE,
            {"cond": {"if": {"param": "icache_nWays", "in": [64, 128]},
                      "then": {"param": "icache_nSets", "in": [2, 4]}}},
        ]}, boom_core)
        names = sorted(tree_parameters(tree))
        rng = np.random.default_rng(23)
        h = 1e-6
        checked = 0
        while checked < 1000:
            values = {n: float(rng.uniform(1.0, 70.0)) for n in names}
            grad = reference_gradient(tree, values)
            assert smooth_gradient(tree, values) == grad
            kink = False
            fds = {}
            for n in names:
                hi = dict(values)
                lo = dict(values)
                hi[n] += h
                lo[n] -= h
                f_hi, f_lo = smooth_tree(tree, hi), smooth_tree(tree, lo)
                center = smooth_tree(tree, values)
                # one-sided slopes disagreeing marks a kink; skip those points
                left = (center - f_lo) / h
                right = (f_hi - center) / h
                if abs(left - right) > 1e-3 * (1 + abs(left) + abs(right)):
                    kink = True
                    break
                fds[n] = (f_hi - f_lo) / (2 * h)
            if kink:
                continue
            for n in names:
                scale = max(1.0, abs(fds[n]))
                assert abs(grad[n] - fds[n]) / scale < 1e-4, (values, n)
            checked += 1

    def test_gradient_covers_all_parameters(self, boom_core):
        tree = parse_constraints({"all": [
            {"ineq": {"xa": "FetchWidth", "xb": "DecodeWidth"}},
            DCACHE_RULE,
        ]}, boom_core)
        grad = smooth_gradient(tree, {"FetchWidth": 4.0, "DecodeWidth": 1.0,
                                      "dcache_nWays": 8.0, "dcache_nSets": 4.0})
        assert set(grad) == tree_parameters(tree)


class TestCompiledTree:
    """compile_tree and smooth_gradient against the recursive oracle, with ==."""

    @staticmethod
    def check(tree, values):
        names = sorted(values)
        value, partials = compile_tree(tree, names)([values[n] for n in names])
        assert value == smooth_tree(tree, values)
        grad = reference_gradient(tree, values)
        assert smooth_gradient(tree, values) == grad
        assert {names[i] for i in partials} <= set(grad)
        for i, name in enumerate(names):
            if name in grad:
                assert partials.get(i, 0.0) == grad[name], name
            else:
                assert i not in partials

    def test_boom_tree_at_random_box_points(self):
        bundle = assets.load_bundle("boom")
        rng = np.random.default_rng(29)
        for _ in range(2000):
            u = rng.uniform(size=bundle.space.encoded_dim)
            values, _ = relaxed_values(bundle.space, u)
            self.check(bundle.tree, values)

    def test_boom_tree_at_vertices(self):
        bundle = assets.load_bundle("boom")
        rng = np.random.default_rng(31)
        for _ in range(500):
            u = np.round(rng.uniform(size=bundle.space.encoded_dim) * 60) / 60
            values, _ = relaxed_values(bundle.space, u)
            self.check(bundle.tree, values)

    def test_disjunction(self):
        tree = Conj((
            Disj((Inequality(1.0, "a", 1.0, "b", 0.0),
                  Inequality(2.0, "b", 1.0, "c", -3.0),
                  Divisibility("c", "b"))),
            Conditional(IntervalAtom("a", 2, 4), IntervalAtom("c", 1, 3),
                        vacuity_margin=0.5)))
        rng = np.random.default_rng(37)
        for _ in range(500):
            self.check(tree, {n: float(rng.uniform(1.0, 9.0)) for n in "abc"})

    def test_ties_go_to_the_lowest_index(self):
        # equal children with different gradients: the first one attains
        for node in (Conj, Disj):
            tree = node((Inequality(1.0, "a", 0.0, "b", 0.0),
                         Inequality(0.0, "a", -1.0, "b", 0.0)))
            self.check(tree, {"a": 3.0, "b": 3.0})
            _, partials = compile_tree(tree, ["a", "b"])([3.0, 3.0])
            assert partials == {0: 1.0, 1: -0.0}

    def test_conditional_kinks(self):
        tree = Conditional(IntervalAtom("a", 0, 4), IntervalAtom("b", 1, 5),
                           vacuity_margin=0.0)
        # c1 == c2 == 3 with slopes 2 and -2: the condition's branch attains
        self.check(tree, {"a": 1.0, "b": 4.0})
        # c1 == 0 == vac <= c2: the vacuous branch attains
        self.check(tree, {"a": 0.0, "b": 2.0})
        for values in ({"a": 2.0, "b": 2.0}, {"a": 4.0, "b": 4.0},
                       {"a": 0.0, "b": 6.0}, {"a": 5.0, "b": 1.0}):
            self.check(tree, values)

    def test_shared_parameter(self):
        # one parameter on both sides of a leaf
        for leaf in (Inequality(3.0, "a", 1.0, "a", 0.5),
                     Conditional(IntervalAtom("a", 1, 3), IntervalAtom("a", 2, 5)),
                     Divisibility("a", "a")):
            for v in (1.5, 2.0, 2.5, 4.0):
                self.check(Conj((leaf,)), {"a": v})

    def test_zero_divisor_raises(self):
        fn = compile_tree(Conj((Divisibility("a", "b"),)), ["a", "b"])
        with pytest.raises(DomainError):
            fn([4.0, 0.0])


def test_batched_exact_matches_per_configuration():
    """One array call over rank rows decides as exact_configuration does."""
    bundle = assets.load_bundle("boom")
    rng = np.random.default_rng(43)
    cfgs = [random_configuration(bundle.space, rng) for _ in range(20_000)]
    ranks = np.array([config_ranks(bundle.space, c) for c in cfgs])
    got = exact_tree(bundle.tree, ordinal_columns(bundle.space, ranks))
    want = [exact_configuration(bundle.tree, bundle.space, c) for c in cfgs]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)
