"""Property-based tests for the bound-expression language.

The central property: the exact max-plus comparator agrees with pointwise
evaluation on arbitrary metrics — soundness *and* completeness of the
decision procedure on the ground fragment.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.bexpr import (INFINITY, BAdd, BConst, BFrameDiff, BHalf,
                               BLog2, BMul, BParam, BParamDiff, BScale,
                               CompareResult, SampleMemo, _bound_le_sampled,
                               _bound_le_sampled_reference, badd, bmax,
                               bmetric, bound_le, evaluate,
                               find_violation_metric, fold_with_params,
                               maxplus_normal_form)

ATOMS = ("f", "g", "h")


@st.composite
def ground_bounds(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return BConst(draw(st.integers(0, 100)))
        return bmetric(draw(st.sampled_from(ATOMS)))
    kind = draw(st.integers(0, 2))
    left = draw(ground_bounds(depth=depth - 1))
    right = draw(ground_bounds(depth=depth - 1))
    if kind == 0:
        return badd(left, right)
    if kind == 1:
        return bmax(left, right)
    return BScale(draw(st.integers(0, 4)), left)


@st.composite
def metric_dicts(draw):
    return {name: draw(st.integers(0, 50)) for name in ATOMS}


class TestNormalFormSemantics:
    @given(ground_bounds(), metric_dicts())
    def test_normal_form_preserves_evaluation(self, bound, metric):
        terms = maxplus_normal_form(bound)
        def term_value(term):
            const, atoms = term
            return const + sum(metric[name] * mult for name, mult in atoms)
        normalized = max(term_value(t) for t in terms)
        assert normalized == evaluate(bound, metric)

    @given(ground_bounds())
    def test_normal_form_deterministic(self, bound):
        assert maxplus_normal_form(bound) == maxplus_normal_form(bound)


class TestComparatorSoundnessCompleteness:
    @settings(max_examples=200)
    @given(ground_bounds(), ground_bounds(), metric_dicts())
    def test_le_sound(self, a, b, metric):
        """If the comparator says a <= b, evaluation never contradicts."""
        if bound_le(a, b).holds:
            assert evaluate(a, metric) <= evaluate(b, metric)

    @settings(max_examples=100)
    @given(ground_bounds(), ground_bounds())
    def test_le_refusals_have_witnesses(self, a, b):
        """Every refusal of the comparator is certified by evaluation: a
        concrete metric on which ``a > b`` (extracted from the failure
        polyhedron by Fourier–Motzkin back-substitution)."""
        result = bound_le(a, b)
        if result.holds:
            return
        metric = find_violation_metric(a, b)
        assert metric is not None, (a, b)
        full = {name: 0 for name in ATOMS}
        full.update(metric)
        assert evaluate(a, full) > evaluate(b, full), (a, b, full)

    def test_le_case_split_completeness(self):
        """Inequalities needing a case split over the metric are decided
        (the termwise check alone refuses them); regression for a latent
        incompleteness found by hypothesis."""
        f, g = bmetric("f"), bmetric("g")
        # M(f)+1 <= max(2*M(f), 1): take 1 at M(f)=0, 2*M(f) otherwise.
        assert bound_le(badd(f, BConst(1)), bmax(badd(f, f), BConst(1))).holds
        # Same shape over two atoms.
        assert bound_le(badd(f, g, BConst(1)),
                        bmax(badd(f, f, g, g), BConst(1))).holds
        # A genuine violation in a narrow window (M(f)=2..4) is refused
        # and certified.
        a = badd(f, BConst(4))
        b = bmax(badd(f, f), BConst(5))
        assert not bound_le(a, b).holds
        witness = find_violation_metric(a, b)
        assert witness is not None and evaluate(a, witness) > \
            evaluate(b, witness)

    @given(ground_bounds())
    def test_le_reflexive(self, a):
        assert bound_le(a, a).holds

    @given(ground_bounds(), ground_bounds())
    def test_le_join(self, a, b):
        joined = bmax(a, b)
        assert bound_le(a, joined).holds
        assert bound_le(b, joined).holds

    @given(ground_bounds(), ground_bounds(), ground_bounds())
    def test_le_transitive(self, a, b, c):
        if bound_le(a, b).holds and bound_le(b, c).holds:
            assert bound_le(a, c).holds

    @given(ground_bounds(), ground_bounds())
    def test_add_monotone(self, a, b):
        assert bound_le(a, badd(a, b)).holds


class TestFrameDiff:
    @given(ground_bounds(), ground_bounds(), metric_dicts())
    def test_frame_identity(self, part, other, metric):
        """part + (total - part) evaluates to total when part <= total."""
        total = bmax(part, other)
        framed = badd(part, BFrameDiff(total, part))
        assert evaluate(framed, metric) == evaluate(total, metric)

    @given(ground_bounds(), ground_bounds())
    def test_frame_rewrite_exact(self, part, other):
        from repro.logic.bexpr import bound_equal

        total = bmax(part, other)
        framed = badd(part, BFrameDiff(total, part))
        result = bound_equal(framed, total)
        assert result.holds and result.exact


# ---------------------------------------------------------------------------
# The parametric fragment: vector path vs. point-by-point reference
# ---------------------------------------------------------------------------

PARAMS = ("a", "b")


@st.composite
def parametric_bounds(draw, depth=3):
    """Parametric bounds, including the shapes that stress the sampled
    procedure's arithmetic: ∞ constants, 0·∞ (NaN), negative parameter
    differences under log2/half, and clamping frame differences."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return BConst(draw(st.sampled_from([0, 1, 3, 7, 40, INFINITY])))
        if kind == 1:
            return bmetric(draw(st.sampled_from(ATOMS)))
        return BParam(draw(st.sampled_from(PARAMS)))
    kind = draw(st.integers(0, 8))
    left = draw(parametric_bounds(depth=depth - 1))
    if kind == 0:
        return BLog2(left)
    if kind == 1:
        return BHalf(left, draw(st.booleans()))
    if kind == 2:
        return BScale(draw(st.integers(0, 3)), left)
    right = draw(parametric_bounds(depth=depth - 1))
    return (badd, bmax, BFrameDiff, BMul, BParamDiff,
            lambda l, r: BAdd((l, r)))[kind - 3](left, right)


@st.composite
def grids(draw):
    """(param_domains, metric_samples); samples may omit atoms."""
    domains = {name: draw(st.lists(st.integers(-3, 12), max_size=5))
               for name in PARAMS}
    if draw(st.booleans()):
        return domains, None
    samples = draw(st.lists(
        st.dictionaries(st.sampled_from(ATOMS), st.integers(0, 30),
                        min_size=2), min_size=1, max_size=3))
    return domains, samples


def decide_both(small, large, domains, samples, memo=None):
    """Both procedures' verdict, or the exception both raise."""
    outcomes = []
    for decide in (lambda: _bound_le_sampled(small, large, domains, samples,
                                             memo),
                   lambda: _bound_le_sampled_reference(small, large, domains,
                                                       samples)):
        try:
            outcomes.append(decide())
        except Exception as error:  # compared below, type and text
            outcomes.append((type(error), str(error)))
    vector, reference = outcomes
    assert vector == reference, (small, large, domains, samples)
    return vector


class TestSampledVectorsAgreeWithReference:
    @settings(max_examples=300, deadline=None)
    @given(parametric_bounds(), parametric_bounds(), grids())
    def test_random_pairs(self, small, large, grid):
        domains, samples = grid
        memo = SampleMemo()
        # Both orders and a shared memo: the second and third queries
        # reuse vectors of the first.
        decide_both(small, large, domains, samples, memo)
        decide_both(large, small, domains, samples, memo)
        decide_both(small, large, domains, samples, memo)

    @settings(max_examples=150, deadline=None)
    @given(parametric_bounds(), parametric_bounds(), grids())
    def test_holds_and_refusals(self, small, large, grid):
        """Build one pair that must hold and one that usually refuses."""
        domains, samples = grid
        joined = decide_both(small, bmax(small, large), domains, samples)
        if isinstance(joined, CompareResult):
            assert joined.holds
        decide_both(badd(large, BConst(1)), large, domains, samples)

    @settings(max_examples=100, deadline=None)
    @given(parametric_bounds(), parametric_bounds())
    def test_parameter_free_grids(self, small, large):
        ground = {}
        decide_both(small, large, ground, None)
        decide_both(small, large, ground, [{name: 5 for name in ATOMS}])

    def test_both_verdicts_occur(self):
        domains = {"a": range(0, 6)}
        a = BParam("a")
        assert decide_both(a, BConst(5), domains, None).holds
        assert not decide_both(a, BConst(4), domains, None).holds

    def test_infinity_and_nan(self):
        a = BParam("a")
        domains = {"a": [0, 2]}
        # 0·∞ is NaN, which the top-level clamp takes to 0.
        nan = BScale(0, BConst(INFINITY))
        assert decide_both(nan, BConst(0), domains, None).holds
        assert decide_both(BMul(a, BConst(INFINITY)), a, domains, None) \
            == CompareResult(False, False)
        # half(∞) = ∞; half(NaN) raises in int() on both paths.
        assert not decide_both(BHalf(BConst(INFINITY)), a, domains,
                               None).holds
        assert isinstance(decide_both(BHalf(nan), a, domains, None), tuple)

    def test_log2_of_negative_difference_is_infinite(self):
        a, b = BParam("a"), BParam("b")
        domains = {"a": [0, 4], "b": [0, 3]}
        # b - a < 0 at (4, 0): log2 yields ∞ there.
        assert not decide_both(BLog2(BParamDiff(b, a)), BConst(100),
                               domains, None).holds
        assert decide_both(BLog2(BParamDiff(b, a)), BConst(INFINITY),
                           domains, None).holds

    def test_frame_diff_clamps(self):
        a = BParam("a")
        framed = BFrameDiff(BConst(2), a)   # max(0, 2 - a)
        assert decide_both(framed, BConst(2), {"a": range(0, 9)},
                           None).holds
        assert decide_both(badd(a, framed), bmax(a, BConst(2)),
                           {"a": range(0, 9)}, None).holds

    def test_violation_only_at_the_last_grid_point(self):
        a, b, f = BParam("a"), BParam("b"), bmetric("f")
        # Positive only at a = 5, b = 3 under the last sample (f = 1).
        planted = BMul(BMul(BFrameDiff(a, BConst(4)),
                            BFrameDiff(b, BConst(2))), f)
        domains = {"a": range(0, 6), "b": range(0, 4)}
        samples = [{"f": 0}, {"f": 0}, {"f": 1}]
        assert decide_both(badd(a, planted), a, domains, samples) == \
            CompareResult(False, False)
        # One point earlier, everything holds.
        assert decide_both(badd(a, planted), a, domains, samples[:-1]).holds
