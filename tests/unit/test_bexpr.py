"""Unit tests for the bound-expression language."""

import math

import pytest

from repro.logic.bexpr import (BConst, BFrameDiff, BLog2, BMax, BMul, BParam,
                               BParamDiff, BScale, CompareResult, INFINITY,
                               NotGround, SampleMemo, TOP, ZERO,
                               _bound_le_sampled, _bound_le_sampled_reference,
                               badd, bconst, bmax, bmetric, bound_equal,
                               bound_le, bparam, configure_memoization,
                               evaluate, fold_with_params,
                               maxplus_normal_form, metric_atoms, param_names,
                               substitute_params)

M = {"f": 8, "g": 16, "h": 24}


class TestConstruction:
    def test_badd_drops_zero(self):
        assert repr(badd(bmetric("f"), ZERO)) == "M(f)"

    def test_badd_flattens(self):
        expr = badd(badd(bconst(1), bconst(2)), bconst(3))
        assert evaluate(expr) == 6

    def test_bmax_flattens_and_drops_zero(self):
        expr = bmax(bmax(bmetric("f"), ZERO), bmetric("g"))
        assert evaluate(expr, M) == 16

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            bconst(-1)

    def test_operator_sugar(self):
        expr = bmetric("f") + 4
        assert evaluate(expr, M) == 12
        assert evaluate(3 * bmetric("f"), M) == 24


class TestEvaluation:
    def test_metric_atom(self):
        assert evaluate(bmetric("g"), M) == 16

    def test_missing_metric_raises(self):
        with pytest.raises(ValueError):
            evaluate(bmetric("f"))

    def test_param(self):
        assert evaluate(bparam("n"), params={"n": 7}) == 7

    def test_missing_param_raises(self):
        with pytest.raises(ValueError):
            evaluate(bparam("n"))

    def test_infinity_propagates(self):
        assert evaluate(badd(TOP, bconst(1))) == INFINITY
        assert evaluate(bmax(TOP, bconst(1))) == INFINITY

    def test_frame_diff(self):
        expr = BFrameDiff(bmax(bmetric("f"), bmetric("g")), bmetric("f"))
        assert evaluate(expr, M) == 8

    def test_frame_diff_clamps(self):
        expr = BFrameDiff(bconst(3), bconst(10))
        assert evaluate(expr) == 0

    def test_log2_conventions(self):
        assert evaluate(BLog2(bconst(0))) == 0
        assert evaluate(BLog2(bconst(1))) == 0
        assert evaluate(BLog2(bconst(2))) == 1
        assert evaluate(BLog2(bconst(3))) == 2  # ceiling
        assert evaluate(BLog2(bconst(1024))) == 10

    def test_log2_of_negative_is_infinite(self):
        expr = BLog2(BParamDiff(bparam("lo"), bparam("hi")))
        assert evaluate(expr, params={"lo": 1, "hi": 5}) == INFINITY

    def test_param_diff_clamped_at_top_level(self):
        expr = BParamDiff(bparam("a"), bparam("b"))
        assert evaluate(expr, params={"a": 2, "b": 5}) == 0

    def test_mul_and_scale(self):
        expr = BMul(bparam("n"), bmetric("f"))
        assert evaluate(expr, M, {"n": 3}) == 24
        assert evaluate(BScale(5, bmetric("f")), M) == 40


class TestStructure:
    def test_metric_atoms(self):
        expr = badd(bmetric("f"), bmax(bmetric("g"), bconst(4)))
        assert metric_atoms(expr) == {"f", "g"}

    def test_param_names(self):
        expr = BMul(bparam("n"), badd(bmetric("f"), bparam("k")))
        assert param_names(expr) == {"n", "k"}

    def test_substitute_params(self):
        expr = BMul(bparam("n"), bmetric("f"))
        inst = substitute_params(expr, {"n": bconst(4)})
        assert evaluate(inst, M) == 32


class TestNormalForm:
    def test_const(self):
        assert maxplus_normal_form(bconst(5)) == frozenset({(5, frozenset())})

    def test_add_distributes_over_max(self):
        # f + max(g, h) = max(f+g, f+h)
        expr = badd(bmetric("f"), bmax(bmetric("g"), bmetric("h")))
        terms = maxplus_normal_form(expr)
        assert len(terms) == 2

    def test_dominated_terms_pruned(self):
        # max(f, f + g) = f + g  (metrics are nonnegative)
        expr = bmax(bmetric("f"), badd(bmetric("f"), bmetric("g")))
        terms = maxplus_normal_form(expr)
        assert len(terms) == 1

    def test_scale_multiplies_atoms(self):
        terms = maxplus_normal_form(BScale(3, badd(bmetric("f"), bconst(2))))
        ((const, atoms),) = terms
        assert const == 6 and dict(atoms) == {"f": 3}

    def test_parametric_raises(self):
        with pytest.raises(NotGround):
            maxplus_normal_form(bparam("n"))


class TestOrder:
    def test_zero_is_bottom(self):
        result = bound_le(ZERO, BFrameDiff(bmetric("f"), bmetric("g")))
        assert result.holds and result.exact

    def test_monotone_in_atoms(self):
        assert bound_le(bmetric("f"), badd(bmetric("f"), bmetric("g"))).holds

    def test_max_upper_bound(self):
        small = bmetric("f")
        large = bmax(bmetric("f"), bmetric("g"))
        assert bound_le(small, large).holds
        assert not bound_le(large, small).holds

    def test_sum_not_below_max(self):
        # f + g <= max(f, g) must FAIL (choose f = g = 1).
        assert not bound_le(badd(bmetric("f"), bmetric("g")),
                            bmax(bmetric("f"), bmetric("g"))).holds

    def test_constants_compare(self):
        assert bound_le(bconst(3), bconst(4)).holds
        assert not bound_le(bconst(4), bconst(3)).holds

    def test_top_dominates(self):
        assert bound_le(badd(bmetric("f"), bconst(1000)), TOP).holds

    def test_frame_rewrite_makes_equal(self):
        total = bmax(bmetric("f"), bmetric("g"))
        framed = badd(bmetric("f"), BFrameDiff(total, bmetric("f")))
        result = bound_equal(framed, total)
        assert result.holds and result.exact

    def test_paper_figure5_shape(self):
        # {max(mf, mg)} f(); g() {max(mf, mg)}: both call bounds are
        # below the max.
        mf, mg = bmetric("f"), bmetric("g")
        total = bmax(mf, mg)
        assert bound_le(mf, total).holds
        assert bound_le(mg, total).holds

    def test_parametric_needs_domain(self):
        with pytest.raises(ValueError):
            bound_le(bparam("n"), bconst(10))

    def test_parametric_with_domain(self):
        result = bound_le(bparam("n"), bconst(10),
                          param_domains={"n": range(0, 11)})
        assert result.holds and not result.exact
        result = bound_le(bparam("n"), bconst(10),
                          param_domains={"n": range(0, 12)})
        assert not result.holds

    def test_parametric_scaled_metric(self):
        small = BMul(bparam("n"), bmetric("f"))
        large = BMul(badd(bparam("n"), bconst(1)), bmetric("f"))
        assert bound_le(small, large,
                        param_domains={"n": range(0, 50)}).holds


class TestFolding:
    def test_fold_to_ground(self):
        expr = BMul(badd(bconst(1), BLog2(bparam("n"))), bmetric("f"))
        ground = fold_with_params(expr, {"n": 16})
        assert evaluate(ground, M) == 5 * 8
        # ground expressions have exact comparisons
        assert bound_le(ground, BScale(5, bmetric("f"))).exact

    def test_fold_negative_diff_to_infinity_in_log(self):
        expr = BLog2(BParamDiff(bparam("hi"), bparam("lo")))
        assert evaluate(fold_with_params(expr, {"hi": 0, "lo": 4})) == INFINITY

    def test_fold_clamps_negative(self):
        expr = BParamDiff(bparam("a"), bparam("b"))
        folded = fold_with_params(expr, {"a": 1, "b": 9})
        assert evaluate(folded) == 0

    def test_fold_mixed_add(self):
        expr = badd(bmetric("f"), bparam("n"), bconst(2))
        folded = fold_with_params(expr, {"n": 5})
        assert evaluate(folded, M) == 8 + 7

    def test_fold_max(self):
        expr = bmax(bparam("n"), bmetric("f"))
        folded = fold_with_params(expr, {"n": 100})
        assert evaluate(folded, M) == 100

    def test_fold_consistent_with_evaluate(self):
        expr = badd(BMul(bparam("n"), bmetric("g")),
                    bmax(bmetric("f"), BScale(2, bparam("n"))))
        for n in (0, 1, 5, 33):
            folded = fold_with_params(expr, {"n": n})
            assert evaluate(folded, M) == evaluate(expr, M, {"n": n})


class TestCompareResult:
    def test_value_equality(self):
        assert CompareResult(True, False) == CompareResult(True, False)
        assert CompareResult(True, True) != CompareResult(True, False)
        assert CompareResult(False, True) != CompareResult(True, True)
        assert CompareResult(True, True) != (True, True)

    def test_hash_follows_equality(self):
        results = {CompareResult(True, True), CompareResult(True, True),
                   CompareResult(False, False)}
        assert results == {CompareResult(False, False),
                           CompareResult(True, True)}

    def test_repr_names_both_fields(self):
        assert repr(CompareResult(False, True)) == \
            "CompareResult(holds=False, exact=True)"

    def test_comparators_return_equal_values(self):
        query = (bparam("n"), bconst(10))
        domains = {"n": range(0, 11)}
        assert bound_le(*query, param_domains=domains) == \
            bound_le(*query, param_domains=domains)


class TestSampledVectors:
    """The vector path against the point-by-point reference."""

    def decide_both(self, small, large, domains=None, samples=None):
        vector = _bound_le_sampled(small, large, domains, samples)
        reference = _bound_le_sampled_reference(small, large, domains,
                                                samples)
        assert vector == reference
        return vector

    def test_missing_domain_raises_before_evaluation(self):
        # The metric sample lacks M(f) too; the domain error comes first.
        for decide in (_bound_le_sampled, _bound_le_sampled_reference):
            with pytest.raises(ValueError, match="verification domain"):
                decide(badd(bparam("n"), bmetric("f")), bconst(1), {}, [{}])

    def test_missing_atom_raises_lookup_error(self):
        for decide in (_bound_le_sampled, _bound_le_sampled_reference):
            with pytest.raises(KeyError):
                decide(badd(bparam("n"), bmetric("f")), bmetric("f"),
                       {"n": [0, 1]}, [{"g": 1}])

    def test_violation_before_missing_atom_wins(self):
        # The reference stops at the first violation; so must the vectors.
        small = badd(bparam("n"), bmetric("f"))
        result = self.decide_both(small, bmetric("f"), {"n": [1]},
                                  [{"f": 3}, {"g": 1}])
        assert not result.holds

    def test_grid_order_is_metric_major(self):
        memo = SampleMemo()
        domains = {"a": [0, 1], "b": [10, 20, 30]}
        samples = [{"f": 1}, {"f": 2}]
        _bound_le_sampled(bparam("a"), badd(bparam("b"), bmetric("f")),
                          domains, samples, memo)
        (grid,) = memo.grids.values()
        assert grid.vector(bparam("a")) == [0, 0, 0, 1, 1, 1] * 2
        assert grid.vector(bparam("b")) == [10, 20, 30] * 4
        assert grid.vector(bmetric("f")) == [1] * 6 + [2] * 6

    def test_memo_reuses_vectors_and_verdicts(self):
        memo = SampleMemo()
        domains = {"n": range(0, 40)}
        small, large = BScale(2, bparam("n")), badd(bparam("n"), bparam("n"))
        first = _bound_le_sampled(small, large, domains, None, memo)
        (grid,) = memo.grids.values()
        vectors = dict(grid.vectors)
        assert _bound_le_sampled(small, large, domains, None, memo) == first
        assert grid.vectors == vectors and len(grid.verdicts) == 1

    def test_memoization_off_bypasses_the_memo(self):
        memo = SampleMemo()
        configure_memoization(False)
        try:
            result = _bound_le_sampled(bparam("n"), bconst(5),
                                       {"n": range(0, 6)}, None, memo)
        finally:
            configure_memoization(True)
        assert result == CompareResult(True, False)
        assert len(memo) == 0


def _recursive_analysis(path):
    from repro.analyzer import StackAnalyzer
    from repro.driver import compile_frontend
    from repro.programs.loader import load_source

    program = compile_frontend(load_source(path), filename=path)
    return StackAnalyzer(program).analyze()


class TestCheckerMemoScope:
    def check_all(self, analysis, ctx):
        from repro.logic.checker import CheckReport, check_function_spec

        report = CheckReport()
        for name, function_analysis in analysis.functions.items():
            check_function_spec(analysis.program.function(name),
                                function_analysis.derivation, ctx, report)
        return report

    def make_ctx(self, analysis):
        from repro.logic.checker import CheckerContext

        return CheckerContext(analysis.gamma,
                              externals=analysis.program.externals,
                              param_domains=analysis.param_domains)

    def test_memo_is_empty_once_the_check_returns(self):
        analysis = _recursive_analysis("recursive/bsearch.c")
        ctx = self.make_ctx(analysis)
        sizes = []

        class SpyMemo(SampleMemo):
            def clear(self):
                sizes.append(len(self))
                super().clear()

        ctx.sample_memo = SpyMemo()
        report = self.check_all(analysis, ctx)
        assert report.sampled_conditions > 0
        assert max(sizes) > 0          # the check did fill it ...
        assert len(ctx.sample_memo) == 0  # ... and left it empty

    def test_memo_is_empty_after_a_refused_check(self):
        from repro.errors import DerivationError
        from repro.logic.assertions import FunSpec
        from repro.logic.checker import check_function_spec

        analysis = _recursive_analysis("recursive/bsearch.c")
        ctx = self.make_ctx(analysis)
        name = next(n for n in analysis.functions if analysis.gamma[n].params)
        spec = ctx.gamma[name]
        # Claim one byte more than the derivation proves: the parametric
        # precondition check is a sampled refusal.
        ctx.gamma = ctx.gamma.extended(FunSpec(
            name, spec.params, badd(spec.pre, bconst(1)), spec.post))
        with pytest.raises(DerivationError, match="precondition"):
            check_function_spec(analysis.program.function(name),
                                analysis.functions[name].derivation, ctx)
        assert len(ctx.sample_memo) == 0

    @pytest.mark.parametrize("path", ["paper_example.c",
                                      "recursive/qsort.c",
                                      "recursive/fact_sq.c"])
    def test_memoization_off_gives_identical_verdicts(self, path):
        analysis = _recursive_analysis(path)
        with_memo = self.check_all(analysis, self.make_ctx(analysis))
        configure_memoization(False)
        try:
            without = self.check_all(analysis, self.make_ctx(analysis))
        finally:
            configure_memoization(True)
        assert repr(with_memo) == repr(without)
        assert with_memo.sampled_conditions > 0
