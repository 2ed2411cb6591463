"""The integer kernels against the Fraction code they replaced (kept in ``_brute``)."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from cue_moments import coefficients
from cue_moments.cli import format_exact
from cue_moments.coefficients import (
    _PASCAL_ROWS,
    _Condensation,
    _condensation,
    _ratios,
    coeff_numerators,
    coeff_vector,
    series_coeff,
)
from cue_moments.moments import (
    ExactScalar,
    _recombine,
    exact_moment,
    half_moment_k1_closed,
    keating_snaith,
    limit_moment_half_h,
    limit_moment_zero,
    moment_half_h,
    moment_integer_h,
)
from cue_moments.specfun import (
    _bareiss,
    _horner,
    _laguerre_det,
    _scaled_laguerre,
    moment_gen_engine,
    moment_gen_hankel,
    moment_gen_series,
    moment_gen_wronskian,
)

from _brute import (
    fraction_det,
    fraction_horner,
    fraction_limit_half_h,
    fraction_recombine,
    hankel_route,
    laguerre_terms,
    one_shot_coeff_numerators,
    one_shot_limit_numerators,
    wronskian_route,
)

# Wider than the verify suite's grid (k <= 4, n <= 8, zeta in {0, 1/3, 1, 7/2}).
ROUTE_ZETAS = (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(2, 9), Fraction(7, 2), Fraction(40))


class TestRoutes:
    def test_wronskian_and_hankel_equal_the_fraction_routes(self):
        for k in range(1, 7):
            for n in range(1, 11):
                for z in ROUTE_ZETAS:
                    assert moment_gen_wronskian(k, n, z) == wronskian_route(k, n, z), (k, n, z)
                    assert moment_gen_hankel(k, n, z) == hankel_route(k, n, z), (k, n, z)

    def test_series_equals_the_fraction_horner(self):
        for k in range(1, 7):
            for n in range(1, 11):
                coeffs = [series_coeff(p, k, n) for p in range(k * n + 1)]
                for z in ROUTE_ZETAS:
                    expected = keating_snaith(n, k) * fraction_horner(coeffs, z)
                    assert moment_gen_series(k, n, z) == expected, (k, n, z)

    def test_engine_equals_the_fraction_horner_and_the_wronskian(self):
        for k in range(1, 7):
            for n in range(1, 11):
                coeffs = coeff_vector(k, n, k * n)
                for z in ROUTE_ZETAS:
                    value = moment_gen_engine(k, n, z)
                    assert value == keating_snaith(n, k) * fraction_horner(coeffs, z), (k, n, z)
                    assert value == moment_gen_wronskian(k, n, z), (k, n, z)

    def test_public_helpers_equal_the_fraction_forms(self):
        # The routes' integer kernels: m! L_m, homogeneous Horner and the Laguerre determinant.
        for n in range(9):
            for alpha in (-n, 0, 3, 11):
                poly = _scaled_laguerre(n, alpha)
                assert [Fraction(c, factorial(n)) for c in poly] == laguerre_terms(n, alpha)
                for t in (Fraction(0), Fraction(-2, 3), Fraction(5, 7), Fraction(-80)):
                    scaled = Fraction(_horner(poly, t.numerator, t.denominator), t.denominator ** n)
                    assert scaled == fraction_horner(poly, t)
        # Mixed parameters, and n < k, where some entries have negative degree.
        for n in (0, 1, 2, 5):
            for alphas in ((4,), (0, 3), (2, 7, 1), (5, 0, 6, 3)):
                for t in (Fraction(0), Fraction(3, 4), Fraction(-5, 2), Fraction(11)):
                    matrix = [[fraction_horner(laguerre_terms(n + i - j, a), t) if n + i - j >= 0 else 0
                               for j, a in enumerate(alphas)] for i in range(len(alphas))]
                    assert _laguerre_det(n, alphas, t) == fraction_det(matrix), (n, alphas, t)


class TestBareiss:
    def test_one_by_one(self):
        assert _bareiss([[-7]]) == fraction_det([[-7]]) == -7
        assert _bareiss([[0]]) == 0

    def test_zero_leading_pivot_swaps_rows_with_a_sign(self):
        matrix = [[0, 2, 1], [3, 1, 4], [1, 5, 9]]
        assert _bareiss(matrix) == fraction_det(matrix) == -32
        assert _bareiss([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        for matrix in ([[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[0, 0], [0, 5]], [[2, 0], [3, 0]]):
            assert _bareiss(matrix) == fraction_det(matrix) == 0

    def test_random_integer_matrices(self):
        rng = random.Random(20)
        for m in range(1, 9):
            for _ in range(25):
                span = rng.choice((1, 3, 10 ** 12))
                matrix = [[rng.randint(-span, span) for _ in range(m)] for _ in range(m)]
                if rng.random() < 0.3:  # a zero column prefix forces swaps further down
                    for row in matrix[: rng.randrange(m)]:
                        row[0] = 0
                assert _bareiss(matrix) == fraction_det(matrix), matrix

    def test_leaves_its_input_alone(self):
        matrix = [[0, 2], [3, 1]]
        _bareiss(matrix)
        assert matrix == [[0, 2], [3, 1]]

    def test_non_exact_division_raises(self):
        # Off the integers the quotient by the pivot can leave a remainder.
        with pytest.raises(ArithmeticError):
            _bareiss([[1, 1], [1, Fraction(1, 2)]])


def extension_orders(top: int, seed: int) -> tuple[list[int], ...]:
    """P = 0..top ascending, descending and in a seeded random order."""
    shuffled = list(range(top + 1))
    random.Random(seed).shuffle(shuffled)
    return list(range(top + 1)), list(range(top, -1, -1)), shuffled


class TestResumableCondensation:
    """The engine's states, extended in any order, against the one-shot condensation (kept in ``_brute``)."""

    def test_finite_states_equal_the_one_shot_tuples(self):
        for k in range(1, 7):
            for n in range(1, 11):
                expected = [one_shot_coeff_numerators(k, n, P) for P in range(k * n + 1)]
                for order in extension_orders(k * n, seed=100 * k + n):
                    state = _Condensation(n + k - 1)
                    for P in order:
                        assert tuple(state.numerators(k, P)[: P + 1]) == expected[P], (k, n, P)

    def test_limit_states_equal_the_one_shot_ratios_across_rescales(self):
        for k in range(1, 7):
            expected = [one_shot_limit_numerators(k, P) for P in range(61)]
            # Each new largest P rescales the state: every step of the ascending order does.
            for order in extension_orders(60, seed=k):
                state, reached = _Condensation(None), 0
                for P in order:
                    reached = max(reached, P)
                    h = tuple(state.numerators(k, P)[: P + 1])
                    assert _ratios(h) == _ratios(expected[P]), (k, P)
                    # Every growth multiplies all levels by one ratio, so a state asked for one
                    # order only holds the one-shot integers at its own scale.
                    assert h == expected[reached][: P + 1], (k, P)

    def test_states_past_the_pascal_table_equal_the_one_shot_condensation(self):
        # f passes the table's bound of rows: past it, each level steps its own row.
        expected = [one_shot_coeff_numerators(2, 80, P) for P in range(161)]
        for order in extension_orders(160, seed=80):
            state = _Condensation(81)
            for P in order:
                assert tuple(state.numerators(2, P)[: P + 1]) == expected[P], P
        # Level 3 of the limit at k = 3 reaches entry P, level 2 entry P + 2.
        checked = (100, 125, 126, 127, 128, 129, 140)
        limit = {P: one_shot_limit_numerators(3, P) for P in checked}
        for order in extension_orders(140, seed=3):
            state, reached = _Condensation(None), 0
            for P in order:
                reached = max(reached, P)
                h = tuple(state.numerators(3, P)[: P + 1])
                if P in checked:
                    assert _ratios(h) == _ratios(limit[P]), P
                if reached in checked:
                    assert h == limit[reached][: P + 1], P
        table = coefficients._PASCAL
        assert len(table) == _PASCAL_ROWS
        assert all(row == [comb(J, i) for i in range(J + 1)] for J, (row, _) in enumerate(table))

    def test_each_level_keeps_the_pascal_row_it_resumes_from(self):
        for N in (82, None):
            state = _Condensation(N)
            state.numerators(3, 140)
            for level, row in zip(state.levels[2:], state.rows[2:]):
                assert row == [comb(len(level) - 1, i) for i in range(len(level))], N
            # A level cut short, as by an interrupted extension, no longer matches its
            # kept row: the row is formed again and the entries come out the same.
            whole = list(state.levels[3])
            del state.levels[3][-7:]
            assert tuple(state.numerators(3, 140)) == tuple(whole), N

    def test_a_held_prefix_is_returned_as_stored(self, monkeypatch):
        calls = []
        extend, grow = coefficients._extend_level, _Condensation._grow_f
        monkeypatch.setattr(coefficients, "_extend_level", lambda *args: calls.append("level") or extend(*args))
        monkeypatch.setattr(_Condensation, "_grow_f", lambda self, *args: calls.append("f") or grow(self, *args))
        for N in (5, None):
            state = _Condensation(N)
            top = state.numerators(3, 6)
            held, calls[:] = list(top), []
            for P in (6, 4, 0):
                assert state.numerators(3, P) is top and top == held, (N, P)
            assert calls == [], N
        # At size n the whole polynomial, kn + 1 entries, answers any larger P as well.
        state = _Condensation(5)
        top = state.numerators(3, 9)
        calls[:] = []
        assert state.numerators(3, 20) is top and len(top) == 10 and calls == []

    def test_a_shallower_order_on_held_levels_condenses_nothing(self, monkeypatch):
        calls = []
        extend, grow = coefficients._extend_level, _Condensation._grow_f
        monkeypatch.setattr(coefficients, "_extend_level", lambda *args: calls.append("level") or extend(*args))
        monkeypatch.setattr(_Condensation, "_grow_f", lambda self, *args: calls.append("f") or grow(self, *args))
        for N in (9, None):
            state = _Condensation(N)
            state.numerators(5, 8)
            held, calls[:] = [list(level) for level in state.levels], []
            # Level j was grown to P + 2(5 - j) + 1 entries (or its degree): order j at any
            # P below that is a stored prefix.
            for k in (4, 2, 1, 3):
                P = 8 + 2 * (5 - k) if N is None else min(8 + 2 * (5 - k), k * (N + 1 - k))
                h = state.numerators(k, P)
                assert h is state.levels[k] and len(h) > P, (N, k)
                if N is not None:
                    assert tuple(h[: P + 1]) == one_shot_coeff_numerators(k, N + 1 - k, P), k
                else:
                    assert _ratios(tuple(h[: P + 1])) == _ratios(one_shot_limit_numerators(k, P)), k
            assert calls == [] and state.levels == held, N

    def test_every_order_of_one_finite_series_equals_the_one_shot_tuples(self):
        # Every k <= N at N = n + k - 1 shares one state; its levels serve each
        # other order, asked in ascending, descending and shuffled k.
        for N in range(1, 11):
            expected = {k: one_shot_coeff_numerators(k, N - k + 1, k * (N - k + 1)) for k in range(1, N + 1)}
            for order in extension_orders(N - 1, seed=N):
                state = _Condensation(N)
                for k in (x + 1 for x in order):
                    for P in (k * (N - k + 1), 1, 2 * k):
                        h = tuple(state.numerators(k, P)[: P + 1])
                        assert h == expected[k][: P + 1], (N, k, P)
                # Level j stops at its degree j(N + 1 - j), whichever order grew it.
                assert [len(level) for level in state.levels[1:]] == [
                    j * (N + 1 - j) + 1 for j in range(1, len(state.levels))], N

    def test_the_one_limit_state_equals_the_one_shot_ratios_in_mixed_orders(self):
        requests = [(k, P) for k in range(1, 7) for P in (0, 3, 11, 24)]
        expected = {(k, P): _ratios(one_shot_limit_numerators(k, P)) for k, P in requests}
        ascending = sorted(requests)
        shuffled = list(requests)
        random.Random(6).shuffle(shuffled)
        for order in (ascending, ascending[::-1], shuffled, sorted(requests, key=lambda r: (r[1], -r[0]))):
            state = _Condensation(None)
            for k, P in order:
                assert _ratios(tuple(state.numerators(k, P)[: P + 1])) == expected[k, P], (k, P)
            assert all(level[0] > 0 for level in state.levels)

    def test_an_exact_scalar_keeps_the_fraction_it_is_given(self):
        q = Fraction(-5, 7)
        assert ExactScalar(q).q is q
        assert type(ExactScalar(3).q) is Fraction and ExactScalar(3).q == 3

    def test_a_finite_level_stops_at_its_degree(self):
        # u_j has degree j(n + k - j): no entry past it is stored.
        for k in range(1, 7):
            for n in range(1, 9):
                _condensation.cache_clear()
                coeff_numerators(k, n, k * n)
                levels = _condensation(n + k - 1).levels
                assert [len(level) for level in levels[1:]] == [
                    min(k * n + 2 * (k - j) + 1, j * (n + k - j) + 1) for j in range(1, k + 1)], (k, n)

    def test_every_level_leads_with_a_positive_value(self):
        for k in range(1, 17):
            for n in (None, 1, 2, 3, 7, 20):
                state = _Condensation(None if n is None else n + k - 1)
                state.numerators(k, 0)
                assert all(level[0] > 0 for level in state.levels), (k, n)

    def test_a_corrupted_stored_entry_fails_an_exact_division(self):
        for N in (6, None):
            state = _Condensation(N)
            state.numerators(4, 6)
            state.levels[2][3] += 1
            with pytest.raises(ArithmeticError, match="inexact quotient"):
                state.numerators(4, 12)


class TestRecombination:
    def test_finite_moments_equal_the_fraction_recombination(self):
        short = 0
        for n in range(1, 13):
            for k in range(1, 7):
                zeroth = keating_snaith(n, k)
                for two_h in range(2 * k + 1):
                    P = min(two_h, k * n) if two_h % 2 == 0 else k * n
                    short += P < two_h and two_h % 2 == 1
                    expected = fraction_recombine(two_h, n, zeroth, coeff_vector(k, n, P))
                    assert _recombine(two_h, n, zeroth, coeff_numerators(k, n, P)) == expected, (n, two_h, k)
                    if two_h == 0:
                        assert expected == zeroth
                    elif two_h % 2 == 0:
                        assert moment_integer_h(n, two_h // 2, k) == expected
                    else:
                        assert moment_half_h(n, two_h, k) == ExactScalar(expected)
        assert short == 9  # n = 1 and odd two_h in (k, 2k]: none at k = 1, then 1, 1, 2, 2, 3
        # The moment cells of the exact_large benchmark: the Horner tail runs to P = kn >= 30.
        for n, two_h, k in ((30, 3, 3), (12, 7, 4), (6, 9, 5)):
            zeroth = keating_snaith(n, k)
            expected = fraction_recombine(two_h, n, zeroth, coeff_vector(k, n, k * n))
            assert _recombine(two_h, n, zeroth, coeff_numerators(k, n, k * n)) == expected, (n, two_h, k)

    def test_synthetic_numerators_equal_the_closed_form_weights(self):
        # The stepped weights against the closed forms far past the moment cells:
        # P = two_h and P > two_h for both parities, up to two_h = 31, and P < two_h
        # at n = 1, the only size where a moment has it.
        rng = random.Random(5)
        cases = 0
        for two_h in range(32):
            for n in (1, 2, 7):
                for length in sorted({1, 2, two_h // 2 + 1, two_h + 1, two_h + 2, 40, 64}):
                    if n > 1 and length <= two_h:
                        continue
                    h = (rng.randint(1, 10 ** 6), *(rng.randint(-10 ** 12, 10 ** 12) for _ in range(length - 1)))
                    zeroth = Fraction(rng.randint(1, 999), rng.randint(1, 999))
                    coeffs = [Fraction(x, factorial(p) * h[0]) for p, x in enumerate(h)]
                    expected = fraction_recombine(two_h, n, zeroth, coeffs)
                    assert _recombine(two_h, n, zeroth, h) == expected, (two_h, n, length)
                    cases += 1
        assert cases == 473

    def test_closed_half_moment_equals_its_fraction_sum(self):
        for n in range(1, 51):
            expected = sum((Fraction(2 ** (j + 1) * comb(n + 2, j + 3), n ** (j + 1)) for j in range(n)), Fraction(0))
            assert half_moment_k1_closed(n) == ExactScalar(expected)

    def test_integer_limits_equal_the_fraction_recombination(self):
        for k in range(1, 7):
            for h in range(1, k + 1):
                expected = fraction_recombine(2 * h, 1, limit_moment_zero(k), coeff_vector(k, None, 2 * h))
                assert exact_moment(None, 2 * h, k) == expected, (h, k)

    def test_half_limit_equals_the_fraction_stopping_rule_bit_for_bit(self):
        for k in range(1, 7):
            for two_h in range(1, 2 * k + 1, 2):
                for tol in (1e-2, 1e-4, 1e-8, 1e-12):
                    terms, value, tail = fraction_limit_half_h(two_h, k, tol, coeff_vector, limit_moment_zero(k))
                    _condensation.cache_clear()
                    result = limit_moment_half_h(two_h, k, tol)
                    # A fresh limit state condenses exactly the numerators the stopping rule reads.
                    assert len(_condensation(None).levels[k]) == two_h + result.terms_used + 1
                    assert result.terms_used == terms
                    assert result.exact == ExactScalar(value)
                    assert result.value == float(ExactScalar(value))
                    assert result.tail_bound == float(ExactScalar(tail))

    def test_numerators_are_integers_with_a_positive_lead(self):
        for k in range(1, 7):
            for n in (1, 2, 7):
                h = coeff_numerators(k, n, k * n)
                assert h[0] > 0 and all(type(x) is int for x in h)
                assert coeff_vector(k, n, k * n) == tuple(Fraction(x, factorial(p) * h[0]) for p, x in enumerate(h))
            h = coeff_numerators(k, None, 12)
            assert h[0] > 0 and all(type(x) is int for x in h)


class TestRequestOrder:
    """Which order requests arrive in, and so which orders' levels a state holds, cannot change a value."""

    EXACT_TABLE = [(n, two_h, k) for n in range(1, 13) for k in range(1, 5) for two_h in range(2 * k + 1)]

    def test_every_exact_table_cell_is_the_same_string_in_any_order(self):
        shuffled = list(self.EXACT_TABLE)
        random.Random(288).shuffle(shuffled)
        orders = (sorted(self.EXACT_TABLE, key=lambda c: c[2]), sorted(self.EXACT_TABLE, key=lambda c: -c[2]), shuffled)
        seen = []
        for order in orders:
            _condensation.cache_clear()
            seen.append({cell: format_exact(exact_moment(*cell)) for cell in order})
        assert len(seen[0]) == 288
        assert seen[0] == seen[1] == seen[2]

    def test_limit_cells_are_the_same_result_in_either_order(self):
        cells = [(9, 5), (11, 6), (3, 2), (1, 1)]
        results = []
        for order in (cells, cells[::-1]):
            _condensation.cache_clear()
            results.append({cell: limit_moment_half_h(*cell, 1e-12) for cell in order})
        assert results[0] == results[1]
