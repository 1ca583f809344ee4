"""The order filtration's tables against the snapshot-based construction.

`FilteredSpace` reads the M(i, j) table, the row orders and the linear
partials off one level-tagged echelon basis.  The oracle below is the
construction it replaced, kept verbatim apart from the inlined snapshot,
the field-typed zeros of its linear partials and the kernel it runs on
(the back-substituting one it was written for):
one reduced span, copied after every level, and d+1 spans rebuilt from the
copies to find each row's order.
"""

from __future__ import annotations

import inspect
import itertools

from apolarity.apolar import diff_space
from apolarity.linalg import MonomialSpan
from apolarity.poly import Polynomial, _contract_terms, grlex_key, parse

from conftest import BackSubstitutingSpan, random_polynomial


class SnapshotFiltration:
    """Order-filtration tables of a FilteredSpace, the snapshot way."""

    def __init__(self, space):
        self.polynomial = space.polynomial
        self.nvars = space.nvars
        self.socle_degree = space.socle_degree
        self.dim = space.dim
        self._rows = [dict(row.terms) for row in space.rows]
        self._levels = None
        self._orders = None

    def _ensure_levels(self):
        if self._levels is not None:
            return
        f_terms = dict(self.polynomial.terms)
        divisors = set()
        for beta in f_terms:
            for alpha in itertools.product(*(range(b + 1) for b in beta)):
                divisors.add(alpha)
        by_level: dict[int, list] = {}
        for alpha in divisors:
            by_level.setdefault(sum(alpha), []).append(alpha)
        span = BackSubstitutingSpan()
        levels = {}
        top = self.socle_degree
        for j in range(top, -1, -1):
            for alpha in sorted(by_level.get(j, ()), reverse=True):
                image = _contract_terms(f_terms, alpha)
                if image:
                    span.insert(image)
            levels[j] = {
                "rows": [dict(r) for r in span.rows],
                "lead_degrees": sorted(sum(p) for p in span.pivots),
            }
        if span.dim != self.dim:
            raise AssertionError("order filtration does not exhaust Diff(f)")
        self._levels = levels

    def m_table(self, i: int, j: int) -> int:
        """dim (Diff(f)_i  ∩ O_j) for the degree/order double filtration."""
        if i < 0:
            return 0
        if j > self.socle_degree:
            return 0
        j = max(j, 0)
        self._ensure_levels()
        degrees = self._levels[j]["lead_degrees"]
        return sum(1 for d in degrees if d <= i)

    def order_level_rows(self, j: int) -> list:
        """Echelon basis rows of O_j (term dicts, copies)."""
        self._ensure_levels()
        if j > self.socle_degree:
            return []
        return [dict(r) for r in self._levels[max(j, 0)]["rows"]]

    def linear_partials(self, j: int) -> list:
        """Variable-coefficient rows spanning degree-1 partials of order >= j.

        The constant row is excluded; full reduction guarantees degree-1
        rows carry no constant term.
        """
        out = []
        for row in self.order_level_rows(j):
            pivot = max(row, key=grlex_key)
            if sum(pivot) == 1:
                vec = [row[pivot] - row[pivot]] * self.nvars  # the field's zero
                for m, c in row.items():
                    vec[m.index(1)] = c
                out.append(vec)
        return out

    @property
    def orders(self) -> tuple:
        """Order of each basis row: the largest j with the row inside O_j."""
        if self._orders is None:
            self._ensure_levels()
            spans = {}
            for j in range(self.socle_degree, -1, -1):
                span = BackSubstitutingSpan()
                for row in self._levels[j]["rows"]:
                    span.insert(dict(row))
                spans[j] = span
            orders = []
            for row in self._rows:
                order = 0
                for j in range(self.socle_degree, 0, -1):
                    if spans[j].contains(row):
                        order = j
                        break
                orders.append(order)
            self._orders = tuple(orders)
        return self._orders


def assert_matches_oracle(f: Polynomial):
    space = diff_space(f)
    oracle = SnapshotFiltration(diff_space(f))
    d = space.socle_degree
    assert space.orders == oracle.orders, str(f)
    for j in range(-1, d + 3):
        # repr compares the scalar types too, not only their values
        assert repr(space.linear_partials(j)) == repr(oracle.linear_partials(j)), (str(f), j)
        for i in range(-2, d + 2):
            assert space.m_table(i, j) == oracle.m_table(i, j), (str(f), i, j)


def over_fields(f: Polynomial):
    """f over QQ and, coefficients reduced, over GF(32003)."""
    from apolarity.scalars import PrimeField

    gf = PrimeField(32003)
    yield f
    modular = Polynomial(f.nvars, {e: gf(c) for e, c in f.terms.items()}, f.side)
    if not modular.is_zero():
        yield modular


class TestAgainstSnapshotOracle:
    def test_reduced_basis_traps(self):
        # a row's order is not the lowest tag among the rows of a
        # back-substituted basis that it combines; on these inputs that
        # reading gives wrong orders
        for text in ("x2^4 + 2*x1*x2^2 + 2*x1", "x1^5 + 2*x1^3*x2 + 3*x1^2*x2 + x2^3"):
            for f in over_fields(parse(text, 2)):
                assert_matches_oracle(f)
        assert diff_space(parse("x2^4 + 2*x1*x2^2 + 2*x1", 2)).orders == (0, 1, 1, 1, 3, 4)

    def test_seeded_inputs_over_both_fields(self, rng):
        for _ in range(40):
            f = random_polynomial(rng, rng.randint(1, 3), rng.randint(1, 6),
                                  max_terms=rng.randint(1, 6))
            for g in over_fields(f):
                assert_matches_oracle(g)

    def test_filtration_workload_shapes_at_small_degree(self):
        texts = [f"x1^{e} + x2^{e}" for e in (10, 15, 20)]
        texts += [f"x1^{e} + x1^{e // 2}*x2 + x2^{e // 3}" for e in (12, 18)]
        for text in texts:
            assert_matches_oracle(parse(text, 2))
        assert_matches_oracle(parse("x1^12 + x2^11 + x3^10 + x1^3*x2^3*x3^2", 3))


class TestOrdersScaleLinearly:
    """Kernel work for the orders of x1^e + x2^e, counted, not timed."""

    @staticmethod
    def kernel_calls(monkeypatch, e: int) -> int:
        calls = [0]
        methods = {name: attr for name, attr in vars(MonomialSpan).items()
                   if inspect.isfunction(attr) and name != "__init__"}
        for name, method in methods.items():

            def counted(self, *args, _method=method, **kwargs):
                calls[0] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(MonomialSpan, name, counted)
        diff_space(parse(f"x1^{e} + x2^{e}", 2)).orders
        monkeypatch.undo()
        return calls[0]

    def test_doubling_the_degree_at_most_doubles_the_calls(self, monkeypatch):
        small = self.kernel_calls(monkeypatch, 50)
        large = self.kernel_calls(monkeypatch, 100)
        # rebuilding a span per level made this grow quadratically
        assert large <= 2.1 * small, (small, large)


class TestOneEliminationPerSpace:
    """The contraction table is built once per space and eliminated once:
    the tagged basis is the only elimination of its images."""

    @staticmethod
    def counted(monkeypatch, read, f):
        from apolarity import apolar

        spaces, tables, inserts = [], [], [0]
        build, contractions = apolar.FilteredSpace.__init__, apolar._contraction_table

        def counted_build(self, g):
            build(self, g)
            spaces.append(self)

        def counted_contractions(*args, **kwargs):
            keys, table = contractions(*args, **kwargs)
            tables.append(table)
            return keys, table

        monkeypatch.setattr(apolar.FilteredSpace, "__init__", counted_build)
        monkeypatch.setattr(apolar, "_contraction_table", counted_contractions)
        for name in ("insert", "insert_relation", "insert_tagged"):

            def counted_insert(self, *args, _method=getattr(MonomialSpan, name)):
                inserts[0] += 1
                return _method(self, *args)

            monkeypatch.setattr(MonomialSpan, name, counted_insert)
        read(f)
        monkeypatch.undo()
        return spaces, tables, inserts[0]

    def test_one_table_and_one_insert_per_image_or_row(self, monkeypatch):
        from apolarity.hilbert import symmetric_decomposition

        f = parse("x1^100 + x2^100", 2)
        for read in (symmetric_decomposition, lambda g: diff_space(g).orders):
            spaces, tables, inserts = self.counted(monkeypatch, read, f)
            assert len(spaces) == 1
            assert len(tables) == len(spaces)
            # every image once, and no basis row inserted again: the
            # reduced basis is the tagged span, back-substituted in place
            assert inserts == sum(map(len, tables))
