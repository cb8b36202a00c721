"""Torsion page computations: bases, differentials, homology, closed form.

The single-monomial-per-degree structure of both model algebras makes a
fully independent homology count possible by congruence conditions alone;
that count is the oracle the row-reduction route is measured against.
"""


import pytest

from kverify import bockstein
from kverify.bockstein import (
    ModelDGA,
    ModelKind,
    Monomial,
    PageBasis,
    Run,
    build_model,
    compute_page,
    page_homology_dims,
    rank_mod_p,
    verify_closed_form_pages,
)


def _expand(page):
    """The page written out degree by degree: ({degree: basis}, {degree:
    block}) in order of degree.  Fails unless the runs are in order of first
    degree, step by the period, cover no degree twice and give each degree
    one power."""
    starts = [run.degrees.start for run in page.runs]
    assert starts == sorted(starts), starts
    monomials, matrices = {}, {}
    for run in page.runs:
        assert len(run.degrees) == len(run.powers), run
        assert len(run.degrees) < 2 or run.degrees.step == page.period, run
        for degree, power in zip(run.degrees, run.powers):
            assert degree not in monomials, degree
            monomials[degree] = (Monomial(power, run.aux),)
            if run.block is not None:
                matrices[degree] = run.block
    return dict(sorted(monomials.items())), dict(sorted(matrices.items()))


def _dims(pieces):
    """Homology pieces written out as {degree: dimension}."""
    dims = {}
    for degrees, dim in pieces:
        for degree in degrees:
            assert degree not in dims, degree
            dims[degree] = dim
    return dims


def _forged(page_index, prime, blocks):
    """A page of period 1 with y^d at each degree d of blocks, which maps
    the degrees 0, 1, 2, ... in order to the block leaving each (None at
    degree 0); one run per stretch of one block object."""
    runs = []
    for degree, block in blocks.items():
        start = runs.pop().degrees.start if runs and runs[-1].block is block else degree
        runs.append(Run(range(start, degree + 1), range(start, degree + 1), False, block))
    return PageBasis(page_index, prime, 1, tuple(runs))


def test_build_model_validation():
    build_model(ModelKind.TYPE1, 3, 2, 20)
    with pytest.raises(ValueError):
        build_model(ModelKind.TYPE1, 2, 2, 20)
    with pytest.raises(ValueError):
        build_model(ModelKind.TYPE1, 9, 2, 20)
    with pytest.raises(ValueError):
        build_model(ModelKind.TYPE1, 3, 3, 20)
    with pytest.raises(ValueError):
        build_model(ModelKind.TYPE1, 3, 0, 20)
    with pytest.raises(ValueError):
        build_model(ModelKind.TYPE2, 3, 4, 2)


def test_generator_degrees():
    m1 = build_model(ModelKind.TYPE1, 3, 4, 40)
    assert m1.aux_degree == 3
    m2 = build_model(ModelKind.TYPE2, 3, 4, 40)
    assert m2.aux_degree == 5
    # y^a sits in degree deg * a, and the auxiliary generator adds its degree
    page1, _ = _expand(compute_page(m1, 1)[0])
    page2, _ = _expand(compute_page(m2, 1)[0])
    assert page1[8] == (Monomial(2, False),)
    assert page1[11] == (Monomial(2, True),)
    assert page2[13] == (Monomial(2, True),)


def test_rank_mod_p_frozen():
    assert rank_mod_p((), 3) == 0
    assert rank_mod_p(((0,),), 3) == 0
    assert rank_mod_p(((2,),), 3) == 1
    assert rank_mod_p(((3,),), 3) == 0  # zero mod 3
    assert rank_mod_p(((1, 2), (2, 4)), 3) == 1
    assert rank_mod_p(((1, 2), (2, 4)), 5) == 1
    assert rank_mod_p(((0, 1), (1, 0)), 3) == 2
    assert rank_mod_p(((1, 2, 3), (2, 4, 6), (1, 1, 1)), 5) == 2


def test_first_page_is_whole_algebra():
    model = build_model(ModelKind.TYPE1, 3, 2, 12)
    (page,) = compute_page(model, 1)
    monomials, matrices = _expand(page)
    # one monomial per degree: y^(d/2) even, y^((d-1)/2) x odd
    assert list(monomials) == list(range(13))
    for degree in range(13):
        basis = monomials[degree]
        assert len(basis) == 1, degree
        power, aux = basis[0]
        assert aux == (degree % 2 == 1)
        assert power == degree // 2
    # d(y^a) = a y^(a-1) x, reduced mod 3
    for a in range(1, 7):
        assert matrices[2 * a] == ((a % 3,),)
        assert matrices[2 * a - 1] == ((0,),)
    assert list(matrices) == list(range(1, 13))


def _survivor_oracle(p, deg, degree):
    """Degree-d homology dimension of the first page, by congruences: even
    classes y^a survive iff p | a, odd classes y^a x iff a = -1 mod p, so
    nonzero homology sits exactly at d = 0 or -1 mod (deg * p)."""
    period = deg * p
    return 1 if degree % period in (0, period - 1) else 0


@pytest.mark.parametrize("p,deg", [(3, 2), (3, 4), (5, 2)])
def test_first_page_homology_against_congruence_oracle(p, deg):
    bound = 4 * deg * p
    model = build_model(ModelKind.TYPE1, p, deg, bound)
    (page,) = compute_page(model, 1)
    dims = _dims(page_homology_dims(page, bound - 1))
    assert set(dims) == set(_expand(page)[0]) - {bound}
    for degree in range(bound):
        assert dims.get(degree, 0) == _survivor_oracle(p, deg, degree), (p, deg, degree)


def test_variant_exterior_exponent_is_wrong():
    # at (p, deg) = (3, 2) the surviving odd class on page 2 sits in degree
    # 5 = deg*p - 1; an exterior generator y x in degree 3 would not match
    model = build_model(ModelKind.TYPE1, 3, 2, 12)
    (page,) = compute_page(model, 1)
    dims = _dims(page_homology_dims(page, 11))
    assert dims[5] == 1
    assert dims[3] == 0


def test_page_two_summary_rows_carry_the_exponent_note():
    # the note that the check above backs is stated once per model, on the
    # summary row that runs the page engine
    (note,) = bockstein.EXPONENT_NOTE
    assert "y^(p^r - 1) x" in note and "degree 5 at p=3" in note
    summaries = [
        row for row in bockstein.page_rows(3, 2, 4, 60) if row.check_name == "bockstein-page-summary"
    ]
    assert len(summaries) == 2 * 3
    for row in summaries:
        page = row.parameters["page"]
        assert row.notes == (bockstein.EXPONENT_NOTE if page == 2 else ()), row.parameters


def test_euler_characteristic_bookkeeping():
    # alternating sums: chi(H) = chi(C) - (-1)^(D-1) rank(d at degree D)
    model = build_model(ModelKind.TYPE1, 3, 2, 13)
    (page,) = compute_page(model, 1)
    top = model.max_degree
    monomials, matrices = _expand(page)
    dims = _dims(page_homology_dims(page, top - 1))
    chi_h = sum((-1) ** d * dims[d] for d in range(top))
    chi_c = sum(
        (-1) ** d * len(monomials.get(d, ())) for d in range(top)
    )
    top_rank = rank_mod_p(matrices.get(top, ()), 3)
    assert chi_h == chi_c - (-1) ** (top - 1) * top_rank


def test_later_pages_step_through_powers():
    model = build_model(ModelKind.TYPE1, 3, 2, 60)
    pages = compute_page(model, 3)
    assert [page.page_index for page in pages] == [1, 2, 3]
    # runs step by the page period deg * p^r
    assert [page.period for page in pages] == [6, 18, 54]
    (page1, _), (page2, matrices2), (page3, _) = map(_expand, pages)
    # page 2: polynomial part on y^3, exterior partner y^2 x in degree 5
    assert page2[0] == (Monomial(0, False),)
    assert page2[6] == (Monomial(3, False),)
    assert page2[5] == (Monomial(2, True),)
    assert 2 not in page2
    # page 3: step 9, partner y^8 x in degree 17
    assert page3[18] == (Monomial(9, False),)
    assert page3[17] == (Monomial(8, True),)
    # page-2 differential: d(y^(3a)) = a y^(3a-1) x
    assert matrices2[6] == ((1,),)
    assert matrices2[18] == ((0,),)  # a = 3 dies mod 3
    with pytest.raises(ValueError):
        compute_page(model, 0)


@pytest.mark.parametrize("p,deg", [(3, 2), (3, 4), (5, 2), (5, 4)])
def test_closed_form_pages_verify(p, deg):
    bound = 2 * deg * p**2 + deg
    model = build_model(ModelKind.TYPE1, p, deg, bound)
    rows, mismatches = verify_closed_form_pages(model, 3)
    assert mismatches == {2: 0, 3: 0}
    assert all(computed == predicted for _, _, computed, predicted in rows)
    pages = {row[0] for row in rows}
    assert pages == {2, 3}


def test_type2_collapses_to_one_class():
    model = build_model(ModelKind.TYPE2, 3, 2, 24)
    pages = compute_page(model, 3)
    dims = _dims(page_homology_dims(pages[0], 23))
    assert dims[0] == 1
    assert all(dims.get(d, 0) == 0 for d in range(1, 24))
    for page in pages[1:]:
        assert _expand(page) == ({0: (Monomial(0, False),)}, {})
        assert page.runs == (Run(range(1), range(1), False, None),)
    assert verify_closed_form_pages(model, 3) == (((2, 0, 1, 1), (3, 0, 1, 1)), {2: 0, 3: 0})


def test_each_distinct_block_is_row_reduced_once(monkeypatch):
    # a block's rank serves every degree it leaves and every one it enters
    model = build_model(ModelKind.TYPE1, 3, 4, 60)
    (page,) = compute_page(model, 1)
    seen = []

    def counting_rank(matrix, p):
        seen.append(matrix)
        return rank_mod_p(matrix, p)

    monkeypatch.setattr(bockstein, "rank_mod_p", counting_rank)
    dims = _dims(page_homology_dims(page, 59))
    monomials, matrices = _expand(page)
    assert sorted(seen) == sorted(set(matrices.values()))
    # d(y^a) = a y^(a-1) x for a = 0, 1, 2 mod 3, and the empty block
    # leaving y^a x (nothing sits one degree below it at deg = 4)
    assert len(seen) == 4
    # only the degrees that carry a monomial appear, each with the
    # dimension that its own two ranks give
    assert set(dims) == set(monomials) - {60}
    for degree, dim in dims.items():
        out = rank_mod_p(matrices.get(degree, ()), 3)
        into = rank_mod_p(matrices.get(degree + 1, ()), 3)
        assert dim == 1 - out - into, degree
    # blocks are told apart by their entries: two equal blocks that are
    # separate objects are reduced once, a block with other entries apart
    one, same, zero, two = ((1,),), ((1,),), ((0,),), ((2,),)
    seen.clear()
    forged = _forged(1, 5, {0: None, 1: one, 2: zero, 3: same, 4: zero, 5: two})
    dims = _dims(page_homology_dims(forged, 4))
    assert sorted(seen) == [zero, one, two]
    assert dims == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}


def test_report_keeps_only_nonzero_degrees_and_counts_mismatches(monkeypatch):
    model = build_model(ModelKind.TYPE1, 3, 2, 60)
    rows, _ = verify_closed_form_pages(model, 3)
    assert all(computed or predicted for _, _, computed, predicted in rows)
    # rank zero everywhere leaves every chain a cycle and no boundary, so the
    # computed side outgrows the closed form wherever a monomial dies
    monkeypatch.setattr(bockstein, "rank_mod_p", lambda matrix, p: 0)
    rows, mismatches = verify_closed_form_pages(model, 3)
    for page in (2, 3):
        wrong = [row for row in rows if row[0] == page and row[2] != row[3]]
        assert mismatches[page] == len(wrong) > 0


def test_verify_needs_two_pages():
    model = build_model(ModelKind.TYPE1, 3, 2, 12)
    with pytest.raises(ValueError):
        verify_closed_form_pages(model, 1)


def test_dd_zero_guard_trips_on_forged_page():
    # matrices that compose to a nonzero map must be rejected
    from kverify.bockstein import _check_dd_zero

    one = ((1,),)
    forged = _forged(1, 3, {0: None, 1: one, 2: one})
    assert len(forged.runs) == 2
    with pytest.raises(ArithmeticError, match=r"at degree 2 on page 1"):
        _check_dd_zero(forged)


def _dense_page(kind, p, deg, max_degree, r):
    """Page r written straight from the derivation rule: list every
    monomial of the algebra up to max_degree, keep those of the closed-form
    page, and fill each block entry by entry from the image of its column."""
    aux_degree = deg - 1 if kind is ModelKind.TYPE1 else deg + 1
    step = p ** (r - 1)

    def degree(m):
        return deg * m.power + (aux_degree if m.aux else 0)

    def on_page(m):
        if kind is ModelKind.TYPE2:
            return r == 1 or m == Monomial(0, False)
        return m.power % step == (step - 1 if m.aux else 0)

    def d(m):
        # TYPE1: d(y^(step a)) = a y^(step a - 1) x, d(aux) = 0 as x^2 = 0;
        # TYPE2 page 1: d(z y^a) = y^(a+1), later pages are zero
        if kind is ModelKind.TYPE1:
            a = m.power // step
            return {} if m.aux or a == 0 else {Monomial(m.power - 1, True): a}
        return {Monomial(m.power + 1, False): 1} if m.aux and r == 1 else {}

    bases = {}
    for power in range(max_degree + 1):
        for aux in (False, True):
            m = Monomial(power, aux)
            if on_page(m) and degree(m) <= max_degree:
                bases.setdefault(degree(m), []).append(m)
    monomials = {dgr: tuple(bases[dgr]) for dgr in sorted(bases)}
    matrices = {
        dgr: tuple(
            tuple(d(m).get(t, 0) % p for m in source) for t in monomials.get(dgr - 1, ())
        )
        for dgr, source in monomials.items()
        if dgr != 0
    }
    return monomials, matrices


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("p,deg", [(3, 2), (3, 4), (5, 2), (7, 4)])
def test_pages_match_dense_builder(kind, p, deg):
    bound = 2 * deg * p**2 + deg
    pages = compute_page(build_model(kind, p, deg, bound), 3)
    for r, page in enumerate(pages, start=1):
        monomials, matrices = _dense_page(kind, p, deg, bound, r)
        got_monomials, got_matrices = _expand(page)
        assert list(got_monomials) == list(monomials), (r, "degrees")
        assert got_monomials == monomials, r
        assert list(got_matrices) == list(matrices), (r, "block degrees")
        assert got_matrices == matrices, r


@pytest.mark.parametrize("kind", list(ModelKind))
def test_equal_blocks_of_a_page_are_one_object(kind):
    p = 7
    (page,) = compute_page(build_model(kind, p, 4, 2 * 4 * p**3), 1)
    blocks = list(_expand(page)[1].values())
    by_content = {}
    for block in blocks:
        assert by_content.setdefault(block, block) is block
    assert len({id(block) for block in blocks}) <= p + 1
    assert len(blocks) > 100 * (p + 1)


def test_image_outside_target_basis_raises():
    # d(y) = x, but the forged basis one degree down holds y^5 x instead
    model = build_model(ModelKind.TYPE1, 3, 2, 4)
    page = bockstein._page_runs(model, 1)
    assert bockstein._page_blocks(model, page).runs  # the true basis passes
    forged = [run._replace(powers=range(5, 6)) if run.degrees.start == 1 else run for run in page.runs]
    with pytest.raises(ValueError, match=r"image of Monomial\(power=1, aux=False\)"):
        bockstein._page_blocks(model, page._replace(runs=tuple(forged)))
    # a run whose image lands only in part is refused: y^4 x in degree 9 of
    # a bound-18 page is forged as y^5 x inside its run, so the middle term
    # of the run y^2, y^5, y^8 maps outside the basis
    model = build_model(ModelKind.TYPE1, 3, 2, 18)
    page = bockstein._page_runs(model, 1)
    odd = next(run for run in page.runs if 9 in run.degrees)
    index = odd.degrees.index(9)
    assert 0 < index < len(odd.degrees) - 1  # the forged degree is inside its run
    bent = odd._replace(degrees=odd.degrees[:index], powers=odd.powers[:index])
    rest = odd._replace(degrees=odd.degrees[index + 1 :], powers=odd.powers[index + 1 :])
    moved = Run(range(9, 10), range(5, 6), True, None)
    forged = sorted(
        [run for run in page.runs if run is not odd] + [bent, moved, rest],
        key=lambda run: run.degrees.start,
    )
    with pytest.raises(ValueError, match=r"Monomial\(power=5, aux=False\).*degree 9 on"):
        bockstein._page_blocks(model, page._replace(runs=tuple(forged)))


def test_dd_zero_guard_names_first_failing_degree_of_a_repeated_pair():
    from kverify.bockstein import _check_dd_zero

    one, zero = ((1,),), ((0,),)
    # the failing pair (one, one) composes at degrees 4, 5 and 6 (d from
    # degree k + 1 to k - 1); the pairs before it vanish
    blocks = {0: None, 1: one, 2: zero, 3: one, 4: one, 5: one, 6: one}
    forged = _forged(2, 5, blocks)
    assert _expand(forged)[1] == {k: v for k, v in blocks.items() if v is not None}
    with pytest.raises(ArithmeticError, match=r"at degree 4 on page 2"):
        _check_dd_zero(forged)
    # the same pair repeated only from degree 5 on is named at degree 5
    blocks[3] = zero
    with pytest.raises(ArithmeticError, match=r"at degree 5 on page 2"):
        _check_dd_zero(_forged(2, 5, blocks))
    # two runs fail, each inside itself ((one, one) from degree 2 and
    # (two, two) at degree 5, as 2 * 2 = 1 mod 3): the lower one is named
    two = ((2,),)
    with pytest.raises(ArithmeticError, match=r"at degree 2 on page 1"):
        _check_dd_zero(_forged(1, 3, {0: None, 1: one, 2: one, 3: zero, 4: two, 5: two}))
    with pytest.raises(ArithmeticError, match=r"at degree 5 on page 1"):
        _check_dd_zero(_forged(1, 3, {0: None, 1: one, 2: zero, 3: zero, 4: two, 5: two}))


def _span_rank(matrix, p):
    """Rank over F_p from the size p^rank of the row space, by listing every
    combination of the rows."""
    rows = [tuple(entry % p for entry in row) for row in matrix]
    width = len(rows[0]) if rows else 0
    span = {(0,) * width}
    for row in rows:
        span |= {
            tuple((a + c * b) % p for a, b in zip(vector, row))
            for vector in span
            for c in range(1, p)
        }
    rank = 0
    while p**rank < len(span):
        rank += 1
    return rank


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank_mod_p_matches_row_space_size(p):
    import random

    rng = random.Random(p)
    for _ in range(150):
        nrows, ncols = rng.randint(0, 3), rng.randint(1, 3)
        matrix = tuple(tuple(rng.randint(-9, 9) for _ in range(ncols)) for _ in range(nrows))
        if nrows >= 2 and rng.random() < 0.3:
            matrix = matrix + (tuple(3 * entry for entry in matrix[0]),)
        assert rank_mod_p(matrix, p) == _span_rank(matrix, p), matrix


def _dense_report(kind, p, deg, max_degree, max_page):
    """(rows, mismatches) of the page report, degree by degree from the
    dense pages: one rank_mod_p per degree, each degree's dimension its
    basis size minus the ranks leaving and entering it."""
    band = max_degree - 1
    pages = [_dense_page(kind, p, deg, max_degree, r) for r in range(1, max_page + 1)]
    rows, mismatches = [], {}
    for target in range(2, max_page + 1):
        monomials, matrices = pages[target - 2]
        ranks = {degree: rank_mod_p(block, p) for degree, block in matrices.items()}
        predicted = pages[target - 1][0]
        mismatches[target] = 0
        for degree in range(band + 1):
            have = len(monomials.get(degree, ())) - ranks.get(degree, 0) - ranks.get(degree + 1, 0)
            want = len(predicted.get(degree, ()))
            if have or want:
                rows.append((target, degree, have, want))
                mismatches[target] += have != want
    return tuple(rows), mismatches


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("p,deg", [(3, 2), (3, 4), (3, 6), (5, 2), (5, 4), (5, 6)])
def test_report_matches_dense_pages_at_every_bound(kind, p, deg):
    # the bounds from one generator degree to one past two periods of page
    # 2 (deg p^2) end each run of pages 1 and 2 at every offset, and start
    # or leave out the runs of pages 3 and 4
    for bound in range(deg, 2 * deg * p**2 + deg + 1):
        report = verify_closed_form_pages(build_model(kind, p, deg, bound), 4)
        assert report == _dense_report(kind, p, deg, bound, 4), bound


@pytest.mark.parametrize("kind", list(ModelKind))
def test_pages_hold_a_few_runs_not_a_run_per_degree(kind):
    # about 2p runs on each page, however many degrees they cover
    p = 31
    pages = compute_page(build_model(kind, p, 2, 2 * 2 * p**3), 3)
    assert sum(len(run.degrees) for run in pages[0].runs) == 2 * 2 * p**3 + 1 - (kind is ModelKind.TYPE2)
    for page in pages:
        assert len(page.runs) <= 2 * p + 2
