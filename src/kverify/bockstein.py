"""Bounded-degree Bockstein page computations for two model algebras.

The torsion bookkeeping of a mod-p exact couple reduces, for the algebras
handled here, to two shapes: a polynomial generator y of even degree with
an exterior partner x = d(y) one degree below (TYPE1), and an exterior
generator z one degree above a polynomial y = d(z) (TYPE2).  In a bounded
degree range each has at most one monomial per degree, so "matrices" over
F_p are tiny, but the homology is still computed by honest row reduction,
never read off a formula.

A page is stored as runs: arithmetic progressions of degrees, stepping by
the page's period, with one monomial per degree and one block of the
differential leaving every degree of the run.  A page of 10^5 degrees is
about 2p runs, and building the blocks, checking d*d = 0 and computing
the homology all walk runs: each distinct block is built and row-reduced
once, and each distinct pair of adjacent blocks is multiplied once.

The expected answer for TYPE1 is the closed-form page
P{y^(p^r)} (x) E{y^(p^r - 1) x} with d(y^(p^r)) = y^(p^r - 1) x, and for
TYPE2 a single class in degree zero from page two on.  The verifier
recomputes each page's homology and compares against the next page's
closed-form basis, degree by degree, on the union of the two supports;
everywhere else both sides are zero.  The exterior exponent is p^r - 1:
the variant reading p^(r-1) already contradicts the computed homology of
the first page in degree five for (p, deg y) = (3, 2), and the report
notes say so.  page_rows turns each model's report into the `bockstein` rows.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import exact, report


class ModelKind(Enum):
    """The two model shapes; a value is the `kind` parameter of the report rows."""

    TYPE1 = "type1"  # polynomial generator with its exterior partner below
    TYPE2 = "type2"  # exterior generator over the polynomial one below it


class Monomial(NamedTuple):
    """y^power, optionally times the odd auxiliary generator."""

    power: int
    aux: bool


class ModelDGA(NamedTuple):
    kind: ModelKind
    p: int
    deg_even_gen: int
    max_degree: int

    @property
    def aux_degree(self) -> int:
        # TYPE1 partner sits below the even generator, TYPE2 above
        if self.kind is ModelKind.TYPE1:
            return self.deg_even_gen - 1
        return self.deg_even_gen + 1


def build_model(kind: ModelKind, p: int, deg: int, max_degree: int) -> ModelDGA:
    if not exact.is_prime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    if deg <= 0 or deg % 2 != 0:
        raise ValueError(f"deg = {deg} must be a positive even integer")
    if max_degree < deg:
        raise ValueError("max_degree must be at least the generator degree")
    return ModelDGA(kind, p, deg, max_degree)


class Run(NamedTuple):
    """y^powers[i], times the auxiliary generator if aux, at degrees[i], and
    the block of d^r leaving each (rows indexed by the basis one degree
    below, which may be empty; entries mod p), or None at degree 0."""

    degrees: range
    powers: range
    aux: bool
    block: tuple[tuple[int, ...], ...] | None


class PageBasis(NamedTuple):
    """Monomial basis and degree-lowering differential of one page: runs
    in order of first degree, covering each degree that carries a monomial
    once, each stepping by period.  Equal blocks of a page are one object."""

    page_index: int
    prime: int
    period: int
    runs: tuple[Run, ...]


def rank_mod_p(matrix, p: int) -> int:
    """Row rank over F_p by Gaussian elimination to row echelon form."""
    rows = [[entry % p for entry in row] for row in matrix]
    if not rows or not rows[0]:
        return 0
    nrows = len(rows)
    rank = 0
    for col in range(len(rows[0])):
        pivot = rank
        while pivot < nrows and not rows[pivot][col]:
            pivot += 1
        if pivot == nrows:
            continue
        pivot_row = rows[pivot]
        rows[pivot] = rows[rank]
        rows[rank] = pivot_row
        inverse = pow(pivot_row[col], -1, p)
        for r in range(rank + 1, nrows):
            factor = rows[r][col] * inverse % p
            if factor:
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], pivot_row)]
        rank += 1
        if rank == nrows:
            break
    return rank


def _page_runs(model: ModelDGA, page_index: int) -> PageBasis:
    """Closed-form basis of a page, as runs without blocks.

    TYPE1 page r: powers of y^step and their products with y^(step-1) x,
    where step = p^(r-1); at r = 1 that is the whole algebra.  Each family
    is split by its power index mod p, so along a run the power steps by
    p^r and d has one coefficient.  Degree 0 is a run of its own.  The two
    families have degrees of opposite parity: one monomial per degree.
    """
    deg = model.deg_even_gen
    runs = [Run(range(1), range(1), False, None)]
    if model.kind is ModelKind.TYPE2:
        if page_index >= 2:
            return PageBasis(page_index, model.p, deg, tuple(runs))
        step, classes = 1, 1
    else:
        step, classes = model.p ** (page_index - 1), model.p
    period = deg * step * classes
    for first, aux, offset in ((step, False, 0), (step - 1, True, model.aux_degree)):
        top = (model.max_degree - offset) // deg
        for power in range(first, min(top, first + step * (classes - 1)) + 1, step):
            degrees = range(deg * power + offset, model.max_degree + 1, period)
            runs.append(Run(degrees, range(power, top + 1, step * classes), aux, None))
    runs.sort(key=lambda run: run.degrees.start)
    return PageBasis(page_index, model.p, period, tuple(runs))


def _slice(run: Run, lo: int, hi: int) -> Run:
    return run._replace(degrees=run.degrees[lo:hi], powers=run.powers[lo:hi])


def _neighbours(runs, period: int, shift: int):
    """(piece, other) for each of runs (in order of first degree) cut where
    the run holding its degrees moved by shift changes: other is the
    aligned piece of that run, or None where no run holds them."""
    by_residue = {}
    for run in runs:
        by_residue.setdefault(run.degrees.start % period, []).append(run)
    for run in runs:
        moved, done = run.degrees.start + shift, 0
        for other in by_residue.get(moved % period, ()):
            offset = (moved - other.degrees.start) // period
            lo, hi = max(0, -offset), min(len(run.degrees), len(other.degrees) - offset)
            if lo < hi:
                if done < lo:
                    yield _slice(run, done, lo), None
                yield _slice(run, lo, hi), _slice(other, lo + offset, hi + offset)
                done = hi
        if done < len(run.degrees):
            yield _slice(run, done, len(run.degrees)), None


def _page_blocks(model: ModelDGA, page: PageBasis) -> PageBasis:
    """The page with its differential: each run is cut where the run one
    degree below changes and given its block by the derivation rule.

    TYPE1 page r sends y^(step a) to a * y^(step a - 1) x and kills the
    aux monomials (their would-be image carries the square of an odd
    generator).  TYPE2 page 1 sends z y^a to y^(a+1); later TYPE2 pages
    are zero.  A nonzero image must be the monomial below at every degree
    of its piece, which one comparison of two ranges checks.
    """
    page_index, step = page.page_index, model.p ** (page.page_index - 1)
    blocks, out = {}, []
    for piece, below in _neighbours(page.runs, page.period, -1):
        if model.kind is ModelKind.TYPE1:
            coefficient, shift = (0 if piece.aux else piece.powers.start // step % model.p), -1
        else:
            coefficient, shift = int(page_index == 1 and piece.aux), 1
        image = range(piece.powers.start + shift, piece.powers.stop + shift, piece.powers.step)
        if coefficient and (below is None or (below.aux, below.powers) != (not piece.aux, image)):
            raise ValueError(
                f"image of {Monomial(piece.powers[0], piece.aux)} is not in the basis "
                f"of degree {piece.degrees[0] - 1} on page {page_index}"
            )
        block = blocks.setdefault((bool(below), coefficient), ((coefficient,),) if below else ())
        out.append(piece._replace(block=block if piece.degrees.start else None))
    return page._replace(runs=tuple(sorted(out, key=lambda run: run.degrees.start)))


def _check_dd_zero(page: PageBasis) -> None:
    """Raise at the first degree where d * d is nonzero mod p.  Each
    distinct (outgoing, incoming) pair of blocks is multiplied once."""
    pairs = [
        (piece.degrees[0] + 1, (piece.block, above.block))
        for piece, above in _neighbours(page.runs, page.period, 1)
        if piece.block and above and above.block
    ]
    vanishes = {
        (outgoing, incoming): not any(
            sum(a * b[col] for a, b in zip(row, incoming)) % page.prime
            for row in outgoing
            for col in range(len(incoming[0]))
        )
        for outgoing, incoming in {pair for _, pair in pairs}
    }
    failing = [degree for degree, pair in pairs if not vanishes[pair]]
    if failing:
        raise ArithmeticError(
            f"differential does not square to zero at degree {min(failing)} "
            f"on page {page.page_index}"
        )


def compute_page(model: ModelDGA, r_max: int) -> list[PageBasis]:
    """Pages 1..r_max: basis plus differential, d*d checked on each."""
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    pages = []
    for r in range(1, r_max + 1):
        page = _page_blocks(model, _page_runs(model, r))
        _check_dd_zero(page)
        pages.append(page)
    return pages


def page_homology_dims(page: PageBasis, max_degree: int) -> list[tuple[range, int]]:
    """Homology dimension by row reduction, as (degrees, dimension) pieces
    in order of first degree, covering each degree up to max_degree that
    carries a monomial.  Other degrees have no chains; read them as zero.

    Each distinct block is row-reduced once.  The incoming differential
    comes from one degree higher, so max_degree must stay one below the
    basis bound.
    """
    blocks = {run.block for run in page.runs} - {None}
    ranks = {block: rank_mod_p(block, page.prime) for block in blocks}
    pieces = []
    for piece, above in _neighbours(page.runs, page.period, 1):
        degrees = range(piece.degrees.start, min(piece.degrees.stop, max_degree + 1), page.period)
        if degrees:
            incoming = ranks[above.block] if above else 0
            pieces.append((degrees, 1 - ranks.get(piece.block, 0) - incoming))
    pieces.sort(key=lambda piece: piece[0].start)
    return pieces


class PageReport(NamedTuple):
    """Computed homology against the closed form, where either is nonzero.

    rows holds (page, degree, computed_dim, predicted_dim) for each degree
    below the basis bound at which either dimension is nonzero; at every
    other degree both are zero.  mismatches maps each verified page to the
    number of its rows whose two dimensions differ.
    """

    rows: tuple[tuple[int, int, int, int], ...]
    mismatches: dict[int, int]
    notes: tuple[str, ...]


def verify_closed_form_pages(model: ModelDGA, max_page: int) -> PageReport:
    """Homology of each page against the next page's closed-form basis.

    Covers pages 2..max_page over degrees 0..max_degree-1, expanding to
    degrees only the computed pieces of nonzero dimension and the runs of
    the closed form.  The page being verified is the homology of its
    predecessor; only page 1 enters as raw data, so each row is one
    inductive step of the closed form.
    """
    if max_page < 2:
        raise ValueError("max_page must be at least 2")
    pages = compute_page(model, max_page)
    band = model.max_degree - 1
    rows = []
    mismatches = {}
    for target in range(2, max_page + 1):
        pieces = page_homology_dims(pages[target - 2], band)
        computed = {degree: dim for degrees, dim in pieces if dim for degree in degrees}
        runs = pages[target - 1].runs
        predicted = {degree: 1 for run in runs for degree in run.degrees if degree <= band}
        mismatches[target] = 0
        for degree in sorted(computed.keys() | predicted.keys()):
            have, want = computed.get(degree, 0), predicted.get(degree, 0)
            if have or want:
                rows.append((target, degree, have, want))
                mismatches[target] += have != want
    notes = (
        "surviving exterior generator on page r+1 is y^(p^r - 1) x; the "
        "variant exponent p^(r-1) contradicts the computed first-page "
        "homology already (degree 5 at p=3, generator degree 2)",
    )
    return PageReport(tuple(rows), mismatches, notes)


def page_rows(p: int, deg: int, pages: int, max_deg: int) -> list[report.CheckReport]:
    """Summary and dimension rows of each model.  Only the page-2 summary
    row runs the page engine, so it is timed inside that row and a raise is
    an ERROR row on every summary page; the other rows read its report."""
    rows = []
    for kind in ModelKind:
        label = kind.value  # read once: Enum.value is a Python-level property
        params = {"p": p, "deg": deg, "kind": label}
        found = []

        def page_two():
            found.append(verify_closed_form_pages(build_model(kind, p, deg, max_deg), pages))
            return f"{found[0].mismatches[2]} mismatches", "0 mismatches", found[0].notes

        first = report.run_check("bockstein-page-summary", {**params, "page": 2}, page_two)
        if not found:
            # the page engine raised: every summary row carries its error
            rows += [first._replace(parameters={**params, "page": n}) for n in range(2, pages + 1)]
            continue
        result = found[0]
        rows.append(first)
        rows += report.make_rows(
            "bockstein-page-summary",
            (
                ({**params, "page": page}, f"{result.mismatches[page]} mismatches", "0 mismatches")
                for page in range(3, pages + 1)
            ),
        )
        rows += report.make_rows(
            "bockstein-page-dimension",
            (
                (
                    {"p": p, "deg": deg, "kind": label, "page": page, "degree": degree},
                    str(computed),
                    str(predicted),
                )
                for page, degree, computed, predicted in result.rows
            ),
        )
    return rows
