"""Bounded-degree Bockstein page computations for two model algebras.

The torsion bookkeeping of a mod-p exact couple reduces, for the algebras
handled here, to two shapes: a polynomial generator y of even degree with
an exterior partner x = d(y) one degree below (TYPE1), and an exterior
generator z one degree above a polynomial y = d(z) (TYPE2).  In a bounded
degree range each has at most one monomial per degree, so "matrices" over
F_p are tiny, but the homology is still computed by honest row reduction,
never read off a formula.

Pages are sparse: a page holds only the degrees that carry a monomial,
each with its basis and the block of the differential leaving it, and
every loop here visits only those degrees.  A degree without a monomial
has no chains, so its homology is zero without any computation.

A page has many degrees but few distinct blocks (about p on the first
page, one per coefficient of d(y^a) mod p), so equal blocks within a page
are one shared tuple, and d*d = 0 is checked once per distinct pair of
adjacent blocks.  Sharing saves building and checking, not row reduction:
the homology still row-reduces every block of every degree once.

The expected answer for TYPE1 is the closed-form page
P{y^(p^r)} (x) E{y^(p^r - 1) x} with d(y^(p^r)) = y^(p^r - 1) x, and for
TYPE2 a single class in degree zero from page two on.  The verifier
recomputes each page's homology and compares against the next page's
closed-form basis, degree by degree, on the union of the two supports;
everywhere else both sides are zero.  The exterior exponent is p^r - 1:
the variant reading p^(r-1) already contradicts the computed homology of
the first page in degree five for (p, deg y) = (3, 2), and the report
notes say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .exact import is_prime


class ModelKind(Enum):
    TYPE1 = "polynomial-with-exterior-partner"
    TYPE2 = "exterior-over-polynomial"


class Monomial(NamedTuple):
    """y^power, optionally times the odd auxiliary generator."""

    power: int
    aux: bool


@dataclass(frozen=True)
class ModelDGA:
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
    if not is_prime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    if deg <= 0 or deg % 2 != 0:
        raise ValueError(f"deg = {deg} must be a positive even integer")
    if max_degree < deg:
        raise ValueError("max_degree must be at least the generator degree")
    return ModelDGA(kind, p, deg, max_degree)


@dataclass(frozen=True)
class PageBasis:
    """Monomial basis and degree-lowering differential of one page.

    monomials maps each degree that carries a monomial to its ordered
    basis, and no other degree appears; matrices maps each such nonzero
    degree d to the block of d^r from degree d to degree d - 1 (rows
    indexed by the target basis, columns by the source basis), entries
    reduced mod p.  Blocks are immutable, and equal blocks of one page are
    the same object.
    """

    page_index: int
    prime: int
    monomials: dict[int, tuple[Monomial, ...]]
    matrices: dict[int, tuple[tuple[int, ...], ...]]


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


def _page_monomials(model: ModelDGA, page_index: int) -> dict[int, tuple[Monomial, ...]]:
    """Closed-form basis of a page; page 1 is the full model algebra.

    TYPE1 page r: powers of y^step and their products with y^(step-1) x,
    where step = p^(r-1); at r = 1 that is every monomial, so one builder
    serves both the raw start page and the closed-form later pages.  Each
    family is an arithmetic progression of powers.  The even generator has
    even degree and the auxiliary one odd degree, so the two families never
    share a degree and every degree carries at most one monomial.
    """
    if model.kind is ModelKind.TYPE2:
        if page_index >= 2:
            return {0: (Monomial(0, False),)}
        step, first_aux_power = 1, 0
    else:
        step = model.p ** (page_index - 1)
        first_aux_power = step - 1
    deg = model.deg_even_gen
    out = {}
    for first, aux, offset in ((0, False, 0), (first_aux_power, True, model.aux_degree)):
        top = (model.max_degree - offset) // deg
        out.update(
            {deg * power + offset: (Monomial(power, aux),) for power in range(first, top + 1, step)}
        )
    return {degree: out[degree] for degree in sorted(out)}


def _page_matrices(
    model: ModelDGA, page_index: int, monomials: dict[int, tuple[Monomial, ...]]
) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Differential of the page, from the derivation rule extended by the
    Leibniz rule.

    TYPE1 page r sends y^(step a) to a * y^(step a - 1) x and kills the
    aux monomials (their would-be image carries the square of an odd
    generator).  TYPE2 page 1 sends z y^a to y^(a+1); later TYPE2 pages
    are zero.

    A block is fixed by its shape and its nonzero entries, and a page has
    only about p distinct ones, so each is built once and every degree
    with the same key holds the same tuple object.
    """
    p = model.p
    type1 = model.kind is ModelKind.TYPE1
    step = p ** (page_index - 1)
    blocks: dict[tuple, tuple[tuple[int, ...], ...]] = {}
    matrices: dict[int, tuple[tuple[int, ...], ...]] = {}
    for degree, basis in monomials.items():
        if degree == 0:
            continue
        target = monomials.get(degree - 1, ())
        entries = []
        for col, (power, aux) in enumerate(basis):
            if type1:
                if aux or power < step:
                    continue
                coefficient = power // step % p
                image = (power - 1, True)
            else:
                if page_index >= 2 or not aux:
                    continue
                coefficient = 1
                image = (power + 1, False)
            if coefficient:
                # a Monomial equals its plain (power, aux) tuple; index
                # raises when the image is not in the basis below
                entries.append((target.index(image), col, coefficient))
        key = (len(target), len(basis), tuple(entries))
        block = blocks.get(key)
        if block is None:
            rows = [[0] * len(basis) for _ in target]
            for row, col, coefficient in entries:
                rows[row][col] = coefficient
            block = blocks[key] = tuple(map(tuple, rows))
        matrices[degree] = block
    return matrices


def _check_dd_zero(page: PageBasis) -> None:
    """Raise at the first degree where d * d is nonzero mod p.  Blocks are
    immutable, so each distinct (outgoing, incoming) pair is multiplied
    once; a pair that fails fails first at its first degree."""
    checked = set()
    for degree, outgoing in page.matrices.items():
        incoming = page.matrices.get(degree + 1)
        if not outgoing or not incoming:
            continue
        pair = (id(outgoing), id(incoming))
        if pair in checked:
            continue
        checked.add(pair)
        for row in outgoing:
            for col in range(len(incoming[0])):
                total = sum(entry * incoming[mid][col] for mid, entry in enumerate(row))
                if total % page.prime != 0:
                    raise ArithmeticError(
                        f"differential does not square to zero at degree "
                        f"{degree + 1} on page {page.page_index}"
                    )


def compute_page(model: ModelDGA, r_max: int) -> list[PageBasis]:
    """Pages 1..r_max: basis plus differential, d*d checked on each."""
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    pages = []
    for r in range(1, r_max + 1):
        monomials = _page_monomials(model, r)
        matrices = _page_matrices(model, r, monomials)
        page = PageBasis(r, model.p, monomials, matrices)
        _check_dd_zero(page)
        pages.append(page)
    return pages


def page_homology_dims(page: PageBasis, max_degree: int) -> dict[int, int]:
    """Homology dimension by row reduction, for each degree up to max_degree
    that carries a monomial.  Other degrees have no chains and are absent;
    read them as zero.

    Each block is row-reduced once: its rank is the outgoing rank at its
    own degree and the incoming rank at the degree below.  The incoming
    differential comes from one degree higher, so max_degree must stay one
    below the basis bound.
    """
    ranks = {
        degree: rank_mod_p(block, page.prime)
        for degree, block in page.matrices.items()
        if degree <= max_degree + 1
    }
    return {
        degree: len(basis) - ranks.get(degree, 0) - ranks.get(degree + 1, 0)
        for degree, basis in page.monomials.items()
        if degree <= max_degree
    }


@dataclass(frozen=True)
class PageReport:
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

    Covers pages 2..max_page over degrees 0..max_degree-1, walking the
    union of the computed and predicted supports.  The page being verified
    is the homology of its predecessor; only page 1 enters as raw data, so
    each row is one inductive step of the closed form.
    """
    if max_page < 2:
        raise ValueError("max_page must be at least 2")
    pages = compute_page(model, max_page)
    band = model.max_degree - 1
    rows = []
    mismatches = {}
    for target in range(2, max_page + 1):
        computed = page_homology_dims(pages[target - 2], band)
        predicted = {
            degree: len(basis)
            for degree, basis in pages[target - 1].monomials.items()
            if degree <= band
        }
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
