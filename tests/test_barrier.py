import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assemble_vstack,
    basis_matrix_pow,
    basis_matrix_repeated,
    bernstein_rows_accumulate,
    bernstein_rows_exact,
    dense,
)
from physbc.barrier import (
    FAMILIES,
    INITIAL_LEVEL,
    RESIDUAL_TOLERANCE,
    BarrierCertificate,
    assemble,
    basis_matrix,
    bernstein_rows,
    check_certificate,
    sample_values,
)
from physbc.errors import PhysbcError
from physbc.models import RegionBox, supply_demand
from physbc.sampling import SCHEME_IID, Dataset

DOMAIN = RegionBox(0.5, 2.7)
INITIAL = RegionBox(0.5, 0.6)
UNSAFE = RegionBox(2.6, 2.7)


def _toy_dataset(count=6):
    model = supply_demand()
    xs = np.linspace(0.6, 2.4, count)
    return Dataset(xs, model.step_many(xs), SCHEME_IID, DOMAIN, seed=0)


def quadratic_certificate(q2, q1, q0, initial_level=0.0, unsafe_level=1.0, decay=0.83):
    return BarrierCertificate(
        coefficients=np.array([q2, q1, q0]),
        decay=decay,
        initial_level=initial_level,
        unsafe_level=unsafe_level,
    )


# -------------------------------------------------------------- the basis


def test_degree_two_template_is_quadratic_basis():
    # three coefficients are the degree-2 basis x^2, x, 1
    cert = quadratic_certificate(0.0, 0.0, 0.0)
    assert cert.degree == 2
    assert cert.to_dict()["template"] == {"exponents": [[2], [1], [0]]}
    assert basis_matrix(np.array([3.0]), 2).tolist() == [[9.0, 3.0, 1.0]]
    assert BarrierCertificate(np.array([5.0]), 0.83, 0.0, 1.0).degree == 0
    assert basis_matrix(np.array([3.0]), 0).tolist() == [[1.0]]


def test_template_validation():
    data = _toy_dataset(2)
    for degree in (-1, (2, 1, 0), ((1, 0), (0, 1))):
        message = re.escape(f"template degree must be a non-negative integer, got {degree!r}")
        with pytest.raises(ValueError, match=message):
            basis_matrix(np.array([1.0]), degree)
        with pytest.raises(ValueError, match=message):
            bernstein_rows(degree, INITIAL)
        with pytest.raises(ValueError, match=message):
            assemble(degree, 0.83, data, INITIAL, UNSAFE)


def test_basis_matrix_values():
    basis = basis_matrix(np.array([2.0, 0.5]), 2)
    assert basis == pytest.approx(np.array([[4.0, 2.0, 1.0], [0.25, 0.5, 1.0]]))
    for states in (np.zeros((2, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"expected \(N,\) states"):
            basis_matrix(states, 2)


# 0, -0, +-1 and values whose fourth power stays a normal float, so neither
# kernel rounds into the subnormal range
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1e3, max_value=1e3).filter(lambda v: abs(v) >= 1e-50),
)


# every degree up to 4
_DEGREE = st.integers(0, 4)


@settings(max_examples=300, deadline=None)
@given(degree=_DEGREE, draw=st.data())
def test_basis_matrix_is_repeated_multiplication(degree, draw):
    states = np.array(draw.draw(st.lists(_COORD, min_size=1, max_size=6)))
    basis = basis_matrix(states, degree)
    assert basis.shape == (len(states), degree + 1)
    assert basis.tobytes() == basis_matrix_repeated(states, degree).tobytes()
    # at most degree - 1 roundings here, about one per factor in the pow kernel
    np.testing.assert_allclose(basis, basis_matrix_pow(states, degree),
                               rtol=4 * degree * np.finfo(float).eps, atol=0.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(degree=st.integers(0, 4), draw=st.data())
def test_basis_matrix_constant_monomial_is_one_for_any_state(degree, draw):
    special = st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -2.5])
    states = np.array(draw.draw(st.lists(special, min_size=1, max_size=6)))
    basis = basis_matrix(states, degree)
    exponents = BarrierCertificate(np.zeros(degree + 1), 0.83, 0.0, 1.0).to_dict()["template"]
    constant = [j for j, (e,) in enumerate(exponents["exponents"]) if not e]
    assert constant == [degree]
    assert np.all(basis[:, constant] == 1.0)
    assert np.all(basis_matrix_pow(states, degree)[:, constant] == 1.0)
    assert np.array_equal(basis, basis_matrix_repeated(states, degree), equal_nan=True)


def _cubic_dict(exponents):
    """A saved cubic certificate whose template lists ``exponents``."""
    data = BarrierCertificate(np.array([1.0, 0.0, -2.0, 0.5]), 0.83, 0.0, 1.0).to_dict()
    return {**data, "template": {"exponents": exponents}}


def test_template_dict_round_trip():
    # the JSON form keeps one exponent list per monomial
    data = _cubic_dict([[3], [2], [1], [0]])
    cert = BarrierCertificate.from_dict(data)
    assert cert.degree == 3 and cert.to_dict() == data
    for exponents, axes in (([[1, 0], [0, 1], [0, 0]], 2), ([[2], [1, 0]], 2), ([[1], []], 0)):
        with pytest.raises(ValueError, match=f"template must be one-dimensional, got {axes} axes"):
            BarrierCertificate.from_dict(_cubic_dict(exponents))
    # any list but [[d], ..., [1], [0]]: sparse, reordered, short, repeated, empty
    for exponents in ([[3], [1], [0]], [[0], [1], [2]], [[2], [1]], [[1], [1], [0]], [],
                      [[2], [2], [1], [0]]):
        message = re.escape("template exponents must be every power from the degree down"
                            f" to 0, [[d], ..., [1], [0]], got {exponents}")
        with pytest.raises(ValueError, match=message):
            BarrierCertificate.from_dict(_cubic_dict(exponents))
    # a full basis of another size than the coefficients'
    for exponents in ([[2], [1], [0]], [[4], [3], [2], [1], [0]]):
        message = re.escape(f"expected {len(exponents)} coefficients, got shape (4,)")
        with pytest.raises(ValueError, match=message):
            BarrierCertificate.from_dict(_cubic_dict(exponents))


# ------------------------------------------------------------- certificates


def test_certificate_evaluation():
    cert = quadratic_certificate(0.2, 0.8097, -15.5199)
    assert cert.evaluate(0.5) == pytest.approx(-15.06505)
    batch = cert.evaluate(np.array([0.5, 1.0]))
    assert batch == pytest.approx([-15.06505, -14.5102])
    assert isinstance(cert.evaluate(np.float64(0.5)), float)
    assert cert.evaluate(np.array([0.5])).shape == (1,)


def test_certificate_validation():
    for coefficients in (np.zeros(0), np.zeros((3, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"expected a non-empty \(N,\) array of coefficients"):
            BarrierCertificate(coefficients, 0.83, 0.0, 1.0)
    with pytest.raises(ValueError):
        BarrierCertificate(np.zeros(3), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BarrierCertificate(np.zeros(3), 1.2, 0.0, 1.0)


def test_certificate_definition_flag_not_enforced():
    # solver output is recorded verbatim; the flag reports the level order
    cert = quadratic_certificate(0.0, 1.0, 0.0, initial_level=2.0, unsafe_level=1.0)
    assert not cert.definition_ok
    assert quadratic_certificate(0.0, 1.0, 0.0).definition_ok


def test_negative_unsafe_level_only_valid_without_decay():
    # with decay < 1 the level chain climbs towards zero, so a negative
    # unsafe level separates nothing; at decay exactly 1 it is legitimate
    drifting = quadratic_certificate(0.0, 1.0, 0.0,
                                     initial_level=-67.0, unsafe_level=-65.0)
    assert not drifting.definition_ok
    frozen = quadratic_certificate(0.0, 1.0, 0.0, initial_level=-67.0,
                                   unsafe_level=-65.0, decay=1.0)
    assert frozen.definition_ok
    assert quadratic_certificate(0.0, 1.0, 0.0, initial_level=-1.0,
                                 unsafe_level=0.0).definition_ok


def test_certificate_dict_round_trip():
    cert = quadratic_certificate(0.3, -1.0, 2.5, initial_level=-3.0, unsafe_level=0.5)
    back = BarrierCertificate.from_dict(cert.to_dict())
    assert back.degree == cert.degree == 2
    assert np.array_equal(back.coefficients, cert.coefficients)
    assert back.decay == cert.decay
    assert back.initial_level == cert.initial_level
    assert back.unsafe_level == cert.unsafe_level


# ---------------------------------------------------------- Bernstein rows


def test_bernstein_rows_of_the_quadratic_on_an_interval():
    rows = bernstein_rows(2, RegionBox(0.5, 0.6))
    # (x^2, x, 1) on [lo, hi]: the ends lo^2 and hi^2, and lo * hi between them
    assert rows.shape == (3, 3)
    assert rows == pytest.approx(np.array([
        [0.25, 0.5, 1.0],
        [0.3, 0.55, 1.0],
        [0.36, 0.6, 1.0],
    ]))


def test_bernstein_rows_count_is_the_product_of_axis_degrees_plus_one():
    # degree d gives d + 1 rows, one column per monomial
    box = RegionBox(-1.0, 2.0)
    for degree in range(5):
        assert bernstein_rows(degree, box).shape == (degree + 1, degree + 1)
    assert bernstein_rows(0, box).tolist() == [[1.0]]


def _box(draw):
    """An interval with bounds in [-3, 3] and a length in [0.01, 3]."""
    lower = draw.draw(st.floats(-3.0, 3.0))
    return RegionBox(lower, lower + draw.draw(st.floats(0.01, 3.0)))


def _coefficients(draw, degree):
    return np.array(draw.draw(st.lists(st.floats(-10.0, 10.0), min_size=degree + 1,
                                       max_size=degree + 1)))


@settings(max_examples=200, deadline=None)
@given(degree=_DEGREE, draw=st.data())
def test_bernstein_coefficients_enclose_the_barrier_on_the_box(degree, draw):
    box = _box(draw)
    q = _coefficients(draw, degree)
    rows = bernstein_rows(degree, box)
    coefficients = rows @ q
    values = basis_matrix(np.linspace(box.lower, box.upper, 201), degree) @ q
    # rounding in the rows and in both products, relative to the terms' magnitude
    rounding = 1e-12 * (1.0 + float((np.abs(rows) @ np.abs(q)).max()))
    assert values.min() >= coefficients.min() - rounding
    assert values.max() <= coefficients.max() + rounding


@settings(max_examples=200, deadline=None)
@given(degree=_DEGREE, draw=st.data())
def test_bernstein_corner_rows_are_the_basis_at_the_corners(degree, draw):
    box = _box(draw)
    rows = bernstein_rows(degree, box)
    # the first and last rows, k = 0 and k = d, are the basis at the two ends
    assert np.array_equal(rows[[0, -1]], basis_matrix(np.array([box.lower, box.upper]), degree))


@settings(max_examples=200, deadline=None)
@given(degree=_DEGREE, draw=st.data())
def test_bernstein_rows_match_exact_rational_expansion(degree, draw):
    box = _box(draw)
    rows = bernstein_rows(degree, box)
    exact = bernstein_rows_exact(degree, box)
    scale = np.abs(exact).max()
    np.testing.assert_allclose(rows, exact, rtol=1e-13, atol=1e-13 * scale)


def test_bernstein_rows_are_the_former_accumulated_powers_form_bit_for_bit():
    # negative, tiny and wide intervals, every degree from 0 to 8
    rng = np.random.default_rng(34)
    lowers = rng.uniform(-5.0, 5.0, size=40)
    lengths = 10.0 ** rng.uniform(-12.0, 2.0, size=40)
    for degree in range(9):
        for lower, length in zip(lowers, lengths):
            box = RegionBox(float(lower), float(lower + length))
            former = bernstein_rows_accumulate(degree, box)
            assert bernstein_rows(degree, box).tobytes() == former.tobytes()


def test_bernstein_rows_of_a_sparse_template_match_exact_rational_expansion():
    # a polynomial that skips powers, 2 x^4 - x^3 + 3 x + 0.5, is the degree-4
    # basis with the x^2 coefficient at zero
    q = np.array([2.0, -1.0, 0.0, 3.0, 0.5])
    box = RegionBox(-1.5, 0.25)
    rows = bernstein_rows(4, box)
    assert rows.shape == (5, 5)
    exact = bernstein_rows_exact(4, box)
    np.testing.assert_allclose(rows, exact, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(rows @ q, exact @ q, rtol=1e-13, atol=1e-12)
    # the end coefficients are the polynomial at the interval's ends
    ends = np.array([box.lower, box.upper])
    assert rows[[0, -1]] @ q == pytest.approx(2 * ends**4 - ends**3 + 3 * ends + 0.5, rel=1e-13)


# ------------------------------------------------------------------ assembly



def test_assemble_row_structure():
    data = _toy_dataset(4)
    system = assemble(2, 0.83, data, INITIAL, UNSAFE)
    rows, offsets = dense(system)

    # d + 1 = 3 Bernstein rows per region
    assert system.counts == {"initial": 3, "unsafe": 3, "flow": 4}
    # then 2 bound rows per decision entry and the level-gap row
    assert system.family_sizes == (3, 3, 4, 8, 1)
    assert rows.shape == (19, 4)

    # initial rows:  b_k - initial_level <= slack, pin folded into the offset
    assert np.array_equal(rows[:3, 1:], bernstein_rows(2, INITIAL))
    assert np.all(rows[:3, 0] == 0.0)
    assert rows[0] == pytest.approx([0.0, 0.25, 0.5, 1.0])
    assert offsets[:3] == pytest.approx([-INITIAL_LEVEL] * 3)
    # unsafe rows:   unsafe_level - b_k <= slack
    assert np.array_equal(rows[3:6, 1:], -bernstein_rows(2, UNSAFE))
    assert rows[3] == pytest.approx([1.0, -(2.6 ** 2), -2.6, -1.0])
    # flow rows:     B(y) - decay B(x) <= slack
    x, y = data.states[0], data.successors[0]
    expected = [0.0, y * y - 0.83 * x * x, y - 0.83 * x, 1.0 - 0.83]
    assert rows[6] == pytest.approx(expected)
    assert np.all(offsets[3:10] == 0.0)


def test_assemble_auxiliary_rows():
    data = _toy_dataset(3)
    system = assemble(2, 0.83, data, INITIAL, UNSAFE, coeff_bound=50.0)
    rows, offsets = dense(system)
    width = rows.shape[1]
    assert width == 4
    assert system.family_sizes == (3, 3, 3, 2 * width, 1)
    bounds = rows[9:-1]
    assert np.all(offsets[9:-1] == -50.0)
    # each decision entry gets a +e_j and a -e_j row
    assert bounds[0::2] == pytest.approx(np.eye(width))
    assert bounds[1::2] == pytest.approx(-np.eye(width))
    # the gap row reads initial_level - unsafe_level <= slack
    assert rows[-1] == pytest.approx([-1.0, 0.0, 0.0, 0.0])
    assert offsets[-1] == INITIAL_LEVEL


STACK_CASES = {
    "default": dict(),
    "bound-7": dict(coeff_bound=7.0),
    "bound-half": dict(coeff_bound=0.5),
    "bound-1e6": dict(coeff_bound=1e6),
}


def _stack_case(case, degree):
    """One assembled system and its ``assemble_vstack`` oracle."""
    options = STACK_CASES[case]
    rng = np.random.default_rng(degree)
    box = RegionBox(0.0, 3.0)
    states = rng.uniform(0.0, 3.0, size=50)
    data = Dataset(states, 0.9 * states + 0.1, SCHEME_IID, box, seed=0)
    initial, unsafe = RegionBox(0.0, 0.5), RegionBox(2.5, 3.0)
    system = assemble(degree, 0.83, data, initial, unsafe, **options)
    return system, assemble_vstack(degree, 0.83, data, initial, unsafe, **options)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_assemble_writes_one_stack_equal_to_vstack(case, degree):
    system, expected = _stack_case(case, degree)
    rows, offsets, tags, extra_rows, extra_offsets, extra_tags = expected
    stack, stack_offsets = dense(system)
    assert np.array_equal(stack, np.vstack([rows, extra_rows]))
    assert np.array_equal(stack_offsets, np.concatenate([offsets, extra_offsets]))
    # a row's family is its position: the per-row tags follow from the sizes
    assert np.array_equal(np.repeat(FAMILIES, system.family_sizes),
                          np.concatenate([tags, extra_tags]))
    # degree d: d + 1 Bernstein rows per region
    assert system.counts == {"initial": degree + 1, "unsafe": degree + 1, "flow": 50}
    # every system ends in 2 * width bound rows and the one gap row
    assert system.family_sizes[3:] == (2 * stack.shape[1], 1)
    # every part the solver reads is read-only
    parts = (system.lead, system.lead_offsets, system.flow, system.trail, system.trail_offsets)
    assert not any(part.flags.writeable for part in parts)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_family_counts_match_tag_tally(case, degree):
    system, expected = _stack_case(case, degree)
    tags = np.concatenate([expected[2], expected[5]])
    rng = np.random.default_rng([degree, len(tags)])
    draws = [np.empty(0, dtype=int), np.arange(len(tags)), np.array([len(tags) - 1])]
    draws += [rng.integers(0, len(tags), size=k) for k in (1, 5, 17, 200)]
    draws += [np.sort(rng.choice(len(tags), size=k, replace=False)) for k in (3, 9)]
    for indices in draws:
        tally = {family: int(np.sum(tags[indices] == family)) for family in FAMILIES}
        assert system.family_counts(indices) == tally
    for outside in ([-1], [len(tags)]):
        with pytest.raises(IndexError):
            system.family_counts(np.array(outside))


def test_certificate_from_decision():
    data = _toy_dataset(2)
    system = assemble(2, 0.83, data, INITIAL, UNSAFE)
    assert dense(system)[0].shape[1] == 4
    cert = system.certificate_from_decision(np.array([1.5, 0.2, 0.8, -1.0]))
    assert cert.initial_level == INITIAL_LEVEL
    assert cert.unsafe_level == 1.5
    assert cert.coefficients == pytest.approx([0.2, 0.8, -1.0])
    assert cert.degree == 2
    assert cert.decay == 0.83


@pytest.mark.parametrize("successor", [1e200, -1e200, np.nan])
def test_assemble_names_the_first_pair_whose_flow_row_is_not_finite(successor):
    data = _toy_dataset(4)
    ys = data.successors.copy()
    ys[2:] = successor  # 1e200 is finite, its square is not
    data = Dataset(data.states, ys, SCHEME_IID, DOMAIN, seed=0)
    message = (f"the flow row of state {float(data.states[2])!r} and successor"
               f" {successor!r} is not finite at degree 2")
    with np.errstate(all="raise"):  # and no numpy warning on the way
        with pytest.raises(PhysbcError, match=re.escape(message)):
            assemble(2, 0.83, data, INITIAL, UNSAFE)
        if not np.isnan(successor):
            assert np.isfinite(dense(assemble(1, 0.83, data, INITIAL, UNSAFE))[0]).all()


def test_assemble_rejects_bad_decay_and_bound():
    data = _toy_dataset(2)
    for decay in (0.0, 1.5):
        with pytest.raises(ValueError):
            assemble(2, decay, data, INITIAL, UNSAFE)
    for bound in (-1.0, 0.0):
        with pytest.raises(ValueError, match="coeff_bound must be positive"):
            assemble(2, 0.83, data, INITIAL, UNSAFE, coeff_bound=bound)


# ------------------------------------------------------------------ residuals


def test_residuals_separate_the_three_families():
    # B(x) = x with levels chosen so each family has a known worst case
    cert = quadratic_certificate(0.0, 1.0, 0.0, initial_level=0.55, unsafe_level=2.66,
                                 decay=1.0)
    model = supply_demand()
    xs = np.array([1.0, 2.0])
    data = Dataset(xs, model.step_many(xs), SCHEME_IID, DOMAIN, seed=0)
    report = check_certificate(cert, sample_values(cert, data), INITIAL, UNSAFE)
    # B is monotone, so its extreme Bernstein coefficients are its corner values
    assert report.initial_max == pytest.approx(0.6 - 0.55)
    assert report.unsafe_max == pytest.approx(2.66 - 2.6)
    # flow rows: (0.8 x + 0.5) - x peaks at the smaller state
    assert report.flow_max == pytest.approx(0.3)
    assert report.worst == pytest.approx(0.3)
    assert report.passes_at(0.3)
    assert not report.passes_at(0.29)
    assert report.definition_ok


def test_region_residuals_hold_between_the_corners():
    # B(x) = -(x - 0.55)^2 peaks inside the initial region, where a check at
    # the ends alone would miss it
    cert = quadratic_certificate(-1.0, 1.1, -0.3025, initial_level=-0.001, unsafe_level=0.0)
    data = _toy_dataset(3)
    report = check_certificate(cert, sample_values(cert, data), INITIAL, UNSAFE)
    scan = np.linspace(0.5, 0.6, 1001)
    true_max = float((cert.evaluate(scan) - cert.initial_level).max())
    corner_max = float((cert.evaluate(np.array([0.5, 0.6])) - cert.initial_level).max())
    assert corner_max < true_max <= report.initial_max
    # the enclosure overshoots the true peak by at most h^2 / 4 for this parabola
    assert report.initial_max <= true_max + 0.1 ** 2 / 4 + 1e-12
    scan = np.linspace(2.6, 2.7, 1001)
    assert report.unsafe_max >= float((cert.unsafe_level - cert.evaluate(scan)).max())


def test_residual_report_serialises():
    cert = quadratic_certificate(0.0, 1.0, 0.0)
    model = supply_demand()
    xs = np.array([1.0, 1.5])
    data = Dataset(xs, model.step_many(xs), SCHEME_IID, DOMAIN, seed=0)
    report = check_certificate(cert, sample_values(cert, data), INITIAL, UNSAFE)
    d = report.to_dict()
    assert set(d) == {"initial_max", "unsafe_max", "flow_max", "definition_ok", "tolerance"}
    assert d["tolerance"] == RESIDUAL_TOLERANCE == 1e-7


# the powers of polynomials that skip some, the constant alone, and the full quadratic;
# each is the basis of its largest power with the skipped coefficients at zero
GAPPED_TEMPLATES = [(3, 0), (4, 2, 1), (0,), (1,), (2, 1, 0), (0, 3), (1, 4)]


def _gapped_certificate(exponents, decay):
    """The polynomial ``sum_i (i + 1) x^exponents[i]`` on the basis of its largest power."""
    degree = max(exponents)
    q = np.zeros(degree + 1)
    for i, e in enumerate(exponents):
        q[degree - e] = i + 1.0
    return BarrierCertificate(q, decay, INITIAL_LEVEL, 1.0)


def _strided_dataset(count, seed):
    """A dataset whose arrays are strided column views, as ``load_dataset`` returns them."""
    rng = np.random.default_rng(seed)
    values = np.empty((count, 2))
    values[:, 0] = rng.uniform(0.0, 3.0, size=count)
    values[:, 1] = 0.9 * values[:, 0] + 0.1
    return Dataset(values[:, 0], values[:, 1], SCHEME_IID, RegionBox(0.0, 3.0), seed=0)


@pytest.mark.parametrize("decay", [0.83, 1.0, 0.1])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("exponents", GAPPED_TEMPLATES, ids=str)
def test_assemble_equals_vstack_on_templates_with_gaps(exponents, strided, decay):
    certificate = _gapped_certificate(exponents, decay)
    degree = certificate.degree
    data = _strided_dataset(37, len(exponents))
    if not strided:
        data = Dataset(np.array(data.states), np.array(data.successors), SCHEME_IID,
                       data.domain, seed=0)
    assert data.states.flags.c_contiguous != strided
    initial, unsafe = RegionBox(0.0, 0.5), RegionBox(2.5, 3.0)
    system = assemble(degree, decay, data, initial, unsafe)
    rows, offsets, _, extra_rows, extra_offsets, _ = assemble_vstack(
        degree, decay, data, initial, unsafe)
    stack, stack_offsets = dense(system)
    assert stack.tobytes() == np.vstack([rows, extra_rows]).tobytes()
    assert stack_offsets.tobytes() == np.concatenate([offsets, extra_offsets]).tobytes()
    # the flow rows times the polynomial's coefficients are its flow expression
    flow = slice(*np.cumsum(system.family_sizes)[1:3])
    np.testing.assert_allclose(stack[flow, 1:] @ certificate.coefficients,
                               sample_values(certificate, data), rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(degree=st.integers(0, 6), count=st.integers(0, 40), draw=st.data())
def test_sample_values_are_the_flow_expression_at_each_pair(degree, count, draw):
    coefficients = np.array(draw.draw(st.lists(st.floats(-100.0, 100.0), min_size=degree + 1,
                                               max_size=degree + 1)))
    decay = draw.draw(st.floats(1e-3, 1.0))
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
    states = rng.uniform(DOMAIN.lower, DOMAIN.upper, count)
    data = Dataset(states, rng.uniform(-3.0, 3.0, count), SCHEME_IID, DOMAIN, seed=0)
    flow = sample_values(BarrierCertificate(coefficients, decay, 0.0, 1.0), data)
    assert flow.shape == (count,)
    after = basis_matrix_repeated(data.successors, degree)
    before = basis_matrix_repeated(data.states, degree)
    expected = after @ coefficients - decay * (before @ coefficients)
    # a few roundings of each term, far below this bound
    scale = np.abs(after) @ np.abs(coefficients) + decay * (np.abs(before) @ np.abs(coefficients))
    assert (np.abs(flow - expected) <= 1e-12 * scale).all()


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("exponents", GAPPED_TEMPLATES, ids=str)
def test_basis_matrix_equals_repeated_multiplication_on_templates_with_gaps(exponents, strided):
    certificate = _gapped_certificate(exponents, 0.83)
    data = _strided_dataset(23, 5)
    states = data.states if strided else np.array(data.states)
    basis = basis_matrix(states, certificate.degree)
    assert basis.tobytes() == basis_matrix_repeated(states, certificate.degree).tobytes()
    # the polynomial evaluates as the sum over the powers it keeps
    kept = sum((i + 1.0) * states**e for i, e in enumerate(exponents))
    np.testing.assert_allclose(certificate.evaluate(states), kept, rtol=1e-13)
    # the input is read, never written
    assert np.array_equal(states, data.states)


@pytest.mark.parametrize("exponent", [2.7, 2.0, "2", True, None, np.float64(2.0), np.bool_(True)],
                         ids=["fraction", "float", "string", "bool", "null", "numpy-float",
                              "numpy-bool"])
def test_template_exponents_must_be_integers(exponent):
    message = re.escape(f"template degree must be a non-negative integer, got {exponent!r}")
    with pytest.raises(ValueError, match=message):
        basis_matrix(np.array([1.0]), exponent)
    with pytest.raises(ValueError, match=message):
        bernstein_rows(exponent, INITIAL)
    message = re.escape(f"template exponents must be integers, got {exponent!r}")
    with pytest.raises(TypeError, match=message):
        BarrierCertificate.from_dict({**quadratic_certificate(0.3, -1.0, 2.5).to_dict(),
                                      "template": {"exponents": [[exponent], [1], [0]]}})


def test_template_accepts_numpy_integers():
    assert basis_matrix(np.array([2.0]), np.int64(2)).tolist() == [[4.0, 2.0, 1.0]]
    assert bernstein_rows(np.int32(0), INITIAL).tolist() == [[1.0]]
    system = assemble(np.int64(2), 0.83, _toy_dataset(2), INITIAL, UNSAFE)
    assert dense(system)[0].shape == (3 + 3 + 2 + 8 + 1, 4)


# One field of a saved certificate given as something other than a JSON number of its kind.
CERTIFICATE_EDITS = {
    "fractional-exponent": ("template", {"exponents": [[2.7], [1], [0]]},
                            "template exponents must be integers, got 2.7"),
    "quoted-exponent": ("template", {"exponents": [["2"], [1], [0]]},
                        "template exponents must be integers, got '2'"),
    "boolean-exponent": ("template", {"exponents": [[True], [1], [0]]},
                         "template exponents must be integers, got True"),
    "quoted-coefficient": ("coefficients", ["1.0", -1.0, 2.5],
                           "certificate coefficients entries must be real numbers, got '1.0'"),
    "boolean-coefficient": ("coefficients", [0.3, False, 2.5],
                            "certificate coefficients entries must be real numbers, got False"),
    "quoted-decay": ("decay", "0.99", "certificate decay must be a real number, got '0.99'"),
    "boolean-decay": ("decay", True, "certificate decay must be a real number, got True"),
    "quoted-initial-level": ("initial_level", "-3",
                             "certificate initial_level must be a real number, got '-3'"),
    "null-unsafe-level": ("unsafe_level", None,
                          "certificate unsafe_level must be a real number, got None"),
    "boolean-unsafe-level": ("unsafe_level", False,
                             "certificate unsafe_level must be a real number, got False"),
}


@pytest.mark.parametrize("edit", sorted(CERTIFICATE_EDITS))
def test_certificate_from_dict_refuses_what_is_not_a_number_of_its_kind(edit):
    key, value, message = CERTIFICATE_EDITS[edit]
    data = quadratic_certificate(0.3, -1.0, 2.5, initial_level=-3.0, unsafe_level=0.5).to_dict()
    data[key] = value
    with pytest.raises((TypeError, ValueError), match=re.escape(message)):
        BarrierCertificate.from_dict(data)


def test_certificate_from_dict_accepts_integer_numbers():
    data = {"template": {"exponents": [[1], [0]]}, "coefficients": [1, -2],
            "decay": 1, "initial_level": 0, "unsafe_level": 3}
    cert = BarrierCertificate.from_dict(data)
    assert cert.coefficients.tolist() == [1.0, -2.0]
    assert (cert.decay, cert.initial_level, cert.unsafe_level) == (1.0, 0.0, 3.0)
    assert all(type(v) is float for v in (cert.decay, cert.initial_level, cert.unsafe_level))


# ------------------------------------------- row by row: basis_matrix and assemble


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("degree", [0, 1, 2, 5])
def test_blocked_passes_match_whole_array_passes(block, degree):
    # every row depends on its own pair alone: the passes over the pairs cut
    # into blocks of `block`, stacked, equal the passes over all of them
    rng = np.random.default_rng(block * 10 + degree)
    # a block short, on its edge, one past it and one into a third block
    for count in (block - 1, block, block + 1, 2 * block + 1):
        states = rng.uniform(DOMAIN.lower, DOMAIN.upper, count)
        data = Dataset(states, rng.uniform(-3.0, 3.0, count), SCHEME_IID, DOMAIN, seed=0)
        whole = assemble(degree, 0.83, data, INITIAL, UNSAFE)
        cuts = range(0, count, block)
        pieces = [Dataset(states[at:at + block], data.successors[at:at + block], SCHEME_IID,
                          DOMAIN, seed=0) for at in cuts]
        basis = [basis_matrix(states[at:at + block], degree) for at in cuts]
        flows = [assemble(degree, 0.83, piece, INITIAL, UNSAFE).flow for piece in pieces]
        assert np.vstack(basis + [np.empty((0, degree + 1))]).tobytes() == \
            basis_matrix(states, degree).tobytes()
        assert np.vstack(flows + [np.empty((0, degree))]).tobytes() == \
            whole.flow.tobytes()


@pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("successor", [1e200, np.nan])
def test_a_block_names_the_first_pair_whose_flow_row_is_not_finite(block, successor):
    # every pair from `first` on is bad, in a dataset of 3 * block + 1 pairs
    data = _toy_dataset(3 * block + 1)
    ys = data.successors.copy()
    first = block + 1
    ys[first:] = successor
    data = Dataset(data.states, ys, SCHEME_IID, DOMAIN, seed=0)
    message = (f"the flow row of state {float(data.states[first])!r} and successor"
               f" {successor!r} is not finite at degree 2")
    with np.errstate(all="raise"):
        with pytest.raises(PhysbcError, match=re.escape(message)):
            assemble(2, 0.83, data, INITIAL, UNSAFE)


def test_assemble_holds_its_flow_columns_and_two_power_columns():
    rng = np.random.default_rng(12)
    count = 300_000
    states = rng.uniform(DOMAIN.lower, DOMAIN.upper, count)
    data = Dataset(states, supply_demand().step_many(states), SCHEME_IID, DOMAIN, seed=0)
    tracemalloc.start()
    try:
        system = assemble(2, 0.83, data, INITIAL, UNSAFE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the flow rows are their two varying columns, 16 bytes a pair, no
    # (N, 4) stack of 32; the powers x^2 and y^2 and the finiteness mask
    # are all that is held beside them while they are written
    assert system.flow.shape == (count, 2) and system.flow.flags.f_contiguous
    assert system.flow.nbytes == 16 * count
    assert peak - system.flow.nbytes < 2 * states.nbytes + 2 * count + 64 * 1024
    # the stack, 40 bytes a pair with its offsets, bounded the former peak
    assert peak < 40 * count
