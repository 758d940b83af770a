import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assemble_vstack, basis_matrix_pow, basis_matrix_repeated
from physbc.barrier import (
    DEFAULT_INITIAL_LEVEL,
    FAMILIES,
    BarrierCertificate,
    BarrierTemplate,
    assemble,
    check_certificate,
    sample_values,
)
from physbc.errors import RegionViolationError
from physbc.models import RegionBox, supply_demand
from physbc.sampling import SCHEME_IID, Dataset

DOMAIN = RegionBox.interval(0.5, 2.7)
INITIAL = RegionBox.interval(0.5, 0.6)
UNSAFE = RegionBox.interval(2.6, 2.7)


def _toy_dataset(count=6):
    model = supply_demand()
    xs = np.linspace(0.6, 2.4, count)[:, None]
    return Dataset(xs, model.step_many(xs), SCHEME_IID, DOMAIN, seed=0)


def quadratic_certificate(q2, q1, q0, initial_level=0.0, unsafe_level=1.0, decay=0.83):
    return BarrierCertificate(
        template=BarrierTemplate.quadratic(1),
        coefficients=np.array([q2, q1, q0]),
        decay=decay,
        initial_level=initial_level,
        unsafe_level=unsafe_level,
    )


# ---------------------------------------------------------------- templates


def test_degree_two_template_is_quadratic_basis():
    template = BarrierTemplate.from_degree(2, 1)
    assert template.exponents == ((2,), (1,), (0,))
    assert template.size == 3 and template.dimension == 1


def test_two_dimensional_template_ordering():
    template = BarrierTemplate.from_degree(2, 2)
    assert template.exponents == ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))


def test_template_validation():
    with pytest.raises(ValueError):
        BarrierTemplate(())
    with pytest.raises(ValueError):
        BarrierTemplate(((1,), (1, 0)))
    with pytest.raises(ValueError):
        BarrierTemplate(((1,), (1,)))
    with pytest.raises(ValueError):
        BarrierTemplate(((-1,),))
    with pytest.raises(ValueError):
        BarrierTemplate.from_degree(-1, 1)


def test_basis_matrix_values():
    template = BarrierTemplate.quadratic(1)
    basis = template.basis_matrix(np.array([[2.0], [0.5]]))
    assert basis == pytest.approx(np.array([[4.0, 2.0, 1.0], [0.25, 0.5, 1.0]]))
    with pytest.raises(ValueError):
        template.basis_matrix(np.zeros((2, 2)))


# 0, -0, +-1 and values whose fourth power stays a normal float, so neither
# kernel rounds into the subnormal range
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=-1e3, max_value=1e3).filter(lambda v: abs(v) >= 1e-50),
)


@settings(max_examples=300, deadline=None)
@given(degree=st.integers(0, 4), dimension=st.integers(1, 3), draw=st.data())
def test_basis_matrix_is_repeated_multiplication(degree, dimension, draw):
    template = BarrierTemplate.from_degree(degree, dimension)
    states = np.array(draw.draw(st.lists(
        st.lists(_COORD, min_size=dimension, max_size=dimension), min_size=1, max_size=6)))
    basis = template.basis_matrix(states)
    assert basis.shape == (len(states), template.size)
    assert basis.tobytes() == basis_matrix_repeated(template, states).tobytes()
    # at most degree - 1 roundings here, about one per factor in the pow kernel
    np.testing.assert_allclose(basis, basis_matrix_pow(template, states),
                               rtol=4 * degree * np.finfo(float).eps, atol=0.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(degree=st.integers(0, 4), dimension=st.integers(1, 3), draw=st.data())
def test_basis_matrix_constant_monomial_is_one_for_any_state(degree, dimension, draw):
    template = BarrierTemplate.from_degree(degree, dimension)
    special = st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -2.5])
    states = np.array(draw.draw(st.lists(
        st.lists(special, min_size=dimension, max_size=dimension), min_size=1, max_size=6)))
    basis = template.basis_matrix(states)
    constant = [j for j, row in enumerate(template.exponents) if not any(row)]
    assert constant == [template.size - 1]
    assert np.all(basis[:, constant] == 1.0)
    assert np.all(basis_matrix_pow(template, states)[:, constant] == 1.0)
    assert np.array_equal(basis, basis_matrix_repeated(template, states), equal_nan=True)


def test_template_dict_round_trip():
    template = BarrierTemplate.from_degree(3, 2)
    assert BarrierTemplate.from_dict(template.to_dict()).exponents == template.exponents


# ------------------------------------------------------------- certificates


def test_certificate_evaluation():
    cert = quadratic_certificate(0.2, 0.8097, -15.5199)
    assert cert.evaluate(np.array([0.5])) == pytest.approx(-15.06505)
    batch = cert.evaluate(np.array([[0.5], [1.0]]))
    assert batch == pytest.approx([-15.06505, -14.5102])
    assert isinstance(cert.evaluate(np.array([0.5])), float)


def test_certificate_validation():
    template = BarrierTemplate.quadratic(1)
    with pytest.raises(ValueError):
        BarrierCertificate(template, np.array([1.0, 2.0]), 0.83, 0.0, 1.0)
    with pytest.raises(ValueError):
        BarrierCertificate(template, np.zeros(3), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BarrierCertificate(template, np.zeros(3), 1.2, 0.0, 1.0)


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
    assert back.template.exponents == cert.template.exponents
    assert np.array_equal(back.coefficients, cert.coefficients)
    assert back.decay == cert.decay
    assert back.initial_level == cert.initial_level
    assert back.unsafe_level == cert.unsafe_level


# ------------------------------------------------------------------ assembly


def test_assemble_row_structure():
    data = _toy_dataset(4)
    template = BarrierTemplate.quadratic(1)
    x0 = np.array([[0.5], [0.6]])
    xu = np.array([[2.6], [2.7]])
    system = assemble(template, 0.83, data, x0, xu,
                      domain=DOMAIN, initial_region=INITIAL, unsafe_region=UNSAFE)

    assert system.counts == {"initial": 2, "unsafe": 2, "flow": 4}
    # then 2 bound rows per decision entry and the level-gap row
    assert system.family_sizes == (2, 2, 4, 8, 1)
    assert system.rows.shape == (17, 4)
    assert system.initial_level == DEFAULT_INITIAL_LEVEL

    # initial rows:  B(x) - initial_level <= slack, pin folded into the offset
    assert system.rows[0] == pytest.approx([0.0, 0.25, 0.5, 1.0])
    assert system.offsets[:2] == pytest.approx([-DEFAULT_INITIAL_LEVEL] * 2)
    # unsafe rows:   unsafe_level - B(x) <= slack
    assert system.rows[2] == pytest.approx([1.0, -(2.6 ** 2), -2.6, -1.0])
    # flow rows:     B(y) - decay B(x) <= slack
    x, y = data.states[0, 0], data.successors[0, 0]
    expected = [0.0, y * y - 0.83 * x * x, y - 0.83 * x, 1.0 - 0.83]
    assert system.rows[4] == pytest.approx(expected)
    assert np.all(system.offsets[2:8] == 0.0)


def test_assemble_auxiliary_rows():
    data = _toy_dataset(3)
    template = BarrierTemplate.quadratic(1)
    system = assemble(template, 0.83, data, np.array([[0.55]]), np.array([[2.65]]),
                      coeff_bound=50.0, initial_level=2e-3)
    width = system.decision_size
    assert width == 4
    assert system.family_sizes == (1, 1, 3, 2 * width, 1)
    bounds = system.rows[5:-1]
    assert np.all(system.offsets[5:-1] == -50.0)
    # each decision entry gets a +e_j and a -e_j row
    assert bounds[0::2] == pytest.approx(np.eye(width))
    assert bounds[1::2] == pytest.approx(-np.eye(width))
    # the gap row reads initial_level - unsafe_level <= slack
    assert system.rows[-1] == pytest.approx([-1.0, 0.0, 0.0, 0.0])
    assert system.offsets[-1] == pytest.approx(2e-3)


def test_assemble_can_omit_auxiliary_rows():
    data = _toy_dataset(3)
    template = BarrierTemplate.quadratic(1)
    system = assemble(template, 0.83, data, np.array([[0.55]]), np.array([[2.65]]),
                      coeff_bound=None, level_gap_row=False)
    assert system.family_sizes == (1, 1, 3, 0, 0)
    assert system.rows.shape == (5, system.decision_size)
    assert system.offsets.shape == (5,)


STACK_CASES = {
    "default": dict(),
    "no-aux": dict(coeff_bound=None, level_gap_row=False),
    "bounds-only": dict(coeff_bound=7.0, level_gap_row=False),
    "gap-only": dict(coeff_bound=None, initial_level=3e-3),
}


def _stack_case(case, dimension):
    """One assembled system and its ``assemble_vstack`` oracle."""
    options = STACK_CASES[case]
    rng = np.random.default_rng(dimension)
    box = RegionBox(np.zeros(dimension), np.full(dimension, 3.0))
    states = rng.uniform(0.0, 3.0, size=(50, dimension))
    data = Dataset(states, 0.9 * states + 0.1, SCHEME_IID, box, seed=0)
    template = BarrierTemplate.from_degree(3, dimension)
    x0 = rng.uniform(0.0, 0.5, size=(4, dimension))
    xu = rng.uniform(2.5, 3.0, size=(6, dimension))
    system = assemble(template, 0.83, data, x0, xu, **options)
    return system, assemble_vstack(template, 0.83, data, x0, xu, **options)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_assemble_writes_one_stack_equal_to_vstack(case, dimension):
    system, expected = _stack_case(case, dimension)
    rows, offsets, tags, extra_rows, extra_offsets, extra_tags = expected
    assert np.array_equal(system.rows, np.vstack([rows, extra_rows]))
    assert np.array_equal(system.offsets, np.concatenate([offsets, extra_offsets]))
    # a row's family is its position: the per-row tags follow from the sizes
    assert np.array_equal(np.repeat(FAMILIES, system.family_sizes),
                          np.concatenate([tags, extra_tags]))
    assert system.counts == {"initial": 4, "unsafe": 6, "flow": 50}
    assert not system.rows.flags.writeable and not system.offsets.flags.writeable


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_family_counts_match_tag_tally(case, dimension):
    system, expected = _stack_case(case, dimension)
    tags = np.concatenate([expected[2], expected[5]])
    rng = np.random.default_rng([dimension, len(tags)])
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
    template = BarrierTemplate.quadratic(1)
    system = assemble(template, 0.83, data, np.array([[0.5]]), np.array([[2.7]]),
                      initial_level=0.01)
    cert = system.certificate_from_decision(np.array([1.5, 0.2, 0.8, -1.0]))
    assert cert.initial_level == 0.01
    assert cert.unsafe_level == 1.5
    assert cert.coefficients == pytest.approx([0.2, 0.8, -1.0])
    assert cert.decay == 0.83


def test_assemble_validates_region_membership():
    data = _toy_dataset(2)
    template = BarrierTemplate.quadratic(1)
    with pytest.raises(RegionViolationError, match="initial sample row 1"):
        assemble(template, 0.83, data, np.array([[0.55], [0.9]]), np.array([[2.65]]),
                 initial_region=INITIAL, unsafe_region=UNSAFE)
    with pytest.raises(RegionViolationError, match="unsafe"):
        assemble(template, 0.83, data, np.array([[0.55]]), np.array([[2.0]]),
                 initial_region=INITIAL, unsafe_region=UNSAFE)


def test_assemble_warns_on_empty_sample_families():
    data = _toy_dataset(2)
    template = BarrierTemplate.quadratic(1)
    with pytest.warns(UserWarning, match="zero unsafe"):
        assemble(template, 0.83, data, np.array([[0.55]]), np.empty((0, 1)))
    with pytest.warns(UserWarning, match="zero initial"):
        assemble(template, 0.83, data, np.empty((0, 1)), np.array([[2.65]]))


def test_assemble_rejects_bad_decay_and_bound():
    data = _toy_dataset(2)
    template = BarrierTemplate.quadratic(1)
    for decay in (0.0, 1.5):
        with pytest.raises(ValueError):
            assemble(template, decay, data, np.array([[0.55]]), np.array([[2.65]]))
    with pytest.raises(ValueError):
        assemble(template, 0.83, data, np.array([[0.55]]), np.array([[2.65]]),
                 coeff_bound=-1.0)
    with pytest.raises(ValueError):
        assemble(template, 0.83, data, np.array([[0.55]]), np.array([[2.65]]),
                 initial_level=0.0)


# ------------------------------------------------------------------ residuals


def test_residuals_separate_the_three_families():
    # B(x) = x with levels chosen so each family has a known worst case
    cert = quadratic_certificate(0.0, 1.0, 0.0, initial_level=0.55, unsafe_level=2.66,
                                 decay=1.0)
    model = supply_demand()
    xs = np.array([[1.0], [2.0]])
    data = Dataset(xs, model.step_many(xs), SCHEME_IID, DOMAIN, seed=0)
    report = check_certificate(
        cert, 1e-9, sample_values(cert, data),
        initial_samples=np.array([[0.5], [0.6]]),
        unsafe_samples=np.array([[2.6], [2.7]]),
    )
    assert report.initial_max == pytest.approx(0.6 - 0.55)
    assert report.unsafe_max == pytest.approx(2.66 - 2.6)
    # flow rows: (0.8 x + 0.5) - x peaks at the smaller state
    assert report.flow_max == pytest.approx(0.3)
    assert report.worst == pytest.approx(0.3)
    assert report.passes_at(0.3)
    assert not report.passes_at(0.29)
    assert report.definition_ok


def test_residuals_with_empty_families():
    cert = quadratic_certificate(0.0, 1.0, 0.0)
    model = supply_demand()
    xs = np.array([[1.0]])
    data = Dataset(xs, model.step_many(xs), SCHEME_IID, DOMAIN, seed=0)
    report = check_certificate(cert, 1e-9, sample_values(cert, data), np.empty((0, 1)),
                               np.empty((0, 1)))
    assert report.initial_max == float("-inf")
    assert report.unsafe_max == float("-inf")
    assert np.isfinite(report.flow_max)


def test_residual_report_serialises():
    cert = quadratic_certificate(0.0, 1.0, 0.0)
    model = supply_demand()
    xs = np.array([[1.0], [1.5]])
    data = Dataset(xs, model.step_many(xs), SCHEME_IID, DOMAIN, seed=0)
    report = check_certificate(cert, 1e-6, sample_values(cert, data), np.array([[0.5]]),
                               np.array([[2.7]]))
    d = report.to_dict()
    assert set(d) == {"initial_max", "unsafe_max", "flow_max", "definition_ok", "tolerance"}
    assert d["tolerance"] == 1e-6
